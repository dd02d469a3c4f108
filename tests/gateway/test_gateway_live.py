"""The live gateway over a real cluster: sockets, packed frames, /metrics.

One shared scenario starts a chaos-free three-node lock-service cluster,
fronts it with a :class:`GatewayServer` (TCP listener + metrics endpoint),
and exercises every downstream face — the in-process submit API, raw
packed frames over the front-end socket, and an HTTP metrics scrape —
before the read-only assertions pick the facts apart.
"""

import asyncio
import json
import zlib

import pytest

from repro.gateway import GatewayConfig, GatewayServer, LoadgenConfig, run_live
from repro.net import ClusterConfig
from repro.net.cluster import ClusterSupervisor
from repro.net.codec import (
    MAGIC,
    WIRE_VERSION,
    Decoder,
    T_REQ,
    T_RSP,
    encode_hello,
    encode_request,
)
from repro.sim import ring


def make_cluster_config(**overrides):
    defaults = dict(
        topology=ring(3),
        topology_spec="ring:3",
        seed=1,
        tick_interval=0.005,
        chaos=False,
        lock_service=True,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


async def _read_frames(reader, decoder, want, timeout=5.0):
    """Collect ``want`` decoded frames from the socket or time out."""
    frames = []
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while len(frames) < want:
        remaining = deadline - loop.time()
        if remaining <= 0:
            raise asyncio.TimeoutError(f"got {len(frames)}/{want} frames")
        data = await asyncio.wait_for(reader.read(65536), remaining)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


async def _scrape(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: gw\r\n\r\n")
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(-1), 5.0)
    writer.close()
    return raw.decode("utf-8", "replace")


async def _scenario():
    facts = {}
    supervisor = ClusterSupervisor(make_cluster_config())
    await supervisor.start(10.0)
    pids = list(supervisor.config.topology.nodes)
    gateway = GatewayServer(
        GatewayConfig(
            upstream_addrs=[
                ("127.0.0.1", supervisor.nodes[pid].port) for pid in pids
            ],
            node_labels=[repr(pid) for pid in pids],
            upstreams_per_node=2,
            max_upstreams=8,
            gateway_id="gw",
            listen_host="127.0.0.1",
            metrics_port=0,
        )
    )
    await gateway.start()
    try:
        # Face 1: the in-process API, one full acquire/release cycle.
        grant = await gateway.request("alice", 0, "acquire")
        facts["inproc_grant"] = (grant.ok, grant.error, grant.wait_s)
        done = await gateway.request("alice", 0, "release")
        facts["inproc_release_ok"] = done.ok

        # Face 2: raw packed frames over the TCP front end.  Logical
        # client "bob" rides a shared socket; ids follow the
        # ``client.seq`` stem convention the gateway uses for fairness.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", gateway.listen_port
        )
        decoder = Decoder()
        writer.write(encode_hello("fleet-conn", role="client"))
        writer.write(encode_request("acquire", "bob.1", node=1))
        rsp = (await _read_frames(reader, decoder, 1))[0]
        facts["tcp_rsp"] = (rsp.type, dict(rsp.body))
        writer.write(encode_request("release", "bob.2", node=1))
        rsp2 = (await _read_frames(reader, decoder, 1))[0]
        facts["tcp_release"] = dict(rsp2.body)

        # A CRC-valid request naming no op (code 9) is garbage to the
        # decoder, so nothing is admitted for it, nothing can fail to
        # encode upstream, and the next logical client on the shared
        # socket is served as if it had never been sent.
        bad = bytes((9, 1, 0, 0, 9)) + b"mallory.1"
        writer.write(
            MAGIC
            + bytes((WIRE_VERSION, T_REQ))
            + len(bad).to_bytes(4, "big")
            + zlib.crc32(bad).to_bytes(4, "big")
            + bad
        )
        writer.write(encode_request("acquire", "carol.1", node=2))
        rsp3 = (await _read_frames(reader, decoder, 1))[0]
        facts["tcp_after_bad_op"] = dict(rsp3.body)
        writer.write(encode_request("release", "carol.2", node=2))
        await _read_frames(reader, decoder, 1)
        facts["after_bad_op"] = {
            "socket_open": not reader.at_eof(),
            "pending": gateway.mux.pending_count(),
            "in_flight": sum(
                gateway.mux.admission.in_flight(slot)
                for slot in range(gateway.mux.upstream_count)
            ),
        }

        # A request naming no node gets a typed refusal, not a hang.
        writer.write(encode_request("acquire", "dave.1"))
        rsp4 = (await _read_frames(reader, decoder, 1))[0]
        facts["tcp_bad"] = dict(rsp4.body)
        # Nor may a node index past the cluster be answered as a retry.
        writer.write(encode_request("acquire", "erin.1", node=99))
        rsp5 = (await _read_frames(reader, decoder, 1))[0]
        facts["tcp_bad_node"] = dict(rsp5.body)
        writer.close()
        bad_node = await gateway.request("erin", 99, "acquire")
        facts["inproc_bad_node"] = (bad_node.ok, bad_node.error)

        # Face 3: the metrics endpoint.
        facts["metrics_text"] = await _scrape(
            "127.0.0.1", gateway.metrics_port
        )
        facts["batch"] = gateway.batch_counters()
        facts["counters"] = gateway.mux.counters()
    finally:
        await gateway.stop()
        await supervisor.stop()
    return facts


@pytest.fixture(scope="module")
def facts():
    return asyncio.run(_scenario())


class TestInProcessFace:
    def test_acquire_grants(self, facts):
        ok, error, wait_s = facts["inproc_grant"]
        assert ok and error is None
        assert wait_s >= 0

    def test_release_settles(self, facts):
        assert facts["inproc_release_ok"]


class TestTcpFace:
    def test_binary_request_gets_binary_grant(self, facts):
        frame_type, body = facts["tcp_rsp"]
        assert frame_type == T_RSP
        assert body["id"] == "bob.1" and body["ok"] is True

    def test_binary_release_acknowledged(self, facts):
        assert facts["tcp_release"]["id"] == "bob.2"
        assert facts["tcp_release"]["ok"] is True

    def test_unknown_op_is_garbage_not_a_crash(self, facts):
        # Regression: a JSON ``T_REQ`` with op "steal" used to be admitted,
        # then blow up encoding upstream — closing the shared socket and
        # leaking a mux entry and an admission slot for good.
        body = facts["tcp_after_bad_op"]
        assert body["id"] == "carol.1" and body["ok"] is True
        assert facts["after_bad_op"] == {
            "socket_open": True, "pending": 0, "in_flight": 0,
        }

    def test_malformed_request_refused_typed(self, facts):
        assert facts["tcp_bad"]["ok"] is False
        assert facts["tcp_bad"]["error"] == "bad-request"
        assert facts["tcp_bad_node"]["ok"] is False
        assert facts["tcp_bad_node"]["error"] == "bad-request"
        assert facts["inproc_bad_node"] == (False, "bad-request")
        assert sum(facts["counters"]["shed"].values()) == 0


class TestGauges:
    def test_metrics_endpoint_serves_gateway_gauges(self, facts):
        text = facts["metrics_text"]
        assert "HTTP/1.1 200" in text
        assert "repro_gateway_uptime_seconds" in text
        assert "repro_gateway_upstreams 6" in text
        assert "repro_gateway_admitted_total" in text
        assert "repro_gateway_batch_frames_total" in text

    def test_upstream_batching_counted(self, facts):
        batch = facts["batch"]
        assert batch["upstream_frames"] >= 6  # 3 cycles x (acquire+release)
        assert batch["upstream_flushes"] >= 1
        assert batch["dials"] == 6

    def test_mux_accounting_settles(self, facts):
        counters = facts["counters"]
        assert counters["grants"] >= 3
        assert counters["pending"] == 0
        assert counters["failures"] == 0


@pytest.fixture(scope="module")
def live_run():
    """One small fleet through ``run_live``, keeping its supervisor."""
    import repro.net.cluster as cluster

    made = []

    class KeptSupervisor(cluster.ClusterSupervisor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    config = LoadgenConfig(
        clients=40, nodes=3, topology="ring:3", seed=5,
        duration_s=1.2, think_s=0.05, hold_s=0.005,
        upstreams_per_node=2,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster, "ClusterSupervisor", KeptSupervisor)
        report, result, violations = asyncio.run(
            run_live(config, make_cluster_config())
        )
    return config, made[0], report, result, violations


class TestRunLive:
    def test_small_fleet_end_to_end(self, live_run):
        _, _, report, result, violations = live_run
        assert violations == []
        assert report["kind"] == "loadgen-report"
        assert report["spec"]["engine"] == "live"
        results = report["results"]
        assert results["grants"] > 0
        assert results["safety"]["mode"] == "live"
        assert results["safety"]["violations"] == 0
        assert results["safety"]["audited_events"] > 0
        assert results["batching"]["upstream_frames"] > 0
        # The audit consumed the cluster's own event stream.
        assert any(e.get("event") == "net-grant" for e in result.events)
        # The report is JSON-serialisable as written.
        json.dumps(report)

    def test_audit_reads_the_supervisors_fold(self, live_run):
        # run_live audits the supervisor's fold, as soak does; re-folding
        # the recorded event log must give the same intervals.
        from repro.net.lock import hold_intervals

        config, supervisor, _, result, _ = live_run
        folded = supervisor.lock_state.hold_intervals(config.duration_s)
        assert folded == hold_intervals(result.events, end_t=config.duration_s)
        assert sum(len(spans) for spans in folded.values()) > 0
