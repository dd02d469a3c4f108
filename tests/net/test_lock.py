"""Lock-service semantics: the safety audit, a small live soak, and
regression tests for the client's failure paths."""

import asyncio
import json
import math

import pytest

from repro.net import (
    DEFAULT_ACQUIRE_TIMEOUT,
    ClusterConfig,
    ClusterSupervisor,
    LockClient,
    LockError,
    hold_intervals,
    neighbour_violations,
    soak,
)
from repro.obs.events import NetEventKind
from repro.obs.slo import exclusion_audit, log_end_t
from repro.sim import ring
from repro.sim.trace import TraceEvent


def grant(node, t):
    return {"event": "net-grant", "node": node, "t": t}


def release(node, t):
    return {"event": "net-release", "node": node, "t": t}


class TestHoldIntervals:
    def test_pairs_fold_into_spans(self):
        events = [grant("0", 1.0), release("0", 2.0), grant("0", 3.0),
                  release("0", 3.5)]
        assert hold_intervals(events, end_t=5.0) == {
            "0": [(1.0, 2.0), (3.0, 3.5)]
        }

    def test_open_grant_closes_at_end(self):
        assert hold_intervals([grant("0", 4.0)], end_t=5.0) == {"0": [(4.0, 5.0)]}

    def test_duplicate_release_ignored(self):
        events = [grant("0", 1.0), release("0", 2.0), release("0", 2.5)]
        assert hold_intervals(events, end_t=5.0) == {"0": [(1.0, 2.0)]}

    def test_out_of_order_stream_sorted(self):
        events = [release("0", 2.0), grant("0", 1.0)]
        assert hold_intervals(events, end_t=5.0) == {"0": [(1.0, 2.0)]}

    def test_foreign_events_skipped(self):
        events = [{"event": "net-send", "node": "0", "t": 1.0}, grant("1", 2.0)]
        assert hold_intervals(events, end_t=5.0) == {"1": [(2.0, 5.0)]}

    #: Node 0 releases and re-acquires within one rounded microsecond, then
    #: holds across node 1's meal: ordering the tie by event name puts the
    #: grant first and the second hold — and the violation — vanish.
    TIED = [grant("0", 1.0), release("0", 2.0), grant("0", 2.0),
            grant("1", 2.5), release("1", 2.6), release("0", 3.0)]

    def test_equal_times_keep_arrival_order(self):
        intervals = hold_intervals(self.TIED, end_t=5.0)
        assert intervals == {"0": [(1.0, 2.0), (2.0, 3.0)], "1": [(2.5, 2.6)]}
        assert len(neighbour_violations(ring(3), intervals)) == 1

    def test_the_run_log_keeps_arrival_order_too(self):
        supervisor = ClusterSupervisor(ClusterConfig(
            topology=ring(3), topology_spec="ring:3", lock_service=True,
        ))
        kinds = {"net-grant": NetEventKind.GRANT,
                 "net-release": NetEventKind.RELEASE}
        for seq, row in enumerate(self.TIED):
            supervisor.bus.publish(TraceEvent(
                seq, kinds[row["event"]], int(row["node"]), {"t": row["t"]}
            ))
        events = supervisor.result(5.0).events
        assert [dict(e) for e in events] == self.TIED
        # soak audits the supervisor's own fold; it must read as the log does.
        assert supervisor.lock_state.hold_intervals(5.0) == hold_intervals(
            events, end_t=5.0
        )


class TestNeighbourViolations:
    topo = ring(3)

    def test_overlap_on_an_edge_is_flagged(self):
        intervals = {"0": [(1.0, 3.0)], "1": [(2.0, 4.0)], "2": []}
        violations = neighbour_violations(self.topo, intervals)
        assert len(violations) == 1
        v = violations[0]
        assert {v.node_a, v.node_b} == {"0", "1"}
        assert (v.overlap_start, v.overlap_end) == (2.0, 3.0)

    def test_disjoint_holds_are_safe(self):
        intervals = {"0": [(1.0, 2.0)], "1": [(2.0, 3.0)], "2": [(3.0, 4.0)]}
        assert neighbour_violations(self.topo, intervals) == []

    def test_excluded_nodes_are_not_audited(self):
        intervals = {"0": [(1.0, 3.0)], "1": [(2.0, 4.0)], "2": []}
        assert neighbour_violations(self.topo, intervals, exclude=["1"]) == []


class TestAuditEndRule:
    """One audit, one end rule: a hold still open at the end of the log
    closes at the run's ``duration_s``, live and offline alike."""

    #: ring:3, header ``duration_s: 5``; node 1's grant is the last row.
    ROWS = [grant("0", 1.0), grant("1", 2.0)]

    @pytest.fixture
    def log(self, tmp_path):
        from repro.artefact import KINDS, write_jsonl

        header = {"format": KINDS["events"].format, "source": "soak-events",
                  "topology": "ring:3", "duration_s": 5}
        return write_jsonl(tmp_path / "run.events", "events", header,
                           ({"kind": "event", **row} for row in self.ROWS))

    def test_live_audit_closes_at_the_duration(self):
        supervisor = ClusterSupervisor(ClusterConfig(
            topology=ring(3), topology_spec="ring:3", lock_service=True,
        ))
        for seq, row in enumerate(self.ROWS):
            supervisor.bus.publish(TraceEvent(
                seq, NetEventKind.GRANT, int(row["node"]), {"t": row["t"]}
            ))
        audit = exclusion_audit(supervisor.lock_state, 5.0)
        assert [(v.overlap_start, v.overlap_end) for v in audit.violations] == [
            (2.0, 5.0)
        ]

    def test_repro_slo_counts_the_same_overlap(self, log, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "slo.json"
        assert main(["slo", "examples/slo.json", str(log), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["observations"]["violations"] == 1
        assert report["exhausted"] == ["safety"]

    def test_repro_timeline_reconstructs_it(self, log, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.tracing import SpanRecorder, write_spans

        spans = write_spans(tmp_path / "spans-0.jsonl", SpanRecorder("0"))
        assert main(["timeline", str(spans), "--events", str(log)]) == 0
        assert "violation: 0 ∦ 1 [2.000, 5.000]s" in capsys.readouterr().out

    def test_a_log_without_a_duration_ends_at_its_last_row(self):
        # The provisional log a run streams carries no duration_s yet.
        assert log_end_t({"duration_s": 5}, self.ROWS) == 5.0
        assert log_end_t({}, self.ROWS) == 2.0


class TestLiveSoak:
    def test_short_soak_is_safe_and_makes_progress(self):
        config = ClusterConfig(
            topology=ring(3),
            topology_spec="ring:3",
            seed=2,
            tick_interval=0.005,
            lock_service=True,
            chaos=True,
        )
        result = asyncio.run(soak(config, 1.5, hold_s=0.02))
        assert result.safe, result.violations
        assert result.intervals == hold_intervals(result.cluster.events, end_t=1.5)
        assert sum(c.acquired for c in result.clients) > 0
        survivors = [c for c in result.clients if c.node not in result.cluster.killed]
        assert all(c.errors == 0 for c in survivors)
        assert result.cluster.mode == "soak"


async def start_silent_server():
    """A peer that accepts and reads but never answers: from the client's
    point of view this is exactly a silent partition — the TCP connection
    stays open while every request disappears into the void."""

    async def swallow(reader, writer):
        try:
            while await reader.read(4096):
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(swallow, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class _ExplodingWriter:
    """Stands in for a StreamWriter whose socket just died under us."""

    def is_closing(self):
        return False

    def write(self, data):
        raise ConnectionResetError("wire gone")


class TestClientResilience:
    def test_default_acquire_timeout_is_finite(self):
        # acquire() must never hang forever by default: a silent partition
        # would otherwise wedge the caller with no exception at all.
        assert DEFAULT_ACQUIRE_TIMEOUT is not None
        assert math.isfinite(DEFAULT_ACQUIRE_TIMEOUT)
        assert DEFAULT_ACQUIRE_TIMEOUT > 0

    def test_acquire_over_silent_partition_fails_via_watchdog(self):
        async def scenario():
            server, port = await start_silent_server()
            client = LockClient(
                "127.0.0.1", port, reconnect=False, stall_timeout_s=0.3
            )
            await client.connect()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            try:
                with pytest.raises(LockError, match="stalled"):
                    # Generous acquire budget: the *watchdog* must be the
                    # thing that unblocks us, long before the timeout.
                    await client.acquire(timeout=30.0)
                return loop.time() - t0
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        elapsed = asyncio.run(scenario())
        assert elapsed < 5.0

    def test_acquire_timeout_caps_a_stalled_request(self):
        async def scenario():
            server, port = await start_silent_server()
            client = LockClient(
                "127.0.0.1", port, reconnect=True, stall_timeout_s=30.0
            )
            await client.connect()
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.acquire(timeout=0.4)
                return loop.time() - t0
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        elapsed = asyncio.run(scenario())
        assert elapsed < 5.0

    def test_request_id_not_burned_when_send_fails(self):
        async def scenario():
            client = LockClient("127.0.0.1", 1, reconnect=False)
            client._writer = _ExplodingWriter()
            before = client._next_id
            with pytest.raises(LockError, match="send failed"):
                client._request("acquire")
            # The refused send must leave no trace: same next id (no gap
            # in the grant/release audit trail) and no ghost pending entry.
            assert client._next_id == before
            assert client._pending == {}

        asyncio.run(scenario())

    def test_ids_are_epoch_prefixed_across_reconnects(self):
        async def scenario():
            server, port = await start_silent_server()
            client = LockClient(
                "127.0.0.1", port, client_id="c", reconnect=False
            )
            await client.connect()
            try:
                first, _ = client._request("acquire")
                assert first == "c.1.1"
                # Kill the link, then re-dial: the epoch must bump so ids
                # from the old life can never collide with new ones.
                client._writer.close()
                await asyncio.sleep(0.05)  # let the read loop observe EOF
                await client._open()
                second, _ = client._request("acquire")
                assert second == "c.2.2"
                assert client.epoch == 2
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
