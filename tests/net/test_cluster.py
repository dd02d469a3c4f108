"""Live cluster integration: real sockets, chaos, artefacts, stats CLI."""

import asyncio
import json

import pytest

from repro.cli import main
from repro.net import (
    ClusterConfig,
    ClusterSupervisor,
    read_cluster_events,
    run_cluster,
    write_cluster_events,
    write_cluster_metrics,
)
from repro.net.chaos import ChaosSchedule
from repro.net.codec import T_HELLO, WIRE_VERSION, encode_frame, encode_request
from repro.obs import read_metrics
from repro.sim import ring


def make_config(**overrides):
    defaults = dict(
        topology=ring(3),
        topology_spec="ring:3",
        seed=1,
        tick_interval=0.005,
        chaos=False,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run(config, duration=1.0):
    return asyncio.run(run_cluster(config, duration))


@pytest.fixture(scope="module")
def clean_result():
    """One chaos-free run shared by the read-only assertions."""
    return run(make_config())


@pytest.fixture(scope="module")
def chaotic_result():
    return run(make_config(chaos=True, seed=7), duration=1.5)


class TestCleanRun:
    def test_every_node_eats(self, clean_result):
        assert len(clean_result.counters) == 3
        for counters in clean_result.counters.values():
            assert counters["eats"] > 0
            assert counters["msgs_in"] > 0 and counters["msgs_out"] > 0

    def test_clean_links_carry_no_garbage(self, clean_result):
        assert clean_result.total_garbage_bytes == 0
        assert clean_result.killed == []

    def test_lifecycle_events_emitted(self, clean_result):
        kinds = {e["event"] for e in clean_result.events}
        assert {"net-node-start", "net-conn-open", "net-hello-ok",
                "net-node-stop"} <= kinds


class TestHandshake:
    def test_hello_advertising_a_retired_version_is_refused(self):
        async def scenario(version):
            supervisor = ClusterSupervisor(make_config(lock_service=True))
            await supervisor.start(10.0)
            try:
                reader, writer = await asyncio.open_connection(
                    supervisor.config.host, supervisor.nodes[0].port
                )
                writer.write(
                    encode_frame(
                        T_HELLO,
                        {"version": version, "node": "old", "role": "client"},
                    )
                )
                writer.write(encode_request("acquire", "old.1"))
                answer = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                return answer, [
                    e["detail"] for e in supervisor.events
                    if e["event"] == "net-hello-bad"
                ]
            finally:
                await supervisor.stop()

        for version in (1, 2, 3, WIRE_VERSION + 1):
            # Dropped before the acquire is looked at: EOF, not a grant.
            assert asyncio.run(scenario(version)) == (b"", [{"got": version}])


class TestProxySelection:
    """A chaos proxy is one more TCP hop per peer frame, so a run builds
    them only when a schedule or the adaptive adversary can act on links."""

    @staticmethod
    def wiring(**overrides):
        """``(proxy links, {(p, q): (dialled address, q's port, proxy's
        port)})`` right after start."""
        async def scenario():
            supervisor = ClusterSupervisor(make_config(**overrides))
            await supervisor.start(10.0)
            try:
                dialled = {}
                for p, node in supervisor.nodes.items():
                    for q, link in node._links.items():
                        proxy = supervisor.proxies.get((p, q))
                        dialled[(p, q)] = (
                            link.address,
                            supervisor.nodes[q].port,
                            None if proxy is None else proxy.port,
                        )
                return sorted(supervisor.proxies), dialled
            finally:
                await supervisor.stop()

        return asyncio.run(scenario())

    EDGES = sorted((p, q) for p in range(3) for q in range(3) if p != q)

    def test_a_fault_free_run_dials_its_neighbours_directly(self):
        proxies, dialled = self.wiring()
        assert proxies == []
        assert sorted(dialled) == self.EDGES
        for address, node_port, _ in dialled.values():
            assert address == ("127.0.0.1", node_port)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chaos": True},
            {"schedule": ChaosSchedule(seed=1, duration_s=10.0)},
            {"adaptive": True},
        ],
        ids=["chaos", "schedule", "adaptive"],
    )
    def test_a_run_that_can_fault_links_proxies_every_directed_edge(
        self, overrides
    ):
        proxies, dialled = self.wiring(**overrides)
        assert proxies == self.EDGES
        for address, node_port, proxy_port in dialled.values():
            assert address == ("127.0.0.1", proxy_port) != ("127.0.0.1", node_port)


class TestCrashWatchdog:
    """The supervisor reports a node that stopped ticking once, saying
    whether the stop was one it made."""

    @staticmethod
    def crash(tmp_path, fault):
        async def scenario():
            supervisor = ClusterSupervisor(
                make_config(lock_service=True, flight_dir=str(tmp_path))
            )
            await supervisor.start(10.0)
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            try:
                await fault(supervisor)
                deadline = loop.time() + 5.0
                while loop.time() < deadline:
                    detected = [
                        e for e in supervisor.events
                        if e["event"] == "net-crash-detect"
                    ]
                    if detected:
                        # One more watchdog round: still reported once.
                        await asyncio.sleep(0.3)
                        break
                    await asyncio.sleep(0.02)
                return [
                    (e["node"], e["detail"]) for e in supervisor.events
                    if e["event"] == "net-crash-detect"
                ], errors
            finally:
                await supervisor.stop()

        return asyncio.run(scenario())

    def test_a_killed_node_is_an_expected_crash_and_dumps_flights(
        self, tmp_path
    ):
        async def kill(supervisor):
            await supervisor._kill_node(1)

        detected, _ = self.crash(tmp_path, kill)
        assert detected == [("1", {"expected": True})]
        dump = tmp_path / "flight-1.jsonl"
        assert dump.exists()
        assert json.loads(dump.read_text().splitlines()[0])["reason"] == "crash:1"

    def test_a_tick_that_raises_is_an_unexpected_crash(self, tmp_path):
        async def break_tick(supervisor):
            def on_tick(ctx):
                raise RuntimeError("tick broke")

            supervisor.nodes[2].process.on_tick = on_tick

        detected, errors = self.crash(tmp_path, break_tick)
        assert detected == [("2", {"expected": False})]
        assert [str(ctx["exception"]) for ctx in errors] == ["tick broke"]


class TestChaoticRun:
    def test_scheduled_malice_kills_its_victim(self, chaotic_result):
        schedule = chaotic_result.schedule
        victims = [
            e["node"] for e in schedule["events"]
            if e["kind"] == "malicious-crash"
        ]
        assert chaotic_result.killed == victims

    def test_schedule_reproduces_for_a_seed(self, chaotic_result):
        again = run(make_config(chaos=True, seed=7), duration=1.5)
        assert again.schedule == chaotic_result.schedule

    def test_garbage_burst_reaches_decoders(self, chaotic_result):
        # The victim sprays 16..128 junk bytes per outgoing link; at least
        # part of every burst lands in some neighbour's decoder counters.
        assert chaotic_result.total_garbage_bytes > 0


class TestArtefacts:
    def test_events_roundtrip(self, clean_result, tmp_path):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        header, events, skipped = read_cluster_events(path)
        assert header["source"] == "cluster-events"
        assert header["topology"] == "ring:3"
        assert header["version"]
        assert skipped == 0
        assert len(events) == len(clean_result.events)

    def test_metrics_artefact(self, clean_result, tmp_path):
        path = write_cluster_metrics(tmp_path / "run.metrics", clean_result)
        metrics = read_metrics(path)
        assert metrics.header["source"] == "cluster-run"
        assert metrics.header["version"]
        assert metrics.metrics["cluster/grants"]["value"] > 0
        assert metrics.metrics["cluster/nodes"]["value"] == 3

    def test_stats_sniffs_event_log(self, clean_result, tmp_path, capsys):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cluster event log" in out
        assert "net-node-start" in out

    def test_stats_sniffs_metrics(self, clean_result, tmp_path, capsys):
        path = write_cluster_metrics(tmp_path / "run.metrics", clean_result)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics file" in out
        assert "cluster/grants" in out

    def test_stats_tolerates_truncated_event_log(
        self, clean_result, tmp_path, capsys
    ):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        whole = path.read_text().splitlines()
        path.write_text("\n".join(whole[:3]) + '\n{"kind": "event", "tru')
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped lines: 1" in out

    def test_stats_rejects_nonsense(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02 definitely not an artefact")
        with pytest.raises(SystemExit):
            main(["stats", str(path)])


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_cluster_run_command(self, tmp_path, capsys):
        events = tmp_path / "cli.events"
        code = main([
            "cluster", "run",
            "--topology", "ring:3",
            "--seed", "1",
            "--duration", "0.8",
            "--tick-interval", "0.005",
            "--no-chaos",
            "--events-out", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster ring:3 seed=1" in out
        assert events.exists()
        header, _, _ = read_cluster_events(events)
        assert json.dumps(header)  # JSON-clean all the way down


class TestCrashRestartDrill:
    """The recovery tentpole end to end: a seeded soak whose malicious
    crash is followed by a relaunch into randomized-arbitrary state; the
    run must stay safe and the restarted node must grant again."""

    @pytest.fixture(scope="class")
    def drill(self):
        from repro.net import RestartPolicy, soak

        config = make_config(
            seed=7,
            lock_service=True,
            chaos=True,
            restart=RestartPolicy(max_restarts=1, delay_s=0.3, arbitrary_state=True),
        )
        return asyncio.run(soak(config, 6.0, hold_s=0.02, acquire_timeout=2.0))

    def test_safe_with_zero_neighbour_violations(self, drill):
        assert drill.violations == []

    def test_restart_happened_and_was_recorded(self, drill):
        assert sum(drill.cluster.restarts.values()) >= 1
        assert drill.cluster.killed, "the drill needs a malicious crash"
        restart_events = [
            e for e in drill.cluster.events if e["event"] == "net-node-restart"
        ]
        assert restart_events
        assert restart_events[0]["detail"]["arbitrary"] is True
        assert restart_events[0]["detail"]["epoch"] == 1

    def test_restarted_node_regrants_and_convergence_is_measured(self, drill):
        assert drill.cluster.convergence_s, "no post-restart client grant"
        for node, elapsed in drill.cluster.convergence_s.items():
            assert node in drill.cluster.restarts
            assert 0.0 <= elapsed < 6.0
            restart_t = next(
                e["t"]
                for e in drill.cluster.events
                if e["event"] == "net-node-restart" and e["node"] == node
            )
            regrants = [
                e
                for e in drill.cluster.events
                if e["event"] == "net-grant"
                and e["node"] == node
                and e["t"] > restart_t
                and e.get("detail", {}).get("req") is not None
            ]
            assert regrants, "convergence implies a client-matched grant"

    def test_convergence_metric_exported(self, drill):
        from repro.net import cluster_metrics

        registry = cluster_metrics(drill.cluster)
        snap = registry.snapshot()
        assert snap["cluster/restarts"]["value"] >= 1
        assert any(n.startswith("cluster/convergence_s/") for n in snap)


class TestTruncatedEventLog:
    """``read_cluster_events`` on a log cut off mid-record — what a soak
    killed partway through leaves on disk."""

    def truncated(self, clean_result, tmp_path):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        lines = path.read_text().splitlines()
        keep = len(lines) // 2
        # Cut the next record in half: valid JSON prefix, unparseable tail.
        path.write_text("\n".join(lines[:keep]) + "\n" + lines[keep][: len(lines[keep]) // 2])
        return path, lines, keep

    def test_header_and_prefix_survive(self, clean_result, tmp_path):
        path, lines, keep = self.truncated(clean_result, tmp_path)
        header, events, skipped = read_cluster_events(path)
        assert header.get("kind") == "header"
        assert header["topology"] == clean_result.topology_spec
        assert len(events) == keep - 1  # every intact record, header aside
        assert skipped == 1  # exactly the cut record

    def test_events_keep_time_order(self, clean_result, tmp_path):
        path, _, _ = self.truncated(clean_result, tmp_path)
        _, events, _ = read_cluster_events(path)
        times = [row["t"] for row in events]
        assert times == sorted(times)

    def test_truncated_mid_header_yields_no_events(self, clean_result, tmp_path):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        first = path.read_text().splitlines()[0]
        path.write_text(first[: len(first) // 2])
        header, events, skipped = read_cluster_events(path)
        assert header == {} and events == [] and skipped == 1

    def test_foreign_and_blank_lines_are_counted_not_fatal(
        self, clean_result, tmp_path
    ):
        path = write_cluster_events(tmp_path / "run.events", clean_result)
        with path.open("a") as handle:
            handle.write('\n\n["a", "list", "row"]\n{"kind": "mystery"}\n')
        _, events, skipped = read_cluster_events(path)
        assert events  # the real records still parse
        assert skipped == 2  # the list row and the unknown kind
