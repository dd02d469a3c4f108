"""Tests for the command-line interface."""

import inspect
import json
from pathlib import Path

import pytest

from repro.cli import (
    ALGORITHMS,
    COMMANDS,
    build_parser,
    entry_point,
    main,
)
from repro.sim import from_spec
from repro.sim.errors import TopologyError


class TestParseTopology:
    def test_ring(self):
        assert len(from_spec("ring:6")) == 6

    def test_grid(self):
        assert len(from_spec("grid:4:3")) == 12

    def test_tree(self):
        assert len(from_spec("tree:2")) == 7

    def test_random_with_seed(self):
        t1 = from_spec("random:8:3")
        t2 = from_spec("random:8:3")
        assert t1.edges == t2.edges

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            from_spec("torus:3")

    def test_bad_arity(self):
        with pytest.raises(TopologyError):
            from_spec("grid:4")


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--topology", "line:4", "--steps", "2000"]) == 0
        out = capsys.readouterr().out
        assert "meals" in out and "invariant" in out

    def test_run_each_algorithm(self, capsys):
        for name in ALGORITHMS:
            assert main(
                ["run", "--topology", "ring:5", "--algorithm", name, "--steps", "1500"]
            ) == 0

    def test_locality(self, capsys):
        code = main(
            [
                "locality",
                "--topology",
                "line:7",
                "--victim",
                "0",
                "--steps",
                "15000",
            ]
        )
        assert code == 0
        assert "starvation radius" in capsys.readouterr().out

    def test_stabilize(self, capsys):
        code = main(
            ["stabilize", "--topology", "line:5", "--seed", "3", "--max-steps", "200000"]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_stabilize_plant_cycle_nc_only(self, capsys):
        code = main(
            [
                "stabilize",
                "--topology",
                "ring:5",
                "--plant-cycle",
                "--nc-only",
                "--max-steps",
                "200000",
            ]
        )
        assert code == 0

    def test_stabilize_refuses_an_algorithm_without_depth(self):
        # The predicates read the NADiners family's state; a baseline gets
        # one line, not a traceback from inside them.
        with pytest.raises(SystemExit, match="hygienic has no depth counter"):
            main(["stabilize", "--topology", "ring:5", "--algorithm",
                  "hygienic", "--nc-only"])

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "panel 4" in out and "leave" in out

    def test_check(self, capsys):
        assert main(["check", "--topology", "line:3"]) == 0
        out = capsys.readouterr().out
        assert "converges: True" in out

    def test_check_corrected_threshold(self, capsys):
        assert main(["check", "--topology", "ring:3", "--corrected-threshold"]) == 0

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "nope"])

    def test_node_hosts_its_diner_in_repair_mode(self, monkeypatch):
        """A standalone node runs over links that drop frames, so it hosts
        the same repair-mode process the supervisor would build."""
        import repro.net.cluster

        hosted = []

        class Hosted(Exception):
            pass

        class CaptureServer:
            def __init__(self, pid, topology, process, **kwargs):
                hosted.append(process)

            async def start_listening(self):
                raise Hosted

        monkeypatch.setattr(repro.net.cluster, "NodeServer", CaptureServer)
        for extra in ([], ["--lock-service"]):
            with pytest.raises(Hosted):
                main(["node", "--topology", "line:2", "--pid", "0", *extra])
        assert [p.repair for p in hosted] == [True, True]


class TestReportCommand:
    def test_report_to_stdout(self, capsys, monkeypatch):
        # Stub the (slow) suite: this tests the CLI plumbing only.
        from repro.analysis import Section, SuiteResult
        import repro.analysis as analysis

        def fake_suite(config, **kwargs):
            result = SuiteResult(config=config)
            result.sections.append(
                Section(title="Stub", header=("a", "b"), rows=[(1, 2)])
            )
            return result

        monkeypatch.setattr(analysis, "run_suite", fake_suite)
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# repro experiment suite" in out
        assert "## Stub" in out

    def test_report_to_file(self, tmp_path, monkeypatch):
        from repro.analysis import SuiteResult
        import repro.analysis as analysis

        monkeypatch.setattr(
            analysis, "run_suite", lambda config, **kwargs: SuiteResult(config=config)
        )
        target = tmp_path / "r.md"
        assert main(["report", "--output", str(target)]) == 0
        assert target.read_text().startswith("# repro experiment suite")




class TestSweepCommand:
    def test_basic_sweep(self, capsys):
        code = main(
            ["sweep", "--topology", "ring:5", "--trials", "3",
             "--steps", "300", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards: 3 (executed 3, resumed 0)" in out
        assert "meals/1k steps:" in out
        assert "safety (E at end): 3/3" in out

    def test_sweep_writes_and_resumes_jsonl(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        argv = ["sweep", "--topology", "ring:4", "--trials", "4",
                "--steps", "200", "--jobs", "2", "--out", str(path), "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert path.exists() and len(path.read_text().splitlines()) == 4

        # second run resumes everything and reports identical aggregates
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed 0, resumed 4" in second
        agg = lambda text: [l for l in text.splitlines() if ":" in l and "shards" not in l and "records" not in l]
        assert agg(first) == agg(second)

    def test_sweep_multiple_axes(self, capsys):
        code = main(
            ["sweep", "--topology", "ring:4", "--topology", "line:4",
             "--algorithm", "na-diners", "--algorithm", "choy-singh",
             "--trials", "1", "--steps", "200", "--quiet"]
        )
        assert code == 0
        assert "shards: 4" in capsys.readouterr().out

    def test_sweep_with_crash(self, capsys):
        code = main(
            ["sweep", "--topology", "line:5", "--trials", "2", "--steps", "400",
             "--crash-victim", "1", "--crash-at", "50", "--quiet"]
        )
        assert code == 0

    def test_sweep_rejects_bad_topology_before_running(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--topology", "torus:3", "--quiet"])

    def test_sweep_rejects_bad_algorithm(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithm", "nope", "--quiet"])


class TestObservability:
    """--trace / --metrics-out wiring and the offline replay commands."""

    def _traced_run(self, tmp_path, capsys, seed=7):
        trace = tmp_path / "run.trace"
        metrics = tmp_path / "run.metrics"
        code = main([
            "run", "--topology", "ring:6", "--steps", "1500",
            "--seed", str(seed),
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        return trace, metrics, out

    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace, metrics, out = self._traced_run(tmp_path, capsys)
        assert trace.exists() and metrics.exists()
        assert "summary:" in out

    def test_replay_reproduces_summary_byte_identical(self, tmp_path, capsys):
        """The PR's acceptance criterion: live and offline summaries match."""
        trace, metrics, out = self._traced_run(tmp_path, capsys)
        live_summary = next(
            line for line in out.splitlines() if line.startswith("summary:")
        )
        replay_metrics = tmp_path / "replay.metrics"
        assert main([
            "trace", str(trace), "--metrics-out", str(replay_metrics)
        ]) == 0
        replay_out = capsys.readouterr().out
        replay_summary = next(
            line for line in replay_out.splitlines() if line.startswith("summary:")
        )
        assert replay_summary == live_summary
        assert replay_metrics.read_bytes() == metrics.read_bytes()

    def test_trace_event_listing(self, tmp_path, capsys):
        trace, _, _ = self._traced_run(tmp_path, capsys)
        assert main(["trace", str(trace), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "action" in out

    def test_trace_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "absent.trace")])

    def test_stats_sniffs_each_artefact(self, tmp_path, capsys):
        trace, metrics, _ = self._traced_run(tmp_path, capsys)
        records = tmp_path / "records.jsonl"
        assert main([
            "sweep", "--topology", "ring:4", "--trials", "2",
            "--steps", "200", "--out", str(records), "--quiet",
        ]) == 0
        capsys.readouterr()

        assert main(["stats", str(metrics)]) == 0
        assert "metrics file" in capsys.readouterr().out
        assert main(["stats", str(records)]) == 0
        assert "campaign records" in capsys.readouterr().out
        assert main(["stats", str(trace)]) == 0
        assert "trace" in capsys.readouterr().out

    def test_stats_unknown_file_exits(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["stats", str(junk)])

    def test_locality_accepts_observability_flags(self, tmp_path, capsys):
        trace = tmp_path / "loc.trace"
        assert main([
            "locality", "--topology", "line:6", "--steps", "4000",
            "--victim", "2", "--trace", str(trace),
        ]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0

    def test_stabilize_accepts_observability_flags(self, tmp_path, capsys):
        metrics = tmp_path / "stab.metrics"
        assert main([
            "stabilize", "--topology", "line:5", "--seed", "2",
            "--max-steps", "60000", "--metrics-out", str(metrics),
        ]) == 0
        assert metrics.exists()

    def test_sweep_progress_and_campaign_artifacts(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        trace = tmp_path / "sweep.trace"
        metrics = tmp_path / "sweep.metrics"
        assert main([
            "sweep", "--topology", "ring:4", "--trials", "4",
            "--steps", "200", "--out", str(records),
            "--progress", "2",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        err = capsys.readouterr().err
        assert "[4/4]" in err and "eta" in err
        assert trace.exists() and metrics.exists()
        shard_lines = [
            line for line in trace.read_text().splitlines()[1:] if line
        ]
        assert len(shard_lines) == 4

    def test_report_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "suite.metrics"
        assert main([
            "report", "--seed", "1", "--metrics-out", str(metrics),
            "--output", str(tmp_path / "suite.md"),
        ]) == 0
        text = metrics.read_text()
        assert "suite/" in text and "campaign/shards" in text


class TestStatsHardening:
    """`repro stats` must fail with one clean line, never a traceback."""

    def _exit_message(self, args):
        with pytest.raises(SystemExit) as info:
            main(args)
        return str(info.value)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        message = self._exit_message(["stats", str(empty)])
        assert "empty file" in message

    def test_directory(self, tmp_path):
        message = self._exit_message(["stats", str(tmp_path)])
        assert "directory" in message

    def test_binary_junk(self, tmp_path):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00\xff\xfe\x01" * 64)
        message = self._exit_message(["stats", str(junk)])
        assert str(junk) in message

    def test_unrecognised_jsonl_schema(self, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"hello": 1}\n{"kind": "mystery"}\n')
        message = self._exit_message(["stats", str(foreign)])
        assert "not a metrics" in message

    def test_recognised_tag_with_a_newer_format_says_so(self, tmp_path):
        """The reader's exact reason must survive: a BENCH or loadgen
        report from a newer tool is not "not a metrics … file"."""
        for name, tag in (("bench", "bench"), ("loadgen", "loadgen-report")):
            path = tmp_path / f"{name}99.json"
            path.write_text(json.dumps({"kind": tag, "format": 99}, indent=2))
            message = self._exit_message(["stats", str(path)])
            assert message == (
                f"{path}: {name} format 99 is newer than this tool (1)"
            )

    def test_missing_file(self, tmp_path):
        message = self._exit_message(["stats", str(tmp_path / "absent")])
        assert "no such file" in message

    def test_truncated_trace_is_clean_error(self, tmp_path):
        bad = tmp_path / "cut.trace"
        bad.write_text('{"kind": "header", "format": 1}\n{"kind": "event"')
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])


class TestPerfCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "engine/steps/ring16" in out
        assert "mp/ticks/ring8" in out

    def test_bench_negative_threshold_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--threshold", "-1", "--list"])

    def test_stats_sniffs_bench_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_x.json"
        assert main([
            "bench", "--quick", "--filter", "snapshot", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "BENCH file" in text
        assert "snapshot/ring16" in text

    def test_run_timings_out(self, tmp_path, capsys):
        timings = tmp_path / "run.timings"
        assert main([
            "run", "--topology", "ring:5", "--steps", "600",
            "--timings-out", str(timings),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(timings)]) == 0
        text = capsys.readouterr().out
        assert "source: timings" in text
        assert "step_time/" in text
        assert "rate/events_per_sec" in text

    def test_timings_alone_record_no_trace(self, tmp_path, capsys):
        """--timings-out rides the engine bus; only --trace or --metrics-out
        record a trace, so timings alone print no trace summary."""
        timings = tmp_path / "run.timings"
        assert main([
            "run", "--topology", "ring:5", "--steps", "600",
            "--timings-out", str(timings),
        ]) == 0
        out = capsys.readouterr().out
        assert f"timings: {timings}" in out
        assert "summary:" not in out

    def test_timings_do_not_perturb_deterministic_metrics(self, tmp_path, capsys):
        """--timings-out must leave --metrics-out byte-identical."""
        plain = tmp_path / "plain.metrics"
        assert main([
            "run", "--topology", "ring:5", "--steps", "600", "--seed", "3",
            "--metrics-out", str(plain),
        ]) == 0
        timed = tmp_path / "timed.metrics"
        assert main([
            "run", "--topology", "ring:5", "--steps", "600", "--seed", "3",
            "--metrics-out", str(timed),
            "--timings-out", str(tmp_path / "t.timings"),
        ]) == 0
        capsys.readouterr()
        assert plain.read_bytes() == timed.read_bytes()


class TestFuzzCommand:
    def fuzz_args(self, corpus_dir, seed=1):
        return [
            "fuzz", "--topology", "ring:3", "--seed", str(seed),
            "--budget", "6", "--duration", "4.0", "--steps", "800",
            "--sample-every", "20", "--keep", "1",
            "--minimise-budget", "4", "--corpus-dir", str(corpus_dir),
        ]

    def test_fuzz_smoke(self, tmp_path, capsys):
        assert main(self.fuzz_args(tmp_path / "c")) == 0
        out = capsys.readouterr().out
        assert "runs" in out and "signatures" in out
        written = list((tmp_path / "c").glob("*.json"))
        assert written
        assert all(p.name.startswith("ring3-s1-r") for p in written)

    def test_fuzz_is_deterministic_at_the_cli(self, tmp_path, capsys):
        assert main(self.fuzz_args(tmp_path / "a")) == 0
        assert main(self.fuzz_args(tmp_path / "b")) == 0
        capsys.readouterr()
        a = sorted((tmp_path / "a").glob("*.json"))
        b = sorted((tmp_path / "b").glob("*.json"))
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_soak_replays_a_corpus_schedule(self, tmp_path, capsys):
        assert main(self.fuzz_args(tmp_path / "c")) == 0
        schedule_file = next((tmp_path / "c").glob("*.json"))
        capsys.readouterr()
        assert main([
            "cluster", "soak", "--schedule-file", str(schedule_file),
            "--tick-interval", "0.005",
        ]) == 0
        out = capsys.readouterr().out
        assert "safety" in out

    def test_schedule_file_must_exist(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "cluster", "soak",
                "--schedule-file", "/nonexistent/corpus.json",
            ])


class TestTracingCli:
    """`cluster --trace/--metrics-port`, `repro timeline`, `repro top`,
    and the stats sniffers for the new artefact families."""

    def traced_soak(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        events = tmp_path / "soak.events"
        code = main([
            "cluster", "soak", "--nodes", "3", "--seed", "5",
            "--duration", "1.5", "--tick-interval", "0.005",
            "--trace", str(trace_dir), "--events-out", str(events),
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)  # chaos may legitimately kill nodes
        assert "spans:" in out
        return trace_dir, events

    def test_timeline_merges_and_checks_causality(self, tmp_path, capsys):
        trace_dir, events = self.traced_soak(tmp_path, capsys)
        out_file = tmp_path / "timeline.jsonl"
        assert main([
            "timeline", str(trace_dir), "--events", str(events),
            "--out", str(out_file), "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "causality: OK" in out
        assert "timeline:" in out
        assert out_file.exists()

    def test_timeline_is_byte_stable_under_input_permutation(
        self, tmp_path, capsys
    ):
        trace_dir, _ = self.traced_soak(tmp_path, capsys)
        span_files = sorted(str(p) for p in trace_dir.glob("spans-*.jsonl"))
        assert len(span_files) == 3
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["timeline", *span_files, "--out", str(a)]) == 0
        assert main(
            ["timeline", *reversed(span_files), "--out", str(b)]
        ) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timeline_flags_a_forged_trace(self, tmp_path, capsys):
        import json as json_mod

        trace_dir, _ = self.traced_soak(tmp_path, capsys)
        victim = next(trace_dir.glob("spans-*.jsonl"))
        lines = victim.read_text().splitlines()
        forged = []
        for line in lines:
            row = json_mod.loads(line)
            if row.get("kind") == "span" and row.get("events"):
                # Zero every stamp on one node: message inversions appear.
                for event in row["events"]:
                    event["lc"] = 0
            forged.append(json_mod.dumps(row))
        victim.write_text("\n".join(forged) + "\n")
        assert main(["timeline", str(trace_dir)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPTED" in out

    def test_timeline_empty_directory_exits(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["timeline", str(empty)])

    def test_stats_sniffs_spans_and_timeline(self, tmp_path, capsys):
        trace_dir, _ = self.traced_soak(tmp_path, capsys)
        span_file = next(trace_dir.glob("spans-*.jsonl"))
        out_file = tmp_path / "timeline.jsonl"
        assert main(["timeline", str(trace_dir), "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["stats", str(span_file)]) == 0
        assert "span log:" in capsys.readouterr().out
        assert main(["stats", str(out_file)]) == 0
        assert "timeline:" in capsys.readouterr().out

    def test_stats_truncated_span_file_is_tolerated(self, tmp_path, capsys):
        trace_dir, _ = self.traced_soak(tmp_path, capsys)
        span_file = next(trace_dir.glob("spans-*.jsonl"))
        text = span_file.read_text()
        truncated = tmp_path / "truncated.jsonl"
        # Cut mid-line, so the tail is guaranteed to be invalid JSON.
        truncated.write_text(text[: len(text) // 2].rstrip("\n")[:-3])
        assert main(["stats", str(truncated)]) == 0
        assert "skipped lines" in capsys.readouterr().out

    def test_top_requires_a_target(self):
        with pytest.raises(SystemExit):
            main(["top"])

    def test_top_unreachable_endpoint_is_a_clean_error(self):
        with pytest.raises(SystemExit) as info:
            main(["top", "--url", "http://127.0.0.1:1/metrics", "--once"])
        message = str(info.value)
        assert "127.0.0.1:1" in message
        assert "\n" not in message  # one line, no traceback

    def test_top_non_http_endpoint_is_a_clean_error(self):
        """A live socket that speaks garbage (not HTTP) must fold into the
        same one-line OSError path as a refused connection."""
        import socket
        import threading

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def answer_garbage():
            conn, _ = server.accept()
            conn.sendall(b"I AM NOT HTTP\r\n\r\n")
            conn.close()

        thread = threading.Thread(target=answer_garbage, daemon=True)
        thread.start()
        try:
            with pytest.raises(SystemExit) as info:
                main([
                    "top", "--url", f"http://127.0.0.1:{port}/metrics",
                    "--once",
                ])
            assert "\n" not in str(info.value)
        finally:
            server.close()
            thread.join(timeout=2)


class TestSloCli:
    """`repro slo`, `cluster soak --slo/--flight`, and the new sniffers."""

    FIXTURES = "tests/obs/fixtures/slo"

    def test_slo_clean_fixture_exits_zero(self, capsys):
        assert main([
            "slo", f"{self.FIXTURES}/spec.json", f"{self.FIXTURES}/clean.events",
        ]) == 0
        out = capsys.readouterr().out
        assert "ingested events:" in out
        assert "budget: OK — 6 objectives within budget" in out

    def test_slo_violation_fixture_exits_one(self, capsys):
        assert main([
            "slo", f"{self.FIXTURES}/spec.json",
            f"{self.FIXTURES}/violation.events",
        ]) == 1
        assert "budget: EXHAUSTED — safety" in capsys.readouterr().out

    def test_slo_report_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main([
                "slo", f"{self.FIXTURES}/spec.json",
                f"{self.FIXTURES}/clean.events", "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_slo_missing_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["slo", "/nonexistent/spec.json",
                  f"{self.FIXTURES}/clean.events"])

    def test_slo_foreign_artefact_exits(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text('{"hello": 1}\n')
        with pytest.raises(SystemExit):
            main(["slo", f"{self.FIXTURES}/spec.json", str(junk)])

    def test_slo_newer_loadgen_report_says_so(self, tmp_path):
        path = tmp_path / "lg99.json"
        path.write_text(json.dumps(
            {"kind": "loadgen-report", "format": 99, "results": {}}, indent=2
        ))
        with pytest.raises(SystemExit) as info:
            main(["slo", f"{self.FIXTURES}/spec.json", str(path)])
        assert str(info.value) == (
            f"{path}: loadgen format 99 is newer than this tool (1)"
        )

    def test_slo_bad_header_topology_is_one_line(self, tmp_path):
        path = tmp_path / "ring1.events"
        clean = Path(self.FIXTURES, "clean.events").read_text()
        path.write_text(clean.replace('"ring:3"', '"ring:1"', 1))
        with pytest.raises(SystemExit) as info:
            main(["slo", f"{self.FIXTURES}/spec.json", str(path)])
        assert str(info.value) == (
            f"{path}: header topology 'ring:1': "
            "a ring needs at least 3 processes"
        )

    def test_slo_empty_directory_exits(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["slo", f"{self.FIXTURES}/spec.json", str(empty)])

    def test_stats_sniffs_slo_report(self, tmp_path, capsys):
        report = tmp_path / "slo-report.json"
        main([
            "slo", f"{self.FIXTURES}/spec.json",
            f"{self.FIXTURES}/violation.events", "--out", str(report),
        ])
        capsys.readouterr()
        assert main(["stats", str(report)]) == 0
        out = capsys.readouterr().out
        assert "SLO report:" in out
        assert "EXHAUSTED" in out

    def _flight_dump(self, tmp_path):
        from repro.obs import FlightRecorder, dump_flight
        from repro.obs.tracing import SpanRecorder

        tracer = SpanRecorder("2")
        span = tracer.open("acquire", lc=1, t=0.5)
        tracer.event(span, "grant", lc=2, t=1.0)
        tracer.close(span, lc=3, t=1.5)
        recorder = FlightRecorder("2", capacity=8)
        recorder.note_frame(1.0, "in", "request", peer="1")
        recorder.note_event({"t": 2.0, "event": "net-grant"})
        return dump_flight(
            tmp_path / "flight-2.jsonl", recorder, reason="soak-violation",
            tracer=tracer, header={"topology": "ring:3", "seed": 7},
        )

    def test_stats_sniffs_flight_dump(self, tmp_path, capsys):
        path = self._flight_dump(tmp_path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight dump:" in out
        assert "soak-violation" in out

    def test_timeline_ingests_flight_dump(self, tmp_path, capsys):
        path = self._flight_dump(tmp_path)
        assert main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "causality: OK" in out

    def test_soak_with_slo_prints_verdict(self, tmp_path, capsys):
        report = tmp_path / "slo-live.json"
        code = main([
            "cluster", "soak", "--nodes", "3", "--seed", "7",
            "--duration", "1.5", "--tick-interval", "0.005",
            "--slo", "examples/slo.json", "--slo-report", str(report),
            "--flight", str(tmp_path / "flight"),
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "SLO report: soak-defaults" in out
        assert "budget:" in out
        assert report.exists()

    def test_flight_capacity_must_be_positive(self):
        with pytest.raises(SystemExit):
            main([
                "cluster", "soak", "--nodes", "3", "--duration", "0.5",
                "--flight", "/tmp/x", "--flight-capacity", "0",
            ])


class TestBenchHistory:
    def test_history_table(self, tmp_path, capsys):
        history = tmp_path / "history"
        history.mkdir()
        for label in ("2024a", "2024b"):
            assert main([
                "bench", "--quick", "--filter", "snapshot",
                "--out", str(history / f"BENCH_{label}.json"),
            ]) == 0
        capsys.readouterr()
        assert main(["bench", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "bench history: 2 BENCH file(s)" in out
        assert "snapshot/ring16" in out
        assert "trend" in out

    def test_history_empty_directory_exits(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["bench", "--history", str(empty)])

    def test_history_missing_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--history", str(tmp_path / "absent")])


class TestLoadgenCommand:
    def _sim(self, tmp_path, capsys, *extra):
        out = tmp_path / "loadgen-report.json"
        code = main([
            "loadgen", "--sim", "--nodes", "3", "--seed", "11",
            "--duration", "1.0", "--clients", "300", "--think", "0.1",
            "--hold", "0.01", "--out", str(out), *extra,
        ])
        return code, out, capsys.readouterr().out

    def test_sim_smoke(self, tmp_path, capsys):
        code, path, out = self._sim(tmp_path, capsys)
        assert code == 0
        assert "loadgen report [sim]:" in out
        assert "latency: p50=" in out and "p999=" in out
        assert "fairness: grant_count_cv=" in out
        assert path.exists()

    def test_sim_is_byte_stable_at_the_cli(self, tmp_path, capsys):
        _, a, _ = self._sim(tmp_path / "a", capsys)
        _, b, _ = self._sim(tmp_path / "b", capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_stats_sniffs_loadgen_report(self, tmp_path, capsys):
        _, path, _ = self._sim(tmp_path, capsys)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "loadgen report [sim]:" in out
        assert "p99=" in out
        assert "fairness: grant_count_cv=" in out
        assert "node n0:" in out

    def test_slo_ingests_loadgen_report(self, tmp_path, capsys):
        _, path, _ = self._sim(tmp_path, capsys)
        code = main(["slo", "examples/slo.json", str(path)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert f"ingested loadgen: {path}" in out
        assert "budget:" in out

    def test_stats_truncated_loadgen_report_is_clean_error(
        self, tmp_path, capsys
    ):
        _, path, _ = self._sim(tmp_path, capsys)
        path.write_text(path.read_text()[:40])
        with pytest.raises(SystemExit) as info:
            main(["stats", str(path)])
        assert "not a metrics" in str(info.value)

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--sim", "--mode", "burst"])

    @pytest.mark.parametrize("flag", ["--duration", "--think", "--hold"])
    def test_non_finite_time_is_a_one_line_exit(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main(["loadgen", "--sim", flag, "nan"])
        assert str(info.value).endswith("must be finite")
        assert capsys.readouterr().out == ""

    def test_upstream_budget_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "loadgen", "--sim", "--nodes", "5",
                "--upstreams-per-node", "2", "--max-upstreams", "8",
            ])

    def test_live_smoke_with_report(self, tmp_path, capsys):
        report = tmp_path / "lg.json"
        code = main([
            "loadgen", "--nodes", "3", "--seed", "5", "--duration", "1.2",
            "--clients", "40", "--think", "0.05", "--hold", "0.005",
            "--upstreams-per-node", "2", "--no-chaos",
            "--out", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "loadgen report [live]:" in out
        assert "safety: OK" in out
        assert "attribution:" not in out  # violation lines only on a violation
        assert report.exists()
        assert main(["stats", str(report)]) == 0
        assert "loadgen report [live]:" in capsys.readouterr().out

    def test_live_violation_prints_soaks_lines(self, monkeypatch, capsys):
        from types import SimpleNamespace

        from repro.gateway import live, loadgen
        from repro.net.lock import Violation, violation_lines

        violations = [Violation("0", "1", 1.0, 2.0)]
        report = loadgen.run_sim(loadgen.LoadgenConfig(
            clients=30, nodes=3, topology="ring:3", duration_s=0.5,
        ))
        report["results"]["safety"] = {"mode": "live", "violations": 1}

        async def violated_run(config, cluster):
            return report, SimpleNamespace(byzantine=["0"]), violations

        monkeypatch.setattr(live, "run_live", violated_run)
        code = main(["loadgen", "--nodes", "3", "--duration", "0.5",
                     "--clients", "30"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert "  safety: VIOLATED (1 overlaps)" in out
        assert out[-2:] == violation_lines(violations, ["0"]) == [
            "    0 ∦ 1: [1.000, 2.000]s",
            "  attribution: blames 0 (byzantine set matches: 0)",
        ]


class TestDispatch:
    """`repro.cli` is the parser and a table; the bodies live beside their
    subsystems and take exactly the flags their parser defines."""

    #: Positional arguments and required flags, so every parser parses.
    REQUIRED = {
        "trace": ["x"], "stats": ["x"], "node": ["--pid", "0"],
        "timeline": ["x"], "slo": ["x", "y"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_entry_point_takes_its_flags(self, command):
        from repro.net.cluster import cluster_config

        flags = vars(build_parser().parse_args(
            command.split() + self.REQUIRED.get(command, [])
        ))
        flags.pop("command")
        flags.pop("cluster_command", None)
        params = inspect.signature(entry_point(command)).parameters
        named = {n for n, p in params.items() if p.kind is p.KEYWORD_ONLY}
        required = {n for n in named if params[n].default is params[n].empty}
        assert required <= set(flags)
        rest = set(flags) - named
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            # the shared live-cluster flags, handed on to cluster_config
            assert rest <= set(inspect.signature(cluster_config).parameters)
        else:
            assert not rest


class TestUserErrors:
    """A bad argument ends in one line on stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--steps", "-1"],
            ["sweep", "--steps", "-5"],
            ["stabilize", "--max-steps", "-1"],
            ["locality", "--victim", "99"],
            ["locality", "--victim", "-1"],
            ["report", "--jobs", "0"],
            ["fuzz", "--budget", "0"],
            ["sweep", "--crash-victim", "0", "--crash-at", "-3"],
            ["check", "--topology", "line:3", "--max-states", "-1"],
            ["check", "--topology", "line:3", "--reachable", "--progress", "-1"],
        ],
        ids="_".join,
    )
    def test_one_line_exit(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code  # what the interpreter prints; status 1
        assert isinstance(message, str) and message
        assert "\n" not in message and "Traceback" not in message
        assert capsys.readouterr().err == ""


class TestOneRendering:
    """What a command prints about its result is the block `repro stats`
    prints on the file the command wrote."""

    def _assert_block(self, argv, path, capsys):
        assert main(argv) in (0, 1)
        out = capsys.readouterr().out
        assert main(["stats", str(path)]) == 0
        stats = capsys.readouterr().out
        assert stats.strip() and f"\n{stats}" in f"\n{out}"

    def test_slo(self, tmp_path, capsys):
        out = tmp_path / "slo-report.json"
        fixtures = TestSloCli.FIXTURES
        self._assert_block(
            ["slo", f"{fixtures}/spec.json", f"{fixtures}/violation.events",
             "--out", str(out)],
            out, capsys,
        )

    def test_loadgen_sim(self, tmp_path, capsys):
        out = tmp_path / "loadgen-report.json"
        self._assert_block(
            ["loadgen", "--sim", "--nodes", "3", "--seed", "11", "--duration",
             "1.0", "--clients", "300", "--think", "0.1", "--out", str(out)],
            out, capsys,
        )

    def test_run_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        self._assert_block(
            ["run", "--topology", "ring:5", "--steps", "600",
             "--trace", str(trace)],
            trace, capsys,
        )

    def test_timeline(self, tmp_path, capsys):
        from repro.obs.tracing import SpanRecorder, write_spans

        a, b = SpanRecorder("0"), SpanRecorder("1")
        acquire = a.open("acquire", lc=1, t=0.0)
        a.event(acquire, "send", lc=2, t=0.01, detail={"dst": "1", "seq": 1})
        root = b.open("node", lc=1, t=0.0)
        b.event(root, "recv", lc=3, t=0.02, detail={"src": "0", "seq": 1})
        a.event(acquire, "grant", lc=4, t=0.05)
        a.close(acquire, lc=5, t=0.06)
        for tracer in (a, b):
            write_spans(tmp_path / f"spans-{tracer.node}.jsonl", tracer)
        out = tmp_path / "timeline.jsonl"
        self._assert_block(
            ["timeline", str(tmp_path), "--out", str(out)], out, capsys
        )
