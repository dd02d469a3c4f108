"""Unit tests for trace JSONL export, loading, and offline analysis."""

import pytest

from repro.core import NADiners
from repro.obs import (
    TRACE_FORMAT_VERSION,
    EventKind,
    MpEventKind,
    Trace,
    analyze,
    build_header,
    read_trace,
    trace_from_recorder,
    write_trace,
)
from repro.obs.trace_io import event_from_payload, event_to_line
from repro.sim import (
    BenignCrash,
    SimulationError,
    System,
    TraceEvent,
    TraceRecorder,
    ring,
)

from ..conftest import make_engine


def recorded_run(steps=1200, seed=5, snapshot_every=100, crash=None):
    """A real traced run on ring(6); returns (engine, recorder)."""
    recorder = TraceRecorder(snapshot_every=snapshot_every)
    engine = make_engine(System(ring(6), NADiners()), seed=seed, recorder=recorder)
    if crash is not None:
        engine.run(steps // 2)
        engine.inject(BenignCrash(pid=crash))
        engine.run(steps - steps // 2)
    else:
        engine.run(steps)
    return engine, recorder


def header_for(engine, *, snapshot_every=100):
    return build_header(
        model="sim",
        algorithm="na-diners",
        topology="ring:6",
        seed=5,
        steps_taken=engine.step_count,
        threshold=engine.system.topology.diameter,
        snapshot_every=snapshot_every,
    )


class TestHeader:
    def test_versioned(self):
        header = build_header(model="sim", algorithm="x", seed=0, steps_taken=10)
        assert header["format"] == TRACE_FORMAT_VERSION
        assert header["kind"] == "header"

    def test_extra_fields_merge(self):
        header = build_header(
            model="sim", algorithm="x", seed=0, steps_taken=1, extra={"note": "hi"}
        )
        assert header["note"] == "hi"


class TestEventCodec:
    def round_trip(self, event):
        import json

        return event_from_payload(json.loads(event_to_line(event)))

    def test_action_round_trip(self):
        event = TraceEvent(7, EventKind.ACTION, 2, "enter")
        assert self.round_trip(event) == event

    def test_payload_round_trip(self):
        event = TraceEvent(7, EventKind.ACTION, 2, "exit", {"depth": 3})
        back = self.round_trip(event)
        assert back.payload == {"depth": 3}

    def test_tuple_detail_round_trip(self):
        event = TraceEvent(0, EventKind.TRANSIENT, None, (0, 1))
        assert self.round_trip(event).detail == (0, 1)

    def test_mp_kind_round_trip(self):
        event = TraceEvent(3, MpEventKind.SEND, 0, 1)
        back = self.round_trip(event)
        assert back.kind is MpEventKind.SEND and back.detail == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            event_from_payload({"kind": "event", "step": 0, "event": "warp"})


class TestFileRoundTrip:
    def test_events_and_snapshots_survive(self, tmp_path):
        engine, recorder = recorded_run()
        trace = trace_from_recorder(recorder, header_for(engine))
        path = tmp_path / "run.trace"
        write_trace(path, trace)
        back = read_trace(path)
        assert back.events == trace.events
        assert len(back.snapshots) == len(trace.snapshots)
        assert back.header["algorithm"] == "na-diners"
        assert back.steps == engine.step_count

    def test_write_is_deterministic(self, tmp_path):
        engine, recorder = recorded_run()
        trace = trace_from_recorder(recorder, header_for(engine))
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(a, trace)
        write_trace(b, trace)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "broken.trace"
        path.write_text('{"kind":"event","step":0,"event":"action"}\n')
        with pytest.raises(SimulationError):
            read_trace(path)

    def test_malformed_line_rejected(self, tmp_path):
        engine, recorder = recorded_run(steps=50, snapshot_every=0)
        path = tmp_path / "run.trace"
        write_trace(path, trace_from_recorder(recorder, header_for(engine)))
        with path.open("a") as handle:
            handle.write("garbage\n")
        with pytest.raises(SimulationError):
            read_trace(path)

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("slo-report", '{\n  "format": 1,\n  "kind": "slo-report"\n}\n'),
            ("metrics", '{"format":1,"kind":"header","source":"unit"}\n'),
        ],
    )
    def test_another_artefact_is_named(self, tmp_path, kind, text):
        # A pretty-printed report once read as "line 1: not valid JSON".
        path = tmp_path / "other.json"
        path.write_text(text)
        with pytest.raises(SimulationError, match=f": {kind} artefact, not a trace"):
            read_trace(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.trace"
        path.write_text('{"format":99,"kind":"header","model":"sim"}\n')
        with pytest.raises(SimulationError):
            read_trace(path)


class TestAnalyze:
    def test_summary_counts_match_engine(self):
        engine, recorder = recorded_run()
        analysis = analyze(trace_from_recorder(recorder, header_for(engine)))
        assert analysis.summary["total_eats"] == engine.total_eats()
        assert analysis.summary["snapshots"] == len(recorder.snapshots)

    def test_crash_surfaces_in_locality(self):
        engine, recorder = recorded_run(crash=0)
        analysis = analyze(trace_from_recorder(recorder, header_for(engine)))
        # pids are wire-encoded (repr) in the summary, like the eats keys.
        assert analysis.summary["crashes"] == [[600, "0"]]
        assert analysis.summary["observed_radius"] is not None

    def test_offline_equals_in_memory(self, tmp_path):
        """The acceptance criterion: file → analyze == memory → analyze."""
        engine, recorder = recorded_run()
        trace = trace_from_recorder(recorder, header_for(engine))
        path = tmp_path / "run.trace"
        write_trace(path, trace)
        live = analyze(trace).summary_json()
        replayed = analyze(read_trace(path)).summary_json()
        assert live == replayed

    def test_invariant_timeline_present_for_na_diners(self):
        engine, recorder = recorded_run()
        analysis = analyze(trace_from_recorder(recorder, header_for(engine)))
        assert analysis.summary["invariant_timeline"]
        assert analysis.summary["final_invariant"] == {
            "NC": True,
            "ST": True,
            "E": True,
        }

    def test_empty_trace_analyzes(self):
        header = build_header(model="sim", algorithm="na-diners", seed=0, steps_taken=0)
        analysis = analyze(Trace(header=header, events=(), snapshots=()))
        assert analysis.summary["total_eats"] == 0
