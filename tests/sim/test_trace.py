"""Unit tests for trace recording."""

import pytest

from repro.core import NADiners
from repro.sim import EventKind, System, TraceEvent, TraceRecorder, line


def event(step, kind=EventKind.ACTION, pid=0, detail="join"):
    return TraceEvent(step, kind, pid, detail)


class TestRecorder:
    def test_records_events(self):
        rec = TraceRecorder()
        rec.record_event(event(0))
        rec.record_event(event(1, detail="enter"))
        assert len(rec) == 2

    def test_keep_events_false(self):
        rec = TraceRecorder(keep_events=False)
        rec.record_event(event(0))
        assert len(rec) == 0

    def test_events_of_kind(self):
        rec = TraceRecorder()
        rec.record_event(event(0, EventKind.ACTION))
        rec.record_event(event(1, EventKind.CRASH, detail=None))
        assert len(rec.events_of_kind(EventKind.CRASH)) == 1

    def test_actions_of(self):
        rec = TraceRecorder()
        rec.record_event(event(0, pid=0))
        rec.record_event(event(1, pid=1))
        rec.record_event(event(2, pid=0, detail="enter"))
        assert [e.detail for e in rec.actions_of(0)] == ["join", "enter"]

    def test_first_action(self):
        rec = TraceRecorder()
        rec.record_event(event(3, pid=2, detail="enter"))
        rec.record_event(event(9, pid=2, detail="enter"))
        found = rec.first_action(2, "enter")
        assert found is not None and found.step == 3

    def test_first_action_missing(self):
        assert TraceRecorder().first_action(0, "enter") is None

    def test_clear(self):
        rec = TraceRecorder(snapshot_every=1)
        rec.record_event(event(0))
        rec.force_snapshot(0, System(line(2), NADiners()).snapshot())
        rec.clear()
        assert len(rec) == 0
        assert rec.snapshots == ()

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(snapshot_every=-1)


class TestSnapshots:
    def test_disabled_by_default(self):
        rec = TraceRecorder()
        rec.maybe_snapshot(10, System(line(2), NADiners()).snapshot())
        rec.force_snapshot(10, System(line(2), NADiners()).snapshot())
        assert rec.snapshots == ()

    def test_cadence(self):
        rec = TraceRecorder(snapshot_every=5)
        snap = System(line(2), NADiners()).snapshot()
        for step in range(1, 12):
            rec.maybe_snapshot(step, snap)
        assert [s for s, _ in rec.snapshots] == [5, 10]

    def test_force_snapshot_dedupes_step(self):
        rec = TraceRecorder(snapshot_every=5)
        snap = System(line(2), NADiners()).snapshot()
        rec.force_snapshot(0, snap)
        rec.force_snapshot(0, snap)
        assert len(rec.snapshots) == 1


class TestRendering:
    def test_event_str(self):
        text = str(event(7, EventKind.ACTION, 1, "enter"))
        assert "7" in text and "action" in text and "enter" in text

    def test_render_limit(self):
        rec = TraceRecorder()
        for i in range(10):
            rec.record_event(event(i))
        text = rec.render(limit=3)
        assert "7 more events" in text

    def test_render_all(self):
        rec = TraceRecorder()
        rec.record_event(event(0))
        assert "more events" not in rec.render()


class TestRealRunCoverage:
    """Every EventKind is reachable from a real engine run, and a recorded
    run survives the trace JSONL round trip."""

    def _engine(self, topology, seed=2, snapshot_every=0):
        from repro.sim import AlwaysHungry, Engine, WeaklyFairDaemon

        recorder = TraceRecorder(snapshot_every=snapshot_every)
        engine = Engine(
            System(topology, NADiners()),
            WeaklyFairDaemon(),
            seed=seed,
            hunger=AlwaysHungry(),
            recorder=recorder,
        )
        return engine, recorder

    def _faulty_run(self):
        from repro.sim import MaliciousCrash, TransientFault, line

        engine, recorder = self._engine(line(4), snapshot_every=25)
        engine.run(150)
        engine.inject(TransientFault(pids=(1,)))
        engine.inject(MaliciousCrash(pid=0, malicious_steps=5))
        engine.run(150)
        return engine, recorder

    def test_all_six_kinds_reachable(self):
        engine, recorder = self._faulty_run()
        kinds = {e.kind for e in recorder.events}
        for kind in (
            EventKind.ACTION,
            EventKind.HAVOC,
            EventKind.CRASH,
            EventKind.MALICE_BEGIN,
            EventKind.TRANSIENT,
        ):
            assert kind in kinds, kind

        # IDLE needs a step where nothing is enabled but malice is pending:
        # make every process malicious.
        from repro.sim import MaliciousCrash

        engine, recorder = self._engine(line(2))
        engine.inject(MaliciousCrash(pid=0, malicious_steps=3))
        engine.inject(MaliciousCrash(pid=1, malicious_steps=3))
        engine.run(10)
        assert EventKind.IDLE in {e.kind for e in recorder.events}

    def test_snapshot_interval_respected(self):
        engine, recorder = self._faulty_run()
        steps = [s for s, _ in recorder.snapshots]
        assert steps, "cadence 25 over 300 steps must snapshot"
        assert all(s % 25 == 0 for s in steps)
        assert steps == sorted(set(steps))

    def test_snapshots_built_only_on_cadence(self):
        from repro.sim import AlwaysHungry, Engine, WeaklyFairDaemon

        class CountingSystem(System):
            calls = 0

            def snapshot(self):
                CountingSystem.calls += 1
                return super().snapshot()

        recorder = TraceRecorder(snapshot_every=25)
        engine = Engine(
            CountingSystem(line(4), NADiners()), WeaklyFairDaemon(), seed=2,
            hunger=AlwaysHungry(), recorder=recorder,
        )
        engine.run(100)
        assert [s for s, _ in recorder.snapshots] == [0, 25, 50, 75, 100]
        # Run start, four cadence steps and the run's final configuration.
        assert CountingSystem.calls == 6

    def test_jsonl_round_trip_of_real_run(self, tmp_path):
        from repro.obs import build_header, read_trace, trace_from_recorder, write_trace

        engine, recorder = self._faulty_run()
        header = build_header(
            model="sim",
            algorithm="na-diners",
            seed=2,
            steps_taken=engine.step_count,
            topology="line:4",
            snapshot_every=25,
        )
        path = tmp_path / "run.trace"
        write_trace(path, trace_from_recorder(recorder, header))
        back = read_trace(path)
        assert back.events == recorder.events
        assert [s for s, _ in back.snapshots] == [s for s, _ in recorder.snapshots]

    def test_action_payload_captures_pre_action_locals(self):
        from repro.sim import ring

        engine, recorder = self._engine(ring(5))
        engine.run(400)
        exits = [
            e
            for e in recorder.events
            if e.kind is EventKind.ACTION and e.detail == "exit"
        ]
        assert exits, "a 400-step ring run must contain exits"
        assert all(isinstance(e.payload, dict) and "depth" in e.payload for e in exits)
