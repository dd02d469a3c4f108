"""The ``state_backend`` seam: make_engine, the CLI flags, and sweeps."""

import pytest

from repro.core import NADiners, NoFixdepthDiners
from repro.cli import main
from repro.fastcore import (
    STATE_BACKENDS,
    FastEngine,
    UnsupportedBackendError,
    make_engine,
)
from repro.sim import (
    AlwaysHungry,
    Engine,
    RoundDaemon,
    ScriptedHunger,
    WeaklyFairDaemon,
    ring,
)


class TestMakeEngine:
    def test_registered_backends(self):
        assert STATE_BACKENDS == ("object", "fast")

    def test_object_backend_builds_reference_engine(self):
        engine = make_engine(ring(5), NADiners(), hunger=AlwaysHungry(), seed=1)
        assert isinstance(engine, Engine)

    def test_fast_backend_builds_fast_engine(self):
        engine = make_engine(
            ring(5), NADiners(), backend="fast", hunger=AlwaysHungry(), seed=1
        )
        assert isinstance(engine, FastEngine)

    def test_both_backends_share_run_surface(self):
        results = {}
        for backend in STATE_BACKENDS:
            engine = make_engine(
                ring(5),
                NADiners(),
                backend=backend,
                hunger=AlwaysHungry(),
                seed=9,
            )
            result = engine.run(500)
            results[backend] = (result.steps, engine.snapshot())
        assert results["object"] == results["fast"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnsupportedBackendError, match="unknown state backend"):
            make_engine(ring(4), NADiners(), backend="warp")

    def test_state_backend_callable_wins(self):
        calls = []

        def backend(topology, algorithm, daemon, **kwargs):
            calls.append((topology, kwargs.get("seed")))
            return FastEngine(topology, algorithm, daemon, **kwargs)

        engine = make_engine(
            ring(4), NADiners(), backend="object", state_backend=backend, seed=5
        )
        assert isinstance(engine, FastEngine)
        assert calls and calls[0][1] == 5

    def test_initially_dead_passes_through(self):
        for backend in STATE_BACKENDS:
            engine = make_engine(
                ring(5), NADiners(), backend=backend, initially_dead=(2,)
            )
            assert engine.snapshot().dead == frozenset({2})


class TestUnsupportedCombinations:
    """The fast backend must refuse — loudly — what it cannot replicate."""

    def test_variant_algorithms_rejected(self):
        with pytest.raises(UnsupportedBackendError):
            make_engine(ring(4), NoFixdepthDiners(), backend="fast")

    def test_unsupported_daemon_rejected(self):
        with pytest.raises(UnsupportedBackendError):
            FastEngine(ring(4), NADiners(), RoundDaemon())

    def test_unknown_fault_event_rejected(self):
        from repro.sim import FaultEvent, FaultPlan

        class Meteor(FaultEvent):
            at_step = 10

            def apply(self, system, rng):  # pragma: no cover - never runs
                pass

        with pytest.raises(UnsupportedBackendError, match="Meteor"):
            FastEngine(ring(4), NADiners(), faults=FaultPlan([Meteor()]))

    def test_scripted_hunger_uses_generic_path(self):
        # Arbitrary hunger policies fall back to per-step wants() calls —
        # slower, but parity still holds.
        from repro.fastcore import co_run

        co_run(
            ring(5),
            NADiners,
            steps=120,
            seed=4,
            hunger_factory=lambda: ScriptedHunger(
                {0: [(0, True)], 2: [(0, True), (60, False)]}, default=False
            ),
        )

    def test_weakly_fair_patience_mirrored(self):
        engine = FastEngine(
            ring(4), NADiners(), WeaklyFairDaemon(patience=7), seed=0
        )
        assert engine.run(100).steps >= 0  # constructs and runs


class TestCliBackendFlag:
    def test_run_fast_matches_object(self, capsys):
        argv = ["run", "--topology", "ring:6", "--steps", "1500"]
        assert main(argv) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert "meals" in fast_out
        # Same seed, same schedule: per-process meal lines must be identical.
        meals = lambda text: [l for l in text.splitlines() if "meals" in l]
        assert meals(fast_out) == meals(object_out)

    def test_run_fast_rejects_variant_algorithms(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "--topology", "ring:4", "--algorithm", "no-fixdepth",
                 "--backend", "fast"]
            )

    def test_check_reachable_backends_agree(self, capsys):
        argv = ["check", "--topology", "ring:3", "--reachable"]
        assert main(argv + ["--backend", "object"]) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert "reachable: 720 states" in object_out
        assert "reachable: 720 states" in fast_out

        # Timing has its own line, so the lines CI cmp's stay identical.
        counts = lambda text: [
            l for l in text.splitlines() if not l.startswith("elapsed:")
        ][1:]
        assert counts(fast_out) == counts(object_out)
        for out in (object_out, fast_out):
            (elapsed,) = [l for l in out.splitlines() if l.startswith("elapsed:")]
            assert "states/s" in elapsed and "peak RSS" in elapsed

    def test_check_fast_requires_reachable(self):
        with pytest.raises(SystemExit):
            main(["check", "--topology", "ring:3", "--backend", "fast"])

    @pytest.mark.parametrize("backend", ["object", "fast"])
    def test_check_reachable_overflow_is_one_line_not_a_traceback(
        self, backend, capsys
    ):
        status = main(
            ["check", "--topology", "ring:3", "--reachable", "--backend",
             backend, "--max-states", "100"]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro check: ring:3 ")
        assert "100" in line and "--max-states" in line

    def test_check_reachable_progress_heartbeats_per_level(self, capsys):
        argv = ["check", "--topology", "ring:3", "--reachable", "--backend",
                "fast", "--progress", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        beats = captured.err.splitlines()
        assert beats and all("states/s" in b and "frontier" in b for b in beats)
        assert [b.split("]")[0] for b in beats] == [
            f"[level {4 * (i + 1)}" for i in range(len(beats))
        ]
        assert "reachable: 720 states" in captured.out

    def test_check_reachable_progress_needs_the_fast_backend(self):
        # The object BFS has no levels: refuse, as --jobs is refused, rather
        # than accept the flag and print nothing.
        with pytest.raises(SystemExit, match="--backend fast"):
            main(["check", "--topology", "ring:3", "--reachable", "--progress", "4"])

    def test_check_fast_sweep_builds_no_object_transition_system(
        self, monkeypatch, capsys
    ):
        import repro.verification as verification

        def boom(*args, **kwargs):
            raise AssertionError("a fast sweep built a scratch System")

        monkeypatch.setattr(verification, "TransitionSystem", boom)
        assert main(
            ["check", "--topology", "ring:3", "--reachable", "--backend", "fast"]
        ) == 0
        assert "reachable: 720 states" in capsys.readouterr().out

    def test_sweep_fast_matches_object(self, capsys):
        argv = ["sweep", "--topology", "ring:5", "--trials", "2",
                "--steps", "400", "--quiet"]
        assert main(argv) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        fast_out = capsys.readouterr().out
        # Identical seeds and RNG parity: the aggregate lines must agree.
        tail = lambda text: [
            l for l in text.splitlines()
            if l.startswith(("trials", "total eats", "meals/1k", "jain"))
        ]
        assert tail(fast_out) == tail(object_out)
