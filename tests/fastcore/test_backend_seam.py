"""The backend seam: make_engine, the CLI flags, and sweeps."""

import pytest

from repro.baselines import ChoySinghDiners, ForkOrderingDiners, HygienicDiners
from repro.core import NADiners, NoFixdepthDiners
from repro.cli import main
from repro.fastcore import (
    STATE_BACKENDS,
    FastEngine,
    PackedSystem,
    UnsupportedBackendError,
    make_engine,
)
from repro.sim import (
    AdversarialDaemon,
    AlwaysHungry,
    Engine,
    FaultEvent,
    FaultPlan,
    RoundDaemon,
    ScriptedHunger,
    System,
    WeaklyFairDaemon,
    edge,
    ring,
)

from .parity import co_run


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

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_initial_configuration_passes_through(self, backend):
        # Regression: the object side called System.from_configuration with
        # a (topology, algorithm, configuration) it does not take.
        origin = System(ring(5), NADiners())
        origin.write_local(1, "needs", True)
        origin.write_local(3, "depth", 2)
        origin.write_edge(edge(2, 3), 3)
        origin.kill(4)
        initial = origin.snapshot()
        engine = make_engine(ring(5), NADiners(), backend=backend, initial=initial)
        assert engine.snapshot() == initial
        assert not engine.system.is_live(4)

    def test_initially_dead_passes_through(self):
        for backend in STATE_BACKENDS:
            engine = make_engine(
                ring(5), NADiners(), backend=backend, initially_dead=(2,)
            )
            assert engine.snapshot().dead == frozenset({2})


class TestUnsupportedCombinations:
    """The fast backend must refuse — loudly — what it cannot replicate."""

    def test_variant_algorithms_rejected(self):
        # What has no action table is refused: the two baselines with their
        # own fork/token cells.  Whatever runs a table's actions is not — an
        # ablation, choy-singh (the no-fixdepth table under another name),
        # or a subclass nobody told the backend about.
        class Tweaked(NADiners):
            pass

        for algorithm in (HygienicDiners(), ForkOrderingDiners()):
            with pytest.raises(UnsupportedBackendError):
                make_engine(ring(4), algorithm, backend="fast")
        for algorithm in (NoFixdepthDiners, ChoySinghDiners, Tweaked):
            make_engine(ring(4), algorithm(), backend="fast").run(50)
            co_run(ring(6), algorithm, steps=300, seed=5,
                   hunger_factory=AlwaysHungry)

    def test_round_daemon_co_runs(self):
        # Refused while FastEngine mirrored the daemons it knew; now the
        # daemon handed over is the daemon that schedules, on either store.
        report = co_run(
            ring(6), NADiners, steps=300, seed=4,
            daemon_factory=RoundDaemon, hunger_factory=AlwaysHungry,
        )
        assert report.steps == 300

    def test_custom_fault_event_co_runs(self):
        # Likewise a FaultEvent written against System's mutators.
        class Meteor(FaultEvent):
            at_step = 10

            def apply(self, system, rng):
                system.write_local(1, "depth", 2)
                system.havoc_process(2, rng)
                system.randomize(rng, (4,))
                system.kill(3)

        report = co_run(
            ring(6), NADiners, steps=300, seed=4,
            hunger_factory=AlwaysHungry,
            faults_factory=lambda: FaultPlan([Meteor()]),
        )
        assert 3 in report.final.dead
        (struck,) = [e for e in report.events if e.kind.name == "TRANSIENT"]
        assert struck.step == 10

    def test_unserved_system_surface_refused(self):
        # What the packed store does not hold in System's form it refuses by
        # name — a score function reading an edge cell, say — instead of
        # failing with an AttributeError somewhere inside a daemon.
        def nosy(system, pid, action):
            return float(system.read_edge(edge(0, 1)))

        engine = FastEngine(
            ring(4), NADiners(), AdversarialDaemon(nosy), hunger=AlwaysHungry()
        )
        with pytest.raises(UnsupportedBackendError, match="System.read_edge"):
            engine.run(10)
        store = PackedSystem(ring(4), NADiners())
        assert not hasattr(store, "no_such_thing")  # plain misses stay plain

    def test_scripted_hunger_uses_generic_path(self):
        # Arbitrary hunger policies fall back to per-step wants() calls —
        # slower, but parity still holds.
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
        # The daemon passed in is the one that schedules — it used to be
        # read for ``.patience`` and otherwise ignored.
        class Counting(WeaklyFairDaemon):
            selections = 0

            def select(self, system, enabled, step, rng):
                self.selections += 1
                return super().select(system, enabled, step, rng)

        daemon = Counting(patience=7)
        engine = FastEngine(ring(4), NADiners(), daemon, hunger=AlwaysHungry(), seed=0)
        assert engine.daemon is daemon
        assert engine.run(100).steps == daemon.selections == 100
        assert daemon._ledger._tick == 100
        daemon.reset()
        assert daemon._ledger._enabled is None  # the next selection starts over


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
                ["run", "--topology", "ring:4", "--algorithm", "hygienic",
                 "--backend", "fast"]
            )

    @pytest.mark.parametrize("name", ["no-fixdepth", "no-threshold", "choy-singh"])
    def test_run_fast_runs_the_ablations(self, name, capsys):
        argv = ["run", "--topology", "ring:6", "--steps", "1500",
                "--algorithm", name]
        assert main(argv) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        assert capsys.readouterr().out == object_out

    def test_check_reachable_backends_agree(self, capsys):
        # The CLI sweeps int keys; the object model's configuration-keyed BFS
        # is the reference its counts are read against.
        from repro.core import e_holds
        from repro.verification import TransitionSystem

        assert main(["check", "--topology", "ring:3", "--reachable"]) == 0
        out = capsys.readouterr().out.splitlines()
        topo = ring(3)
        algo = NADiners(depth_cap=topo.diameter + 1, diameter_override=topo.diameter)
        system = System(topo, algo)
        for pid in topo.nodes:
            system.write_local(pid, "needs", True)
        graph = TransitionSystem(algo, topo).reachable_from([system.snapshot()])
        assert len(graph) == 720
        assert out[1] == (
            f"reachable: {len(graph)} states, "
            f"{sum(len(v) for v in graph.values())} transitions"
        )
        assert out[2] == (
            "safety violations (neighbours eating): "
            f"{sum(not e_holds(c) for c in graph)}"
        )
        # Timing has its own line, so the lines CI greps stay stable.
        assert out[3].startswith("elapsed:")
        assert "states/s" in out[3] and "peak RSS" in out[3]

    @pytest.mark.parametrize(
        "spec, argv, needed",
        [
            ("ring:3", ["--reachable", "--max-states", "100"], "100"),
            # the full space is a closed formula: refused before enumerating
            ("star:4", [], "3981312"),
        ],
        ids=["reachable", "full-space"],
    )
    def test_check_reachable_overflow_is_one_line_not_a_traceback(
        self, spec, argv, needed, capsys
    ):
        status = main(["check", "--topology", spec] + argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro check: {spec} ")
        assert needed in line and "--max-states" in line

    def test_check_reachable_progress_heartbeats_per_level(self, capsys):
        argv = ["check", "--topology", "ring:3", "--reachable", "--progress", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        beats = captured.err.splitlines()
        assert beats and all("states/s" in b and "frontier" in b for b in beats)
        assert [b.split("]")[0] for b in beats] == [
            f"[level {4 * (i + 1)}" for i in range(len(beats))
        ]
        assert "reachable: 720 states" in captured.out

    def test_check_fast_sweep_builds_no_object_transition_system(
        self, monkeypatch, capsys
    ):
        import repro.verification as verification

        def boom(*args, **kwargs):
            raise AssertionError("a fast sweep built a scratch System")

        monkeypatch.setattr(verification.TransitionSystem, "__init__", boom)
        assert main(["check", "--topology", "ring:3", "--reachable"]) == 0
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

    def test_sweep_fast_runs_the_ablations(self, capsys):
        argv = ["sweep", "--topology", "ring:5", "--trials", "2", "--steps", "400",
                "--algorithm", "no-fixdepth", "--algorithm", "no-threshold",
                "--crash-victim", "0", "--crash-at", "50", "--malicious", "20",
                "--quiet"]
        assert main(argv) == 0
        object_out = capsys.readouterr().out
        assert main(argv + ["--backend", "fast"]) == 0
        assert capsys.readouterr().out == object_out
