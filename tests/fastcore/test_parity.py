"""The seeded parity battery: fast backend == object backend, step for step.

Every combination of topology shape × fault plan × hunger policy × daemon
runs both backends in lockstep via :func:`tests.fastcore.parity.co_run`, which
asserts per-step configuration equality, byte-identical trace-event
streams, and matching action counts.  These are the acceptance tests of
the fast core's one claim: same computation, faster.

Both sides are the same engine and the same daemons since the packed side
became a store, so what a row vouches for is the representation — packed
guards, commands and fault cells against the object model's; the daemons
themselves are pinned to their pre-merge behaviour by the recorded digests
in ``tests/sim/test_engine_goldens.py``.
"""

import pytest

from repro.core import (
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
    WrongDiameterDiners,
)
from repro.sim import (
    AlwaysHungry,
    BenignCrash,
    FaultPlan,
    MaliciousCrash,
    ProbabilisticHunger,
    RoundDaemon,
    RoundRobinDaemon,
    TransientFault,
    WeaklyFairDaemon,
    grid,
    line,
    ring,
)

from .parity import ParityError, _pair, co_run

TOPOLOGIES = [
    pytest.param(ring(6), id="ring6"),
    pytest.param(line(5), id="line5"),
    pytest.param(grid(3, 3), id="grid3x3"),
]


def benign_plan():
    return FaultPlan([BenignCrash(1, at_step=60), BenignCrash(4, at_step=150)])


def malicious_plan():
    # Malice, a benign crash, and a transient corruption in one run: the
    # paper's full fault model, all of whose RNG draws must replicate.
    return FaultPlan(
        [
            MaliciousCrash(2, at_step=40, malicious_steps=25),
            BenignCrash(0, at_step=120),
            TransientFault(at_step=200, pids=(1, 3)),
        ]
    )


PLANS = [
    pytest.param(None, id="no-faults"),
    pytest.param(benign_plan, id="benign"),
    pytest.param(malicious_plan, id="malicious"),
]

HUNGERS = [
    pytest.param(AlwaysHungry, id="always-hungry"),
    pytest.param(lambda: ProbabilisticHunger(0.4), id="prob-hunger"),
]


class TestLockstepBattery:
    @pytest.mark.parametrize("hunger", HUNGERS)
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_weakly_fair(self, topo, plan, hunger):
        report = co_run(
            topo,
            NADiners,
            steps=300,
            seed=11 + len(topo),
            daemon_factory=WeaklyFairDaemon,
            hunger_factory=hunger,
            faults_factory=plan,
        )
        assert report.steps > 0
        if plan is None and hunger is AlwaysHungry:
            assert report.events  # activity must actually be recorded

    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_round_robin(self, topo, plan):
        co_run(
            topo,
            NADiners,
            steps=300,
            seed=5,
            daemon_factory=RoundRobinDaemon,
            hunger_factory=AlwaysHungry,
            faults_factory=plan,
        )

    @pytest.mark.parametrize(
        "daemon",
        [
            pytest.param(RoundDaemon, id="round"),
            # the forced (oldest-first) path of the ledger dominates
            pytest.param(lambda: WeaklyFairDaemon(patience=3), id="patience-3"),
        ],
    )
    @pytest.mark.parametrize("plan", PLANS)
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_rounds_and_forced_choices(self, topo, plan, daemon):
        co_run(
            topo,
            NADiners,
            steps=300,
            seed=5,
            daemon_factory=daemon,
            hunger_factory=AlwaysHungry,
            faults_factory=plan,
        )

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_seed_sweep_with_malice(self, seed):
        co_run(
            ring(8),
            NADiners,
            steps=400,
            seed=seed,
            hunger_factory=lambda: ProbabilisticHunger(0.5),
            faults_factory=malicious_plan,
        )

    @pytest.mark.parametrize(
        "algorithm",
        [
            pytest.param(NoFixdepthDiners, id="no-fixdepth"),
            pytest.param(NoDynamicThresholdDiners, id="no-threshold"),
            pytest.param(lambda: WrongDiameterDiners(1), id="D=1"),
        ],
    )
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_ablations(self, topo, algorithm):
        # The table edits, through the whole engine: the transient fault
        # leaves the cycles and deep chains on which each ablation differs
        # from the full program.
        co_run(
            topo,
            algorithm,
            steps=400,
            seed=9,
            hunger_factory=lambda: ProbabilisticHunger(0.5),
            faults_factory=malicious_plan,
        )


def run_both(topology, algorithm_factory, *, max_steps, seed,
             hunger_factory=None, faults_factory=None):
    """Both backends' whole-run ``RunResult``s (``co_run`` steps by hand and
    never exercises the run loop's quiescence/stop accounting)."""
    obj, fast = _pair(
        topology, algorithm_factory, seed, None, hunger_factory, faults_factory
    )
    return obj.run(max_steps), fast.run(max_steps)


class TestRunResults:
    @pytest.mark.parametrize("topo", TOPOLOGIES)
    def test_full_run_results_agree(self, topo):
        obj, fast = run_both(
            topo,
            NADiners,
            max_steps=500,
            seed=3,
            hunger_factory=AlwaysHungry,
            faults_factory=malicious_plan,
        )
        assert (obj.steps, obj.quiescent, obj.stopped, obj.exhausted) == (
            fast.steps, fast.quiescent, fast.stopped, fast.exhausted
        )
        assert obj.final == fast.final

    def test_quiescence_agrees_without_hunger(self):
        # With nobody hungry the run must go quiescent at the same step.
        obj, fast = run_both(ring(6), NADiners, max_steps=200, seed=1)
        assert obj.quiescent and fast.quiescent
        assert obj.steps == fast.steps


class TestHarness:
    def test_divergence_is_localized(self):
        # A doctored configuration must produce a field-level diff naming
        # the divergent process, not just "configurations differ".
        from .parity import _diff_configurations
        from repro.sim import System

        topo = ring(4)
        a = System(topo, NADiners()).snapshot()
        doctored = System(topo, NADiners())
        doctored.write_local(2, "depth", 3)
        b = doctored.snapshot()
        message = _diff_configurations(17, a, b)
        assert "step 17" in message
        assert "locals 2" in message and "depth" in message

    def test_events_cover_payloads(self):
        report = co_run(
            ring(6),
            NADiners,
            steps=100,
            seed=2,
            hunger_factory=AlwaysHungry,
            record_events=True,
        )
        assert any(ev.payload for ev in report.events)
