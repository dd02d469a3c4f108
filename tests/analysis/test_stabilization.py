"""Unit tests for stabilization measurement."""

import pytest

from repro.analysis import (
    ConvergenceSummary,
    convergence_study,
    plant_priority_cycle,
    steps_to_predicate,
)
from repro.core import NADiners, invariant_holds, nc_holds
from repro.sim import System, line, ring, star


class TestPlantCycle:
    def test_installs_directed_cycle(self):
        s = System(ring(4), NADiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        assert not nc_holds(s.snapshot())

    def test_rejects_non_neighbors(self):
        s = System(line(4), NADiners())
        with pytest.raises(ValueError):
            plant_priority_cycle(s, [0, 2, 3])

    def test_rejects_short_cycle(self):
        s = System(ring(4), NADiners())
        with pytest.raises(ValueError):
            plant_priority_cycle(s, [0, 1])

    def test_zeroes_depths(self):
        s = System(ring(4), NADiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        assert all(s.read_local(p, "depth") == 0 for p in range(4))

    def test_can_keep_depths(self):
        s = System(ring(4), NADiners())
        s.write_local(0, "depth", 2)
        plant_priority_cycle(s, [0, 1, 2, 3], corrupt_depths=False)
        assert s.read_local(0, "depth") == 2


class TestStepsToPredicate:
    def test_already_converged(self):
        s = System(line(4), NADiners())
        result = steps_to_predicate(s, invariant_holds, max_steps=10)
        assert result.converged and result.steps == 0

    def test_converges_from_cycle(self):
        s = System(ring(6), NADiners())
        plant_priority_cycle(s, list(range(6)))
        result = steps_to_predicate(s, nc_holds, max_steps=50_000, seed=1)
        assert result.converged
        assert result.steps > 0

    def test_reports_non_convergence(self):
        from repro.core import NoFixdepthDiners
        from repro.sim import NeverHungry

        # Without fixdepth and nobody eating, a planted cycle never breaks.
        s = System(ring(4), NoFixdepthDiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        result = steps_to_predicate(
            s, nc_holds, max_steps=5000, seed=2, hunger=NeverHungry()
        )
        assert not result.converged
        assert result.steps is None


class TestConvergenceStudy:
    def test_all_trials_converge(self):
        summary = convergence_study(
            NADiners, line(5), trials=6, max_steps=100_000, seed=3
        )
        assert summary.all_converged
        assert summary.trials == 6
        assert len(summary.steps) == 6

    def test_with_planted_cycles(self):
        summary = convergence_study(
            NADiners, ring(5), trials=4, max_steps=200_000, seed=4,
            plant_cycle=True,
            predicate=nc_holds,
        )
        assert summary.all_converged

    def test_statistics(self):
        summary = ConvergenceSummary(trials=3, converged=3, steps=(10, 20, 60))
        assert summary.mean_steps == 30
        assert summary.median_steps == 20
        assert summary.max_steps == 60

    def test_empty_statistics(self):
        import math

        summary = ConvergenceSummary(trials=2, converged=0, steps=())
        assert math.isnan(summary.mean_steps)
        assert summary.max_steps == 0
        assert not summary.all_converged

    def test_star_topology(self):
        summary = convergence_study(
            NADiners, star(4), trials=4, max_steps=100_000, seed=5
        )
        assert summary.all_converged

    @pytest.mark.parametrize("topology, predicate", [
        ("line:5", invariant_holds), ("ring:5", nc_holds),
    ])
    def test_the_suite_shard_is_a_study_trial(self, topology, predicate):
        """The suite's E3 shard at seed ``s * 10_007 + t`` is trial ``t`` of
        ``convergence_study(seed=s)``: one trial function, one seed dance."""
        from repro.analysis.suite import SuiteConfig, suite_specs
        from repro.campaign import execute_shard
        from repro.sim import from_spec

        config = SuiteConfig(seed=3, line_n=5, trials=3, max_steps=100_000)
        stabilization = suite_specs(config)[1]
        shards = [
            s for s in stabilization.shards if s.params["topology"] == topology
        ]
        assert [s.seed for s in shards] == [3 * 10_007 + t for t in range(3)]
        records = [execute_shard(s).result for s in shards]
        summary = convergence_study(
            NADiners, from_spec(topology), trials=3, max_steps=100_000, seed=3,
            predicate=predicate,
        )
        assert summary.converged == sum(r["converged"] for r in records)
        assert summary.steps == tuple(r["steps"] for r in records if r["converged"])


class TestRoundsToPredicate:
    def test_rounds_counted(self):
        from repro.analysis import plant_priority_cycle, rounds_to_predicate
        from repro.sim import NeverHungry, System, ring

        s = System(ring(6), NADiners())
        plant_priority_cycle(s, list(range(6)))
        rounds = rounds_to_predicate(s, nc_holds, seed=1, hunger=NeverHungry())
        assert rounds is not None
        assert 1 <= rounds <= 20

    def test_none_when_not_converging(self):
        from repro.analysis import plant_priority_cycle, rounds_to_predicate
        from repro.core import NoFixdepthDiners
        from repro.sim import NeverHungry, System, ring

        s = System(ring(4), NoFixdepthDiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        rounds = rounds_to_predicate(
            s, nc_holds, max_steps=3000, seed=1, hunger=NeverHungry()
        )
        assert rounds is None

    def test_round_complexity_grows_slowly(self):
        """Cycle breaking takes few rounds even on long rings: fixdepth
        fires for every process each round, so depth information travels
        many hops per round."""
        from repro.analysis import plant_priority_cycle, rounds_to_predicate
        from repro.sim import NeverHungry, System, ring

        s = System(ring(12), NADiners())
        plant_priority_cycle(s, list(range(12)))
        rounds = rounds_to_predicate(s, nc_holds, seed=2, hunger=NeverHungry())
        assert rounds is not None and rounds <= 10
