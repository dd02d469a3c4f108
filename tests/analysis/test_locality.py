"""Unit tests for failure-locality measurement."""

import pytest

from repro.analysis import (
    measure_failure_locality,
    run_until_eating,
)
from repro.baselines import HygienicDiners
from repro.core import NADiners
from repro.sim import AlwaysHungry, Engine, SimulationError, System, line


class TestRunUntilEating:
    def test_reaches_eating(self):
        s = System(line(4), NADiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=1)
        run_until_eating(e, 0, 20_000)
        assert s.read_local(0, "state") == "E"

    def test_times_out(self):
        from repro.sim import NeverHungry

        s = System(line(4), NADiners())
        e = Engine(s, hunger=NeverHungry(), seed=1)
        with pytest.raises(SimulationError):
            run_until_eating(e, 0, 100)


class TestMeasureFailureLocality:
    def test_na_diners_radius_at_most_two(self):
        topo = line(8)
        report = measure_failure_locality(
            NADiners(),
            topo,
            [0],
            warmup_steps=30_000,
            settle_steps=8_000,
            window=30_000,
            seed=0,
        )
        assert report.starvation_radius is None or report.starvation_radius <= 2
        assert report.all_beyond_radius_eat(topo, radius=2)

    def test_crash_site_neighbors_starve(self):
        # A crashed eater definitively blocks its direct neighbours.
        topo = line(8)
        report = measure_failure_locality(
            NADiners(),
            topo,
            [3],
            warmup_steps=30_000,
            settle_steps=8_000,
            window=30_000,
            seed=1,
        )
        assert {2, 4} <= set(report.starving)

    def test_dead_not_reported(self):
        topo = line(6)
        report = measure_failure_locality(
            NADiners(), topo, [0], warmup_steps=20_000, window=20_000, seed=2
        )
        assert 0 not in report.eats

    def test_eats_by_distance_grouping(self):
        topo = line(6)
        report = measure_failure_locality(
            NADiners(), topo, [0], warmup_steps=20_000, window=20_000, seed=3
        )
        grouped = report.eats_by_distance(topo)
        assert set(grouped) <= {1, 2, 3, 4, 5}
        n_total = sum(n for n, _ in grouped.values())
        assert n_total == 5  # all live processes grouped

    def test_malicious_variant_runs(self):
        topo = line(6)
        report = measure_failure_locality(
            NADiners(),
            topo,
            [0],
            malicious_steps=6,
            warmup_steps=20_000,
            settle_steps=8_000,
            window=25_000,
            seed=4,
        )
        assert report.all_beyond_radius_eat(topo, radius=2)

    def test_hygienic_starves_farther(self):
        """The baseline contrast: hygienic's starvation radius can exceed 2
        on a line where the paper's program keeps it at 2."""
        topo = line(8)
        report = measure_failure_locality(
            HygienicDiners(),
            topo,
            [0],
            warmup_steps=30_000,
            settle_steps=12_000,
            window=30_000,
            seed=5,
        )
        assert report.starving  # at least the blocked neighbour


class TestFrozenChainScenario:
    def test_construction(self):
        from repro.analysis import frozen_chain_scenario

        system = frozen_chain_scenario(NADiners(), line(5))
        assert not system.is_live(0)
        assert system.read_local(0, "state") == "E"
        assert all(system.read_local(p, "state") == "H" for p in range(1, 5))

    def test_custom_head(self):
        from repro.analysis import frozen_chain_scenario

        system = frozen_chain_scenario(NADiners(), line(5), head=2)
        assert not system.is_live(2)

    def test_radius_contrast(self):
        """The construction separates the full program from the
        no-threshold ablation by the widest possible margin."""
        from repro.analysis import frozen_chain_radius
        from repro.core import NoDynamicThresholdDiners

        topo = line(7)
        assert frozen_chain_radius(NADiners(), topo, window=25_000) <= 2
        assert frozen_chain_radius(
            NoDynamicThresholdDiners(), topo, window=25_000
        ) == 6

    def test_star_hub_crash_blocks_only_leaves(self):
        from repro.analysis import frozen_chain_radius
        from repro.sim import star

        # The default head on a star is the hub: a crashed eating hub may
        # starve every leaf, but they are all at distance 1 <= 2.
        topo = star(4)
        radius = frozen_chain_radius(NADiners(), topo, window=25_000)
        assert radius <= 1
