"""Property-based tests for the §3 predicates over arbitrary states."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NADiners,
    green_set,
    is_shallow,
    longest_live_ancestor_chain,
    nc_holds,
    red_set,
    shallow_set,
    stably_shallow_set,
)
from repro.sim import System, line, ring

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")

sizes = st.integers(3, 8)
seeds = st.integers(0, 10_000)
n_dead = st.integers(0, 2)


def arbitrary_system(topo_builder, n, seed, dead_count=0, malicious_count=0):
    s = System(topo_builder(n), NADiners())
    rng = random.Random(seed)
    s.randomize(rng)
    pids = list(s.pids)
    rng.shuffle(pids)
    for p in pids[:dead_count]:
        s.kill(p)
    for p in pids[dead_count : dead_count + malicious_count]:
        s.mark_malicious(p)
    return s


class TestRedGreenPartition:
    @given(sizes, seeds, n_dead)
    def test_partition(self, n, seed, dead_count):
        c = arbitrary_system(ring, n, seed, dead_count).snapshot()
        reds, greens = red_set(c), green_set(c)
        assert reds | greens == frozenset(c.topology.nodes)
        assert not reds & greens

    @given(sizes, seeds, n_dead)
    def test_fixpoint_idempotent(self, n, seed, dead_count):
        # The fixpoint computation is deterministic for a given state.
        c = arbitrary_system(line, n, seed, dead_count).snapshot()
        assert red_set(c) == red_set(c)

    @given(sizes, seeds)
    def test_more_dead_more_red(self, n, seed):
        """RD is monotone in the dead set: killing one more process can
        only grow the red set."""
        s = arbitrary_system(ring, n, seed)
        before = red_set(s.snapshot())
        s.kill(s.pids[0])
        after = red_set(s.snapshot())
        assert before <= after


class TestShallowness:
    @given(sizes, seeds, n_dead)
    def test_dead_are_shallow_and_stable(self, n, seed, dead_count):
        c = arbitrary_system(line, n, seed, dead_count).snapshot()
        for p in c.dead:
            assert is_shallow(c, p)
            assert p in stably_shallow_set(c)

    @given(sizes, seeds, n_dead)
    def test_stably_shallow_subset_of_shallow(self, n, seed, dead_count):
        c = arbitrary_system(ring, n, seed, dead_count).snapshot()
        assert stably_shallow_set(c) <= shallow_set(c)

    @given(sizes, seeds)
    def test_threshold_monotone(self, n, seed):
        """A larger threshold can only make more processes shallow."""
        c = arbitrary_system(line, n, seed).snapshot()
        d = c.topology.diameter
        small = shallow_set(c, threshold=d)
        large = shallow_set(c, threshold=d + 3)
        assert small <= large


class TestAncestorChains:
    @given(sizes, seeds, n_dead)
    def test_chain_bounds(self, n, seed, dead_count):
        c = arbitrary_system(line, n, seed, dead_count).snapshot()
        for p in c.topology.nodes:
            value = longest_live_ancestor_chain(c, p)
            if p in c.faulty:
                assert value == 0
            else:
                assert value == math.inf or 1 <= value <= len(c.topology)

    @given(sizes, seeds)
    def test_infinite_iff_on_live_cycle_for_members(self, n, seed):
        """On a directed live cycle every member has an infinite chain."""
        from repro.analysis import plant_priority_cycle

        s = System(ring(n), NADiners())
        s.randomize(random.Random(seed))
        plant_priority_cycle(s, list(range(n)))
        c = s.snapshot()
        assert not nc_holds(c)
        for p in range(n):
            assert longest_live_ancestor_chain(c, p) == math.inf


class TestInvariantThresholdConsistency:
    @given(sizes, seeds)
    def test_literal_implies_corrected(self, n, seed):
        """If I holds with the literal diameter threshold it must also hold
        with any larger threshold (monotonicity of the invariant)."""
        from repro.core import invariant_holds

        c = arbitrary_system(line, n, seed).snapshot()
        d = c.topology.diameter
        if invariant_holds(c, threshold=d):
            assert invariant_holds(c, threshold=d + 2)

    @given(sizes, seeds)
    def test_eating_pairs_matches_e_holds(self, n, seed):
        """e_holds is exactly 'every eating pair is all-dead'."""
        from repro.core import e_holds, eating_pairs

        c = arbitrary_system(ring, n, seed).snapshot()
        expected = all(
            all(p in c.faulty for p in pair) for pair in eating_pairs(c)
        )
        assert e_holds(c) == expected
