"""Priority-graph questions: live cycles (``analysis.find_live_cycles``),
waiting chains and depth estimates (``core.predicates`` and Figure 1's own
``fixdepth``)."""

import math

from repro.analysis import find_live_cycles, plant_priority_cycle
from repro.core import NADiners, longest_live_ancestor_chain, nc_holds
from repro.sim import System, line, ring


def longest_live_chain(config):
    """The paper's ``l:p``, maximised over the processes."""
    return max(longest_live_ancestor_chain(config, p) for p in config.topology.nodes)


def enabled(system, pid):
    return [a.name for a in system.enabled_actions(pid)]


class TestCycles:
    def test_acyclic_initially(self):
        c = System(line(4), NADiners()).snapshot()
        assert find_live_cycles(c) == ()

    def test_detects_planted_cycle(self):
        s = System(ring(4), NADiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        cycles = find_live_cycles(s.snapshot())
        assert any(set(cy) == {0, 1, 2, 3} for cy in cycles)

    def test_cycle_with_dead_member_not_live(self):
        s = System(ring(4), NADiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        s.kill(2)
        assert find_live_cycles(s.snapshot()) == ()

    def test_canonical_dedup(self):
        s = System(ring(3), NADiners())
        plant_priority_cycle(s, [0, 1, 2])
        cycles = find_live_cycles(s.snapshot())
        assert len(cycles) == 1


class TestChains:
    def test_line_chain(self):
        c = System(line(4), NADiners()).snapshot()
        assert longest_live_chain(c) == 4

    def test_dead_break_chain(self):
        s = System(line(4), NADiners())
        s.kill(1)
        assert longest_live_chain(s.snapshot()) == 2  # 2 -> 3

    def test_cycle_reports_live_count(self):
        # A live cycle makes chains unbounded: l:p is infinite on it.
        s = System(ring(5), NADiners())
        plant_priority_cycle(s, list(range(5)))
        assert longest_live_chain(s.snapshot()) == math.inf


class TestStats:
    def test_initial_line_stats(self):
        c = System(line(4), NADiners()).snapshot()
        assert nc_holds(c) and find_live_cycles(c) == ()
        # Node order is the initial priority: 0 is the source, 3 the sink.
        assert [longest_live_ancestor_chain(c, p) for p in range(4)] == [1, 2, 3, 4]

    def test_cycle_stats(self):
        s = System(ring(4), NADiners())
        plant_priority_cycle(s, [0, 1, 2, 3])
        assert not nc_holds(s.snapshot())
        assert find_live_cycles(s.snapshot())


class TestDepthErrors:
    def test_exact_initial_depths(self):
        # depth.p is the distance to p's farthest descendant, so the initial
        # state is quiescent: no fixdepth (or anything else) is enabled.
        topo = line(4)
        s = System(topo, NADiners())
        assert [s.read_local(p, "depth") for p in topo.nodes] == [3, 2, 1, 0]
        assert topo.node_order_depths() == {0: 3, 1: 2, 2: 1, 3: 0}
        assert not s.all_enabled()

    def test_underestimate_negative(self):
        # An underestimate is what fixdepth corrects, to the exact value.
        s = System(line(4), NADiners())
        s.write_local(0, "depth", 0)  # true depth is 3
        assert enabled(s, 0) == ["fixdepth"]
        s.execute(0, s.algorithm.action_named("fixdepth"))
        assert s.read_local(0, "depth") == 3

    def test_stale_overestimate_positive(self):
        # A stale overestimate is harmless unless it exceeds D: nothing
        # lowers it, and only depth > D makes the process exit.
        s = System(line(4), NADiners())
        s.write_local(3, "depth", 2)  # sink: true depth 0
        assert enabled(s, 3) == []
        s.write_local(3, "depth", 4)  # D = 3
        assert enabled(s, 3) == ["exit"]
