"""Unit tests for the paper's algorithm (Figure 1), action by action."""

import pytest

from repro.core import NADiners
from repro.sim import System, edge, line, ring, star


def enabled_names(system, pid):
    return [a.name for a in system.enabled_actions(pid)]


def line3():
    """line(3) with priorities 0 -> 1 -> 2 (node order), everyone needing."""
    s = System(line(3), NADiners())
    for p in s.pids:
        s.write_local(p, "needs", True)
    return s


class TestJoin:
    def test_enabled_when_thinking_and_ancestors_thinking(self):
        s = line3()
        assert "join" in enabled_names(s, 0)  # 0 has no ancestors

    def test_disabled_without_needs(self):
        s = line3()
        s.write_local(0, "needs", False)
        assert "join" not in enabled_names(s, 0)

    def test_disabled_when_not_thinking(self):
        s = line3()
        s.write_local(0, "state", "H")
        assert "join" not in enabled_names(s, 0)

    def test_disabled_when_ancestor_hungry(self):
        s = line3()
        s.write_local(0, "state", "H")  # 0 is 1's ancestor
        assert "join" not in enabled_names(s, 1)

    def test_disabled_when_ancestor_eating(self):
        s = line3()
        s.write_local(0, "state", "E")
        assert "join" not in enabled_names(s, 1)

    def test_descendant_state_irrelevant(self):
        s = line3()
        s.write_local(2, "state", "E")  # 2 is 1's descendant
        assert "join" in enabled_names(s, 1)

    def test_effect(self):
        s = line3()
        s.execute(0, NADiners().action_named("join"))
        assert s.read_local(0, "state") == "H"


class TestLeave:
    def test_enabled_when_ancestor_not_thinking(self):
        s = line3()
        s.write_local(1, "state", "H")
        s.write_local(0, "state", "H")
        assert "leave" in enabled_names(s, 1)

    def test_disabled_when_all_ancestors_thinking(self):
        s = line3()
        s.write_local(1, "state", "H")
        assert "leave" not in enabled_names(s, 1)

    def test_disabled_for_source_process(self):
        s = line3()
        s.write_local(0, "state", "H")  # 0 has no ancestors
        assert "leave" not in enabled_names(s, 0)

    def test_effect_returns_to_thinking(self):
        s = line3()
        s.write_local(1, "state", "H")
        s.write_local(0, "state", "H")
        s.execute(1, NADiners().action_named("leave"))
        assert s.read_local(1, "state") == "T"


class TestEnter:
    def test_enabled_for_top_priority_hungry(self):
        s = line3()
        s.write_local(0, "state", "H")
        assert "enter" in enabled_names(s, 0)

    def test_disabled_when_ancestor_hungry(self):
        s = line3()
        s.write_local(1, "state", "H")
        s.write_local(0, "state", "H")
        assert "enter" not in enabled_names(s, 1)

    def test_disabled_when_descendant_eating(self):
        s = line3()
        s.write_local(0, "state", "H")
        s.write_local(1, "state", "E")  # descendant of 0 eating
        assert "enter" not in enabled_names(s, 0)

    def test_enabled_when_descendant_merely_hungry(self):
        s = line3()
        s.write_local(0, "state", "H")
        s.write_local(1, "state", "H")
        assert "enter" in enabled_names(s, 0)

    def test_effect(self):
        s = line3()
        s.write_local(0, "state", "H")
        s.execute(0, NADiners().action_named("enter"))
        assert s.read_local(0, "state") == "E"


class TestExit:
    def test_enabled_while_eating(self):
        s = line3()
        s.write_local(0, "state", "E")
        assert "exit" in enabled_names(s, 0)

    def test_enabled_on_depth_overflow(self):
        s = line3()  # diameter 2
        s.write_local(2, "depth", 3)
        assert "exit" in enabled_names(s, 2)

    def test_disabled_when_thinking_and_depth_small(self):
        s = line3()
        s.write_local(0, "needs", False)
        assert "exit" not in enabled_names(s, 0)

    def test_effect_demotes_below_all_neighbors(self):
        s = line3()
        s.write_local(1, "state", "E")
        s.execute(1, NADiners().action_named("exit"))
        assert s.read_local(1, "state") == "T"
        assert s.read_local(1, "depth") == 0
        assert s.read_edge(edge(0, 1)) == 0  # 0 became 1's ancestor
        assert s.read_edge(edge(1, 2)) == 2  # 2 became 1's ancestor

    def test_exit_makes_process_a_sink(self):
        s = System(star(4), NADiners())
        s.write_local(0, "state", "E")
        s.execute(0, NADiners().action_named("exit"))
        for leaf in range(1, 5):
            assert s.read_edge(edge(0, leaf)) == leaf


class TestFixdepth:
    def test_enabled_on_underestimate(self):
        s = line3()
        s.write_local(2, "depth", 5)  # descendant of 1 with a large depth
        assert "fixdepth" in enabled_names(s, 1)

    def test_disabled_when_estimate_sufficient(self):
        s = line3()  # initial depths are exact: 2, 1, 0
        assert "fixdepth" not in enabled_names(s, 1)

    def test_ancestor_depth_irrelevant(self):
        s = line3()
        s.write_local(0, "depth", 9)  # 0 is 1's ancestor, not descendant
        assert "fixdepth" not in enabled_names(s, 1)

    def test_effect_takes_max_violating_descendant(self):
        s = System(star(3), NADiners())  # hub 0 is ancestor of all leaves
        s.write_local(1, "depth", 4)
        s.write_local(2, "depth", 7)
        s.execute(0, NADiners().action_named("fixdepth"))
        assert s.read_local(0, "depth") == 8

    def test_clamped_with_depth_cap(self):
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        s = System(topo, algo)
        s.write_local(2, "depth", 3)  # at cap
        s.write_local(1, "depth", 0)
        assert "fixdepth" in [a.name for a in s.enabled_actions(1)]
        s.execute(1, algo.action_named("fixdepth"))
        assert s.read_local(1, "depth") == 3  # clamped at cap

    def test_no_self_loop_at_cap(self):
        # Both at cap: the clamped guard must be disabled (no stutter).
        topo = line(3)
        algo = NADiners(depth_cap=topo.diameter + 1)
        s = System(topo, algo)
        s.write_local(1, "depth", 3)
        s.write_local(2, "depth", 3)
        assert "fixdepth" not in [a.name for a in s.enabled_actions(1)]


class TestParameters:
    def test_bad_depth_cap(self):
        with pytest.raises(ValueError):
            NADiners(depth_cap=0)

    def test_bad_diameter_override(self):
        with pytest.raises(ValueError):
            NADiners(diameter_override=-1)

    def test_diameter_override_changes_exit_threshold(self):
        topo = ring(6)  # diameter 3
        s = System(topo, NADiners(diameter_override=5))
        s.write_local(0, "depth", 4)  # above diameter but below override
        assert "exit" not in [a.name for a in s.enabled_actions(0)]
        s.write_local(0, "depth", 6)
        assert "exit" in [a.name for a in s.enabled_actions(0)]

    def test_action_named_unknown(self):
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            NADiners().action_named("nope")

    def test_five_actions_in_paper_order(self):
        names = [a.name for a in NADiners().actions()]
        assert names == ["join", "leave", "enter", "exit", "fixdepth"]


class TestInitialState:
    def test_initial_depths_exact_on_ring(self):
        s = System(ring(4), NADiners())
        # Node-order orientation: 0->1->2->3 and 0->3; the longest chain
        # from 0 runs through the whole ring (the documented long-chain
        # finding: 3 exceeds the diameter 2).
        assert [s.read_local(p, "depth") for p in s.pids] == [3, 2, 1, 0]

    def test_initial_quiescence_on_path_like_graphs(self):
        # Where the longest initial chain equals the diameter, the exact
        # initial depths make the initial state quiescent.
        from repro.sim import binary_tree

        for topo in (line(5), star(4), binary_tree(3)):
            assert System(topo, NADiners()).is_quiescent()

    def test_one_algorithm_over_short_lived_topologies(self):
        # The initial depths belong to the topology.  Cached on the
        # algorithm under ``id(topology)`` they were another graph's once a
        # dead topology's address was reused: line(3) -> [7, 6, 5], an
        # illegitimate initial state, or a KeyError.
        algo = NADiners()
        for i in range(2000):
            n = 3 + i % 7
            topo = line(n) if i % 2 else ring(n)
            depths = [algo.initial_locals(p, topo)["depth"] for p in topo.nodes]
            assert depths == list(range(n - 1, -1, -1))

    def test_ring_initial_state_churns(self):
        # On a ring the node-order chain exceeds the diameter, so the
        # process at the top legitimately has a (spurious) exit enabled —
        # the behaviour the threshold finding documents.
        s = System(ring(4), NADiners())
        assert [(p, a.name) for p, a in s.all_enabled()] == [(0, "exit")]

    def test_hunger_variable_declared(self):
        assert NADiners().hunger_variable == "needs"
