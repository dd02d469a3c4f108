"""Unit tests for the shared diners vocabulary (core.state)."""

from repro.core import DinerState, NADiners, direct_ancestors
from repro.sim import System, edge, line, star

from .predicates_oracle import diner_state, direct_descendants


class TestDinerState:
    def test_values(self):
        assert DinerState.THINKING.value == "T"
        assert DinerState.HUNGRY.value == "H"
        assert DinerState.EATING.value == "E"

    def test_from_string(self):
        assert DinerState("H") is DinerState.HUNGRY

    def test_diner_state_accessor(self):
        s = System(line(3), NADiners())
        s.write_local(1, "state", "E")
        assert diner_state(s.snapshot(), 1) is DinerState.EATING


class TestAncestryAccessors:
    def test_initial_line_orientation(self):
        c = System(line(4), NADiners()).snapshot()
        assert direct_ancestors(c, 0) == ()
        assert direct_ancestors(c, 2) == (1,)
        assert direct_descendants(c, 2) == (3,)
        assert direct_descendants(c, 3) == ()

    def test_flip_changes_roles(self):
        s = System(line(3), NADiners())
        s.write_edge(edge(0, 1), 1)  # 1 becomes 0's ancestor
        c = s.snapshot()
        assert direct_ancestors(c, 0) == (1,)
        assert set(direct_descendants(c, 1)) == {0, 2}  # 2 by node order

    def test_partition_of_neighbors(self):
        """Every neighbour is exactly one of: ancestor or descendant."""
        s = System(star(5), NADiners())
        c = s.snapshot()
        for p in c.topology.nodes:
            ancestors = set(direct_ancestors(c, p))
            descendants = set(direct_descendants(c, p))
            assert not ancestors & descendants
            assert ancestors | descendants == set(c.topology.neighbors(p))

    def test_symmetry(self):
        """q is p's ancestor iff p is q's descendant."""
        c = System(star(4), NADiners()).snapshot()
        for p in c.topology.nodes:
            for q in direct_ancestors(c, p):
                assert p in direct_descendants(c, q)
