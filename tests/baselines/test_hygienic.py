"""Unit tests for the hygienic (Chandy–Misra style) baseline."""

import pytest

from repro.baselines import HygienicDiners
from repro.core import e_holds
from repro.sim import AlwaysHungry, Engine, System, edge, line, ring
from repro.verification import TransitionSystem, enumerate_configurations

from .hygienic_oracle import HygienicOracle


class TestActions:
    def test_three_actions(self):
        assert [a.name for a in HygienicDiners().actions()] == [
            "join",
            "enter",
            "exit",
        ]

    def test_join_unconditional_on_ancestors(self):
        # Unlike the paper's program, hygienic joins even behind a hungry
        # ancestor.
        s = System(line(3), HygienicDiners())
        s.write_local(0, "state", "H")
        s.write_local(1, "needs", True)
        assert "join" in [a.name for a in s.enabled_actions(1)]

    def test_enter_blocked_by_higher_priority_hungry_neighbor(self):
        s = System(line(3), HygienicDiners())
        s.write_local(0, "state", "H")  # 0 has priority over 1
        s.write_local(1, "state", "H")
        assert "enter" not in [a.name for a in s.enabled_actions(1)]

    def test_enter_allowed_over_lower_priority_hungry_neighbor(self):
        s = System(line(3), HygienicDiners())
        s.write_local(0, "state", "H")
        s.write_local(1, "state", "H")
        assert "enter" in [a.name for a in s.enabled_actions(0)]

    def test_enter_blocked_by_any_eating_neighbor(self):
        s = System(line(3), HygienicDiners())
        s.write_local(0, "state", "H")
        s.write_local(1, "state", "E")  # even a lower-priority eater blocks
        assert "enter" not in [a.name for a in s.enabled_actions(0)]

    def test_exit_demotes(self):
        s = System(line(3), HygienicDiners())
        s.write_local(1, "state", "E")
        s.execute(1, HygienicDiners().action_named("exit"))
        assert s.read_edge(edge(0, 1)) == 0
        assert s.read_edge(edge(1, 2)) == 2


class TestTableAgainstOracle:
    """The table's lowering against the hand-written guards
    (``hygienic_oracle.py``): same successors, same order, every state."""

    @pytest.mark.parametrize(
        "topo, states", [(ring(3), 1728), (line(4), 10368)], ids=["ring3", "line4"]
    )
    def test_every_state_has_the_hand_written_successors(self, topo, states):
        derived = TransitionSystem(HygienicDiners(), topo)
        oracle = TransitionSystem(HygienicOracle(), topo)
        fired = set()
        visited = 0
        for config in enumerate_configurations(HygienicDiners(), topo):
            successors = derived.successors(config)
            assert successors == oracle.successors(config), config
            fired.update(t.action for t in successors)
            visited += 1
        assert visited == states
        assert fired == {"join", "enter", "exit"}


class TestBehaviour:
    def test_safety_from_legitimate_start(self):
        s = System(ring(6), HygienicDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=1)
        for _ in range(5000):
            if not e.step():
                break
            assert e_holds(s.snapshot())

    def test_liveness_without_faults(self):
        s = System(ring(7), HygienicDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=2)
        e.run(8000)
        assert all(e.eats_of(p) > 0 for p in s.pids)

    def test_no_hunger_goes_quiescent(self):
        from repro.sim import NeverHungry

        s = System(line(4), HygienicDiners())
        e = Engine(s, hunger=NeverHungry(), seed=0)
        assert e.run(100).quiescent

    def test_blocked_chain_behind_dead_eater(self):
        """The unbounded-locality mechanism: a hungry process with priority
        below a forever-hungry process never eats."""
        s = System(line(4), HygienicDiners())
        # 0 eats forever (dead): 1 starves hungry; 2 behind 1 starves too
        # once 1 has priority over it.
        s.write_local(0, "state", "E")
        s.kill(0)
        s.write_local(1, "state", "H")
        s.write_edge(edge(1, 2), 1)  # 1 has priority over 2
        s.write_local(2, "state", "H")
        e = Engine(s, hunger=AlwaysHungry(), seed=3)
        e.run(10_000)
        assert e.eats_of(1) == 0
        assert e.eats_of(2) == 0
        # The chain extends all the way: 2 stays hungry with priority over 3
        # (the initial orientation), so even 3 — distance 3 from the crash —
        # starves.  This is the unbounded failure locality E2 measures.
        assert e.eats_of(3) == 0
