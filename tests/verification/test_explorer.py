"""Unit tests for state-space enumeration and the transition system."""

import pytest

from repro.core import NADiners
from repro.fastcore import PackedCodec
from repro.mp import KStateToken
from repro.sim import SimulationError, System, line, ring
from repro.verification import TransitionSystem, enumerate_configurations


class TestEnumeration:
    def test_space_size_matches_enumeration(self):
        topo = line(2)
        algo = NADiners(depth_cap=2)
        configs = list(enumerate_configurations(algo, topo))
        # per process: 3 states x 2 needs x 3 depths = 18; edge: 2 values.
        assert len(configs) == 18 * 18 * 2
        # The key layout counts the checker's space (needs pinned) from the
        # same domains: 9 x 9 x 2.
        pinned = list(
            enumerate_configurations(algo, topo, fixed_locals={"needs": True})
        )
        assert PackedCodec(topo, algo).layout.size == 9 * 9 * 2 == len(pinned)

    def test_fixed_locals_shrink_space(self):
        topo = line(2)
        algo = NADiners(depth_cap=2)
        full = len(list(enumerate_configurations(algo, topo)))
        fixed = len(
            list(enumerate_configurations(algo, topo, fixed_locals={"needs": True}))
        )
        assert fixed * 4 == full

    def test_fixed_value_applied(self):
        topo = line(2)
        algo = NADiners(depth_cap=2)
        for config in enumerate_configurations(algo, topo, fixed_locals={"needs": True}):
            assert config.local(0, "needs") is True
            assert config.local(1, "needs") is True

    def test_unknown_fixed_variable(self):
        with pytest.raises(SimulationError):
            list(enumerate_configurations(NADiners(depth_cap=2), line(2), fixed_locals={"zap": 1}))

    def test_all_distinct(self):
        topo = line(2)
        algo = NADiners(depth_cap=1)
        configs = list(enumerate_configurations(algo, topo))
        assert len(set(configs)) == len(configs)

    def test_dead_marking(self):
        topo = line(2)
        algo = NADiners(depth_cap=1)
        for config in enumerate_configurations(algo, topo, dead=[0]):
            assert config.is_dead(0)


class TestTransitionSystem:
    def test_successors_match_simulator(self):
        topo = line(3)
        algo = NADiners()
        system = System(topo, algo)
        for p in system.pids:
            system.write_local(p, "needs", True)
        config = system.snapshot()
        ts = TransitionSystem(algo, topo)
        labels = {(t.pid, t.action) for t in ts.successors(config)}
        expected = {(p, a.name) for p, a in system.all_enabled()}
        assert labels == expected

    def test_successor_state_correct(self):
        topo = line(3)
        algo = NADiners()
        system = System(topo, algo)
        system.write_local(0, "needs", True)
        ts = TransitionSystem(algo, topo)
        (transition,) = ts.successors(system.snapshot())
        assert transition.action == "join"
        assert transition.target.local(0, "state") == "H"

    def test_source_unmodified(self):
        topo = line(3)
        algo = NADiners()
        system = System(topo, algo)
        system.write_local(0, "needs", True)
        config = system.snapshot()
        ts = TransitionSystem(algo, topo)
        ts.successors(config)
        assert config.local(0, "state") == "T"

    def test_dead_processes_have_no_transitions(self):
        topo = line(2)
        algo = NADiners()
        system = System(topo, algo, initially_dead=[0])
        system.write_local(1, "needs", True)
        ts = TransitionSystem(algo, topo)
        assert all(t.pid != 0 for t in ts.successors(system.snapshot()))

    def test_enabled_listing(self):
        topo = line(2)
        algo = NADiners()
        system = System(topo, algo)
        system.write_local(1, "needs", True)
        ts = TransitionSystem(algo, topo)
        assert (1, "join") in ts.enabled(system.snapshot())


class TestReachability:
    def test_reachable_closure(self):
        topo = ring(3)
        algo = KStateToken(k=4)
        system = System(topo, algo)
        ts = TransitionSystem(algo, topo)
        graph = ts.reachable_from([system.snapshot()])
        # From a legitimate K-state configuration the reachable set is the
        # legitimate orbit: counters advance cyclically (k * n states).
        assert len(graph) == 12

    def test_max_states_guard(self):
        topo = ring(3)
        algo = KStateToken(k=4)
        ts = TransitionSystem(algo, topo)
        system = System(topo, algo)
        with pytest.raises(SimulationError):
            ts.reachable_from([system.snapshot()], max_states=3)

    def test_every_graph_entry_expanded(self):
        topo = ring(3)
        algo = KStateToken(k=4)
        ts = TransitionSystem(algo, topo)
        system = System(topo, algo)
        graph = ts.reachable_from([system.snapshot()])
        for config, transitions in graph.items():
            assert transitions, "token circulation never quiesces"
            for t in transitions:
                assert t.target in graph
