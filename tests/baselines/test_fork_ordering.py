"""Unit tests for the fork-ordering (Dijkstra) baseline."""

from repro.baselines import FORK_FREE, ForkOrderingDiners
from repro.core import e_holds
from repro.sim import AlwaysHungry, Engine, System, edge, line, ring


def hungry_system(topo):
    s = System(topo, ForkOrderingDiners())
    for p in s.pids:
        s.write_local(p, "needs", True)
        s.write_local(p, "state", "H")
    return s


class TestAcquisition:
    def test_forks_start_free(self):
        s = System(line(3), ForkOrderingDiners())
        assert s.read_edge(edge(0, 1)) == FORK_FREE
        assert s.read_edge(edge(1, 2)) == FORK_FREE

    def test_acquires_lowest_rank_first(self):
        s = hungry_system(line(3))
        algo = s.algorithm
        s.execute(1, algo.action_named("acquire"))
        # Edge {0,1} sorts before {1,2}: 1 must take the 0-1 fork first.
        assert s.read_edge(edge(0, 1)) == 1
        assert s.read_edge(edge(1, 2)) == FORK_FREE

    def test_cannot_skip_a_held_lower_fork(self):
        s = hungry_system(line(3))
        s.write_edge(edge(0, 1), 0)  # lower fork held by the neighbour
        # 1's next missing fork is {0,1}, which is not free: acquire disabled.
        assert "acquire" not in [a.name for a in s.enabled_actions(1)]

    def test_acquire_disabled_when_thinking(self):
        s = System(line(3), ForkOrderingDiners())
        assert "acquire" not in [a.name for a in s.enabled_actions(1)]

    def test_enter_requires_all_forks(self):
        s = hungry_system(line(3))
        s.write_edge(edge(0, 1), 1)
        assert "enter" not in [a.name for a in s.enabled_actions(1)]
        s.write_edge(edge(1, 2), 1)
        assert "enter" in [a.name for a in s.enabled_actions(1)]

    def test_exit_releases_only_own_forks(self):
        s = System(line(3), ForkOrderingDiners())
        s.write_local(1, "state", "E")
        s.write_edge(edge(0, 1), 1)
        s.write_edge(edge(1, 2), 2)  # held by 2, not ours
        s.execute(1, s.algorithm.action_named("exit"))
        assert s.read_edge(edge(0, 1)) == FORK_FREE
        assert s.read_edge(edge(1, 2)) == 2


class TestBehaviour:
    def test_liveness_without_faults(self):
        s = System(ring(5), ForkOrderingDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=4)
        e.run(10_000)
        assert all(e.eats_of(p) > 0 for p in s.pids)

    def test_safety_throughout_run(self):
        s = System(ring(5), ForkOrderingDiners())
        e = Engine(s, hunger=AlwaysHungry(), seed=5)
        for _ in range(5000):
            if not e.step():
                break
            assert e_holds(s.snapshot())

    def test_ordering_discipline_prevents_deadlock(self):
        # Everyone hungry on a ring — the classic deadlock scenario for
        # naive fork grabbing; the total order must avoid it.
        s = hungry_system(ring(6))
        e = Engine(s, hunger=AlwaysHungry(), seed=6)
        e.run(10_000)
        assert e.total_eats() > 0

    def test_corrupted_hold_and_wait_deadlocks(self):
        """An arbitrary state can violate the ascending-order discipline and
        deadlock forever — fork ordering is not stabilizing."""
        s = hungry_system(line(3))
        # 0 holds {0,1}? no: give 1 the high fork and 0... construct the
        # classic crossed holding: 1 holds {1,2} (its higher fork) while 2
        # holds nothing, and 0 holds {0,1}; then 1 waits for {0,1} forever
        # while sitting on {1,2}... 0 can eat though. Use a ring so the
        # crossed pattern closes.
        s = hungry_system(ring(3))
        # Ranks: {0,1} < {0,2} < {1,2}. Plant: 0 holds {0,2}, 1 holds {0,1},
        # 2 holds {1,2} — everyone holds one fork and waits on another held
        # fork; no fork is free; exit never fires; acquire never enabled.
        s.write_edge(edge(0, 2), 0)
        s.write_edge(edge(0, 1), 1)
        s.write_edge(edge(1, 2), 2)
        e = Engine(s, hunger=AlwaysHungry(), seed=7)
        result = e.run(20_000)
        assert e.total_eats() == 0

    def test_dead_fork_holder_blocks_neighbors(self):
        s = System(line(3), ForkOrderingDiners())
        s.write_local(1, "state", "E")
        s.write_edge(edge(0, 1), 1)
        s.write_edge(edge(1, 2), 1)
        s.kill(1)  # dies at the table holding both forks
        e = Engine(s, hunger=AlwaysHungry(), seed=8)
        e.run(10_000)
        assert e.eats_of(0) == 0
        assert e.eats_of(2) == 0


class TestWeakFairness:
    def test_deadlock_free_is_not_starvation_free(self):
        """No fault at all, line(4) from all-hungry: 192 reachable states.
        For each process ``q``, drop ``q``'s ``enter`` edges; an SCC with an
        internal edge in which every ``(pid, action)`` enabled at all of its
        states labels an internal edge hosts a weakly fair run where ``q``
        never eats.  Every process has one.  Process 2's smallest is 4
        states: it holds fork {1,2} and waits for {2,3}, which 3 takes each
        time it is free, so 2's ``acquire`` is never continuously enabled."""
        from repro.verification import TransitionSystem
        from repro.verification.properties import _tarjan_sccs

        topo = line(4)
        ts = TransitionSystem(ForkOrderingDiners(), topo)
        hungry = System(topo, ForkOrderingDiners())
        for p in hungry.pids:
            hungry.write_local(p, "needs", True)
        graph = ts.reachable_from([hungry.snapshot()])
        assert len(graph) == 192

        def fair_sccs(q):
            pruned = {
                s: [t for t in out if (t.pid, t.action) != (q, "enter")]
                for s, out in graph.items()
            }
            for scc in _tarjan_sccs(pruned):
                members = set(scc)
                internal = {
                    (t.pid, t.action)
                    for s in scc for t in pruned[s] if t.target in members
                }
                enabled = set.intersection(
                    *({(t.pid, t.action) for t in graph[s]} for s in scc)
                )
                if internal and enabled <= internal:
                    yield scc

        sizes = {q: sorted(len(scc) for scc in fair_sccs(q)) for q in topo.nodes}
        assert sizes == {0: [64], 1: [16, 64], 2: [4, 16, 56], 3: [58]}
        (starving,) = [scc for scc in fair_sccs(2) if len(scc) == 4]
        for s in starving:
            assert s.local(2, "state") == "H"
            assert s.edge_value(1, 2) == 2
            assert s.edge_value(2, 3) in (FORK_FREE, 3)
