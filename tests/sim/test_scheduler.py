"""Unit tests for daemons (schedulers).

A daemon reads the store's enabled set in index form and answers with a
``(process index, action index)``; :func:`pick` runs one selection and
names the answer as the ``(pid, action)`` pair the assertions talk about.
"""

import random

import pytest

from repro.core import NADiners
from repro.sim import (
    AdversarialDaemon,
    AlwaysHungry,
    Engine,
    RoundRobinDaemon,
    SchedulingError,
    System,
    WeaklyFairDaemon,
    line,
    ring,
    starve_target,
)


def enabled_system():
    """A line(3) where everyone wants to eat: joins enabled everywhere."""
    s = System(line(3), NADiners())
    for p in s.pids:
        s.write_local(p, "needs", True)
    return s


def pick(daemon, system, step=0, rng=None):
    enabled = system.enabled()
    p, a = daemon.select(system, enabled, step, rng or random.Random(0))
    return enabled.pids[p], enabled.actions[a]


class TestWeaklyFairDaemon:
    def test_selects_an_enabled_action(self):
        s = enabled_system()
        d = WeaklyFairDaemon()
        assert pick(d, s) in s.all_enabled()

    def test_patience_forces_oldest(self):
        s = enabled_system()
        d = WeaklyFairDaemon(patience=3)
        rng = random.Random(0)
        # Keep presenting the same enabled set without executing anything:
        # after enough rounds every selection must be a fairness-forced one.
        seen = set()
        for step in range(60):
            choice = pick(d, s, step, rng)
            seen.add((choice[0], choice[1].name))
        assert seen == {(p, a.name) for p, a in s.all_enabled()}

    def test_invalid_patience(self):
        with pytest.raises(SchedulingError):
            WeaklyFairDaemon(patience=0)

    def test_reset_clears_ages(self):
        d = WeaklyFairDaemon(patience=1)
        s = enabled_system()
        first = pick(d, s)
        d.reset()  # ages cleared: the same seed picks the same again
        assert pick(d, s) == first

    def test_fairness_over_full_run(self):
        # In a fault-free always-hungry ring every process must eat.
        s = System(ring(5), NADiners())
        e = Engine(s, WeaklyFairDaemon(), hunger=AlwaysHungry(), seed=3)
        e.run(4000)
        assert all(e.eats_of(p) > 0 for p in s.pids)


class TestRoundRobinDaemon:
    def test_deterministic(self):
        s1, s2 = enabled_system(), enabled_system()
        d1, d2 = RoundRobinDaemon(), RoundRobinDaemon()
        rng = random.Random(0)
        for _ in range(10):
            c1 = pick(d1, s1, 0, rng)
            c2 = pick(d2, s2, 0, rng)
            assert (c1[0], c1[1].name) == (c2[0], c2[1].name)
            s1.execute(*c1)
            s2.execute(*c2)

    def test_cycles_over_processes(self):
        s = enabled_system()
        d = RoundRobinDaemon()
        rng = random.Random(0)
        picked = []
        for _ in range(3):
            picked.append(pick(d, s, 0, rng)[0])
        assert picked == [0, 1, 2]

    def test_skips_processes_without_enabled_actions(self):
        s = System(line(3), NADiners())
        s.write_local(2, "needs", True)  # only process 2 can act
        assert pick(RoundRobinDaemon(), s)[0] == 2

    def test_empty_set_raises(self):
        s = System(line(3), NADiners())
        assert s.enabled().count == 0
        with pytest.raises(SchedulingError):
            pick(RoundRobinDaemon(), s)

    def test_a_daemon_that_keeps_no_ledger_leaks_nothing(self):
        # Nobody clears ``EnabledSet.changed`` under a round-robin daemon;
        # it is a set of processes, so 10^4 steps leave at most n in it.
        s = System(ring(5), NADiners())
        e = Engine(s, RoundRobinDaemon(), hunger=AlwaysHungry(), seed=1)
        assert e.run(10_000).exhausted
        assert s.enabled().changed <= set(range(5))


class TestAdversarialDaemon:
    def test_prefers_high_score(self):
        s = enabled_system()
        d = AdversarialDaemon(lambda sys, pid, a: float(pid))
        assert pick(d, s)[0] == 2

    def test_starve_target_avoids_target(self):
        s = enabled_system()
        d = AdversarialDaemon(starve_target(0), patience=None)
        for step in range(20):
            assert pick(d, s, step)[0] != 0  # 0's join stays enabled, never chosen

    def test_patience_eventually_serves_target(self):
        s = enabled_system()
        d = AdversarialDaemon(starve_target(0), patience=5)
        served = False
        for step in range(40):
            if pick(d, s, step)[0] == 0:
                served = True
                break
        assert served

    def test_invalid_patience(self):
        with pytest.raises(SchedulingError):
            AdversarialDaemon(lambda s, p, a: 0.0, patience=0)

    def test_liveness_survives_adversary(self):
        """Theorem 2 under the nastiest fair schedule we can produce."""
        s = System(ring(5), NADiners())
        e = Engine(
            s,
            AdversarialDaemon(starve_target(0), patience=32),
            hunger=AlwaysHungry(),
            seed=7,
        )
        e.run(8000)
        assert e.eats_of(0) > 0


class TestRoundDaemon:
    def test_counts_rounds(self):
        from repro.core import NADiners
        from repro.sim import AlwaysHungry, Engine, RoundDaemon, System, ring

        daemon = RoundDaemon()
        s = System(ring(5), NADiners())
        e = Engine(s, daemon, hunger=AlwaysHungry(), seed=1)
        e.run(2000)
        assert daemon.rounds_completed > 0
        assert daemon.rounds_completed < 2000

    def test_round_executes_all_continuously_enabled(self):
        from repro.sim import Engine, RoundDaemon, System, ring
        from repro.mp import KStateToken

        # In the K-state ring exactly one action is enabled at a time, so
        # every round has size 1 and rounds == steps.
        daemon = RoundDaemon()
        s = System(ring(4), KStateToken(k=6))
        e = Engine(s, daemon, seed=2)
        e.run(100)
        assert daemon.rounds_completed in (99, 100, 101)

    def test_reset(self):
        from repro.sim import RoundDaemon

        daemon = RoundDaemon()
        daemon.rounds_completed = 5
        daemon._queue = [("x", "y")]
        daemon.reset()
        assert daemon.rounds_completed == 0

    def test_liveness_under_round_daemon(self):
        from repro.core import NADiners
        from repro.sim import AlwaysHungry, Engine, RoundDaemon, System, line

        s = System(line(5), NADiners())
        e = Engine(s, RoundDaemon(), hunger=AlwaysHungry(), seed=3)
        e.run(6000)
        assert all(e.eats_of(p) > 0 for p in s.pids)
