"""A host-independent gate on the work one step does.

Wall-clock ratios move with the box; the number of guards evaluated does
not.  These tests wrap every ``ActionDef.guard`` in a counter and pin the
object engine's per-step work at the model's locality bound: executing an
action at ``p`` can only change the guards of ``p`` and its neighbours, so a
step evaluates at most ``(Δ + 1) · |actions|`` guards — whatever ``n`` is.
Re-evaluating the whole system every step (``n · |actions|``, 80 on ring:16)
is what this keeps from coming back.
"""

import pytest

from repro.core import NADiners
from repro.fastcore import FastEngine
from repro.sim import (
    ActionDef,
    AlwaysHungry,
    Engine,
    HungerPolicy,
    NeverHungry,
    System,
    grid,
    line,
    ring,
)


class CountingDiners(NADiners):
    """The paper's program with every guard evaluation counted."""

    def __init__(self):
        super().__init__()
        self.guard_calls = 0
        self._actions = tuple(
            ActionDef(a.name, self._counted(a.guard), a.command)
            for a in self._actions
        )

    def _counted(self, guard):
        def counting_guard(view):
            self.guard_calls += 1
            return guard(view)

        return counting_guard


def guard_calls_per_step(topology, steps=2000):
    algorithm = CountingDiners()
    engine = Engine(System(topology, algorithm), hunger=AlwaysHungry(), seed=3)
    assert engine.step()  # fills the fully stale cache: n * |actions| guards
    per_step = []
    for _ in range(steps):
        before = algorithm.guard_calls
        assert engine.step()
        per_step.append(algorithm.guard_calls - before)
    return per_step, len(algorithm.actions())


def locality_bound(topology, actions):
    return (max(topology.degree(p) for p in topology.nodes) + 1) * actions


@pytest.mark.parametrize(
    "topology", [ring(16), line(16), grid(4, 4)], ids=["ring16", "line16", "grid4x4"]
)
def test_a_step_evaluates_one_closed_neighbourhood(topology):
    per_step, actions = guard_calls_per_step(topology)
    assert max(per_step) <= locality_bound(topology, actions)
    assert max(per_step) < len(topology) * actions


def test_guard_work_does_not_grow_with_n():
    small, actions = guard_calls_per_step(ring(12))
    large, _ = guard_calls_per_step(ring(96))
    bound = locality_bound(ring(12), actions)
    assert max(small) == bound == 15
    assert max(large) == bound


def test_a_quiescent_system_evaluates_no_guards_when_asked_again():
    algorithm = CountingDiners()
    system = System(ring(16), algorithm)
    engine = Engine(system, hunger=NeverHungry(), seed=1)
    assert engine.run(50).quiescent
    assert system.all_enabled() == []
    settled = algorithm.guard_calls
    for _ in range(5):
        assert system.all_enabled() == []
        assert system.is_quiescent()
    assert algorithm.guard_calls == settled


def test_an_equal_write_is_stored_but_stales_nothing():
    algorithm = CountingDiners()
    system = System(ring(8), algorithm)
    system.write_local(2, "needs", True)
    system.all_enabled()
    settled = algorithm.guard_calls
    system.write_local(2, "needs", 1)  # == True, but a different object
    assert system.read_local(2, "needs") is not True
    system.write_local(2, "needs", True)
    assert system.read_local(2, "needs") is True
    system.all_enabled()
    assert algorithm.guard_calls == settled


class CountingHunger(HungerPolicy):
    """A user-defined policy that declares itself constant."""

    constant = True

    def __init__(self):
        self.calls = 0

    def wants(self, pid, step, rng):
        self.calls += 1
        return pid % 2 == 0


def test_an_unchanged_hunger_answer_stales_nothing():
    algorithm = CountingDiners()
    policy = CountingHunger()
    system = System(ring(8), algorithm)
    engine = Engine(system, hunger=policy, seed=2)
    assert engine.run(50).quiescent is False
    assert policy.calls == 8  # a constant policy is asked once per process ...
    system.all_enabled()
    settled = algorithm.guard_calls
    engine._refresh_hunger(engine.step_count)
    system.all_enabled()
    assert algorithm.guard_calls == settled  # ... and a refresh stales nobody
    system.write_local(3, "needs", True)  # the environment is overruled ...
    engine.run(1)
    assert system.read_local(3, "needs") is False  # ... and puts it back
    system.kill(4)
    system.write_local(4, "needs", True)
    engine.run(1)
    assert system.read_local(4, "needs") is True  # ... but not for the dead
    system.restore(system.snapshot().replace(dead=()))
    engine.run(1)
    assert system.read_local(4, "needs") is (4 % 2 == 0)  # ... until revived
    assert policy.calls == 8


def test_a_user_defined_constant_policy_is_constant_on_the_fast_engine():
    slow, fast = CountingHunger(), CountingHunger()
    reference = Engine(System(ring(8), NADiners()), hunger=slow, seed=5)
    packed = FastEngine(ring(8), NADiners(), hunger=fast, seed=5)
    assert reference.run(300).final == packed.run(300).final
    assert slow.calls == fast.calls == 8  # one vector, built up front
