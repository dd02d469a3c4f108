"""The work one step does on the path sweeps run: refreshes, not guards.

``test_enabled_set.py`` counts guard calls through an instrumented subclass,
which — running wrapped guards rather than its table's generated code —
takes the store's guard loop.  A table algorithm run as it is refreshes a
stale process with one generated call, so here the unit of work is a
refresh: one ``EnabledSet.update`` per stale process.  Executing an action
at ``p`` can only change what ``p`` and its neighbours read, so a step
refreshes at most ``Δ + 1`` processes, whatever ``n`` is.
"""

import pytest

from repro.baselines import ForkOrderingDiners
from repro.core import NADiners
from repro.sim import AlwaysHungry, Engine, System, ring
from repro.sim.network import EnabledSet


def refreshes_per_step(monkeypatch, topology, algorithm, steps=2000):
    calls = 0
    update = EnabledSet.update

    def counting(self, p, bits):
        nonlocal calls
        calls += 1
        update(self, p, bits)

    monkeypatch.setattr(EnabledSet, "update", counting)
    engine = Engine(System(topology, algorithm), hunger=AlwaysHungry(), seed=3)
    assert engine.step()  # the fully stale start: n refreshes
    per_step = []
    for _ in range(steps):
        before = calls
        assert engine.step()
        per_step.append(calls - before)
    return per_step


@pytest.mark.parametrize("make", [NADiners, ForkOrderingDiners])
def test_a_step_refreshes_one_closed_neighbourhood(monkeypatch, make):
    assert make().enabled_bits() is not None  # the generated refresh runs
    small = refreshes_per_step(monkeypatch, ring(12), make())
    large = refreshes_per_step(monkeypatch, ring(96), make())
    delta = max(ring(12).degree(p) for p in ring(12).nodes)
    assert max(small) <= delta + 1
    assert max(small) == max(large)
