"""Hunger policies — the environment driving ``needs():p``.

In the paper, ``needs():p`` "signifies whether p wants to eat; the function
evaluates to true arbitrarily" (§2).  It is an *input* to the algorithm, not
something the algorithm computes.  We model it as a designated boolean local
variable (named by ``Algorithm.hunger_variable``) that the engine refreshes
every step from a :class:`HungerPolicy` — never written by algorithm actions.

Theorem 2's liveness guarantee is conditional on ``needs():p`` continuously
evaluating to true for the process in question, which is what
:class:`AlwaysHungry` provides; the other policies exercise the "arbitrarily"
part of the specification.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Mapping, Sequence, Tuple

from .topology import Pid


class HungerPolicy(ABC):
    """Decides, each step, whether each process currently wants to eat."""

    #: True when :meth:`wants` depends on ``pid`` alone — never on ``step``
    #: and never drawing from ``rng``.  The engine then asks once per
    #: process, up front (``step=0, rng=None``), and re-applies the answers
    #: only where the input was overwritten or its process revived.
    constant = False

    @abstractmethod
    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        """Should ``pid`` want to eat at ``step``?"""


class AlwaysHungry(HungerPolicy):
    """Every process continuously wants to eat (maximum contention)."""

    constant = True

    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        return True


class NeverHungry(HungerPolicy):
    """No process ever wants to eat (the system should go quiescent)."""

    constant = True

    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        return False


class ProbabilisticHunger(HungerPolicy):
    """Each step, each process wants to eat with a fixed probability.

    Models light-to-moderate contention.  With ``probability=1.0`` this is
    :class:`AlwaysHungry`; with ``0.0`` it is :class:`NeverHungry`.
    """

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.probability = probability

    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        return rng.random() < self.probability


class SelectiveHunger(HungerPolicy):
    """Only the listed processes want to eat, and they do so continuously.

    Useful for liveness tests that watch one process: make exactly it hungry
    and assert it eventually eats.
    """

    constant = True

    def __init__(self, hungry_pids: Sequence[Pid]) -> None:
        self._hungry = frozenset(hungry_pids)

    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        return pid in self._hungry


class ScriptedHunger(HungerPolicy):
    """Follow an explicit per-process script of ``(from_step, value)`` pairs.

    Each process's schedule is a sequence of switch points sorted by step;
    the value of the last switch point at or before the current step applies.
    Processes without a schedule use ``default``.

    >>> policy = ScriptedHunger({0: [(0, True), (10, False)]}, default=False)
    >>> policy.wants(0, 5, random.Random(0))
    True
    >>> policy.wants(0, 10, random.Random(0))
    False
    """

    def __init__(
        self,
        schedules: Mapping[Pid, Sequence[Tuple[int, bool]]],
        *,
        default: bool = False,
    ) -> None:
        self._schedules = {
            pid: tuple(sorted(points)) for pid, points in schedules.items()
        }
        for pid, points in self._schedules.items():
            steps = [s for s, _ in points]
            if len(set(steps)) != len(steps):
                raise ValueError(f"duplicate switch step in schedule of {pid!r}")
        self._default = default

    def wants(self, pid: Pid, step: int, rng: random.Random) -> bool:
        points = self._schedules.get(pid)
        if not points:
            return self._default
        value = self._default
        for at_step, new_value in points:
            if at_step > step:
                break
            value = new_value
        return value
