"""Daemons: who takes the next step.

The paper's computations are *maximal weakly-fair* interleavings (§2): at
each state one enabled action executes, and an action enabled in all but
finitely many states of an infinite computation executes infinitely often.

A :class:`Daemon` turns the set of currently enabled ``(pid, action)`` pairs
into a choice.  Three daemons are provided:

* :class:`WeaklyFairDaemon` — the default; random choice with an explicit
  *patience* bound that forces any action enabled for ``patience``
  consecutive opportunities to fire, making weak fairness a hard guarantee
  rather than a probability-1 property.
* :class:`RoundRobinDaemon` — deterministic cyclic scheduling (a common
  refinement; trivially weakly fair).
* :class:`AdversarialDaemon` — picks the worst enabled action according to a
  user-supplied score, with an optional patience escape hatch so that runs
  remain weakly fair.  Used by the failure-locality benchmarks to produce
  worst-case schedules.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from .errors import SchedulingError
from .process import ActionDef
from .topology import Pid

if TYPE_CHECKING:  # pragma: no cover
    from .network import System

Choice = Tuple[Pid, ActionDef]


class Daemon(ABC):
    """Strategy object choosing the next action to execute."""

    @abstractmethod
    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        """Pick one of ``enabled`` (guaranteed non-empty)."""

    def reset(self) -> None:
        """Forget any internal scheduling state (start of a new run)."""


class _FairnessLedger:
    """Tracks, per (pid, action-name), how many consecutive selection
    opportunities the action has been enabled without firing.

    Weak fairness only protects *continuously* enabled actions, so the count
    of an action that becomes disabled is dropped.
    """

    def __init__(self) -> None:
        self._ages: Dict[Tuple[Pid, str], int] = {}

    def observe(self, enabled: Sequence[Choice]) -> None:
        ages = self._ages
        self._ages = {
            (key := (pid, action.name)): ages.get(key, 0) + 1
            for pid, action in enabled
        }

    def fired(self, choice: Choice) -> None:
        self._ages.pop((choice[0], choice[1].name), None)

    def oldest(self, enabled: Sequence[Choice]) -> Tuple[int, Choice]:
        best_age = -1
        best: Choice | None = None
        for choice in enabled:
            age = self._ages.get((choice[0], choice[1].name), 0)
            if age > best_age:
                best_age = age
                best = choice
        assert best is not None
        return best_age, best

    def reset(self) -> None:
        self._ages.clear()


class WeaklyFairDaemon(Daemon):
    """Random scheduling with a hard weak-fairness guarantee.

    Each selection, every enabled action's age is bumped.  If the oldest
    enabled action has waited at least ``patience`` opportunities it fires;
    otherwise a uniformly random enabled action does.  Any action enabled in
    all but finitely many states therefore executes infinitely often, as the
    model requires.
    """

    def __init__(self, patience: int = 64) -> None:
        if patience < 1:
            raise SchedulingError("patience must be at least 1")
        self.patience = patience
        self._ledger = _FairnessLedger()

    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        self._ledger.observe(enabled)
        age, oldest = self._ledger.oldest(enabled)
        choice = oldest if age >= self.patience else enabled[rng.randrange(len(enabled))]
        self._ledger.fired(choice)
        return choice

    def reset(self) -> None:
        self._ledger.reset()


class RoundRobinDaemon(Daemon):
    """Cycle over processes; the next process with an enabled action steps.

    Among several enabled actions of the chosen process, the first in the
    algorithm's declaration order fires, so runs are fully deterministic.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        pids = system.pids
        by_pid: Dict[Pid, List[Choice]] = {}
        for choice in enabled:
            by_pid.setdefault(choice[0], []).append(choice)
        n = len(pids)
        for offset in range(n):
            pid = pids[(self._cursor + offset) % n]
            if pid in by_pid:
                self._cursor = (self._cursor + offset + 1) % n
                return by_pid[pid][0]
        raise SchedulingError("no enabled action (select called on empty set?)")

    def reset(self) -> None:
        self._cursor = 0


class RoundDaemon(Daemon):
    """Executes in *asynchronous rounds* and counts them.

    A round is fixed when it starts: every ``(process, action)`` pair
    enabled at that moment is queued (in a seed-shuffled order) and executed
    one interleaved step at a time, skipping pairs whose guards have since
    become false.  When the queue drains, the next round begins.

    Rounds are the standard time unit of the stabilization literature ("the
    program converges in O(D) rounds"): within one round, every action that
    stays continuously enabled executes at least once.  The completed-round
    counter makes round-complexity measurements one attribute away:

    >>> daemon = RoundDaemon()
    >>> # ... run an Engine with it ...
    >>> daemon.rounds_completed      # doctest: +SKIP
    """

    def __init__(self) -> None:
        self.rounds_completed = 0
        self._queue: List[Tuple[Pid, str]] = []

    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        by_key = {(pid, action.name): (pid, action) for pid, action in enabled}
        while self._queue:
            key = self._queue.pop()
            if key in by_key:
                return by_key[key]
        # queue drained: a round completed; plan the next one.
        self.rounds_completed += 1
        keys = list(by_key)
        rng.shuffle(keys)
        self._queue = keys
        return by_key[self._queue.pop()]

    def reset(self) -> None:
        self.rounds_completed = 0
        self._queue = []


ScoreFn = Callable[["System", Pid, ActionDef], float]


class AdversarialDaemon(Daemon):
    """Choose the enabled action with the highest adversary score.

    ``score(system, pid, action)`` expresses what the adversary prefers —
    e.g. "anything that is not the victim making progress".  Ties break by
    the deterministic enabled-order.  With ``patience`` set (default 256),
    an action enabled that many consecutive opportunities fires regardless,
    keeping the schedule weakly fair; ``patience=None`` removes the guarantee
    (useful to demonstrate what unfairness breaks).
    """

    def __init__(self, score: ScoreFn, *, patience: int | None = 256) -> None:
        if patience is not None and patience < 1:
            raise SchedulingError("patience must be at least 1 (or None)")
        self._score = score
        self.patience = patience
        self._ledger = _FairnessLedger()

    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        self._ledger.observe(enabled)
        if self.patience is not None:
            age, oldest = self._ledger.oldest(enabled)
            if age >= self.patience:
                self._ledger.fired(oldest)
                return oldest
        best = max(enabled, key=lambda c: self._score(system, c[0], c[1]))
        self._ledger.fired(best)
        return best

    def reset(self) -> None:
        self._ledger.reset()


class AdversaryStrategy(ABC):
    """A *state-reading* adversary policy, pluggable into :class:`StrategyDaemon`.

    Where :class:`AdversarialDaemon` scores each ``(pid, action)`` pair in
    isolation, a strategy sees the whole :class:`~repro.sim.network.System`
    every selection and may keep memory between selections — enough to
    chase moving targets such as "the head of the longest waiting chain".
    Implementations must derive every decision from the passed ``rng`` plus
    the observed state, so a run is replayable from its seed.
    """

    @abstractmethod
    def choose(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        """Pick one of ``enabled`` (guaranteed non-empty)."""

    def reset(self) -> None:
        """Forget accumulated targeting state (start of a new run)."""


class StrategyDaemon(Daemon):
    """The adaptive-adversary seam: a daemon driven by an
    :class:`AdversaryStrategy`, with the same patience escape hatch as
    :class:`AdversarialDaemon` so schedules stay weakly fair unless the
    experiment explicitly removes the guarantee (``patience=None``).
    """

    def __init__(
        self, strategy: AdversaryStrategy, *, patience: int | None = 256
    ) -> None:
        if patience is not None and patience < 1:
            raise SchedulingError("patience must be at least 1 (or None)")
        self.strategy = strategy
        self.patience = patience
        self._ledger = _FairnessLedger()

    def select(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        self._ledger.observe(enabled)
        if self.patience is not None:
            age, oldest = self._ledger.oldest(enabled)
            if age >= self.patience:
                self._ledger.fired(oldest)
                return oldest
        choice = self.strategy.choose(system, enabled, step, rng)
        if choice not in enabled:
            raise SchedulingError(
                f"strategy chose a non-enabled action {choice!r}"
            )
        self._ledger.fired(choice)
        return choice

    def reset(self) -> None:
        self._ledger.reset()
        self.strategy.reset()


def starve_target(target: Pid) -> ScoreFn:
    """An adversary score that delays ``target`` as long as possible.

    Steps of the target itself score lowest; steps of its neighbours low;
    everything else high — so the daemon serves the rest of the system first
    and the target only when fairness forces it.
    """

    def score(system: "System", pid: Pid, action: ActionDef) -> float:
        if pid == target:
            return 0.0
        if system.topology.are_neighbors(pid, target):
            return 1.0
        return 2.0

    return score
