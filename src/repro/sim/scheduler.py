"""Daemons: who takes the next step.

The paper's computations are *maximal weakly-fair* interleavings (§2): at
each state one enabled action executes, and an action enabled in all but
finitely many states of an infinite computation executes infinitely often.

A :class:`Daemon` turns the store's enabled set — an
:class:`~repro.sim.network.EnabledSet`: per-process action bits, a count,
and the processes whose bits changed since the last selection — into a
choice, ``(process index, action index)``.  Daemons work on that index form
directly, so one implementation serves every store; code that thinks in
``(pid, action)`` pairs (an :class:`AdversaryStrategy`, a score function)
is handed ``EnabledSet.pairs()``.

* :class:`WeaklyFairDaemon` — the default; random choice with an explicit
  *patience* bound that forces any action enabled for ``patience``
  consecutive opportunities to fire, making weak fairness a hard guarantee
  rather than a probability-1 property.  The bound is
  :class:`~repro.sim.fairness.FairSelector`'s, the one statement of the
  rule, which :class:`~repro.mp.engine.MpEngine` selects through too.
* :class:`RoundRobinDaemon` — deterministic cyclic scheduling (a common
  refinement; trivially weakly fair).
* :class:`RoundDaemon` — asynchronous rounds, counted.
* :class:`AdversarialDaemon` / :class:`StrategyDaemon` — pick the worst
  enabled action according to a user-supplied score or state-reading
  strategy, with the same patience escape hatch so that runs remain weakly
  fair.  Used by the failure-locality benchmarks to produce worst-case
  schedules.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from .errors import SchedulingError
from .fairness import FairSelector
from .process import ActionDef
from .topology import Pid

if TYPE_CHECKING:  # pragma: no cover
    from .network import EnabledSet, StateStore

#: An enabled action as code outside the daemons sees it.
Choice = Tuple[Pid, ActionDef]
#: The same thing in the enabled set's index form: (process, action).
Pick = Tuple[int, int]

#: What every daemon raises when asked to select from an empty set.
NOTHING_ENABLED = "no enabled action (select called on empty set?)"


class Daemon(ABC):
    """Strategy object choosing the next action to execute."""

    @abstractmethod
    def select(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        """Pick one entry of ``enabled``; :class:`SchedulingError` if it is
        empty."""

    def reset(self) -> None:
        """Forget any internal scheduling state (start of a new run)."""


class WeaklyFairDaemon(Daemon):
    """Random scheduling with a hard weak-fairness guarantee.

    If the oldest enabled action has waited at least ``patience``
    opportunities it fires; otherwise a uniformly random enabled action
    does.  Any action enabled in all but finitely many states therefore
    executes infinitely often, as the model requires.

    The rule is :class:`~repro.sim.fairness.FairSelector`'s; the daemon
    numbers ``(p, a)`` as slot ``p * width + a`` and hands it the slots of
    the processes in ``EnabledSet.changed`` (which it clears).
    """

    #: The non-forced choice; ``None`` is the selector's uniform draw.
    _pick: Callable[..., Pick] | None = None

    def __init__(self, patience: int = 64) -> None:
        self.patience = patience
        # Checks ``patience`` now; :meth:`_follow` sizes one per enabled set.
        self._selector = FairSelector(patience)
        self._enabled: Optional["EnabledSet"] = None

    def select(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        changed = enabled.changed
        if enabled is not self._enabled:
            self._follow(enabled)
        bits, seen, width = enabled.bits, self._seen, self._width
        # Every action a changed process lost (``~slot``) or has: one of
        # them may have just fired, and is unborn until a selection sees it.
        changes = []
        for p in sorted(changed) if len(changed) > 1 else changed:
            new = bits[p]
            touched = seen[p] | new
            seen[p] = new
            base = p * width
            while touched:
                low = touched & -touched
                slot = base + low.bit_length() - 1
                changes.append(slot if new & low else ~slot)
                touched ^= low
        changed.clear()
        prefer = None
        pick = self._pick
        if pick is not None:

            def prefer() -> int:
                p, a = pick(system, enabled, step, rng)
                return p * width + a

        slot = self._selector.select(changes, rng, prefer)
        if slot is None:
            raise SchedulingError(NOTHING_ENABLED)
        p, a = divmod(slot, width)
        changed.add(p)
        return p, a

    def _follow(self, enabled: "EnabledSet") -> None:
        """Start over on ``enabled`` (the first, or another store's)."""
        self._enabled = enabled
        self._width = len(enabled.actions)
        #: per process, the action bits the selector was last shown
        self._seen = [0] * len(enabled.bits)
        self._selector = FairSelector(self.patience, len(enabled.bits) * self._width)
        enabled.changed.update(range(len(enabled.bits)))

    def reset(self) -> None:
        self._enabled = None


class RoundRobinDaemon(Daemon):
    """Cycle over processes; the next process with an enabled action steps.

    Among several enabled actions of the chosen process, the first in the
    algorithm's declaration order fires, so runs are fully deterministic.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def select(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        bits = enabled.bits
        n = len(bits)
        for offset in range(n):
            p = (self._cursor + offset) % n
            if bits[p]:
                self._cursor = (p + 1) % n
                return p, (bits[p] & -bits[p]).bit_length() - 1
        raise SchedulingError(NOTHING_ENABLED)

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
        self._queue: List[Pick] = []

    def select(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        bits = enabled.bits
        while self._queue:
            p, a = self._queue.pop()
            if (bits[p] >> a) & 1:
                return p, a
        # queue drained: a round completed; plan the next one.
        queue = self._queue = enabled.items()
        if not queue:
            raise SchedulingError(NOTHING_ENABLED)
        self.rounds_completed += 1
        rng.shuffle(queue)
        return queue.pop()

    def reset(self) -> None:
        self.rounds_completed = 0
        self._queue = []


ScoreFn = Callable[["StateStore", Pid, ActionDef], float]


class _PatientDaemon(WeaklyFairDaemon):
    """An adversary kept weakly fair by the same *patience* bound as
    :class:`WeaklyFairDaemon`: an action that has waited ``patience``
    consecutive selections fires, whatever the subclass's :meth:`_pick`
    would have preferred.  ``patience=None`` removes the guarantee (and the
    bookkeeping)."""

    def __init__(self, patience: int | None) -> None:
        self.patience = patience
        if patience is not None:
            super().__init__(patience)

    def select(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        if self.patience is None:
            if not enabled.count:
                raise SchedulingError(NOTHING_ENABLED)
            return self._pick(system, enabled, step, rng)
        return super().select(system, enabled, step, rng)

    @abstractmethod
    def _pick(
        self,
        system: "StateStore",
        enabled: "EnabledSet",
        step: int,
        rng: random.Random,
    ) -> Pick:
        """The adversary's own preference among ``enabled``."""


class AdversarialDaemon(_PatientDaemon):
    """Choose the enabled action with the highest adversary score.

    ``score(system, pid, action)`` expresses what the adversary prefers —
    e.g. "anything that is not the victim making progress".  Ties break by
    the deterministic enabled-order.  With ``patience`` set (default 256),
    an action enabled that many consecutive opportunities fires regardless,
    keeping the schedule weakly fair; ``patience=None`` removes the guarantee
    (useful to demonstrate what unfairness breaks).
    """

    def __init__(self, score: ScoreFn, *, patience: int | None = 256) -> None:
        super().__init__(patience)
        self._score = score

    def _pick(self, system, enabled, step, rng) -> Pick:
        pids, actions, score = enabled.pids, enabled.actions, self._score
        return max(
            enabled.items(), key=lambda c: score(system, pids[c[0]], actions[c[1]])
        )


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
        system: "StateStore",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        """Pick one of ``enabled`` (guaranteed non-empty)."""

    def reset(self) -> None:
        """Forget accumulated targeting state (start of a new run)."""


class StrategyDaemon(_PatientDaemon):
    """The adaptive-adversary seam: a daemon driven by an
    :class:`AdversaryStrategy`, with the same patience escape hatch as
    :class:`AdversarialDaemon` so schedules stay weakly fair unless the
    experiment explicitly removes the guarantee (``patience=None``).
    """

    def __init__(
        self, strategy: AdversaryStrategy, *, patience: int | None = 256
    ) -> None:
        super().__init__(patience)
        self.strategy = strategy

    def _pick(self, system, enabled, step, rng) -> Pick:
        pairs = enabled.pairs()
        choice = self.strategy.choose(system, pairs, step, rng)
        try:
            return enabled.items()[pairs.index(choice)]
        except ValueError:
            raise SchedulingError(
                f"strategy chose a non-enabled action {choice!r}"
            ) from None

    def reset(self) -> None:
        super().reset()
        self.strategy.reset()


def starve_target(target: Pid) -> ScoreFn:
    """An adversary score that delays ``target`` as long as possible.

    Steps of the target itself score lowest; steps of its neighbours low;
    everything else high — so the daemon serves the rest of the system first
    and the target only when fairness forces it.
    """

    def score(system: "StateStore", pid: Pid, action: ActionDef) -> float:
        if pid == target:
            return 0.0
        if system.topology.are_neighbors(pid, target):
            return 1.0
        return 2.0

    return score
