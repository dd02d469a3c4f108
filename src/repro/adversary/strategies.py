"""State-reading adversary strategies for the shared-memory simulator.

:class:`~repro.sim.scheduler.AdversarialDaemon` scores each ``(pid,
action)`` pair in isolation, which is enough to starve a *fixed* victim
(:func:`~repro.sim.scheduler.starve_target`).  The strategies here plug
into :class:`~repro.sim.scheduler.StrategyDaemon` and read the whole
configuration every selection, so they can chase *moving* targets — the
canonical one being the longest waiting chain, whose head changes as
priorities flip.  All randomness comes from the daemon-supplied ``rng``,
so a run replays exactly from its seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..obs.probes import waiting_chain
from ..sim.configuration import Configuration
from ..sim.scheduler import AdversaryStrategy, Choice
from ..sim.topology import Pid

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import System

__all__ = ["ChainStarveStrategy", "longest_waiting_chain"]


def longest_waiting_chain(config: Configuration) -> Tuple[Pid, ...]:
    """The actual path behind :func:`~repro.obs.probes.waiting_chain_length`
    (:func:`~repro.obs.probes.waiting_chain`'s path).

    Returns ``(p0, p1, ..., pk)`` where each ``p_i`` is live and hungry and
    ``p_{i+1}`` is a hungry direct ancestor of ``p_i`` — so ``p0`` is the
    most deeply blocked process and ``pk`` the *root* every member
    transitively waits on.  Empty when nobody is hungry; a priority cycle
    is cut after ``len(nodes)`` hops.
    """
    return waiting_chain(config)[1]


class ChainStarveStrategy(AdversaryStrategy):
    """Starve the longest waiting chain by serving everyone else first.

    Each selection the strategy snapshots the system, finds the longest
    waiting chain, and ranks enabled actions: steps of the chain's *root*
    (the process whose progress would unwind the whole chain) score lowest,
    steps of other chain members next, everything else highest.  The daemon
    therefore keeps the chain intact as long as its patience allows — the
    reactive analogue of :func:`~repro.sim.scheduler.starve_target`, and
    the schedule the failure-locality experiments call "worst observed".

    The chain is recomputed at most once per engine step (selections within
    a step share the snapshot), and ties at equal rank break through the
    daemon's ``rng``, so a fixed seed replays the schedule exactly.
    """

    def __init__(self) -> None:
        self._step = -1
        self._chain: Tuple[Pid, ...] = ()
        #: the chain observed at each recompute, newest last — experiment
        #: scripts read this to report what the adversary was chasing.
        self.history: List[Tuple[Pid, ...]] = []

    def _rank(self, pid: Pid) -> int:
        if not self._chain:
            return 2
        if pid == self._chain[-1]:  # the root everyone waits on
            return 0
        if pid in self._chain:
            return 1
        return 2

    def choose(
        self,
        system: "System",
        enabled: Sequence[Choice],
        step: int,
        rng: random.Random,
    ) -> Choice:
        if step != self._step:
            self._step = step
            self._chain = longest_waiting_chain(system.snapshot())
            self.history.append(self._chain)
        best_rank = max(self._rank(pid) for pid, _ in enabled)
        candidates = [c for c in enabled if self._rank(c[0]) == best_rank]
        return candidates[rng.randrange(len(candidates))]

    def reset(self) -> None:
        self._step = -1
        self._chain = ()
        self.history = []
