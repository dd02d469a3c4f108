"""The weak-fairness rule, written once.

The paper's computations are *maximal weakly fair* interleavings (§2).
Both engines bound that with one rule over integer *slots*: the oldest
available slot fires once it has been available for ``patience``
selections in a row; otherwise another one does — drawn uniformly, or
named by an adversary.  A selection is told only the slots whose
availability may have changed since the last one, read at selection time,
so a slot that went away and came back in between keeps its age, as a
scan that sees only selections would read it.  A slot's *birth* is the
selection at which it last became available; the oldest is the first live
entry of a ``(born, slot)`` queue, which needs no heap: births only ascend
and a selection takes its slots in ascending order.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .errors import SchedulingError

#: ``FairSelector.born`` of a slot that fired and has not been looked at
#: since: still available, as far as the selector knows, but not aging.
FIRED = -1


class FairSelector:
    """Picks one available slot per selection, weakly fairly, among slots
    ``0 .. slots - 1``."""

    __slots__ = ("patience", "available", "born", "queue", "selections")

    def __init__(self, patience: int, slots: int = 0) -> None:
        if patience < 1:
            raise SchedulingError("patience must be at least 1")
        self.patience = patience
        #: The available slots, ascending, as of the last selection.
        self.available: List[int] = []
        #: Per slot, the selection at which it last became available;
        #: ``None`` while it is not, :data:`FIRED` after it fires.
        self.born: List[Optional[int]] = [None] * slots
        #: ``(born, slot)``, ascending; live while ``born[slot] == born``.
        self.queue: Deque[Tuple[int, int]] = deque()
        self.selections = 0

    def select(
        self,
        changes: Sequence[int],
        rng: random.Random,
        prefer: Callable[[], int] | None = None,
    ) -> int | None:
        """Take in ``changes`` and pick the slot that fires.

        ``changes`` lists every slot whose availability may have changed
        since the last selection — the slot that fired among them — in
        ascending order: ``slot`` if it is available now, ``~slot`` if it
        is not.  The oldest available slot fires once it has been available
        for ``patience`` selections, this one included; otherwise
        ``prefer()`` names the slot, or, without ``prefer``, ``rng`` draws
        one uniformly.  ``None``, with no selection counted, when nothing is
        available: every age has then ended.
        """
        selection = self.selections
        born = self.born
        available = self.available
        queue = self.queue
        for slot in changes:
            if slot < 0:
                slot = ~slot
                if born[slot] is not None:
                    del available[bisect_left(available, slot)]
                    born[slot] = None
            else:
                was = born[slot]
                if was is None:
                    insort(available, slot)
                elif was != FIRED:
                    continue  # born earlier and still aging
                born[slot] = selection
                queue.append((selection, slot))
        if not available:
            return None
        self.selections = selection + 1
        # Every available slot but the last one fired has a live entry, and
        # that one is in ``changes``: the queue cannot run dry.
        first, chosen = queue[0]
        while born[chosen] != first:
            queue.popleft()
            first, chosen = queue[0]
        if selection - first + 1 < self.patience:
            if prefer is not None:
                chosen = prefer()
            else:
                # ``rng.randrange(n)`` without its two frames: the same bits
                # drawn the same way, so the same choice.
                n = len(available)
                k = n.bit_length()
                r = n
                while r >= n:
                    r = rng.getrandbits(k)
                chosen = available[r]
        born[chosen] = FIRED
        return chosen
