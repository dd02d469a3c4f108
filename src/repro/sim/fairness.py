"""The weak-fairness rule, written once.

The paper's computations are *maximal weakly fair* interleavings (§2).
Both engines bound that with one rule over integer *slots*: the oldest
available slot fires once it has been available for ``patience``
selections in a row; otherwise another one does — drawn uniformly, or
named by an adversary.  Writers record a slot's availability in
:attr:`FairSelector.changes` whenever it may have changed, and a selection
reads only those entries, so a slot that went away and came back in
between keeps its age, as a scan that sees only selections would read it.
A slot's *birth* is the selection at which it last became available; the
oldest is the least live slot of the first birth group of a ``(born,
slot)`` queue, which needs no heap: births only ascend, so each birth's
entries sit together, in whatever order their slots were written.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .errors import SchedulingError

#: ``FairSelector.born`` of a slot that fired and has not been looked at
#: since: still available, as far as the selector knows, but not aging.
FIRED = -1


class FairSelector:
    """Picks one available slot per selection, weakly fairly, among slots
    ``0 .. slots - 1``."""

    __slots__ = ("patience", "changes", "available", "born", "queue", "selections")

    def __init__(self, patience: int, slots: int = 0) -> None:
        if patience < 1:
            raise SchedulingError("patience must be at least 1")
        self.patience = patience
        #: Per slot whose availability may have changed since the last
        #: selection, whether it is available now (any truthy value is);
        #: writers overwrite, the next selection reads and clears.
        self.changes: Dict[int, object] = {}
        #: The available slots, ascending, as of the last selection.
        self.available: List[int] = []
        #: Per slot, the selection at which it last became available;
        #: ``None`` while it is not, :data:`FIRED` after it fires.
        self.born: List[Optional[int]] = [None] * slots
        #: ``(born, slot)``, births ascending; live while
        #: ``born[slot] == born``.
        self.queue: Deque[Tuple[int, int]] = deque()
        self.selections = 0

    def select(
        self, rng: random.Random, prefer: Callable[[], int] | None = None
    ) -> int | None:
        """Take in :attr:`changes` and pick the slot that fires.

        The oldest available slot (the least one among equally old) fires
        once it has been available for ``patience`` selections, this one
        included; otherwise ``prefer()`` names the slot, or, without
        ``prefer``, ``rng`` draws one uniformly.  ``None``, with no
        selection counted, when nothing is available: every age has then
        ended.  The chosen slot is written back as available, so the next
        selection looks at it again unless a writer says otherwise.
        """
        selection = self.selections
        born = self.born
        available = self.available
        queue = self.queue
        changes = self.changes
        for slot, up in changes.items():
            was = born[slot]
            if not up:
                if was is not None:
                    del available[bisect_left(available, slot)]
                    born[slot] = None
            elif was is None or was == FIRED:
                if was is None:
                    insort(available, slot)
                born[slot] = selection
                queue.append((selection, slot))
        changes.clear()
        if not available:
            return None
        self.selections = selection + 1
        # Every available slot but the last one fired has a live entry, and
        # that one was in ``changes``: the queue cannot run dry.
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
        else:
            for b, slot in queue:
                if b != first:
                    break
                if slot < chosen and born[slot] == first:
                    chosen = slot
        born[chosen] = FIRED
        changes[chosen] = True
        return chosen
