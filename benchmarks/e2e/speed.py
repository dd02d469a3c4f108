"""A speed probe: how slow is this box right now, against a fixed kernel.

The boxes this benchmark runs on are shared.  A fixed pure-Python kernel
takes 20-40 % longer for seconds or minutes at a time while a neighbour
contends for the cache, and CPU time rises with wall time, so neither
medians over chunks nor ``process_time`` remove it: ten runs of one
CPU-bound workload spread by 6-17 % between quartiles.  Measuring the box
*while* the workload runs and dividing it out brings that to 2-4 %.

:class:`SpeedProbe` is a thread that every 30 ms runs a ~1 ms kernel twice
and records the CPU time of the second pass (``thread_time``, so waiting for
the GIL is not counted; the first pass wakes the core and warms the cache, so
a mostly idle process reads the same as a busy one).  ``slowdown(t0, t1)``
is the mean kernel time over an interval divided by :data:`NOMINAL_S`, the
kernel's time on the reference box at rest; a CPU-bound duration divided by
it reads in seconds *at reference speed*.

The kernel mixes what the workloads do — dict probes and list reads over a
few MB, method calls, attribute writes, small ``bytes`` objects — but
allocates no container, so it never triggers a garbage collection, whose
cost would depend on the workload's heap.

The probe takes about 6 % of one core and 8 MB, the same on every commit;
:meth:`SpeedProbe.cpu_s` reports its CPU time so callers can take it out of
``process_time``.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List

#: The kernel's CPU time on the reference box at rest (fixed once; it only
#: sets the scale, so normalised and raw numbers agree on a quiet box).
NOMINAL_S = 0.0009

KERNEL_ROUNDS = 1600
PERIOD_S = 0.03

_TABLE_SIZE = 120_000
_DICT_SIZE = 30_000
_OBJECTS = 2_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


class SpeedProbe(threading.Thread):
    """Samples the box's speed until :meth:`stop`; stamps are ``monotonic``."""

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        self._table = list(range(1000, 1000 + _TABLE_SIZE))
        self._dict = {7 * i: i for i in range(_DICT_SIZE)}
        self._cells = [_Cell(i) for i in range(_OBJECTS)]
        self._halt = threading.Event()
        self._stamps: List[float] = []
        self._costs: List[float] = []
        self._cpu_s = 0.0

    def _kernel(self) -> int:
        table, cells, get = self._table, self._cells, self._dict.get
        j = 12345
        x = 0
        for i in range(KERNEL_ROUNDS):
            j = (j * 1103515245 + 12345) % _TABLE_SIZE
            x += table[j] + get(j, 0)
            x += cells[j % _OBJECTS].bump(1) & 7
            x += bytes((i & 255, x & 255, (i >> 3) & 255))[1]
        return x

    def run(self) -> None:
        while True:
            began = time.thread_time()
            self._kernel()  # untimed: wakes the core and warms the cache
            started = time.thread_time()
            self._kernel()
            ended = time.thread_time()
            cost = ended - started
            self._cpu_s += ended - began
            self._costs.append(cost)
            self._stamps.append(time.monotonic())
            if self._halt.wait(PERIOD_S):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def cpu_s(self) -> float:
        """CPU seconds the probe itself has used so far."""
        return self._cpu_s

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time over ``[t0, t1]`` (and the sample on either side
        of it) relative to the reference box at rest."""
        low = max(0, bisect.bisect_left(self._stamps, t0) - 1)
        high = bisect.bisect_right(self._stamps, t1) + 1
        costs = self._costs[low:high]
        if not costs:
            raise RuntimeError("the speed probe has no sample yet")
        return sum(costs) / len(costs) / NOMINAL_S
