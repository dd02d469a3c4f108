"""Throughput, fairness, and per-step safety monitoring (E4, E5).

* :func:`throughput_report` — eats per process over a run, with the fairness
  statistics the liveness property implies (every hungry process eats, so no
  process's share collapses to zero);
* :class:`StepMonitor` / :func:`run_monitored` — evaluate arbitrary
  configuration functions after every engine step, used by the safety
  experiment to watch the simultaneously-eating-pairs count (Theorem 3 says
  it never increases once the invariant holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from ..core.predicates import eating_pairs
from ..sim.configuration import Configuration
from ..sim.engine import Engine
from ..sim.topology import Pid


@dataclass(frozen=True)
class ThroughputReport:
    """Eats per live process over one observation run."""

    algorithm: str
    steps: int
    eats: Mapping[Pid, int]

    @property
    def total(self) -> int:
        return sum(self.eats.values())

    @property
    def per_1000_steps(self) -> float:
        """System throughput: eats per 1000 engine steps."""
        return 1000.0 * self.total / self.steps if self.steps else math.nan

    @property
    def min_eats(self) -> int:
        return min(self.eats.values()) if self.eats else 0

    @property
    def max_eats(self) -> int:
        return max(self.eats.values()) if self.eats else 0

    @property
    def jain_index(self) -> float:
        """Jain's fairness index over per-process eats (1.0 = perfectly fair).

        ``(Σx)² / (n · Σx²)`` — a standard scalar fairness measure; the
        liveness property implies it stays well above the ``1/n`` floor a
        starving process would drag it towards.
        """
        values = list(self.eats.values())
        if not values or not any(values):
            return math.nan
        square_sum = sum(v * v for v in values)
        return (sum(values) ** 2) / (len(values) * square_sum)

    @property
    def spread(self) -> float:
        """max/min eats ratio (∞ when someone starved)."""
        if not self.eats:
            return math.nan
        lo = self.min_eats
        return math.inf if lo == 0 else self.max_eats / lo


def throughput_report(engine: Engine, steps: int) -> ThroughputReport:
    """Run ``engine`` for ``steps`` and report the eats delta per process."""
    pids = engine.system.pids
    before = {pid: engine.eats_of(pid) for pid in pids}
    result = engine.run(steps)
    eats: Dict[Pid, int] = {
        pid: engine.eats_of(pid) - before[pid]
        for pid in pids
        if engine.system.is_live(pid)
    }
    return ThroughputReport(
        algorithm=engine.system.algorithm.name,
        steps=result.steps,
        eats=eats,
    )


MonitorFn = Callable[[Configuration], Any]


@dataclass
class StepMonitor:
    """Samples a configuration function after every monitored step."""

    name: str
    fn: MonitorFn
    series: List[Any] = field(default_factory=list)

    def sample(self, config: Configuration) -> None:
        self.series.append(self.fn(config))

    def is_non_increasing(self) -> bool:
        """True when the recorded numeric series never increases."""
        return all(b <= a for a, b in zip(self.series, self.series[1:]))

    def final(self) -> Any:
        return self.series[-1] if self.series else None


def eating_pairs_count(config: Configuration) -> int:
    """Number of neighbour pairs simultaneously eating (Theorem 3's metric)."""
    return len(eating_pairs(config))


def live_eating_pairs_count(config: Configuration) -> int:
    """Like :func:`eating_pairs_count` but ignoring all-dead pairs."""
    faulty = config.faulty
    return sum(
        1 for e in eating_pairs(config) if not all(p in faulty for p in e)
    )


def run_monitored(
    engine: Engine,
    monitors: Sequence[StepMonitor],
    max_steps: int,
    *,
    sample_every: int = 1,
) -> int:
    """Step ``engine`` up to ``max_steps``, sampling all monitors.

    Monitors see the initial configuration and then every
    ``sample_every``-th configuration.  Returns the number of steps taken.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be positive")
    snapshot = engine.system.snapshot()
    for monitor in monitors:
        monitor.sample(snapshot)
    taken = 0
    while taken < max_steps:
        if not engine.step():
            break
        taken += 1
        if taken % sample_every == 0:
            snapshot = engine.system.snapshot()
            for monitor in monitors:
                monitor.sample(snapshot)
    return taken
