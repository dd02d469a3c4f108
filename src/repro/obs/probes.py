"""Paper-grounded probes: the theorems' witnesses as streaming instruments.

Each probe turns one of the paper's observable guarantees into numbers:

* :class:`EatsProbe` — per-process meal counts (liveness, Theorem 2's
  "every green hungry process eats");
* :class:`DepthProbe` — the depth histogram and the count of ``exit``
  firings taken with ``depth > D``.  A deep exit is the *witness that a
  priority cycle was broken*: depth only climbs past the diameter while
  ``fixdepth`` propagates around a cycle (§3.1);
* :class:`InvariantProbe` — the per-conjunct booleans ``NC``/``ST``/``E``
  over time and their *distance* (number of violated conjuncts), the
  stabilization trajectory of Theorem 1;
* :class:`WaitingChainProbe` — the length of the longest chain of hungry
  processes each waiting on a hungry ancestor; the dynamic threshold is
  what keeps this bounded near crashes (failure locality 2);
* :class:`EatingPairsProbe` — simultaneously-eating neighbour pairs over
  time, the safety witness of Theorem 3;
* :class:`LocalityProbe` — which processes never eat again after a crash,
  and the radius of that set around the crash sites (Theorem 2).

Probes consume the event stream (:meth:`Probe.on_event`) and periodic
configuration samples (:meth:`Probe.on_sample`), then flush into a
:class:`~repro.obs.metrics.MetricsRegistry` via :meth:`Probe.publish`.
They are driven either live — subscribed to an engine's bus — or offline by
:func:`repro.obs.trace_io.analyze` replaying a recorded trace; both paths
produce identical registries for identical streams.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.predicates import eating_pairs, invariant_report
from ..core.state import VAR_DEPTH, VAR_STATE, DinerState, direct_ancestors
from ..sim.configuration import Configuration
from ..sim.serialize import encode_literal
from ..sim.topology import Pid
from ..sim.trace import EventKind, TraceEvent
from .bus import EventBus
from .metrics import MetricsRegistry


class Probe:
    """Base class; probes override the hooks they care about."""

    def on_event(self, event: TraceEvent) -> None:
        """One engine occurrence (any kind)."""

    def on_sample(self, step: int, config: Configuration) -> None:
        """One periodic configuration snapshot."""

    def publish(self, registry: MetricsRegistry) -> None:
        """Flush accumulated state into the registry."""

    def attach(self, bus: EventBus) -> "Probe":
        """Subscribe :meth:`on_event` to every event on ``bus``."""
        bus.subscribe_all(self.on_event)
        return self


class EatsProbe(Probe):
    """Meal counts per process, resolved from the algorithm's enter action."""

    def __init__(self, enter_action: str = "enter") -> None:
        self.enter_action = enter_action
        self.eats: Dict[Any, int] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.kind is EventKind.ACTION and event.detail == self.enter_action:
            self.eats[event.pid] = self.eats.get(event.pid, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.eats.values())

    def publish(self, registry: MetricsRegistry) -> None:
        for pid, count in self.eats.items():
            registry.counter(f"eats/{encode_literal(pid)}").inc(count)
        registry.counter("eats/total").inc(self.total)


class DepthProbe(Probe):
    """Depth distribution and ``depth > D`` exit firings (cycle breaks).

    ``threshold`` is the constant the program compares depth against — the
    diameter, or the override the algorithm was built with.
    """

    def __init__(self, threshold: int, *, exit_action: str = "exit") -> None:
        self.threshold = threshold
        self.exit_action = exit_action
        self.histogram: Dict[int, int] = {}
        self.deep_exits = 0
        self.max_depth = 0

    def on_event(self, event: TraceEvent) -> None:
        if event.kind is not EventKind.ACTION or event.detail != self.exit_action:
            return
        locals_before = event.payload
        if not isinstance(locals_before, dict):
            return
        depth = locals_before.get(VAR_DEPTH)
        if isinstance(depth, int) and depth > self.threshold:
            self.deep_exits += 1

    def on_sample(self, step: int, config: Configuration) -> None:
        faulty = config.faulty
        for pid in config.topology.nodes:
            if pid in faulty:
                continue
            depth = config.locals_of(pid).get(VAR_DEPTH)
            if not isinstance(depth, int):
                continue  # algorithm without a depth counter
            self.histogram[depth] = self.histogram.get(depth, 0) + 1
            if depth > self.max_depth:
                self.max_depth = depth

    def publish(self, registry: MetricsRegistry) -> None:
        hist = registry.histogram("depth/histogram")
        for depth in sorted(self.histogram):
            hist.observe(depth, self.histogram[depth])
        registry.gauge("depth/max").set(self.max_depth)
        registry.counter("depth/deep_exits").inc(self.deep_exits)


class InvariantProbe(Probe):
    """``NC``/``ST``/``E`` per sample; distance = number of violated
    conjuncts (0 means the invariant ``I`` holds)."""

    def __init__(self, threshold: Optional[int] = None) -> None:
        self.threshold = threshold
        #: ``(step, nc, st, e)`` per sample, in sample order.
        self.timeline: List[Tuple[int, bool, bool, bool]] = []

    def on_sample(self, step: int, config: Configuration) -> None:
        report = invariant_report(config, self.threshold)
        self.timeline.append((step, report["NC"], report["ST"], report["E"]))

    @staticmethod
    def distance(entry: Tuple[int, bool, bool, bool]) -> int:
        return sum(1 for flag in entry[1:] if not flag)

    @property
    def final(self) -> Optional[Dict[str, bool]]:
        if not self.timeline:
            return None
        _, nc, st, e = self.timeline[-1]
        return {"NC": nc, "ST": st, "E": e}

    def first_legitimate_step(self) -> Optional[int]:
        """The earliest sampled step where ``I`` held, if any."""
        for entry in self.timeline:
            if self.distance(entry) == 0:
                return entry[0]
        return None

    def publish(self, registry: MetricsRegistry) -> None:
        series = registry.series("invariant/distance")
        for entry in self.timeline:
            series.append(entry[0], self.distance(entry))
        for index, name in ((1, "nc"), (2, "st"), (3, "e")):
            registry.counter(f"invariant/{name}_violations").inc(
                sum(1 for entry in self.timeline if not entry[index])
            )
        registry.counter("invariant/samples").inc(len(self.timeline))


def waiting_chain(config: Configuration) -> Tuple[int, Tuple[Pid, ...]]:
    """The longest chain of live hungry processes each waiting on a live
    hungry direct ancestor, as ``(length, path)``.

    A hungry process whose ancestor is not thinking cannot ``enter``; chains
    of such processes are exactly what the dynamic threshold (``leave``)
    keeps short.  ``path`` is ``(p0, ..., pk)`` with ``p_{i+1}`` a hungry
    direct ancestor of ``p_i`` — ``p0`` the most deeply blocked process,
    ``pk`` the *root* every member transitively waits on; ties break by
    ``repr`` so it is a pure function of the configuration.  A priority
    cycle of hungry processes makes the wait unbounded: ``length`` is then
    the process count, and ``path`` is cut where it would repeat.  ``(0,
    ())`` when nobody is hungry.
    """
    hungry = DinerState.HUNGRY.value
    faulty = config.faulty
    nodes = [
        p
        for p in config.topology.nodes
        if p not in faulty and config.local(p, VAR_STATE) == hungry
    ]
    hungry_set = set(nodes)
    cap = len(config.topology.nodes)
    memo: Dict[Pid, int] = {}
    succ: Dict[Pid, Pid] = {}  # the ancestor realising chain(p)
    ON_STACK = -1

    def chain(p: Pid) -> int:
        cached = memo.get(p)
        if cached == ON_STACK:
            return cap  # cycle of hungry processes: unbounded wait
        if cached is not None:
            return cached
        memo[p] = ON_STACK
        best = 1
        for q in sorted(direct_ancestors(config, p), key=repr):
            if q not in hungry_set:
                continue
            length = min(cap, 1 + chain(q))
            if length > best:
                best = length
                succ[p] = q
        memo[p] = best
        return best

    head: Pid | None = None
    head_len = 0
    for p in sorted(nodes, key=repr):
        length = chain(p)
        if length > head_len:
            head_len = length
            head = p
    if head is None:
        return 0, ()
    path: List[Pid] = [head]
    seen: Set[Pid] = {head}
    while True:
        nxt = succ.get(path[-1])
        if nxt is None or nxt in seen or len(path) >= cap:
            break
        path.append(nxt)
        seen.add(nxt)
    return head_len, tuple(path)


def waiting_chain_length(config: Configuration) -> int:
    """Longest chain of live hungry processes each waiting on a live hungry
    direct ancestor (:func:`waiting_chain`'s length).

    A priority cycle of hungry processes makes the chain unbounded; this
    returns the process count in that case.
    """
    return waiting_chain(config)[0]


class WaitingChainProbe(Probe):
    """Distribution and maximum of :func:`waiting_chain_length`."""

    def __init__(self) -> None:
        self.histogram: Dict[int, int] = {}
        self.max_length = 0

    def on_sample(self, step: int, config: Configuration) -> None:
        length = waiting_chain_length(config)
        self.histogram[length] = self.histogram.get(length, 0) + 1
        if length > self.max_length:
            self.max_length = length

    def publish(self, registry: MetricsRegistry) -> None:
        hist = registry.histogram("waiting_chain/histogram")
        for length in sorted(self.histogram):
            hist.observe(length, self.histogram[length])
        registry.gauge("waiting_chain/max").set(self.max_length)


class EatingPairsProbe(Probe):
    """Simultaneously-eating neighbour pairs over time (Theorem 3)."""

    def __init__(self) -> None:
        self.timeline: List[Tuple[int, int]] = []
        self.max_pairs = 0

    def on_sample(self, step: int, config: Configuration) -> None:
        count = len(eating_pairs(config))
        self.timeline.append((step, count))
        if count > self.max_pairs:
            self.max_pairs = count

    def publish(self, registry: MetricsRegistry) -> None:
        series = registry.series("eating_pairs/count")
        for step, count in self.timeline:
            series.append(step, count)
        registry.gauge("eating_pairs/max").set(self.max_pairs)


class LocalityProbe(Probe):
    """Observed locality radius per crash.

    Watches crash events; afterwards counts who still eats.  At publish
    time the starving set is every live process with zero meals since the
    *first* crash, and the observed radius is the farthest such process's
    distance to its nearest crash site — the empirical counterpart of the
    paper's failure locality 2 (processes beyond distance 2 keep eating).
    """

    def __init__(self, enter_action: str = "enter") -> None:
        self.enter_action = enter_action
        #: ``(step, pid)`` per crash-family event, in order.
        self.crashes: List[Tuple[int, Any]] = []
        self.eats_after: Dict[Any, int] = {}
        self._last_config: Optional[Configuration] = None

    def on_event(self, event: TraceEvent) -> None:
        if event.kind in (EventKind.CRASH, EventKind.MALICE_BEGIN):
            if event.pid is not None and not any(
                pid == event.pid for _, pid in self.crashes
            ):
                self.crashes.append((event.step, event.pid))
        elif (
            self.crashes
            and event.kind is EventKind.ACTION
            and event.detail == self.enter_action
        ):
            self.eats_after[event.pid] = self.eats_after.get(event.pid, 0) + 1

    def on_sample(self, step: int, config: Configuration) -> None:
        self._last_config = config

    def observed_radius(self) -> Optional[int]:
        """None before any crash or without a configuration sample;
        0 when nothing starves."""
        if not self.crashes or self._last_config is None:
            return None
        config = self._last_config
        topology = config.topology
        sites = [pid for _, pid in self.crashes]
        starving = [
            p
            for p in topology.nodes
            if p not in config.faulty and self.eats_after.get(p, 0) == 0
        ]
        if not starving:
            return 0
        return max(
            min(topology.distance(p, site) for site in sites) for p in starving
        )

    def publish(self, registry: MetricsRegistry) -> None:
        if not self.crashes:
            return
        registry.counter("locality/crashes").inc(len(self.crashes))
        registry.gauge("locality/observed_radius").set(self.observed_radius())


class StepTimerProbe(Probe):
    """Wall-clock per-action timing and steps/sec (meta metrics).

    Attributes the wall time between consecutive events to the action (or
    event kind) observed, which measures whole engine steps including the
    fault/hunger phases — honest accounting for "where does a run's time
    go".  Never part of a deterministic artefact.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._last: Optional[float] = None
        self._start: Optional[float] = None
        self.events = 0
        self.per_label: Dict[str, List[float]] = {}

    def on_event(self, event: TraceEvent) -> None:
        now = self._clock()
        if self._start is None:
            self._start = now
        if self._last is not None:
            label = (
                str(event.detail)
                if event.kind is EventKind.ACTION
                else event.kind.value
            )
            self.per_label.setdefault(label, []).append(now - self._last)
        self._last = now
        self.events += 1

    def publish(self, registry: MetricsRegistry) -> None:
        elapsed = (
            (self._last - self._start)
            if self._last is not None and self._start is not None
            else 0.0
        )
        rate = registry.gauge("rate/events_per_sec", meta=True)
        rate.set(round(self.events / elapsed, 3) if elapsed > 0 else None)
        for label, durations in self.per_label.items():
            timer = registry.timer(f"step_time/{label}")
            for duration in durations:
                timer.observe(duration)


def standard_probes(
    *,
    threshold: int,
    enter_action: str = "enter",
    exit_action: str = "exit",
    has_depth: bool = True,
) -> List[Probe]:
    """The default probe set for a shared-memory diners run.

    ``has_depth=False`` (algorithms outside the NADiners family, whose edge
    cells are not priorities) drops the depth-, chain-, and invariant
    probes, which are only meaningful over priority graphs; meals, eating
    pairs, and locality apply to every diners algorithm.
    """
    probes: List[Probe] = [
        EatsProbe(enter_action),
        EatingPairsProbe(),
        LocalityProbe(enter_action),
    ]
    if has_depth:
        probes.insert(1, DepthProbe(threshold, exit_action=exit_action))
        probes.append(WaitingChainProbe())
        probes.append(InvariantProbe(threshold))
    return probes
