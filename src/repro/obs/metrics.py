"""The metrics registry: counters, gauges, histograms, timers → JSONL.

Every quantitative claim later PRs make about performance or behaviour
should flow through one of these instruments, so the numbers always arrive
with the same schema and determinism contract as the campaign records:

* **deterministic metrics** (the default) are pure functions of the run —
  eats, depth histograms, invariant distances.  Writing them with
  ``include_meta=False`` produces a byte-stable file for a given seed.
* **meta metrics** (``meta=True`` at registration: wall-clock timers,
  steps/sec) are environmental.  They are written only when the caller asks
  (``include_meta=True``) and excluded from any byte-identical comparison.

The file format is versioned JSON Lines: one ``header`` line, then one line
per metric in name order.  ``read_metrics`` round-trips what ``write_metrics``
produced and tolerates foreign lines the way the campaign loader does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..artefact import CANONICAL, KINDS, read_jsonl, skipped_note, write_atomic

METRICS_FORMAT_VERSION = KINDS["metrics"].format


def _canonical(payload: Any) -> str:
    return json.dumps(payload, **CANONICAL)


def percentile_of_sorted(values: List[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` (in ``[0, 1]``) of a pre-sorted
    sequence — numpy's default definition, without numpy.

    One shared definition serves the bench runner's robust stats and the
    instruments below, so "median" means the same thing in a ``BENCH_*.json``
    file and a metrics artefact.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    # lo + (hi - lo) * frac, not lo*(1-frac) + hi*frac: the symmetric form
    # drifts by an ulp on identical neighbours (q=0.999 over a thousand
    # equal samples must return exactly that sample, not max + 1 ulp).
    # The clamp pins the tail inside [values[lo], values[hi]] — and hence
    # inside the observed min/max — against any residual rounding.
    result = values[lo] + (values[hi] - values[lo]) * frac
    return min(max(result, values[lo]), values[hi])


class Metric:
    """Base class: a named instrument that renders to one JSON payload."""

    type_name = "metric"

    def __init__(self, name: str, *, meta: bool = False) -> None:
        self.name = name
        self.meta = meta

    def payload(self) -> Dict[str, Any]:  # pragma: no cover - abstract-ish
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    type_name = "counter"

    def __init__(self, name: str, *, meta: bool = False) -> None:
        super().__init__(name, meta=meta)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def payload(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge(Metric):
    """A value that can move both ways (last write wins)."""

    type_name = "gauge"

    def __init__(self, name: str, *, meta: bool = False) -> None:
        super().__init__(name, meta=meta)
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value

    def track_max(self, value: Any) -> None:
        """Keep the largest value observed."""
        if self.value is None or value > self.value:
            self.value = value

    def payload(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram(Metric):
    """Exact-value buckets over a discrete observation stream.

    The quantities the paper's probes histogram (depths, chain lengths,
    eating-pair counts) are small integers, so exact buckets beat
    logarithmic ones: the ``depth > D`` tail is visible bucket by bucket.
    """

    type_name = "histogram"

    def __init__(self, name: str, *, meta: bool = False) -> None:
        super().__init__(name, meta=meta)
        self.buckets: Dict[Any, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: Any, weight: int = 1) -> None:
        self.buckets[value] = self.buckets.get(value, 0) + weight
        self.count += weight
        self.total += value * weight

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> Any:
        """Smallest bucket value covering quantile ``q`` of the mass
        (nearest-rank over the cumulative bucket counts)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if not self.count:
            return None
        # min() guards float-precision overshoot in q*count (e.g. q=0.999
        # over a large merged count can ceil to count+1, which would walk
        # past every bucket); nearest-rank must always land on a bucket, so
        # the result stays within the observed min/max by construction —
        # merge-after-merge chains included.
        target = min(self.count, max(1, math.ceil(q * self.count)))
        cumulative = 0
        ordered = sorted(self.buckets)
        for value in ordered:
            cumulative += self.buckets[value]
            if cumulative >= target:
                return value
        return ordered[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's buckets into this one (shard merge)."""
        for value, weight in other.buckets.items():
            self.observe(value, weight)

    def payload(self) -> Dict[str, Any]:
        # JSON object keys must be strings; keep buckets sorted by the
        # underlying value so the rendering is deterministic and readable.
        buckets = {str(k): self.buckets[k] for k in sorted(self.buckets)}
        return {"buckets": buckets, "count": self.count, "sum": self.total}


class Timer(Metric):
    """Wall-clock durations (seconds).  Meta by default — wall time is
    environmental and must never enter a byte-identical artefact."""

    type_name = "timer"

    def __init__(self, name: str, *, meta: bool = True) -> None:
        super().__init__(name, meta=meta)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Raw observations, kept so percentiles and merges stay exact.
        self.samples: List[float] = []

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)
        self.samples.append(seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> Optional[float]:
        """Interpolated quantile of the observed durations."""
        if not self.samples:
            return None
        return percentile_of_sorted(sorted(self.samples), q)

    def merge(self, other: "Timer") -> None:
        """Fold another timer's observations into this one."""
        for seconds in other.samples:
            self.observe(seconds)

    def payload(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": round(self.total, 9),
            "min_s": None if self.min is None else round(self.min, 9),
            "max_s": None if self.max is None else round(self.max, 9),
            "mean_s": None if not self.count else round(self.mean, 9),
            "p50_s": _round_opt(self.percentile(0.5)),
            "p90_s": _round_opt(self.percentile(0.9)),
        }


def _round_opt(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 9)


class Series(Metric):
    """An explicit ``(step, value)`` timeline — the paper's witnesses are
    trajectories (invariant distance over time, eating pairs over time), not
    just endpoints."""

    type_name = "series"

    def __init__(self, name: str, *, meta: bool = False) -> None:
        super().__init__(name, meta=meta)
        self.points: List[Tuple[int, Any]] = []

    def append(self, step: int, value: Any) -> None:
        self.points.append((step, value))

    def payload(self) -> Dict[str, Any]:
        return {"points": [[s, v] for s, v in self.points]}


class MetricsRegistry:
    """A namespace of instruments, created on first use.

    ``counter("a/b")`` twice returns the same object; asking for an existing
    name with a different instrument type is an error (it would silently
    fork the measurement).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls, name: str, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.type_name}"
                )
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, *, meta: bool = False) -> Counter:
        return self._get(Counter, name, meta=meta)

    def gauge(self, name: str, *, meta: bool = False) -> Gauge:
        return self._get(Gauge, name, meta=meta)

    def histogram(self, name: str, *, meta: bool = False) -> Histogram:
        return self._get(Histogram, name, meta=meta)

    def timer(self, name: str, *, meta: bool = True) -> Timer:
        return self._get(Timer, name, meta=meta)

    def series(self, name: str, *, meta: bool = False) -> Series:
        return self._get(Series, name, meta=meta)

    # --------------------------------------------------------------- views

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def snapshot(self, *, include_meta: bool = True) -> Dict[str, Dict[str, Any]]:
        """``{name: {"type": ..., **payload}}`` in name order."""
        result: Dict[str, Dict[str, Any]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.meta and not include_meta:
                continue
            result[name] = {"type": metric.type_name, **metric.payload()}
        return result


# ------------------------------------------------------------------ JSONL


def metrics_lines(
    registry: MetricsRegistry,
    *,
    header: Optional[Mapping[str, Any]] = None,
    include_meta: bool = False,
) -> Iterator[str]:
    """The registry as versioned JSONL: header line, then metric lines."""
    head: Dict[str, Any] = {"format": METRICS_FORMAT_VERSION, "kind": "header"}
    if header:
        head.update(header)
    yield _canonical(head)
    for name, payload in registry.snapshot(include_meta=include_meta).items():
        yield _canonical({"kind": "metric", "name": name, **payload})


def write_metrics(
    path: Path | str,
    registry: MetricsRegistry,
    *,
    header: Optional[Mapping[str, Any]] = None,
    include_meta: bool = False,
) -> Path:
    """Write the registry to ``path`` (parents created, atomic replace,
    fsynced — a teardown racing a SIGKILL keeps the artefact tail)."""
    return write_atomic(
        path, metrics_lines(registry, header=header, include_meta=include_meta)
    )


@dataclass(frozen=True)
class MetricsFile:
    """A parsed metrics JSONL file."""

    header: Mapping[str, Any]
    metrics: Mapping[str, Mapping[str, Any]]
    #: Lines that were not valid metric/header records (foreign or truncated).
    skipped: int = 0


def read_metrics(path: Path | str) -> MetricsFile:
    """Parse a file written by :func:`write_metrics`.

    Unknown or truncated lines are counted, not fatal — the same tolerance
    the campaign checkpoint loader applies.
    """
    header, rows, skipped = read_jsonl(path)
    if header and header.get("format") != METRICS_FORMAT_VERSION:
        header = {}
        skipped += 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if row.get("kind") == "metric" and "name" in row:
            metrics[row["name"]] = {
                k: v for k, v in row.items() if k not in ("kind", "name")
            }
        else:
            skipped += 1
    return MetricsFile(
        header={k: v for k, v in header.items() if k != "kind"},
        metrics=metrics,
        skipped=skipped,
    )


def summarize_metrics(metrics: MetricsFile) -> List[str]:
    """The ``repro stats`` lines for a metrics file.

    Any JSONL header is read as a metrics file, so one with neither a
    metric line nor a ``source`` is refused here as foreign.
    """
    if not metrics.metrics and not metrics.header.get("source"):
        raise ValueError("header names no source and no metric lines follow")
    lines = [f"metrics file: {len(metrics.metrics)} metrics"]
    for key in sorted(k for k in metrics.header if k != "format"):
        lines.append(f"  {key}: {metrics.header[key]}")
    for name, payload in metrics.metrics.items():
        body = {k: v for k, v in payload.items() if k != "type"}
        lines.append(f"  {payload.get('type', '?'):9s} {name} = "
                     + json.dumps(body, sort_keys=True))
    return lines + skipped_note(metrics.skipped)
