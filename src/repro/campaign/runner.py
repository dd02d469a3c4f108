"""The campaign runner: shards × worker pool → streamed JSONL → aggregates.

``run_shards`` is the single entry point every campaign goes through — the
``sweep`` CLI, the parallel model checker, and the experiment suite alike:

1. **plan** — match the shard list against the checkpoint file (if any) and
   keep only the shards with no record yet;
2. **execute** — map :func:`repro.campaign.shard.execute_shard` over the
   remaining shards, either in-process (``jobs=1``, the deterministic
   sequential fallback) or across a ``multiprocessing`` pool;
3. **stream** — append each record to the JSONL file the moment it
   completes (line-buffered, so a kill loses at most one partial line);
4. **finalize** — once all shards are in, atomically rewrite the file in
   canonical key order, which makes a finished campaign file a deterministic
   function of the shard set regardless of worker interleaving.

Workers inherit nothing mutable: every shard re-derives its topology,
algorithm, and RNG from its own JSON params and seed, which is what makes
records reproducible and the checkpoint sound.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, TextIO, TypeVar

from .checkpoint import plan_resume
from .record import TrialRecord, write_records
from .shard import Shard, execute_shard

T = TypeVar("T")
U = TypeVar("U")

ProgressFn = Callable[[TrialRecord, int, int], None]


def heartbeat_progress(
    every: int,
    *,
    stream: TextIO | None = None,
    clock: Callable[[], float] = time.monotonic,
    label: str = "shards",
) -> ProgressFn:
    """A :data:`ProgressFn` that prints one stderr line per ``every``
    completions (and on the last shard) with throughput and ETA.

    The quiet alternative to per-shard progress for large campaigns: a
    10k-shard sweep with ``every=100`` costs 100 lines instead of 10k.
    """
    if every < 1:
        raise ValueError("heartbeat interval must be >= 1")
    out = stream if stream is not None else sys.stderr
    start: List[float] = []

    def progress(record: TrialRecord, done: int, total: int) -> None:
        if not start:
            start.append(clock())
        if done % every != 0 and done != total:
            return
        elapsed = clock() - start[0]
        rate = done / elapsed if elapsed > 0 else 0.0
        if rate > 0 and total > done:
            eta = f"{(total - done) / rate:.0f}s"
        else:
            eta = "0s" if total <= done else "?"
        print(
            f"[{done}/{total}] {label}: {rate:.1f}/s elapsed {elapsed:.0f}s eta {eta}",
            file=out,
        )

    return progress


def campaign_metrics(records: Mapping[str, TrialRecord], registry=None):
    """A metrics registry summarising one campaign's records.

    Deterministic metrics (shard counts per kind, total-eats histogram over
    sim shards) come from the canonical part of each record; the per-shard
    wall-time timer is built from ``duration_s`` and therefore meta.  Pass
    an existing :class:`~repro.obs.metrics.MetricsRegistry` to merge the
    campaign aggregates into it (the suite does, so section gauges and
    campaign counters share one metrics file).
    """
    from ..obs.metrics import MetricsRegistry

    if registry is None:
        registry = MetricsRegistry()
    registry.counter("campaign/shards").inc(len(records))
    duration = registry.timer("campaign/shard_duration")
    for key in sorted(records):
        record = records[key]
        registry.counter(f"campaign/kind/{record.kind}").inc()
        if record.duration_s is not None:
            duration.observe(record.duration_s)
        total_eats = record.result.get("total_eats")
        if isinstance(total_eats, int):
            registry.histogram("campaign/total_eats").observe(total_eats)
        converged = record.result.get("converged")
        if isinstance(converged, bool):
            registry.counter("campaign/converged").inc(int(converged))
        radius = record.result.get("radius")
        if isinstance(radius, int):
            registry.histogram("campaign/locality_radius").observe(radius)
    return registry


def _pool_context():
    """The multiprocessing context campaigns run under.

    ``fork`` keeps workers cheap (no re-import) and is available on every
    POSIX platform this project targets; fall back to the platform default
    elsewhere.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one :func:`run_shards` invocation."""

    #: All records of the campaign, keyed by shard key (recovered + fresh).
    records: Dict[str, TrialRecord]
    #: Shards actually executed by this invocation.
    executed: int
    #: Shards satisfied from the checkpoint file.
    resumed: int
    #: Foreign records found (and dropped at finalize) in the checkpoint.
    foreign: int
    path: Optional[Path]

    @property
    def total(self) -> int:
        return len(self.records)

    def results_by_key(self) -> Dict[str, Dict]:
        """``{shard key: result dict}`` — the aggregation-friendly view."""
        return {key: dict(r.result) for key, r in self.records.items()}


def run_shards(
    shards: Iterable[Shard],
    *,
    jobs: int = 1,
    out_path: Optional[Path | str] = None,
    resume: bool = True,
    include_meta: bool = True,
    progress: Optional[ProgressFn] = None,
) -> CampaignResult:
    """Execute a campaign (see module docstring for the lifecycle).

    Parameters
    ----------
    shards:
        The campaign's work units.  Keys must be unique.
    jobs:
        Worker processes.  ``1`` runs everything in-process with no pool —
        the sequential fallback used by tests and by library callers that
        cannot tolerate forking.
    out_path:
        JSONL checkpoint/output file.  ``None`` keeps everything in memory.
    resume:
        Recover completed shards from ``out_path`` before executing.
        ``False`` ignores (and overwrites) whatever is on disk.
    include_meta:
        Write worker/timing metadata into the JSONL records.  Disable to
        make the finalized file byte-identical across re-runs.
    progress:
        Optional callback ``(record, completed, total)`` fired per shard.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    shards = list(shards)
    plan = plan_resume(shards, out_path if resume else None)
    records: Dict[str, TrialRecord] = dict(plan.done)
    todo: Sequence[Shard] = plan.todo

    path = Path(out_path) if out_path is not None else None
    stream = None
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        mode = "a" if resume else "w"
        stream = path.open(mode, encoding="utf-8")

    completed = len(records)
    try:
        if jobs == 1 or len(todo) <= 1:
            iterator = map(execute_shard, todo)
            for record in iterator:
                records[record.key] = record
                completed += 1
                if stream is not None:
                    stream.write(record.to_line(include_meta=include_meta) + "\n")
                    stream.flush()
                if progress is not None:
                    progress(record, completed, len(shards))
        else:
            ctx = _pool_context()
            with ctx.Pool(min(jobs, len(todo))) as pool:
                for record in pool.imap_unordered(execute_shard, todo, chunksize=1):
                    records[record.key] = record
                    completed += 1
                    if stream is not None:
                        stream.write(record.to_line(include_meta=include_meta) + "\n")
                        stream.flush()
                    if progress is not None:
                        progress(record, completed, len(shards))
    finally:
        if stream is not None:
            stream.close()

    if path is not None:
        # Canonicalize: key-sorted, current-campaign records only.
        write_records(path, records, include_meta=include_meta)
    return CampaignResult(
        records=records,
        executed=len(todo),
        resumed=len(plan.done),
        foreign=plan.foreign,
        path=path,
    )


def parallel_map(
    fn: Callable[[T], U], items: Iterable[T], *, jobs: int = 1
) -> List[U]:
    """Order-preserving map over a worker pool (sequential when ``jobs=1``).

    The generic sibling of :func:`run_shards` for work that produces live
    Python objects rather than JSONL records — the fuzzer's per-schedule
    evaluations.  ``fn`` must be picklable (module-level).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = _pool_context()
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)
