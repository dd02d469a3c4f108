"""Campaign specifications: many-seed sweeps and their aggregates.

A :class:`SweepSpec` names a randomized simulation campaign the way the
statistical stabilization literature does (many independent seeds per
configuration point, cf. Herescu & Palamidessi's randomized diners): the
cross product of topologies × algorithms × trial indices, each trial a
``sim`` shard with a seed derived deterministically from the sweep's base
seed.  :func:`aggregate_sim` folds the resulting records into the sweep's
headline numbers; aggregation reads only the records' deterministic part,
so the numbers are identical whether a campaign ran fresh, resumed, with 1
worker, or with 16.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.topology import from_spec
from .record import TrialRecord
from .algorithms import ALGORITHMS
from .shard import Shard, derive_seed


@dataclass(frozen=True)
class SweepSpec:
    """A many-seed simulation campaign over topology × algorithm points."""

    topologies: Tuple[str, ...]
    algorithms: Tuple[str, ...] = ("na-diners",)
    trials: int = 8
    steps: int = 5_000
    seed: int = 0
    #: Optional fault description applied to every trial
    #: (see :func:`repro.campaign.shard._fault_plan`).
    fault: Optional[Mapping[str, Any]] = None
    #: State backend for every trial ("object" or "fast").  RNG parity makes
    #: the two produce identical records; "object" is omitted from shard
    #: params so existing checkpoints keep their keys.
    backend: str = "object"

    def __post_init__(self) -> None:
        """Refuse, before any shard runs, what every shard would fail on."""
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, not {self.steps}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, not {self.trials}")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}"
                )
        fault = self.fault
        if not fault:
            return
        for key in ("at_step", "malicious_steps"):
            if fault.get(key, 0) < 0:
                raise ValueError(f"fault {key} must be >= 0, not {fault[key]}")
        for spec in self.topologies:
            size = len(from_spec(spec))
            if not 0 <= fault["victim"] < size:
                raise ValueError(
                    f"fault victim {fault['victim']} out of range for {spec} "
                    f"(has {size} processes)"
                )

    def shards(self) -> List[Shard]:
        """Expand the sweep into its shard list (deterministic order)."""
        shards: List[Shard] = []
        trial_index = 0
        for topology in self.topologies:
            for algorithm in self.algorithms:
                for trial in range(self.trials):
                    params: Dict[str, Any] = {
                        "topology": topology,
                        "algorithm": algorithm,
                        "steps": self.steps,
                        "trial": trial,
                    }
                    if self.fault is not None:
                        params["fault"] = dict(self.fault)
                    if self.backend != "object":
                        params["backend"] = self.backend
                    shards.append(
                        Shard(
                            "sim", params, derive_seed(self.seed, trial_index)
                        )
                    )
                    trial_index += 1
        return shards


def cmd_sweep(
    *, topology: Optional[Sequence[str]], algorithm: Optional[Sequence[str]],
    trials: int, steps: int, seed: int, jobs: int, out: Optional[str], fresh: bool,
    no_meta: bool, crash_victim: Optional[int], crash_at: int, malicious: int,
    backend: str, quiet: bool, progress: int, trace: Optional[str],
    metrics_out: Optional[str],
) -> int:
    """``repro sweep``: a :class:`SweepSpec` (default ``ring:8`` ×
    ``na-diners``) through :func:`~repro.campaign.runner.run_shards`, then
    the ``repro stats`` block of the records as written (built in memory
    without ``out``).  Per-shard progress goes to stderr: one line a shard,
    one heartbeat per ``progress`` shards, or none when ``quiet``."""
    from ..obs.metrics import write_metrics
    from .record import (
        CampaignTraceLog, Records, iter_lines, parse_line, summarize_records,
    )
    from .runner import campaign_metrics, heartbeat_progress, run_shards

    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    sweep = SweepSpec(
        topologies=tuple(topology or ["ring:8"]),
        algorithms=tuple(algorithm or ["na-diners"]),
        trials=trials,
        steps=steps,
        seed=seed,
        fault=None if crash_victim is None else {
            "victim": crash_victim, "at_step": crash_at, "malicious_steps": malicious,
        },
        backend=backend,
    )

    def each_shard(record: TrialRecord, done: int, total: int) -> None:
        print(
            f"[{done}/{total}] {record.kind} {record.params.get('topology')} "
            f"{record.params.get('algorithm')} seed={record.seed}",
            file=sys.stderr,
        )

    report = each_shard
    if quiet:
        report = None
    elif progress:
        report = heartbeat_progress(progress)
    trace_log = CampaignTraceLog(trace) if trace else None
    if trace_log is not None:
        report = trace_log.wrap(report)
    try:
        result = run_shards(
            sweep.shards(),
            jobs=jobs,
            out_path=out,
            resume=not fresh,
            include_meta=not no_meta,
            progress=report,
        )
    finally:
        if trace_log is not None:
            trace_log.close()
    print(
        f"shards: {result.total} "
        f"(executed {result.executed}, resumed {result.resumed})"
    )
    written = iter_lines(result.records, include_meta=not no_meta)
    print("\n".join(summarize_records(Records(map(parse_line, written)))))
    if result.path is not None:
        print(f"records: {result.path}")
    if trace_log is not None:
        print(f"trace: {trace_log.path}")
    if metrics_out:
        path = write_metrics(
            metrics_out,
            campaign_metrics(result.records),
            header={
                "source": "campaign",
                "shards": result.total,
                "executed": result.executed,
                "resumed": result.resumed,
            },
            include_meta=not no_meta,
        )
        print(f"metrics: {path}")
    return 0
