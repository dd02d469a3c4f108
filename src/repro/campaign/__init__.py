"""Parallel, resumable measurement campaigns.

This package scales the repository's quantitative claims from one-shot
loops to many-seed campaigns: work is described as self-contained
:class:`~repro.campaign.shard.Shard`\\ s — simulation trials as
``(topology, algorithm, fault-plan, seed)`` tuples — executed across a
worker pool, streamed to disk as JSONL records, and resumed for free after
a crash (completed shards are recognised by key and skipped).

Entry points:

* :func:`run_shards` — execute any shard list (the ``sweep`` CLI and
  ``run_suite`` go through it);
* :class:`SweepSpec` / :func:`aggregate_sim` — the many-seed randomized
  sweep behind ``python -m repro sweep``;
* :func:`parallel_map` — order-preserving pool map for object-valued work
  (the fuzzer's schedule evaluations).
"""

from .checkpoint import ResumePlan, plan_resume, truncate_lines
from .record import (
    TrialRecord,
    canonical_json,
    iter_lines,
    parse_line,
    read_records,
    shard_key,
    write_records,
)
from .runner import (
    CampaignResult,
    campaign_metrics,
    heartbeat_progress,
    parallel_map,
    run_shards,
)
from .shard import ALGORITHMS, HANDLERS, Shard, derive_seed, execute_shard, make_algorithm
from .specs import SweepAggregate, SweepSpec, aggregate_sim

__all__ = [
    "ALGORITHMS",
    "CampaignResult",
    "HANDLERS",
    "ResumePlan",
    "Shard",
    "SweepAggregate",
    "SweepSpec",
    "TrialRecord",
    "aggregate_sim",
    "campaign_metrics",
    "canonical_json",
    "derive_seed",
    "execute_shard",
    "heartbeat_progress",
    "iter_lines",
    "make_algorithm",
    "parallel_map",
    "parse_line",
    "plan_resume",
    "read_records",
    "run_shards",
    "shard_key",
    "truncate_lines",
    "write_records",
]
