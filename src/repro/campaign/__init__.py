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
* :class:`SweepSpec` — the many-seed randomized sweep behind ``python -m
  repro sweep``, folded by :func:`aggregate_sim`;
* :func:`parallel_map` — order-preserving pool map for object-valued work
  (the fuzzer's schedule evaluations).
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".checkpoint": "ResumePlan plan_resume truncate_lines",
    ".record": (
        "TrialRecord aggregate_sim canonical_json iter_lines parse_line "
        "read_records shard_key write_records"
    ),
    ".runner": (
        "CampaignResult campaign_metrics heartbeat_progress parallel_map "
        "run_shards"
    ),
    ".algorithms": "ALGORITHMS make_algorithm",
    ".shard": "HANDLERS Shard derive_seed execute_shard",
    ".specs": "SweepSpec",
})
