"""Performance observability: benchmark registry, BENCH files, profiling.

The layer every performance claim in this repo flows through:

* :mod:`repro.perf.bench` — the shared benchmark registry and the
  warmup/rounds/robust-stats runner (no pytest required);
* :mod:`repro.perf.kernels` — the default kernels: engine step loops,
  snapshot cost, invariant evaluation, model-checker successors,
  message-passing ticks, campaign-shard throughput;
* :mod:`repro.perf.bench_io` — the versioned ``BENCH_*.json`` trajectory
  format (stats + environment provenance) and the noise-tolerant
  ``--compare`` regression gate;
* :mod:`repro.perf.profile` — cProfile hooks that publish top-N hotspots
  through the standard metrics registry, so ``repro stats`` reads them.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".bench": (
        "Benchmark BenchResult register registry robust_stats run_benchmark "
        "run_benchmarks select"
    ),
    ".bench_io": (
        "BENCH_FORMAT_VERSION DEFAULT_THRESHOLD CompareReport Delta "
        "HistoryEntry bench_payload compare environment format_compare "
        "format_history git_revision read_bench scan_bench_history write_bench"
    ),
    ".profile": (
        "DEFAULT_TOP format_hotspots hotspots profile_call publish_hotspots "
        "write_profile_metrics"
    ),
})
