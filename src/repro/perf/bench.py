"""The benchmark registry and runner: the repo's kernels, timed without pytest.

A :class:`Benchmark` is a named *setup → kernel* pair: ``setup()`` builds
whatever state the measurement needs (a warmed engine, a snapshot, a
transition system) and returns the zero-argument kernel to time.  The
runner warms the kernel up, times ``rounds`` calls, and reduces them with
robust statistics — **median**, **IQR**, and **min** — because wall-clock
samples on shared machines are contaminated by one-sided noise: the median
and the minimum are stable under it, the mean is not.

``ops`` declares how many logical operations one kernel call performs
(engine steps, snapshots, evaluations...), so results can also be read as
throughput (``ops / median``).

Benchmarks register themselves via :func:`register`; the default kernels
live in :mod:`repro.perf.kernels` and are loaded on first use of
:func:`registry`.  ``pytest-benchmark`` micro benchmarks and ``repro
bench`` both draw from this one registry, so the two never drift apart.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..obs.metrics import percentile_of_sorted

#: Kernel factory: called once per benchmark run, returns the callable to time.
Setup = Callable[[], Callable[[], Any]]

_REGISTRY: Dict[str, "Benchmark"] = {}


@dataclass(frozen=True)
class Benchmark:
    """One registered measurement."""

    name: str
    setup: Setup
    #: Logical operations per kernel call (for throughput derivation).
    ops: int = 1
    rounds: int = 10
    warmup: int = 2
    quick_rounds: int = 3
    quick_warmup: int = 1

    def plan(self, quick: bool) -> "RunPlan":
        if quick:
            return RunPlan(rounds=self.quick_rounds, warmup=self.quick_warmup)
        return RunPlan(rounds=self.rounds, warmup=self.warmup)


@dataclass(frozen=True)
class RunPlan:
    rounds: int
    warmup: int


def register(
    name: str,
    *,
    ops: int = 1,
    rounds: int = 10,
    warmup: int = 2,
    quick_rounds: int = 3,
    quick_warmup: int = 1,
) -> Callable[[Setup], Setup]:
    """Decorator: register ``setup`` under ``name``.

    Registering the same name twice is an error — it would silently fork
    the trajectory that name carries across ``BENCH_*.json`` files.
    """

    def decorator(setup: Setup) -> Setup:
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = Benchmark(
            name=name,
            setup=setup,
            ops=ops,
            rounds=rounds,
            warmup=warmup,
            quick_rounds=quick_rounds,
            quick_warmup=quick_warmup,
        )
        return setup

    return decorator


def registry() -> Mapping[str, Benchmark]:
    """All registered benchmarks (default kernels loaded on first call)."""
    from . import kernels  # noqa: F401 — registers the default set on import

    return dict(_REGISTRY)


def select(pattern: Optional[str] = None) -> List[Benchmark]:
    """Benchmarks whose name contains ``pattern``, in name order."""
    benches = registry()
    names = sorted(benches)
    if pattern:
        names = [n for n in names if pattern in n]
    return [benches[n] for n in names]


# ------------------------------------------------------------------ results


def robust_stats(times: Sequence[float]) -> Dict[str, float]:
    """Median / IQR / min / max / mean of a sample of round times."""
    ordered = sorted(times)
    return {
        "median_s": percentile_of_sorted(ordered, 0.5),
        "iqr_s": percentile_of_sorted(ordered, 0.75)
        - percentile_of_sorted(ordered, 0.25),
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "mean_s": sum(ordered) / len(ordered),
    }


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one benchmark: raw round times plus the derived stats."""

    name: str
    ops: int
    rounds: int
    warmup: int
    times: tuple = field(default_factory=tuple)

    @property
    def stats(self) -> Dict[str, float]:
        return robust_stats(self.times)

    @property
    def median(self) -> float:
        return self.stats["median_s"]

    @property
    def ops_per_sec(self) -> Optional[float]:
        median = self.median
        return self.ops / median if median > 0 else None

    def payload(self) -> Dict[str, Any]:
        """The per-benchmark body of a ``BENCH_*.json`` file."""
        stats = {k: round(v, 9) for k, v in self.stats.items()}
        ops_per_sec = self.ops_per_sec
        return {
            "ops": self.ops,
            "rounds": self.rounds,
            "warmup": self.warmup,
            "stats": stats,
            "ops_per_sec": None if ops_per_sec is None else round(ops_per_sec, 3),
        }


# ------------------------------------------------------------------- runner


def run_benchmark(
    bench: Benchmark,
    *,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    profiler=None,
) -> BenchResult:
    """Set up, warm up, and time one benchmark.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the timed calls
    only — setup and warmup stay outside the profile.  Profiling inflates
    the round times; callers that profile should not also trust the stats.
    """
    plan = bench.plan(quick)
    kernel = bench.setup()
    for _ in range(plan.warmup):
        kernel()
    times: List[float] = []
    for _ in range(plan.rounds):
        if profiler is not None:
            profiler.enable()
        start = clock()
        kernel()
        elapsed = clock() - start
        if profiler is not None:
            profiler.disable()
        times.append(elapsed)
    return BenchResult(
        name=bench.name,
        ops=bench.ops,
        rounds=plan.rounds,
        warmup=plan.warmup,
        times=tuple(times),
    )


def run_benchmarks(
    benches: Sequence[Benchmark],
    *,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    profiler=None,
    progress: Optional[Callable[[BenchResult], None]] = None,
) -> List[BenchResult]:
    """Run a benchmark list in order; ``progress`` fires after each one."""
    results: List[BenchResult] = []
    for bench in benches:
        result = run_benchmark(bench, quick=quick, clock=clock, profiler=profiler)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def cmd_bench(
    *, quick: bool, filter: Optional[str], list: bool, out: Optional[str],
    compare: Optional[Sequence[str]], history: Optional[str], threshold: float,
    profile: bool, profile_out: str, profile_top: int,
) -> int:
    """``repro bench``: run the registry's benchmarks (those whose name
    contains ``filter``), each one's line to stderr as it finishes, then
    print the ``repro stats`` block of the BENCH document, written to
    ``out`` when given — or, instead, ``list`` them, ``compare`` two BENCH
    files (exit 1 on a regression past ``threshold``) or tabulate a
    ``history`` directory."""
    from .bench_io import (
        bench_payload, compare as compare_bench, format_compare, format_history,
        kernel_line, read_bench, scan_bench_history, summarize_bench, write_bench,
    )

    if threshold < 0:
        raise ValueError("--threshold must be non-negative")
    if history:
        entries, ignored = scan_bench_history(history)
        if not entries:
            raise ValueError(f"{history}: no BENCH_*.json files")
        print(format_history(entries))
        if ignored:
            print(f"ignored {len(ignored)} non-BENCH file(s): " + ", ".join(ignored))
        return 0
    if compare:
        old_path, new_path = compare
        report = compare_bench(
            read_bench(old_path), read_bench(new_path), threshold=threshold
        )
        print(format_compare(report))
        return 0 if report.ok else 1

    benches = select(filter)
    if not benches:
        raise ValueError(
            f"no benchmark matches --filter {filter!r}; try `repro bench --list`"
        )
    if list:
        for bench in benches:
            plan = bench.plan(quick)
            print(f"{bench.name}  (ops={bench.ops}, rounds={plan.rounds}, "
                  f"warmup={plan.warmup})")
        return 0

    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()

    print(f"running {len(benches)} benchmarks ({'quick' if quick else 'full'})",
          file=sys.stderr)
    results = run_benchmarks(
        benches, quick=quick, profiler=profiler,
        progress=lambda r: print(kernel_line(r.name, r.payload()), file=sys.stderr),
    )
    options = {"quick": quick, "filter": filter, "profiled": profile}
    payload = bench_payload(results, options=options)
    print("\n".join(summarize_bench(payload)))
    if out:
        path = write_bench(out, results, options=options, env=payload["env"])
        print(f"bench: {path}")
    if profiler is not None:
        from .profile import format_hotspots, hotspots, write_profile_metrics

        print(format_hotspots(hotspots(profiler, top=profile_top)))
        path = write_profile_metrics(
            profile_out,
            profiler,
            header={"benchmarks": len(results), "quick": quick},
            top=profile_top,
        )
        print(f"profile: {path}")
        print("note: profiled round times are inflated; do not commit them "
              "as a baseline")
    return 0
