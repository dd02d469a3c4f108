"""Running one workload: repeated set-up, the measurement, the traced pass.

A workload is an object with ``setup(seed, trace_dir) -> ctx``,
``teardown(ctx)``, ``measure(ctx, seconds, seed, tracer, probe) ->
Measurement`` and ``layers(measurement, tracer, ctx) -> {per-layer name:
value}``; all but the last are coroutines so the live workloads can own an
event loop and the offline ones simply never await.

The harness imports ``repro`` only inside functions: set-up time includes
importing the package, and it is measured several times in one process by
dropping ``repro*`` from ``sys.modules`` before each repetition.

Every CPU-bound duration is divided by the box's slowdown over the same
interval (:mod:`speed`), so it reads in seconds *at reference speed*; the
timer-bound numbers of the live workloads (grants per second, grant
latency) are left on the wall clock.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from spec import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Set-up repetitions per run (the reported ``setup_s`` is their median).
SETUP_REPEATS = 5


@dataclass
class Measurement:
    """What one measurement window produced."""

    #: ``ops_per_s``, ``result_p50_ms``, ``cpu_ms_per_op``.
    e2e: Dict[str, float]
    #: the same on the wall clock, and the slowdown that was divided out
    raw: Dict[str, float]
    attempted: int
    failed: int
    #: check description -> passed
    checks: Dict[str, bool]
    #: counts that must repeat exactly for one seed on one code version
    exact: Dict[str, Any] = field(default_factory=dict)
    #: raw observations the per-layer metrics are derived from
    facts: Dict[str, Any] = field(default_factory=dict)


def median(values: Iterable[float]) -> float:
    """``statistics.median``, reading 0 where there is nothing to report."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: ``(ops, results, wall_s, cpu_s, slowdown)`` of one chunk of work.
Chunk = Tuple[int, int, float, float, float]


def summarize_chunks(chunks: List[Chunk]) -> Dict[str, float]:
    """End-to-end numbers from chunks, at reference speed.

    Each is a median over chunks, so one descheduled chunk moves nothing.
    """
    return {
        "ops_per_s": median(o * s / w for o, _r, w, _c, s in chunks),
        "result_p50_ms": median(1000.0 * w / s / r for _o, r, w, _c, s in chunks),
        "cpu_ms_per_op": median(1000.0 * c / s / o for o, _r, _w, c, s in chunks),
    }


def raw_chunks(chunks: List[Chunk]) -> Dict[str, float]:
    """What the wall clock said, for the ``raw`` lines of the output."""
    return {
        "ops_per_s": median(o / w for o, _r, w, _c, _s in chunks),
        "slowdown": median(s for _o, _r, _w, _c, s in chunks),
    }


def timed_chunks(seconds: float, at_least: int, run_chunk, probe) -> List[Chunk]:
    """Call ``run_chunk(i) -> (ops, results)`` until the window is over.

    Runs at least ``at_least`` chunks (the exact counts are taken over that
    fixed prefix), then another only while one as long as the last still
    fits — a chunk that takes most of a window is not started twice.
    """
    chunks: List[Chunk] = []
    deadline = time.monotonic() + seconds
    index = 0
    while (
        index < at_least
        or time.monotonic() + chunks[-1][2] <= deadline
    ):
        wall = time.monotonic()
        cpu = own_cpu_s(probe)
        ops, results = run_chunk(index)
        ended = time.monotonic()
        chunks.append((
            ops, results, ended - wall, own_cpu_s(probe) - cpu,
            probe.slowdown(wall, ended),
        ))
        index += 1
    return chunks


def own_cpu_s(probe) -> float:
    """Process CPU (user+sys) without what the speed probe itself used."""
    return time.process_time() - probe.cpu_s()


def fresh_import() -> None:
    """Forget ``repro`` so the next import pays its real cost again."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str):
    from live import LiveWorkload
    from offline import OFFLINE

    if name in OFFLINE:
        return OFFLINE[name]()
    return LiveWorkload(name)


async def run_one(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One driver-contract run; returns the result document."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return await _run_one(name, seed, seconds, trace, probe)
    finally:
        probe.stop()


async def _run_one(name: str, seed: int, seconds: float, trace: bool, probe) -> Dict[str, Any]:
    workload = make_workload(name)
    setups: List[float] = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        if ctx is not None:
            await workload.teardown(ctx)
            ctx = None
        started = time.monotonic()
        fresh_import()
        ctx = await workload.setup(seed, None)
        ended = time.monotonic()
        setups.append((ended - started) / probe.slowdown(started, ended))

    if not trace:
        try:
            m = await workload.measure(ctx, seconds, seed, None, probe)
        finally:
            await workload.teardown(ctx)
        values = dict(m.e2e)
        values["setup_s"] = median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        declared = END_TO_END
    else:
        from tracer import Tracer

        # Same process, wrappers off: the base the overhead is taken against.
        try:
            base = await workload.measure(ctx, seconds / 2.0, seed, None, probe)
        finally:
            await workload.teardown(ctx)
        tracer = Tracer()
        trace_dir = OUT_DIR / f"{name}-cluster-spans"
        tracer.install()
        try:
            ctx = await workload.setup(seed, trace_dir)
            try:
                m = await workload.measure(ctx, seconds, seed, tracer, probe)
            finally:
                await workload.teardown(ctx)
            values = {n: 0.0 for n, _u, _b in PER_LAYER}
            values.update(workload.layers(m, tracer, ctx))
        finally:
            tracer.uninstall()
        for span_name, metric in WRAPPED_METRICS.items():
            values[metric] = tracer.self_us(span_name) / m.raw["slowdown"]
        if base.e2e and m.e2e:
            values["trace.overhead_share"] = (
                m.e2e["cpu_ms_per_op"] / base.e2e["cpu_ms_per_op"] - 1.0
            )
        m.checks.update({f"untraced pass: {k}": v for k, v in base.checks.items()})
        tracer.write_spans(OUT_DIR / f"{name}-spans.jsonl")
        declared = [(n, u, b, None) for n, u, b in PER_LAYER]

    failed_checks = [text for text, ok in m.checks.items() if not ok]
    if not m.e2e:
        failed_checks.append("the window completed no operation")
    for text, ok in m.checks.items():
        print(f"check {name}: {text}: {'ok' if ok else 'FAILED'}")
    for key, value in m.raw.items():
        print(f"raw {name} {key} {value:.6g}")
    metrics = {}
    if not failed_checks:
        for metric, unit, _better, _bound in declared:
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"metric {name} {metric} {values[metric]:.6g} {unit}")
    return {
        "exact": m.exact,
        "failed_checks": failed_checks,
        "result": {
            "correct": not failed_checks,
            "attempted": max(1, m.attempted),
            "failed": m.failed,
            "metrics": metrics,
        },
    }


#: tracer span name -> the per-layer metric holding its mean self time.
WRAPPED_METRICS = {
    "gateway.server.submit": "gateway.server.submit_us",
    "gateway.mux.submit": "gateway.mux.submit_us",
    "gateway.mux.resolve": "gateway.mux.resolve_us",
    "gateway.admission.try_admit": "gateway.admission.try_admit_us",
    "net.codec.encode": "net.codec.encode_us",
    "net.codec.decode": "net.codec.decode_us",
    "mp.diners_mp.on_tick": "mp.diners_mp.on_tick_us",
    "mp.diners_mp.on_message": "mp.diners_mp.on_message_us",
    "mp.engine.step": "mp.engine.step_us",
    "sim.engine.step": "sim.engine.step_us",
    "fastcore.engine.step": "fastcore.engine.step_us",
    "fastcore.explorer.successors": "fastcore.explorer.successors_us",
    "fastcore.packed.key": "fastcore.packed.key_us",
}
