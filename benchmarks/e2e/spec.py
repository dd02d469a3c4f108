"""What the benchmark declares: workloads, metrics, bounds, recorded sizes.

This module is the single source the harness emits from and the smoke test
checks ``BENCHMARK.json`` against.  It imports nothing from ``repro`` so it
can be read in a checkout that has no ``src/``.

Every end-to-end metric is defined on every workload (the driver gates each
metric on each workload), so the unit of work behind ``ops_per_s`` and the
"result" behind ``result_p50_ms`` are named per workload in :data:`UNITS`.
A per-layer metric reads ``0`` on a workload that never enters its layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: How long one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 10

#: ``(name, why)`` — the why is the one-line reason the workload exists.
WORKLOADS: List[Tuple[str, str]] = [
    ("live_closed",
     "ring:6 over TCP behind the gateway, 24 closed-loop clients, hold 5 ms: "
     "capacity where three nodes may eat at once; tick, eat_ticks and the "
     "diner's rotation do the work, the gateway almost none"),
    ("live_open",
     "ring:3 (a triangle: one eater at most), open loop, seeded Poisson at "
     "20 Hz over 300 clients, timed from due time: moves with per-hop "
     "latency, must stay flat when only concurrency improves"),
    ("mp_crash",
     "the served diner (eat_ticks=2, repair) on deterministic MpEngine, "
     "ring:8, malicious crash at step 2000: the paper's locality claim on "
     "the protocol the live tier runs, on a simulated clock"),
    ("sweep_object",
     "run_shards over ring:12 x 3 algorithms x 2000 steps with a malicious "
     "crash, object backend: where E1-E11, variants and baselines run and "
     "where one-engine must show its gain"),
    ("sweep_fast",
     "the same sweep, na-diners only, backend=fast: fastcore.engine does all "
     "the work and sim.engine none, so a unification that taxes the packed "
     "path shows here"),
    ("check_line5",
     "FastExplorer closure of line:5 from the all-hungry state (215824 "
     "states): explorer + PackedCodec.key + visited set, memory-bound, "
     "answer known exactly; ring:5 (21 s) exceeds the run budget"),
    ("gateway_sim",
     "run_sim with 10^4 clients on 3 nodes in virtual time: the only "
     "workload where GatewayMux + AdmissionController do most of the work "
     "(>90% sheds), no sockets and no diner"),
]

#: Per workload: what one op is, and what one result is.
UNITS: Dict[str, Tuple[str, str]] = {
    "live_closed": ("grant", "grant, from the instant its client was ready"),
    "live_open": ("grant", "grant, from the instant the request was due"),
    "mp_crash": ("engine step", "6000-step trial"),
    "sweep_object": ("engine step", "trial (mean over one 3-algorithm round)"),
    "sweep_fast": ("engine step", "trial (mean over one 16-trial chunk)"),
    "check_line5": ("reachable state", "closure verdict"),
    "gateway_sim": ("submission decided", "simulated second of 10^4 clients"),
}

#: ``(name, unit, better, bound)`` — bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Each is sized from the quartile spreads seen over ten seeds (README,
#: "Steadiness"): ``ops_per_s`` up to 4.5 % (6.5 % once, on ``sweep_fast``),
#: ``result_p50_ms`` 4-9 % and ``cpu_ms_per_op`` 5-7 % on ``live_open`` (200
#: grants a run, a process 6 % busy), ``peak_rss_mb`` 0.7 %.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("result_p50_ms", "ms", "lower", 0.20),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: ``(name, unit, better)`` — gathered in the traced run, no bound.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("fleet.gen_late_p99_ms", "ms", "lower"),
    ("fleet.grant_p95_ms", "ms", "lower"),
    ("fleet.within_limit_share", "share", "higher"),
    ("fleet.failed_share", "share", "lower"),
    ("fleet.grant_count_cv", "ratio", "lower"),
    ("fleet.success_x_contention", "ratio", "higher"),
    ("gateway.server.submit_us", "us", "lower"),
    ("gateway.mux.submit_us", "us", "lower"),
    ("gateway.mux.resolve_us", "us", "lower"),
    ("gateway.admission.try_admit_us", "us", "lower"),
    ("gateway.admission.shed_share", "share", "lower"),
    ("gateway.batch.frames_per_flush", "ratio", "higher"),
    ("net.codec.encode_us", "us", "lower"),
    ("net.codec.decode_us", "us", "lower"),
    ("net.codec.frames_per_grant", "ratio", "lower"),
    ("net.node.submit_to_grant_ms", "ms", "lower"),
    ("net.node.grant_to_reply_ms", "ms", "lower"),
    ("net.node.ticks_per_grant", "ratio", "lower"),
    ("net.node.msgs_per_grant", "ratio", "lower"),
    ("net.node.retransmits_per_grant", "ratio", "lower"),
    ("net.node.concurrent_eaters_mean", "count", "higher"),
    ("net.node.cpu_busy_share", "share", "lower"),
    ("mp.diners_mp.queue_ms", "ms", "lower"),
    ("mp.diners_mp.transfer_ms", "ms", "lower"),
    ("mp.diners_mp.retransmit_ms", "ms", "lower"),
    ("mp.diners_mp.on_tick_us", "us", "lower"),
    ("mp.diners_mp.on_message_us", "us", "lower"),
    ("mp.engine.step_us", "us", "lower"),
    ("mp.engine.msgs_per_eat", "ratio", "lower"),
    ("mp.diners_mp.served_by_distance.1", "share", "higher"),
    ("mp.diners_mp.served_by_distance.2", "share", "higher"),
    ("mp.diners_mp.served_by_distance.3", "share", "higher"),
    ("mp.diners_mp.served_by_distance.4", "share", "higher"),
    ("locality.far_served_share", "share", "higher"),
    ("sim.engine.step_us", "us", "lower"),
    ("fastcore.engine.step_us", "us", "lower"),
    ("campaign.runner.overhead_share", "share", "lower"),
    ("fastcore.explorer.successors_us", "us", "lower"),
    ("fastcore.packed.key_us", "us", "lower"),
    ("fastcore.explorer.bytes_per_state", "B", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("ledger.unattributed_share", "share", "lower"),
]

#: The fixed sizes behind the workloads (recorded once, not tuned per run).
SIZES = {
    "live_closed": {"topology": "ring:6", "clients": 24, "hold_s": 0.005,
                    "warmup_s": 2.0},
    "live_open": {"topology": "ring:3", "clients": 300, "rate_hz": 20.0,
                  "hold_s": 0.005, "warmup_s": 2.0, "limit_ms": 150.0},
    "mp_crash": {"topology": "ring:8", "steps": 6000, "crash_at": 2000,
                 "havoc_steps": 6, "settle_steps": 1000, "sample_every": 25,
                 "counted_trials": 40},
    "sweep_object": {"topology": "ring:12", "steps": 2000,
                     "algorithms": ["na-diners", "choy-singh",
                                    "fork-ordering"],
                     "fault": {"victim": 0, "at_step": 0,
                               "malicious_steps": 24},
                     "trials_per_chunk": 1, "counted_chunks": 5},
    "sweep_fast": {"topology": "ring:12", "steps": 2000,
                   "algorithms": ["na-diners"],
                   "fault": {"victim": 0, "at_step": 0,
                             "malicious_steps": 24},
                   "trials_per_chunk": 16, "counted_chunks": 5,
                   "parity_trials": 3},
    "check_line5": {"topology": "line:5", "states": 215824,
                    "transitions": 1163540},
    "gateway_sim": {"clients": 10000, "nodes": 3, "duration_s": 1.0},
}


def benchmark_json() -> dict:
    """The exact document ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
