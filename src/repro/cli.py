"""Command-line interface: run the paper's scenarios without writing code.

This module is only the parser and the dispatch: :data:`COMMANDS` names
each command's entry point, which lives beside its subsystem and takes the
command's flags as keyword arguments.  A command's summary is its result
kind's ``summarize`` function (:data:`repro.artefact.KINDS`), called on the
document the command writes, so ``repro stats`` on that file prints the
same lines.  :func:`main` is the one user-error boundary: an ``OSError``,
``ValueError`` or ``SimulationError`` from any entry point exits with its
one-line message, never a traceback.

``README.md`` has the flows worth running; ``repro <command> --help``
has every flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._lazy import resolve
from .artefact import KINDS
from .campaign.algorithms import ALGORITHMS  # canonical registry, re-exported
from .sim.errors import SimulationError

#: Each command's entry point, ``module:function``, imported when it runs.
COMMANDS = {
    "run": "repro.analysis.commands:cmd_run",
    "locality": "repro.analysis.commands:cmd_locality",
    "stabilize": "repro.analysis.commands:cmd_stabilize",
    "figure2": "repro.analysis.commands:cmd_figure2",
    "report": "repro.analysis.commands:cmd_report",
    "check": "repro.verification.check:run_check",
    "sweep": "repro.campaign.specs:cmd_sweep",
    "trace": "repro.obs.trace_io:cmd_trace",
    "stats": "repro.artefact:cmd_stats",
    "bench": "repro.perf.bench:cmd_bench",
    "node": "repro.net.cluster:cmd_node",
    "cluster run": "repro.net.cluster:cmd_cluster_run",
    "cluster soak": "repro.net.lock:cmd_cluster_soak",
    "loadgen": "repro.gateway.loadgen:cmd_loadgen",
    "fuzz": "repro.adversary.fuzz:cmd_fuzz",
    "timeline": "repro.obs.timeline:cmd_timeline",
    "slo": "repro.obs.slo:cmd_slo",
    "top": "repro.obs.top:cmd_top",
}


class _VersionAction(argparse.Action):
    """``--version``, reading the distribution metadata only when given:
    importing ``importlib.metadata`` (38 modules, tens of milliseconds)
    would cost every other command."""

    def __init__(self, option_strings, dest):
        super().__init__(
            option_strings, dest=argparse.SUPPRESS, default=argparse.SUPPRESS,
            nargs=0, help="show program's version number and exit",
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from . import version

        print(f"{parser.prog} {version()}")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dining philosophers that tolerate malicious crashes "
        "(Nesterenko & Arora, ICDCS 2002) — reproduction toolkit.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps_default=20_000):
        p.add_argument("--topology", default="ring:8", help="e.g. ring:8, line:12, grid:4:3")
        p.add_argument("--algorithm", default="na-diners", choices=sorted(ALGORITHMS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=steps_default)

    def observability(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record the run as versioned trace JSONL")
        p.add_argument("--metrics-out", default=None,
                       metavar="PATH", help="write probe metrics JSONL")
        p.add_argument("--snapshot-every", type=int, default=0,
                       help="configuration snapshot cadence in steps "
                       "(0 = auto, ~100 snapshots per run)")
        p.add_argument("--timings-out", default=None, metavar="PATH",
                       help="write live per-action wall-clock timers "
                       "(meta metrics JSONL; see StepTimerProbe)")

    p = sub.add_parser("run", help="simulate and report meals + invariant")
    common(p)
    observability(p)
    p.add_argument("--backend", choices=["object", "fast"], default="object",
                   help="state backend: the object model (reference) or the "
                   "packed fast core (same computation, ~3x faster)")
    p.add_argument("--profile-out", default=None, metavar="PATH",
                   help="cProfile the run's hot loop; write top hotspots "
                   "as meta metrics JSONL (readable by `repro stats`)")

    p = sub.add_parser("locality", help="crash a victim while eating; measure radius")
    common(p, steps_default=40_000)
    p.add_argument("--victim", type=int, default=0, help="index into topology nodes")
    p.add_argument("--malicious", type=int, default=0, help="havoc steps (0 = benign)")
    observability(p)

    p = sub.add_parser("stabilize", help="corrupt the state and time recovery")
    common(p)
    observability(p)
    p.add_argument("--plant-cycle", action="store_true")
    p.add_argument("--nc-only", action="store_true", help="wait for NC instead of full I")
    p.add_argument("--corrected-threshold", action="store_true",
                   help="use longest-simple-path instead of the diameter")
    p.add_argument("--max-steps", type=int, default=500_000)

    p = sub.add_parser("figure2", help="replay the paper's Figure 2")

    p = sub.add_parser("check", help="model-check a small instance exhaustively")
    p.add_argument("--topology", default="line:3")
    p.add_argument("--corrected-threshold", action="store_true")
    p.add_argument("--progress", type=int, default=0, metavar="N",
                   help="heartbeat with --reachable: one stderr line per N "
                   "BFS levels")
    p.add_argument("--reachable", action="store_true",
                   help="BFS states reachable from the all-hungry initial "
                   "configuration and audit eating-exclusion, instead of "
                   "the full-space closure/convergence check")
    p.add_argument("--max-states", type=int, default=1_000_000,
                   help="exit 2 instead of checking a full space, or "
                   "sweeping a --reachable closure, of more states than this")

    p = sub.add_parser(
        "sweep",
        help="many-seed randomized campaign with checkpoint/resume",
        description="Shard (topology, algorithm, fault-plan, seed) trials "
        "across a worker pool, stream JSONL records, and aggregate. "
        "Re-running against an existing --out file skips recorded shards.",
    )
    p.add_argument("--topology", action="append", default=None,
                   help="topology spec; repeatable (default ring:8)")
    p.add_argument("--algorithm", action="append", default=None,
                   choices=sorted(ALGORITHMS),
                   help="algorithm; repeatable (default na-diners)")
    p.add_argument("--trials", type=int, default=8,
                   help="independent seeds per (topology, algorithm) point")
    p.add_argument("--steps", type=int, default=5_000)
    p.add_argument("--seed", type=int, default=0, help="campaign base seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=None,
                   help="JSONL record/checkpoint file (enables resume)")
    p.add_argument("--fresh", action="store_true",
                   help="ignore existing records in --out and re-run everything")
    p.add_argument("--no-meta", action="store_true",
                   help="omit worker/timing metadata (byte-reproducible records)")
    p.add_argument("--crash-victim", type=int, default=None,
                   help="node index to crash in every trial")
    p.add_argument("--crash-at", type=int, default=0,
                   help="engine step of the crash")
    p.add_argument("--malicious", type=int, default=0,
                   help="arbitrary steps before halting (0 = benign crash)")
    p.add_argument("--backend", choices=["object", "fast"], default="object",
                   help="state backend for every trial; records are "
                   "byte-identical either way (RNG parity), fast is ~3x")
    p.add_argument("--quiet", action="store_true", help="no per-shard progress")
    p.add_argument("--progress", type=int, default=0, metavar="N",
                   help="heartbeat: one stderr line (with ETA) per N "
                   "completed shards instead of one per shard")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="log shard completions (with durations) as JSONL")
    p.add_argument("--metrics-out", default=None,
                   metavar="PATH", help="write campaign aggregate metrics JSONL")

    p = sub.add_parser(
        "trace",
        help="replay a recorded trace file offline",
        description="Load a --trace JSONL file, replay it through the "
        "standard probes, and print the same summary (and optionally the "
        "same metrics file) the live run produced.",
    )
    p.add_argument("path", help="trace JSONL file written by --trace")
    p.add_argument("--metrics-out", default=None,
                   metavar="PATH", help="write probe metrics JSONL")
    p.add_argument("--limit", type=int, default=0,
                   help="also print the first N events")

    p = sub.add_parser(
        "stats",
        help="summarise any artefact this toolkit writes",
        description="Identify the file's kind from its first JSON object "
        "and print that kind's summary.  Kinds: " + ", ".join(KINDS) + ".",
    )
    p.add_argument("path", help="an artefact file of any of those kinds")

    p = sub.add_parser(
        "bench",
        help="run the performance benchmark suite; write/compare BENCH files",
        description="Execute the shared benchmark registry (engine step "
        "loops, snapshot/invariant/checker kernels, mp ticks, campaign "
        "shards) with warmup and repeated rounds, reduce to robust stats "
        "(median, IQR, min), and optionally write a versioned BENCH_*.json "
        "with environment provenance.  --compare OLD NEW applies the "
        "noise-tolerant regression gate and exits nonzero on regression.",
    )
    p.add_argument("--quick", action="store_true",
                   help="fewer rounds/warmup (CI smoke mode)")
    p.add_argument("--filter", default=None, metavar="SUBSTR",
                   help="only benchmarks whose name contains SUBSTR")
    p.add_argument("--list", action="store_true",
                   help="list matching benchmarks and exit")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write results as a BENCH_*.json trajectory file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two BENCH files instead of running")
    p.add_argument("--history", default=None, metavar="DIR",
                   help="scan DIR's BENCH_*.json files into a per-kernel "
                   "median trajectory table instead of running")
    from .perf.bench_io import DEFAULT_THRESHOLD

    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="relative median slowdown tolerated by --compare "
                   f"(default {DEFAULT_THRESHOLD})")
    p.add_argument("--profile", action="store_true",
                   help="cProfile the timed rounds; print + write hotspots")
    p.add_argument("--profile-out", default="bench_profile.metrics", metavar="PATH",
                   help="hotspot metrics JSONL path for --profile")
    p.add_argument("--profile-top", type=int, default=15,
                   help="hotspot rows to keep with --profile")

    p = sub.add_parser(
        "node",
        help="serve one live cluster node (asyncio TCP daemon)",
        description="Host one §4 message-passing process behind real "
        "sockets.  Prints the bound port on startup; give --peer for every "
        "neighbour in the topology (links reconnect with backoff, so peers "
        "may come up in any order).",
    )
    p.add_argument("--topology", default="ring:5", help="the shared topology spec")
    p.add_argument("--pid", type=int, required=True,
                   help="index into topology nodes: which process this is")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--peer", action="append", default=None,
                   metavar="IDX=HOST:PORT",
                   help="neighbour address; repeat for every neighbour")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tick-interval", type=float, default=0.01,
                   help="seconds between process ticks (the retransmit/"
                   "timer period; progress itself is event-driven)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve (0 = until interrupted)")
    p.add_argument("--lock-service", action="store_true",
                   help="host the client-driven lock process instead of an "
                   "always-hungry diner")

    p = sub.add_parser(
        "cluster",
        help="run/soak a live N-node cluster with chaos on localhost",
        description="Spawn every node of a topology on 127.0.0.1 (one "
        "process, one event loop, real TCP), route every link through a "
        "chaos proxy playing a seeded fault schedule (delay, drop, "
        "duplicate, reorder, partition, malicious garbage-then-halt), and "
        "write the standard metrics/event artefacts.",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def cluster_common(cp):
        cp.add_argument("--nodes", type=int, default=5,
                        help="ring size (shorthand for --topology ring:N)")
        cp.add_argument("--topology", default=None,
                        help="explicit spec (e.g. grid:3:3); overrides --nodes")
        cp.add_argument("--seed", type=int, default=0,
                        help="seeds the fault schedule and every process")
        cp.add_argument("--duration", type=float, default=10.0, help="seconds")
        cp.add_argument("--tick-interval", type=float, default=0.01)
        cp.add_argument("--host", default="127.0.0.1")
        cp.add_argument("--no-chaos", action="store_true",
                        help="clean links: no fault schedule at all")
        cp.add_argument("--partitions", type=int, default=1,
                        help="partition/heal windows to schedule")
        cp.add_argument("--malicious", type=int, default=1,
                        help="malicious crashes (garbage burst, then halt)")
        cp.add_argument("--restart-policy",
                        choices=("off", "fresh", "arbitrary"), default="off",
                        help="relaunch crashed nodes: 'fresh' boots clean "
                        "state, 'arbitrary' boots seeded-random state (the "
                        "stabilization theorem's restart setting)")
        cp.add_argument("--max-restarts", type=int, default=1,
                        help="relaunches allowed per crashed node")
        cp.add_argument("--restart-delay", type=float, default=0.5,
                        help="seconds of downtime before a relaunch")
        cp.add_argument("--byzantine", type=int, default=0,
                        help="nodes subverted at 'crash' time to keep "
                        "emitting protocol-shaped frames instead of halting "
                        "(the beyond-the-model fault; expect violations "
                        "attributed to the subverted node)")
        cp.add_argument("--adaptive", action="store_true",
                        help="drive chaos with the feedback adversary: it "
                        "watches the event stream and aims partitions/"
                        "replays at the most vulnerable node")
        cp.add_argument("--adaptive-interval", type=float, default=0.4,
                        help="seconds between adaptive-adversary decisions")
        cp.add_argument("--schedule-file", default=None, metavar="PATH",
                        help="replay this exact corpus schedule file "
                        "(topology, seed, duration and fault plan all come "
                        "from the file; see `repro fuzz`)")
        cp.add_argument("--metrics-out", default=None,
                        metavar="PATH", help="write cluster metrics JSONL")
        cp.add_argument("--events-out", default=None,
                        metavar="PATH", help="write the event-log artefact "
                        "(streamed line-by-line during the run, finalised "
                        "atomically at teardown)")
        cp.add_argument("--trace", default=None, metavar="DIR",
                        help="causal tracing: stamp every frame with a "
                        "Lamport clock + span id and write per-node "
                        "spans-<node>.jsonl artefacts into DIR at teardown "
                        "(merge offline with `repro timeline DIR`)")
        cp.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                        help="serve live Prometheus text metrics at "
                        "http://HOST:PORT/metrics while the cluster runs "
                        "(watch with `repro top --port PORT`); implies "
                        "tracing")
        cp.add_argument("--flight", default=None, metavar="DIR",
                        help="arm a per-node flight recorder (bounded "
                        "in-memory ring of recent events/frames) and dump "
                        "flight-<node>.jsonl black boxes into DIR on a "
                        "safety violation, SLO exhaustion, node crash, "
                        "watchdog stall, or SIGTERM; implies tracing "
                        "(merge dumps with `repro timeline DIR`)")
        cp.add_argument("--flight-capacity", type=int, default=None, metavar="N",
                        help="flight-recorder ring size per node "
                        "(default 512)")

    cp = cluster_sub.add_parser(
        "run", help="always-hungry diners under chaos; report counters"
    )
    cluster_common(cp)

    cp = cluster_sub.add_parser(
        "soak",
        help="lock-service clients under chaos; audit safety, exit 1 on "
        "violation",
    )
    cluster_common(cp)
    cp.add_argument("--hold", type=float, default=0.05,
                    help="mean client hold/think time scale in seconds")
    cp.add_argument("--acquire-timeout", type=float, default=5.0)
    cp.add_argument("--require-progress", action="store_true",
                    help="also exit 1 if any surviving node never granted")
    cp.add_argument("--slo", default=None, metavar="SPEC",
                    help="evaluate this SLO spec live against the event "
                    "stream: a newly exhausted budget annotates the "
                    "implicated spans, triggers a flight dump (with "
                    "--flight), and forces exit 1; remaining budget and "
                    "burn rate are exported at --metrics-port")
    cp.add_argument("--slo-report", default=None, metavar="PATH",
                    help="write the final byte-stable slo-report.json")

    p = sub.add_parser(
        "loadgen",
        help="drive 10^4-10^6 logical clients through the gateway tier; "
        "report latency percentiles + fairness, exit 1 on violation",
        description="Closed- or open-loop load generation against the "
        "lock service through the multiplexing gateway (packed wire "
        "frames, batching, admission control). Live mode spawns a real "
        "cluster (all the chaos flags apply) and audits neighbour "
        "exclusion over the event stream; --sim runs the seeded "
        "virtual-time twin whose loadgen-report.json is byte-stable "
        "and feeds `repro slo`.",
    )
    cluster_common(p)
    p.add_argument("--clients", type=int, default=10000,
                   help="logical clients in the fleet")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed: think/hold cycles; open: Poisson arrivals")
    p.add_argument("--arrival-rate", type=float, default=2000.0, metavar="HZ",
                   help="open-loop aggregate arrival rate")
    p.add_argument("--think", type=float, default=0.5,
                   help="closed-loop mean think time (seconds)")
    p.add_argument("--hold", type=float, default=0.01,
                   help="mean lock-hold time (seconds)")
    p.add_argument("--max-retries", type=int, default=8,
                   help="shed retries per acquire before abandoning")
    p.add_argument("--upstreams-per-node", type=int, default=1,
                   help="pooled TCP connections per node")
    p.add_argument("--max-upstreams", type=int, default=8,
                   help="hard cap on total upstream connections")
    p.add_argument("--max-per-client", type=int, default=1,
                   help="admission: in-flight ops per logical client")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="admission: un-granted acquires parked per node")
    p.add_argument("--max-in-flight", type=int, default=1024,
                   help="admission: ops outstanding per upstream pipe")
    p.add_argument("--retry-after", type=float, default=0.05,
                   help="retry hint (seconds) carried by shed responses")
    p.add_argument("--batch-frames", type=int, default=64,
                   help="flush a batch at this many buffered frames")
    p.add_argument("--batch-bytes", type=int, default=32768,
                   help="flush a batch at this many buffered bytes")
    p.add_argument("--batch-delay", type=float, default=0.002,
                   help="max seconds a buffered frame waits for a batch")
    p.add_argument("--sim", action="store_true",
                   help="virtual-time engine: no sockets, byte-stable "
                   "report (same spec+seed => identical bytes)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the versioned loadgen-report.json")

    p = sub.add_parser(
        "fuzz",
        help="coverage-guided chaos-schedule fuzzing; write worst finds "
        "as a replayable corpus",
        description="Mutate seeded fault schedules, execute each candidate "
        "on the deterministic message-passing engine, and keep every "
        "schedule whose behaviour signature (waiting-chain shape, "
        "exclusion-overlap trajectory, starvation/convergence buckets) is "
        "new.  Fully deterministic for a fixed seed+budget: two runs write "
        "byte-identical corpus files.  Replay a find with "
        "`repro cluster soak --schedule-file <file>`.",
    )
    p.add_argument("--topology", default="ring:4",
                   help="spec the schedules target (e.g. ring:4, grid:3:3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=40,
                   help="candidate executions (seed schedules included)")
    p.add_argument("--duration", type=float, default=5.0,
                   help="scheduled duration of each candidate, in seconds "
                   "(mapped onto engine steps; no wall-clock involved)")
    p.add_argument("--steps", type=int, default=4000,
                   help="engine steps per candidate execution")
    p.add_argument("--sample-every", type=int, default=25,
                   help="steps between behaviour samples")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel evaluation workers (result-invariant)")
    p.add_argument("--keep", type=int, default=3,
                   help="top signatures to minimise and write")
    p.add_argument("--corpus-dir", default=None,
                   metavar="DIR", help="write kept schedules here")
    p.add_argument("--byzantine", action="store_true",
                   help="include a beyond-the-model seed schedule (its "
                   "finds violate safety on live replay by design)")
    p.add_argument("--minimise-budget", type=int, default=24,
                   help="extra evaluations per kept entry for shrinking")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-round progress lines")

    p = sub.add_parser(
        "timeline",
        help="merge per-node span logs into one causal global timeline",
        description="Read the spans-<node>.jsonl artefacts a traced "
        "cluster run wrote (pass the --trace directory or the files "
        "themselves, in any order), merge them into one happened-before-"
        "consistent global order, verify causal consistency (a cycle or a "
        "clock inversion means a corrupted trace; exit 1), and attribute "
        "each grant's latency to queueing, fork transfer, or chaos-induced "
        "retransmits.  With --events, the soak's neighbour-exclusion "
        "violations are walked back to the spans open across them — a "
        "byzantine violation is localised to the subverted node.  --out "
        "writes a byte-stable timeline artefact.",
    )
    p.add_argument("paths", nargs="+",
                   help="span JSONL files, or directories of spans-*.jsonl")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="the soak's event-log artefact (--events-out): "
                   "reconstruct exclusion violations against the spans")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the merged timeline as canonical JSONL")
    p.add_argument("--limit", type=int, default=0,
                   help="also print the first N timeline entries")

    p = sub.add_parser(
        "slo",
        help="evaluate a declarative SLO spec against recorded artefacts",
        description="Load a versioned slo-spec JSON file (grant-latency "
        "percentiles, fairness, waiting chains, convergence deadlines, "
        "hunger bounds, safety as a zero-budget hard objective), digest "
        "any mix of soak event logs, span files, flight dumps, and metrics "
        "JSONL, and print per-objective error-budget verdicts with worst-"
        "window burn rates.  --out writes a byte-stable slo-report.json "
        "(a pure function of spec + artefacts).  Exits 1 when any "
        "objective's budget is exhausted.",
    )
    p.add_argument("spec", help="slo-spec JSON file (see examples/slo.json)")
    p.add_argument("artefacts", nargs="+",
                   help="event logs, span/flight JSONL files, metrics "
                   "files, or directories of spans-*/flight-* artefacts")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the slo-report.json document")

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a cluster's /metrics endpoint",
        description="Poll the Prometheus text endpoint a cluster run "
        "serves with --metrics-port, and render waiting-chain length, "
        "hunger-latency percentiles, per-edge retransmit rates, and "
        "per-node counters, refreshed in place until interrupted.",
    )
    p.add_argument("--url", default=None,
                   help="full endpoint URL (overrides --host/--port)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="the cluster's --metrics-port")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between refreshes")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen clear)")

    p = sub.add_parser("report", help="run the experiment suite, emit markdown")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--records", default=None,
                   help="JSONL checkpoint file for the suite's campaign")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write per-section scalar snapshots + campaign "
                   "aggregates as metrics JSONL")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")

    return parser


def entry_point(command: str):
    """The function :data:`COMMANDS` names for ``command``."""
    return resolve(COMMANDS[command])


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = " ".join(
        filter(None, (flags.pop("command"), flags.pop("cluster_command", None)))
    )
    entry = entry_point(command)
    try:
        return entry(**flags)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly like other
        # unix tools (redirect stdout so the interpreter's exit flush
        # does not raise a second time)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError, SimulationError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
