"""Command-line interface: run the paper's scenarios without writing code.

Subcommands
-----------

``run``        simulate an algorithm on a topology, report meals/safety
``locality``   crash a process while it eats; report the starvation radius
``stabilize``  corrupt the state (optionally plant a cycle); time recovery
``figure2``    replay the paper's Figure 2, panel by panel
``check``      model-check closure + convergence on a small instance
``sweep``      many-seed randomized campaign across a worker pool
``report``     run the experiment suite, emit markdown
``trace``      replay a recorded trace file offline; re-derive its summary
``stats``      summarise any artefact the toolkit writes (``repro.artefact.KINDS``)
``bench``      run the performance benchmark suite; write/compare BENCH files
``node``       serve one live cluster node (asyncio TCP daemon)
``cluster``    run/soak a live N-node cluster with chaos on localhost
``fuzz``       coverage-guided chaos-schedule fuzzing; writes a corpus
``timeline``   merge span logs into one causal global order; attribute latency
``top``        live terminal dashboard over a cluster's /metrics endpoint
``slo``        evaluate a declarative SLO spec against recorded artefacts

Observability: ``run``, ``stabilize``, and ``locality`` accept ``--trace``
(record the run as versioned JSONL) and ``--metrics-out`` (write the
standard probes' metrics).  The same analysis drives both the live summary
and ``repro trace`` on the recorded file, so the two are byte-identical for
the same seed.  ``sweep`` interprets the pair at campaign granularity:
``--trace`` logs shard completions with durations, ``--metrics-out``
aggregates the campaign.

Examples
--------

::

    python -m repro run --topology ring:10 --algorithm na-diners --steps 20000
    python -m repro run --topology ring:8 --trace out/run.trace --metrics-out out/run.metrics
    python -m repro trace out/run.trace
    python -m repro locality --topology line:12 --algorithm hygienic --victim 0
    python -m repro stabilize --topology ring:8 --plant-cycle
    python -m repro figure2
    python -m repro check --topology line:4
    python -m repro check --topology ring:5 --reachable --progress 5
    python -m repro sweep --topology ring:8 --trials 32 --jobs 4 --out out.jsonl
    python -m repro stats out/run.metrics
    python -m repro bench --quick --out BENCH_now.json
    python -m repro bench --compare benchmarks/BENCH_baseline.json BENCH_now.json
    python -m repro cluster run --topology ring:3 --seed 1 --duration 5
    python -m repro cluster soak --nodes 5 --seed 7 --duration 10
    python -m repro fuzz --topology ring:4 --seed 1 --budget 60 --corpus-dir corpus
    python -m repro cluster soak --schedule-file corpus/ring4-s1-r0.json
    python -m repro cluster soak --nodes 3 --trace out/trace --events-out out/soak.events
    python -m repro timeline out/trace --events out/soak.events --out out/timeline.jsonl
    python -m repro cluster run --nodes 5 --duration 60 --metrics-port 9200
    python -m repro top --port 9200
    python -m repro cluster soak --nodes 3 --slo examples/slo.json --flight out/flight
    python -m repro slo examples/slo.json out/soak.events --out slo-report.json
    python -m repro timeline out/flight
    python -m repro bench --history benchmarks/
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .analysis import (
    find_live_cycles,
    measure_failure_locality,
    plant_priority_cycle,
    steps_to_predicate,
)
from .artefact import KINDS, expand, identify
from .campaign.shard import ALGORITHMS  # canonical registry, re-exported
from .campaign.shard import make_algorithm as shard_make_algorithm
from .core import (
    invariant_report,
    invariant_with_threshold,
    nc_holds,
    red_set,
    run_figure2,
)
from .sim import AlwaysHungry, System, Topology, from_spec
from .sim.errors import SimulationError, TopologyError


def parse_topology(spec: str) -> Topology:
    """Parse ``kind:arg[:arg]`` specs like ``ring:8`` or ``grid:4:3``.

    CLI-flavoured wrapper over :func:`repro.sim.topology.from_spec`: bad
    specs exit with a message instead of raising.
    """
    try:
        return from_spec(spec)
    except TopologyError as exc:
        raise SystemExit(str(exc)) from None


def make_algorithm(name: str):
    """CLI-flavoured wrapper over :func:`repro.campaign.shard.make_algorithm`:
    an unknown name exits with its message instead of raising."""
    try:
        return shard_make_algorithm(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


# ------------------------------------------------------------ observability


def _make_recorder(args: argparse.Namespace, steps: int):
    """A trace recorder when ``--trace``/``--metrics-out``/``--timings-out``
    was asked for.

    Returns ``(recorder, snapshot_every)`` — ``(None, 0)`` when the run is
    unobserved.  The snapshot cadence defaults to ~100 snapshots per run;
    ``--snapshot-every`` overrides it.  ``--timings-out`` swaps in a
    recorder that also feeds every event, live, to a
    :class:`~repro.obs.probes.StepTimerProbe` — wall-clock timing cannot be
    recovered from a recorded trace, so it must be captured in-line.
    """
    if not (args.trace or args.metrics_out or getattr(args, "timings_out", None)):
        return None, 0
    from .sim.trace import TraceRecorder

    every = args.snapshot_every or max(1, steps // 100)
    if getattr(args, "timings_out", None):
        from .obs import StepTimerProbe

        class _TimedRecorder(TraceRecorder):
            """Recorder that tees each event into the live timing probe."""

            def __init__(self, probe, **kwargs):
                super().__init__(**kwargs)
                self.timer_probe = probe

            def record_event(self, event):
                self.timer_probe.on_event(event)
                super().record_event(event)

        return _TimedRecorder(StepTimerProbe(), snapshot_every=every), every
    return TraceRecorder(snapshot_every=every), every


def _finish_observability(
    args: argparse.Namespace,
    recorder,
    *,
    model: str,
    algorithm,
    topology_spec: str,
    seed: int,
    steps_taken: int,
    threshold,
    has_depth: bool,
    snapshot_every: int,
) -> None:
    """Write the trace and/or metrics files and print the probe summary.

    Runs the exact analysis ``repro trace`` runs offline, so the summary
    line and the metrics file here are byte-identical to a later replay of
    the recorded trace.
    """
    from .obs import (
        analyze,
        build_header,
        trace_from_recorder,
        write_analysis_metrics,
        write_trace,
    )

    header = build_header(
        model=model,
        algorithm=algorithm.name,
        topology=topology_spec,
        enter_action=algorithm.enter_action,
        exit_action=algorithm.exit_action,
        threshold=threshold,
        has_depth=has_depth,
        seed=seed,
        steps_taken=steps_taken,
        snapshot_every=snapshot_every,
    )
    trace = trace_from_recorder(recorder, header)
    if args.trace:
        path = write_trace(args.trace, trace)
        print(f"trace: {path}")
    analysis = analyze(trace)
    if args.metrics_out:
        path = write_analysis_metrics(args.metrics_out, analysis)
        print(f"metrics: {path}")
    timer_probe = getattr(recorder, "timer_probe", None)
    if timer_probe is not None and getattr(args, "timings_out", None):
        # Live wall-clock timers are meta by nature: they go to their own
        # file (written with meta included) so the deterministic
        # ``--metrics-out`` artefact stays byte-identical under replay.
        from .obs import MetricsRegistry, write_metrics

        registry = MetricsRegistry()
        timer_probe.publish(registry)
        path = write_metrics(
            args.timings_out,
            registry,
            header={
                "source": "timings",
                "model": model,
                "algorithm": algorithm.name,
                "topology": topology_spec,
                "seed": seed,
            },
            include_meta=True,
        )
        print(f"timings: {path}")
    print(f"summary: {analysis.summary_json()}")


def cmd_run(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm)
    recorder, every = _make_recorder(args, args.steps)
    backend = getattr(args, "backend", "object")
    from .fastcore import UnsupportedBackendError, make_engine

    try:
        engine = make_engine(
            topology,
            algorithm,
            backend=backend,
            hunger=AlwaysHungry(),
            recorder=recorder,
            seed=args.seed,
        )
    except UnsupportedBackendError as exc:
        raise SystemExit(str(exc)) from None
    if args.profile_out:
        from .perf import write_profile_metrics

        result, profile = engine.run_profiled(args.steps)
        path = write_profile_metrics(
            args.profile_out,
            profile,
            header={
                "model": "sim" if backend == "object" else "fastcore",
                "algorithm": algorithm.name,
                "topology": args.topology,
                "seed": args.seed,
                "steps": result.steps,
            },
        )
        print(f"profile: {path}")
    else:
        result = engine.run(args.steps)
    print(f"{topology} / {algorithm.name}: ran {result.steps} steps")
    for pid in topology.nodes:
        print(f"  {pid}: {engine.eats_of(pid)} meals")
    final = engine.snapshot()
    variables = set(algorithm.local_domains(topology))
    has_depth = "depth" in variables
    if has_depth:
        # NADiners family: the full invariant applies.
        print(f"invariant: {invariant_report(final)}")
    else:
        # Other diners: only the eating-exclusion conjunct is meaningful
        # (fork-ordering's edge cells are forks, not priorities).
        from .core import e_holds

        print(f"no neighbours eating together: {e_holds(final)}")
    if recorder is not None:
        _finish_observability(
            args,
            recorder,
            model="sim",
            algorithm=algorithm,
            topology_spec=args.topology,
            seed=args.seed,
            steps_taken=engine.step_count,
            threshold=topology.diameter if has_depth else None,
            has_depth=has_depth,
            snapshot_every=every,
        )
    return 0


def cmd_locality(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm)
    victim = topology.nodes[args.victim]
    # Observation budget ~ warmup + settle + window engine steps.
    recorder, every = _make_recorder(args, args.steps * 2 + args.steps // 3)
    report = measure_failure_locality(
        algorithm,
        topology,
        [victim],
        malicious_steps=args.malicious or None,
        warmup_steps=args.steps,
        settle_steps=args.steps // 3,
        window=args.steps,
        seed=args.seed,
        recorder=recorder,
    )
    kind = f"malicious({args.malicious})" if args.malicious else "benign"
    print(f"{topology} / {report.algorithm}: {kind} crash of {victim!r} while eating")
    print(f"  starving: {sorted(report.starving)}")
    print(f"  starvation radius: {report.starvation_radius}")
    for d, (count, total) in report.eats_by_distance(topology).items():
        print(f"  distance {d}: {count} processes, {total} meals")
    if recorder is not None:
        steps_taken = recorder.events[-1].step + 1 if recorder.events else 0
        _finish_observability(
            args,
            recorder,
            model="sim",
            algorithm=algorithm,
            topology_spec=args.topology,
            seed=args.seed,
            steps_taken=steps_taken,
            threshold=topology.diameter,
            has_depth="depth" in algorithm.local_domains(topology),
            snapshot_every=every,
        )
    return 0


def cmd_stabilize(args: argparse.Namespace) -> int:
    topology = parse_topology(args.topology)
    algorithm = make_algorithm(args.algorithm)
    system = System(topology, algorithm)
    system.randomize(random.Random(args.seed))
    if args.plant_cycle:
        from .analysis.stabilization import _find_cycle

        cycle = _find_cycle(topology)
        if cycle is None:
            print("topology has no cycle to plant; corruption only")
        else:
            plant_priority_cycle(system, cycle)
            print(f"planted priority cycle: {cycle}")
    threshold = (
        topology.longest_simple_path()
        if args.corrected_threshold
        else topology.diameter
    )
    if args.nc_only:
        predicate = nc_holds
    elif args.corrected_threshold:
        predicate = invariant_with_threshold(threshold)
    else:
        from .core import invariant_holds

        predicate = invariant_holds
    recorder, every = _make_recorder(args, args.max_steps)
    result = steps_to_predicate(
        system,
        predicate,
        max_steps=args.max_steps,
        seed=args.seed,
        recorder=recorder,
    )
    status = 0
    if result.converged:
        print(f"converged after {result.steps} steps")
        print(f"live cycles now: {find_live_cycles(system.snapshot()) or 'none'}")
    else:
        print(f"did NOT converge within {args.max_steps} steps")
        status = 1
    if recorder is not None:
        steps_taken = recorder.events[-1].step + 1 if recorder.events else 0
        _finish_observability(
            args,
            recorder,
            model="sim",
            algorithm=algorithm,
            topology_spec=args.topology,
            seed=args.seed,
            steps_taken=steps_taken,
            threshold=threshold,
            has_depth="depth" in algorithm.local_domains(topology),
            snapshot_every=every,
        )
    return status


def cmd_figure2(args: argparse.Namespace) -> int:
    replay = run_figure2()
    topo = replay.initial.topology
    for i, config in enumerate(replay.configurations, start=1):
        print(f"panel {i}:")
        states = ", ".join(
            f"{p}={config.local(p, 'state')}" for p in topo.nodes
        )
        print(f"  {states}")
        print(f"  red: {sorted(red_set(config))}")
        print(f"  live cycles: {find_live_cycles(config) or 'none'}")
    print(f"transitions replayed: {replay.executed}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .verification.check import run_check

    return run_check(
        parse_topology(args.topology),
        args.topology,
        corrected_threshold=args.corrected_threshold,
        reachable=args.reachable,
        max_states=args.max_states,
        progress=args.progress,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    from .campaign import SweepSpec, aggregate_sim, run_shards

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    topologies = tuple(args.topology or ["ring:8"])
    for spec in topologies:
        topology = parse_topology(spec)  # fail fast on bad specs, before forking
        if args.crash_victim is not None and not 0 <= args.crash_victim < len(topology):
            raise SystemExit(
                f"--crash-victim {args.crash_victim} out of range for {spec} "
                f"(has {len(topology)} processes)"
            )
    algorithms = tuple(args.algorithm or ["na-diners"])
    for name in algorithms:
        if name not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}")
    fault = None
    if args.crash_victim is not None:
        fault = {
            "victim": args.crash_victim,
            "at_step": args.crash_at,
            "malicious_steps": args.malicious,
        }
    sweep = SweepSpec(
        topologies=topologies,
        algorithms=algorithms,
        trials=args.trials,
        steps=args.steps,
        seed=args.seed,
        fault=fault,
        backend=getattr(args, "backend", "object"),
    )

    progress = _campaign_progress(args)
    trace_log = _CampaignTraceLog(args.trace) if args.trace else None
    if trace_log is not None:
        progress = trace_log.wrap(progress)
    try:
        result = run_shards(
            sweep.shards(),
            jobs=args.jobs,
            out_path=args.out,
            resume=not args.fresh,
            include_meta=not args.no_meta,
            progress=progress,
        )
    finally:
        if trace_log is not None:
            trace_log.close()
    print(
        f"shards: {result.total} "
        f"(executed {result.executed}, resumed {result.resumed})"
    )
    for line_ in aggregate_sim(result.records).lines():
        print(line_)
    if result.path is not None:
        print(f"records: {result.path}")
    if trace_log is not None:
        print(f"trace: {trace_log.path}")
    if args.metrics_out:
        from .campaign import campaign_metrics
        from .obs import write_metrics

        registry = campaign_metrics(result.records)
        path = write_metrics(
            args.metrics_out,
            registry,
            header={
                "source": "campaign",
                "shards": result.total,
                "executed": result.executed,
                "resumed": result.resumed,
            },
            include_meta=not args.no_meta,
        )
        print(f"metrics: {path}")
    return 0


def _campaign_progress(args: argparse.Namespace):
    """The progress callback a campaign command asked for.

    ``--quiet`` silences progress entirely; ``--progress N`` prints one
    heartbeat line (with rate and ETA) per N completed shards; the default
    prints one line per shard.
    """
    if getattr(args, "quiet", False):
        return None
    if getattr(args, "progress", None):
        from .campaign import heartbeat_progress

        return heartbeat_progress(args.progress)

    def progress(record, done, total):
        print(
            f"[{done}/{total}] {record.kind} "
            f"{record.params.get('topology')} "
            f"{record.params.get('algorithm')} seed={record.seed}",
            file=sys.stderr,
        )

    return progress


class _CampaignTraceLog:
    """``sweep --trace``: a JSONL log of shard completions with durations.

    The campaign-granularity sibling of an engine trace: one header line,
    then one line per completed shard in completion order — the timeline a
    profiler wants, complementary to the key-ordered records file.
    """

    def __init__(self, path: str) -> None:
        import pathlib

        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(
            {"format": 1, "kind": "header", "source": "campaign-trace"}
        )

    def _write(self, payload: dict) -> None:
        self._handle.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()

    def wrap(self, inner):
        def progress(record, done, total):
            self._write(
                {
                    "kind": "shard",
                    "index": done,
                    "total": total,
                    "key": record.key,
                    "shard_kind": record.kind,
                    "seed": record.seed,
                    "duration_s": record.duration_s,
                }
            )
            if inner is not None:
                inner(record, done, total)

        return progress

    def close(self) -> None:
        self._handle.close()


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay a recorded trace offline: same probes, same summary."""
    from .obs import analyze, read_trace, write_analysis_metrics

    try:
        trace = read_trace(args.path)
    except (OSError, SimulationError) as exc:
        raise SystemExit(str(exc)) from None
    header = trace.header
    print(
        f"trace: {header.get('model')} / {header.get('algorithm')} on "
        f"{header.get('topology')} seed={header.get('seed')} "
        f"({len(trace.events)} events, {len(trace.snapshots)} snapshots)"
    )
    if args.limit:
        for event in trace.events[: args.limit]:
            print(str(event))
        remaining = len(trace.events) - args.limit
        if remaining > 0:
            print(f"... ({remaining} more events)")
    analysis = analyze(trace)
    if args.metrics_out:
        path = write_analysis_metrics(args.metrics_out, analysis)
        print(f"metrics: {path}")
    print(f"summary: {analysis.summary_json()}")
    return 0


#: The artefact kinds that carry spans, i.e. what ``repro timeline`` merges.
_SPAN_KINDS = ("spans", "flight")


def cmd_timeline(args: argparse.Namespace) -> int:
    """Merge per-node span logs into one happened-before-consistent global
    timeline; verify causal consistency; attribute each grant's latency."""
    from .obs import (
        attribute_grants,
        attribution_by_node,
        causality_report,
        merge_timeline,
        reconstruct_violations,
        write_timeline,
    )

    spans_by_node: dict = {}
    try:
        for path in expand(args.paths, _SPAN_KINDS):
            row = identify(path)
            if row.name not in _SPAN_KINDS:
                raise ValueError(f"{path}: {row.name} is not a span artefact")
            for span in row.read(path).spans:
                spans_by_node.setdefault(span.node, []).append(span)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    entries = merge_timeline(spans_by_node)
    total_spans = sum(len(spans) for spans in spans_by_node.values())
    lo = entries[0].lc if entries else 0
    hi = entries[-1].lc if entries else 0
    print(
        f"timeline: {len(spans_by_node)} nodes, {total_spans} spans, "
        f"{len(entries)} entries, lc {lo}..{hi}"
    )
    report = causality_report(entries)
    if report.ok:
        print(f"causality: OK ({report.matched_messages} matched messages)")
    else:
        print(f"causality: CORRUPTED ({len(report.violations)} violations)")
        for violation in report.violations[:10]:
            print(f"  {violation}")
    attributions = attribute_grants(spans_by_node)
    for node, row in sorted(attribution_by_node(attributions).items()):
        print(
            f"  {node}: {row['grants']} grants, total {row['total_s']:.3f}s "
            f"= queue {row['queue_s']:.3f}s + transfer {row['transfer_s']:.3f}s"
            f" + retransmit {row['retransmit_s']:.3f}s "
            f"({row['retransmits']} retransmits)"
        )
    if args.events:
        from .net import read_cluster_events

        try:
            header, events, _ = read_cluster_events(args.events)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{args.events}: {exc}") from None
        spec = header.get("topology")
        if not spec:
            raise SystemExit(f"{args.events}: event log has no topology")
        topology = parse_topology(spec)
        end_t = float(header.get("duration_s") or 0.0)
        reconstructed = reconstruct_violations(
            topology,
            events,
            spans_by_node,
            end_t=end_t,
            exclude=header.get("killed") or (),
            byzantine=header.get("byzantine") or (),
        )
        if not reconstructed:
            print("violations: none reconstructed")
        for row in reconstructed:
            blame = ", ".join(row["byzantine"]) or "(no byzantine node)"
            print(
                f"violation: {row['node_a']} ∦ {row['node_b']} "
                f"[{row['start']:.3f}, {row['end']:.3f}]s — {blame}"
            )
            for node, span_ids in sorted(row["spans"].items()):
                print(f"  {node} spans open: {', '.join(span_ids) or '-'}")
    if args.limit:
        for entry in entries[: args.limit]:
            detail = json.dumps(entry.detail, sort_keys=True)
            print(
                f"  lc={entry.lc} {entry.node} {entry.name}/{entry.ev} "
                f"span={entry.span} {detail}"
            )
        remaining = len(entries) - args.limit
        if remaining > 0:
            print(f"  ... ({remaining} more entries)")
    if args.out:
        path = write_timeline(
            args.out,
            entries,
            header={
                "causality_ok": report.ok,
                "matched_messages": report.matched_messages,
            },
        )
        print(f"timeline artefact: {path}")
    return 0 if report.ok else 1


def cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate an SLO spec offline against recorded artefacts; exit 1 when
    any objective's error budget is exhausted."""
    from .obs import (
        SloObservations,
        evaluate,
        format_report,
        ingest_artefact,
        read_slo_spec,
        write_slo_report,
    )

    try:
        spec = read_slo_spec(args.spec)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    observations = SloObservations()
    try:
        # A --trace or --flight directory, or one of event logs, drops in.
        in_directories = [n for n, row in KINDS.items() if row.slo and row.glob]
        for path in expand(args.artefacts, in_directories):
            family = ingest_artefact(observations, path)
            print(f"ingested {family}: {path}")
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    report = evaluate(spec, observations)
    print(format_report(report))
    if args.out:
        path = write_slo_report(args.out, report)
        print(f"slo report: {path}")
    return 1 if report.exhausted else 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a cluster's /metrics endpoint."""
    from .obs import run_top

    if not args.url and args.port is None:
        raise SystemExit("--url or --port is required")
    url = args.url or f"http://{args.host}:{args.port}/metrics"
    try:
        return run_top(
            url,
            interval_s=args.interval,
            iterations=1 if args.once else None,
            clear=not args.once,
        )
    except OSError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarise any artefact the toolkit writes (the kinds are the rows of
    :data:`repro.artefact.KINDS`; README has the table).

    Anything else — including empty, binary, or truncated files — exits
    nonzero with a one-line reason, never a traceback.
    """
    try:
        row = identify(args.path)
        lines = row.summarize(row.read(args.path))
    except (OSError, ValueError, KeyError, TypeError, SimulationError) as exc:
        # identify() and the readers name the path; a summary need not.
        reason = str(exc)
        if not reason.startswith(str(args.path)):
            reason = f"{args.path}: unreadable artefact ({reason})"
        raise SystemExit(reason) from None
    print("\n".join(lines))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite, write/compare BENCH files, or profile."""
    from .perf import (
        compare,
        format_compare,
        read_bench,
        run_benchmarks,
        select,
        write_bench,
    )

    if args.threshold < 0:
        raise SystemExit("--threshold must be non-negative")
    if args.history:
        from .perf import format_history, scan_bench_history

        try:
            entries, ignored = scan_bench_history(args.history)
        except OSError as exc:
            raise SystemExit(str(exc)) from None
        if not entries:
            raise SystemExit(f"{args.history}: no BENCH_*.json files")
        print(format_history(entries))
        if ignored:
            print(f"ignored {len(ignored)} non-BENCH file(s): "
                  + ", ".join(ignored))
        return 0
    if args.compare:
        old_path, new_path = args.compare
        try:
            old = read_bench(old_path)
            new = read_bench(new_path)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        report = compare(old, new, threshold=args.threshold)
        print(format_compare(report))
        return 0 if report.ok else 1

    benches = select(args.filter)
    if not benches:
        raise SystemExit(
            f"no benchmark matches --filter {args.filter!r}; "
            f"try `repro bench --list`"
        )
    if args.list:
        for bench in benches:
            plan = bench.plan(args.quick)
            print(f"{bench.name}  (ops={bench.ops}, rounds={plan.rounds}, "
                  f"warmup={plan.warmup})")
        return 0

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    def progress(result):
        stats = result.stats
        rate = result.ops_per_sec
        print(
            f"{result.name:35s} median {stats['median_s']:.6f}s  "
            f"iqr {stats['iqr_s']:.6f}s  min {stats['min_s']:.6f}s  "
            f"{'' if rate is None else f'{rate:,.0f} ops/s'}"
        )

    mode = "quick" if args.quick else "full"
    print(f"running {len(benches)} benchmarks ({mode})")
    results = run_benchmarks(
        benches, quick=args.quick, profiler=profiler, progress=progress
    )
    if args.out:
        path = write_bench(
            args.out,
            results,
            options={
                "quick": args.quick,
                "filter": args.filter,
                "profiled": args.profile,
            },
        )
        print(f"bench: {path}")
    if profiler is not None:
        from .perf import format_hotspots, hotspots, write_profile_metrics

        rows = hotspots(profiler, top=args.profile_top)
        print(format_hotspots(rows))
        path = write_profile_metrics(
            args.profile_out,
            profiler,
            header={"benchmarks": len(results), "quick": args.quick},
            top=args.profile_top,
        )
        print(f"profile: {path}")
        print("note: profiled round times are inflated; do not commit them "
              "as a baseline")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis import SuiteConfig, run_suite, to_markdown

    config = SuiteConfig(quick=not args.full, seed=args.seed)
    result = run_suite(
        config,
        jobs=args.jobs,
        records_path=args.records,
        metrics_out=args.metrics_out,
    )
    markdown = to_markdown(result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(markdown)
        print(f"wrote {args.output}")
    else:
        print(markdown)
    if args.metrics_out:
        print(f"metrics: {args.metrics_out}")
    return 0


# ------------------------------------------------------------- live cluster


async def _node_main(args: argparse.Namespace) -> None:
    import asyncio

    from .net import NodeServer
    from .net.cluster import build_process

    topology = parse_topology(args.topology)
    if not 0 <= args.pid < len(topology):
        raise SystemExit(
            f"--pid {args.pid} out of range for {args.topology} "
            f"(has {len(topology)} processes)"
        )
    pid = topology.nodes[args.pid]
    server = NodeServer(
        pid,
        topology,
        build_process(
            pid, topology, lock_service=args.lock_service, seed=args.seed
        ),
        host=args.host,
        port=args.port,
        tick_interval=args.tick_interval,
    )
    await server.start_listening()
    print(f"node {pid!r} listening on {args.host}:{server.port}", flush=True)
    peers = {}
    for spec in args.peer or []:
        index, sep, address = spec.partition("=")
        host, sep2, port = address.rpartition(":")
        if not sep or not sep2:
            raise SystemExit(f"--peer {spec!r}: expected IDX=HOST:PORT")
        try:
            q = topology.nodes[int(index)]
            peers[q] = (host, int(port))
        except (ValueError, IndexError):
            raise SystemExit(f"--peer {spec!r}: bad node index or port") from None
    try:
        await server.connect_peers(peers)
    except ValueError as exc:
        await server.stop()
        raise SystemExit(f"{exc} (give --peer for every neighbour)") from None
    try:
        if args.duration > 0:
            await asyncio.sleep(args.duration)
        else:
            await asyncio.Event().wait()  # serve until interrupted
    finally:
        await server.stop()
    print(f"counters: {json.dumps(server.counters(), sort_keys=True)}")


def cmd_node(args: argparse.Namespace) -> int:
    import asyncio

    try:
        asyncio.run(_node_main(args))
    except KeyboardInterrupt:
        pass
    return 0


def _cluster_config(args: argparse.Namespace, *, lock_service: bool):
    from .net import ClusterConfig, RestartPolicy

    loaded = None
    if getattr(args, "schedule_file", None):
        from .adversary.corpus import read_schedule

        try:
            loaded = read_schedule(args.schedule_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        # The file is the experiment: topology, seed, duration, and the
        # complete fault plan all come from it, never from other flags.
        spec = loaded.topology_spec
        topology = loaded.topology
        seed = loaded.schedule.seed
        args.duration = loaded.schedule.duration_s
    else:
        spec = args.topology or f"ring:{args.nodes}"
        if args.nodes < 2 and not args.topology:
            raise SystemExit("--nodes must be >= 2")
        topology = parse_topology(spec)
        seed = args.seed
    restart = None
    if args.restart_policy != "off":
        if args.max_restarts < 1:
            raise SystemExit("--max-restarts must be >= 1 with a restart policy")
        restart = RestartPolicy(
            max_restarts=args.max_restarts,
            delay_s=args.restart_delay,
            arbitrary_state=args.restart_policy == "arbitrary",
        )
    elif loaded is not None:
        # A replayed plan that schedules restarts must be allowed to
        # execute them, or the replay silently runs a different experiment.
        restart_counts: dict = {}
        for event in loaded.schedule.events:
            if event.kind == "restart":
                key = repr(event.node)
                restart_counts[key] = restart_counts.get(key, 0) + 1
        if restart_counts:
            restart = RestartPolicy(
                max_restarts=max(restart_counts.values()),
                delay_s=0.0,
                arbitrary_state=True,
            )
    slo_spec = None
    if getattr(args, "slo", None):
        from .obs import read_slo_spec

        try:
            slo_spec = read_slo_spec(args.slo)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
    if getattr(args, "flight_capacity", None) is not None and args.flight_capacity < 1:
        raise SystemExit("--flight-capacity must be >= 1")
    from .obs.flight import DEFAULT_CAPACITY

    return ClusterConfig(
        topology=topology,
        topology_spec=spec,
        seed=seed,
        tick_interval=args.tick_interval,
        lock_service=lock_service,
        chaos=not args.no_chaos,
        partitions=args.partitions,
        malicious_crashes=args.malicious,
        host=args.host,
        restart=restart,
        schedule=None if loaded is None else loaded.schedule,
        byzantine=getattr(args, "byzantine", 0),
        adaptive=getattr(args, "adaptive", False),
        adaptive_interval=getattr(args, "adaptive_interval", 0.4),
        trace_dir=getattr(args, "trace", None),
        metrics_port=getattr(args, "metrics_port", None),
        stream_events=getattr(args, "events_out", None),
        flight_dir=getattr(args, "flight", None),
        flight_capacity=getattr(args, "flight_capacity", None) or DEFAULT_CAPACITY,
        slo=slo_spec,
    )


def _run_interruptible(coro):
    """``asyncio.run`` with SIGTERM/SIGINT routed to task cancellation.

    The cluster entry points treat cancellation as an early, orderly
    shutdown (teardown still runs, partial artefacts still flush), so a
    killed soak keeps its event/span tail instead of dying mid-write.
    """
    import asyncio
    import signal

    async def _main():
        task = asyncio.ensure_future(coro)
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, task.cancel)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix loop; KeyboardInterrupt still works
        try:
            return await task
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    return asyncio.run(_main())


def _print_metrics_url(args) -> None:
    port = getattr(args, "metrics_port", None)
    if port:
        # Ephemeral (0) binds after the loop starts, so only a fixed port
        # can be announced upfront for `repro top` to attach to.
        print(f"metrics endpoint: http://{args.host}:{port}/metrics",
              flush=True)


def _print_cluster_summary(result) -> None:
    interrupted = " (interrupted)" if result.interrupted else ""
    print(
        f"cluster {result.topology_spec} seed={result.seed}: "
        f"{result.mode} for {result.duration_s}s, {len(result.nodes)} nodes"
        f"{interrupted}"
    )
    for node in result.nodes:
        c = result.counters.get(node, {})
        print(
            f"  {node}: eats={c.get('eats', 0)} grants={c.get('grants', 0)} "
            f"msgs in/out={c.get('msgs_in', 0)}/{c.get('msgs_out', 0)} "
            f"garbage={c.get('garbage_bytes', 0)}B junk={c.get('junk_frames', 0)}"
        )
    scheduled = len(result.schedule.get("events", ())) if result.schedule else 0
    print(f"  chaos: {scheduled} scheduled faults", end="")
    if result.chunk_faults:
        detail = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(result.chunk_faults.items())
        )
        print(f"; link-level {detail}", end="")
    print()
    if result.killed:
        print(f"  maliciously crashed: {', '.join(result.killed)}")
    if result.byzantine:
        print(f"  byzantine (never halted): {', '.join(result.byzantine)}")
    if result.restarts:
        restarted = ", ".join(
            f"{node}×{count}" for node, count in sorted(result.restarts.items())
        )
        print(f"  restarted: {restarted}")
    for node, elapsed in sorted(result.convergence_s.items()):
        print(f"  convergence: {node} re-granted {elapsed:.3f}s after restart")
    for path in result.trace_paths:
        print(f"  spans: {path}")
    for path in result.flight_paths:
        print(f"  flight: {path}")


def _write_cluster_artefacts(args, result, *, extra_header=None) -> None:
    from .net import write_cluster_events, write_cluster_metrics

    if args.metrics_out:
        path = write_cluster_metrics(
            args.metrics_out, result, extra_header=extra_header
        )
        print(f"metrics: {path}")
    if args.events_out:
        path = write_cluster_events(args.events_out, result)
        print(f"events: {path}")


def cmd_cluster_run(args: argparse.Namespace) -> int:
    from .net import run_cluster

    config = _cluster_config(args, lock_service=False)
    _print_metrics_url(args)
    result = _run_interruptible(run_cluster(config, args.duration))
    _print_cluster_summary(result)
    _write_cluster_artefacts(args, result)
    return 0


def cmd_cluster_soak(args: argparse.Namespace) -> int:
    from .net import soak

    config = _cluster_config(args, lock_service=True)
    _print_metrics_url(args)
    result = _run_interruptible(
        soak(
            config,
            args.duration,
            hold_s=args.hold,
            acquire_timeout=args.acquire_timeout,
        )
    )
    cluster = result.cluster
    _print_cluster_summary(cluster)
    acquired = sum(c.acquired for c in result.clients)
    timeouts = sum(c.timeouts for c in result.clients)
    errors = sum(c.errors for c in result.clients)
    print(
        f"  clients: {acquired} acquisitions, {timeouts} timeouts, "
        f"{errors} errors"
    )
    print(
        f"  progress: {result.nodes_with_grants}/{len(cluster.nodes)} "
        f"nodes granted at least once"
    )
    if result.safe:
        print("  safety: OK (no neighbouring holders)")
    else:
        print(f"  safety: VIOLATED ({len(result.violations)} overlaps)")
        for violation in result.violations[:10]:
            print(
                f"    {violation.node_a} ∦ {violation.node_b}: "
                f"[{violation.overlap_start:.3f}, {violation.overlap_end:.3f}]s"
            )
        blamed = result.blamed
        print(f"  attribution: blames {', '.join(blamed) or 'nobody'}", end="")
        if result.byzantine:
            match = sorted(blamed) == sorted(result.byzantine)
            print(
                f" (byzantine set {'matches' if match else 'MISMATCHES'}: "
                f"{', '.join(result.byzantine)})"
            )
        else:
            print()
    _write_cluster_artefacts(
        args,
        cluster,
        extra_header={"safe": result.safe, "violations": len(result.violations)},
    )
    status = 0 if result.safe else 1
    if result.slo_report is not None:
        from .obs import format_report, write_slo_report

        for line_ in format_report(result.slo_report).splitlines():
            print(f"  {line_}")
        if args.slo_report:
            path = write_slo_report(args.slo_report, result.slo_report)
            print(f"  slo report: {path}")
        if result.slo_report.exhausted:
            status = 1
    if args.require_progress:
        # Every node the schedule did not kill must have granted.
        survivors = [n for n in cluster.nodes if n not in cluster.killed]
        starved = [
            n for n in survivors
            if cluster.counters.get(n, {}).get("grants", 0) == 0
        ]
        if starved:
            print(f"  progress: FAILED — no grants at {', '.join(starved)}")
            status = 1
    return status


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a fleet of logical clients through the gateway tier.

    ``--sim`` runs the seeded virtual-time engine (byte-stable report);
    otherwise a real cluster is spawned behind a real gateway and the
    neighbour-exclusion audit runs over the event stream.  Exit 1 on a
    safety violation.
    """
    from .gateway import (
        AdmissionConfig,
        FlushPolicy,
        LoadgenConfig,
        run_live,
        run_sim,
        write_loadgen_report,
    )

    spec = args.topology or f"ring:{args.nodes}"
    topology = parse_topology(spec)
    admission = AdmissionConfig(
        max_per_client=args.max_per_client,
        max_queue_depth=args.queue_depth,
        max_in_flight=args.max_in_flight,
        retry_after_s=args.retry_after,
    )
    flush = FlushPolicy(
        max_frames=args.batch_frames,
        max_bytes=args.batch_bytes,
        max_delay_s=args.batch_delay,
    )
    config = LoadgenConfig(
        clients=args.clients,
        nodes=len(list(topology.nodes)),
        topology=spec,
        seed=args.seed,
        duration_s=args.duration,
        mode=args.mode,
        arrival_rate_hz=args.arrival_rate,
        think_s=args.think,
        hold_s=args.hold,
        max_retries=args.max_retries,
        upstreams_per_node=args.upstreams_per_node,
        max_upstreams=args.max_upstreams,
        admission=admission,
        flush=flush,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    violations: list = []
    if args.sim:
        report = run_sim(config)
    else:
        cluster_config = _cluster_config(args, lock_service=True)
        _print_metrics_url(args)
        report, cluster_result, violations = _run_interruptible(
            run_live(config, cluster_config)
        )
        _write_cluster_artefacts(
            args,
            cluster_result,
            extra_header={
                "safe": not violations,
                "violations": len(violations),
            },
        )
    res = report["results"]
    lat = res["latency"]
    fair = res["fairness"]
    engine = report["spec"]["engine"]
    print(
        f"loadgen [{engine}]: {spec} seed={args.seed} "
        f"clients={args.clients} mode={args.mode} "
        f"duration={args.duration}s"
    )
    print(
        f"  grants: {res['grants']} ({res['throughput_hz']:.1f}/s), "
        f"releases {res['releases']}, shed {res['shed_total']}, "
        f"retries {res['retries']}, abandoned {res['abandoned']}, "
        f"failures {res['failures']}"
    )
    if lat.get("count"):
        print(
            f"  latency: p50={lat['p50_s']}s p99={lat['p99_s']}s "
            f"p999={lat['p999_s']}s (n={lat['count']})"
        )
    else:
        print("  latency: no grants observed")
    print(
        f"  fairness: grant_count_cv={fair['grant_count_cv']} "
        f"mean_wait_cv={fair['mean_wait_cv']} "
        f"active={fair['clients_active']} "
        f"granted={fair['clients_granted']}"
    )
    for reason in sorted(res["sheds"]):
        print(f"    shed[{reason}]: {res['sheds'][reason]}")
    batching = res.get("batching") or {}
    if batching.get("upstream_flushes"):
        print(
            f"  batching: {batching['upstream_frames']} frames in "
            f"{batching['upstream_flushes']} flushes "
            f"(mean batch {batching['mean_batch']:.2f}, "
            f"{batching['dials']} dials)"
        )
    safety = res["safety"]
    if safety["mode"] == "live":
        if violations:
            print(f"  safety: VIOLATED ({len(violations)} overlaps)")
            for violation in violations[:10]:
                print(
                    f"    {violation.node_a} ∦ {violation.node_b}: "
                    f"[{violation.overlap_start:.3f}, "
                    f"{violation.overlap_end:.3f}]s"
                )
        else:
            print(
                f"  safety: OK (audited {safety['audited_events']} "
                f"events, killed: {', '.join(safety['killed']) or 'none'})"
            )
    else:
        print("  safety: modelled (sim engine; audit needs a live run)")
    if args.out:
        path = write_loadgen_report(args.out, report)
        print(f"  loadgen report: {path}")
    return 1 if violations else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .adversary.fuzz import FuzzLimits, run_fuzz

    say = (lambda msg: None) if args.quiet else print
    result = run_fuzz(
        args.topology,
        seed=args.seed,
        budget=args.budget,
        duration_s=args.duration,
        jobs=args.jobs,
        keep=args.keep,
        corpus_dir=args.corpus_dir,
        limits=FuzzLimits(steps=args.steps, sample_every=args.sample_every),
        byzantine=args.byzantine,
        minimise_budget=args.minimise_budget,
        progress=say,
    )
    print(
        f"fuzz {result.topology_spec} seed={result.seed}: "
        f"{result.executed} runs, {result.coverage} distinct signatures"
    )
    for rank, entry in enumerate(result.entries[: args.keep]):
        print(
            f"  #{rank}: score={entry.score:.0f} "
            f"signature={list(entry.signature)} "
            f"events={len(entry.schedule.events)} ({entry.origin})"
        )
    for path in result.written:
        print(f"corpus: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dining philosophers that tolerate malicious crashes "
        "(Nesterenko & Arora, ICDCS 2002) — reproduction toolkit.",
    )
    from . import version as _version

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps_default=20_000):
        p.add_argument("--topology", default="ring:8", help="e.g. ring:8, line:12, grid:4:3")
        p.add_argument("--algorithm", default="na-diners", choices=sorted(ALGORITHMS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--steps", type=int, default=steps_default)

    def observability(p):
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="record the run as versioned trace JSONL")
        p.add_argument("--metrics-out", default=None, dest="metrics_out",
                       metavar="PATH", help="write probe metrics JSONL")
        p.add_argument("--snapshot-every", type=int, default=0,
                       dest="snapshot_every",
                       help="configuration snapshot cadence in steps "
                       "(0 = auto, ~100 snapshots per run)")
        p.add_argument("--timings-out", default=None, dest="timings_out",
                       metavar="PATH",
                       help="write live per-action wall-clock timers "
                       "(meta metrics JSONL; see StepTimerProbe)")

    p = sub.add_parser("run", help="simulate and report meals + invariant")
    common(p)
    observability(p)
    p.add_argument("--backend", choices=["object", "fast"], default="object",
                   help="state backend: the object model (reference) or the "
                   "packed fast core (same computation, ~3x faster)")
    p.add_argument("--profile-out", default=None, dest="profile_out",
                   metavar="PATH",
                   help="cProfile the run's hot loop; write top hotspots "
                   "as meta metrics JSONL (readable by `repro stats`)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("locality", help="crash a victim while eating; measure radius")
    common(p, steps_default=40_000)
    p.add_argument("--victim", type=int, default=0, help="index into topology nodes")
    p.add_argument("--malicious", type=int, default=0, help="havoc steps (0 = benign)")
    observability(p)
    p.set_defaults(fn=cmd_locality)

    p = sub.add_parser("stabilize", help="corrupt the state and time recovery")
    common(p)
    observability(p)
    p.add_argument("--plant-cycle", action="store_true")
    p.add_argument("--nc-only", action="store_true", help="wait for NC instead of full I")
    p.add_argument("--corrected-threshold", action="store_true",
                   help="use longest-simple-path instead of the diameter")
    p.add_argument("--max-steps", type=int, default=500_000)
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("figure2", help="replay the paper's Figure 2")
    p.set_defaults(fn=cmd_figure2)

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
                   dest="max_states",
                   help="exit 2 instead of checking a full space, or "
                   "sweeping a --reachable closure, of more states than this")
    p.set_defaults(fn=cmd_check)

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
    p.add_argument("--crash-victim", type=int, default=None, dest="crash_victim",
                   help="node index to crash in every trial")
    p.add_argument("--crash-at", type=int, default=0, dest="crash_at",
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
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="PATH", help="write campaign aggregate metrics JSONL")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="replay a recorded trace file offline",
        description="Load a --trace JSONL file, replay it through the "
        "standard probes, and print the same summary (and optionally the "
        "same metrics file) the live run produced.",
    )
    p.add_argument("path", help="trace JSONL file written by --trace")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="PATH", help="write probe metrics JSONL")
    p.add_argument("--limit", type=int, default=0,
                   help="also print the first N events")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="summarise any artefact this toolkit writes",
        description="Identify the file's kind from its first JSON object "
        "and print that kind's summary.  Kinds: " + ", ".join(KINDS) + ".",
    )
    p.add_argument("path", help="an artefact file of any of those kinds")
    p.set_defaults(fn=cmd_stats)

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
    p.add_argument("--profile-out", default="bench_profile.metrics",
                   dest="profile_out", metavar="PATH",
                   help="hotspot metrics JSONL path for --profile")
    p.add_argument("--profile-top", type=int, default=15, dest="profile_top",
                   help="hotspot rows to keep with --profile")
    p.set_defaults(fn=cmd_bench)

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
                   dest="tick_interval",
                   help="seconds between process ticks (the retransmit/"
                   "timer period; progress itself is event-driven)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve (0 = until interrupted)")
    p.add_argument("--lock-service", action="store_true", dest="lock_service",
                   help="host the client-driven lock process instead of an "
                   "always-hungry diner")
    p.set_defaults(fn=cmd_node)

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
        cp.add_argument("--tick-interval", type=float, default=0.01,
                        dest="tick_interval")
        cp.add_argument("--host", default="127.0.0.1")
        cp.add_argument("--no-chaos", action="store_true", dest="no_chaos",
                        help="clean links: no fault schedule at all")
        cp.add_argument("--partitions", type=int, default=1,
                        help="partition/heal windows to schedule")
        cp.add_argument("--malicious", type=int, default=1,
                        help="malicious crashes (garbage burst, then halt)")
        cp.add_argument("--restart-policy", dest="restart_policy",
                        choices=("off", "fresh", "arbitrary"), default="off",
                        help="relaunch crashed nodes: 'fresh' boots clean "
                        "state, 'arbitrary' boots seeded-random state (the "
                        "stabilization theorem's restart setting)")
        cp.add_argument("--max-restarts", type=int, default=1,
                        dest="max_restarts",
                        help="relaunches allowed per crashed node")
        cp.add_argument("--restart-delay", type=float, default=0.5,
                        dest="restart_delay",
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
                        dest="adaptive_interval",
                        help="seconds between adaptive-adversary decisions")
        cp.add_argument("--schedule-file", default=None, dest="schedule_file",
                        metavar="PATH",
                        help="replay this exact corpus schedule file "
                        "(topology, seed, duration and fault plan all come "
                        "from the file; see `repro fuzz`)")
        cp.add_argument("--metrics-out", default=None, dest="metrics_out",
                        metavar="PATH", help="write cluster metrics JSONL")
        cp.add_argument("--events-out", default=None, dest="events_out",
                        metavar="PATH", help="write the event-log artefact "
                        "(streamed line-by-line during the run, finalised "
                        "atomically at teardown)")
        cp.add_argument("--trace", default=None, metavar="DIR",
                        help="causal tracing: stamp every frame with a "
                        "Lamport clock + span id and write per-node "
                        "spans-<node>.jsonl artefacts into DIR at teardown "
                        "(merge offline with `repro timeline DIR`)")
        cp.add_argument("--metrics-port", type=int, default=None,
                        dest="metrics_port", metavar="PORT",
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
        cp.add_argument("--flight-capacity", type=int, default=None,
                        dest="flight_capacity", metavar="N",
                        help="flight-recorder ring size per node "
                        "(default 512)")

    cp = cluster_sub.add_parser(
        "run", help="always-hungry diners under chaos; report counters"
    )
    cluster_common(cp)
    cp.set_defaults(fn=cmd_cluster_run)

    cp = cluster_sub.add_parser(
        "soak",
        help="lock-service clients under chaos; audit safety, exit 1 on "
        "violation",
    )
    cluster_common(cp)
    cp.add_argument("--hold", type=float, default=0.05,
                    help="mean client hold/think time scale in seconds")
    cp.add_argument("--acquire-timeout", type=float, default=5.0,
                    dest="acquire_timeout")
    cp.add_argument("--require-progress", action="store_true",
                    dest="require_progress",
                    help="also exit 1 if any surviving node never granted")
    cp.add_argument("--slo", default=None, metavar="SPEC",
                    help="evaluate this SLO spec live against the event "
                    "stream: a newly exhausted budget annotates the "
                    "implicated spans, triggers a flight dump (with "
                    "--flight), and forces exit 1; remaining budget and "
                    "burn rate are exported at --metrics-port")
    cp.add_argument("--slo-report", default=None, dest="slo_report",
                    metavar="PATH",
                    help="write the final byte-stable slo-report.json")
    cp.set_defaults(fn=cmd_cluster_soak)

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
    p.add_argument("--arrival-rate", type=float, default=2000.0,
                   dest="arrival_rate", metavar="HZ",
                   help="open-loop aggregate arrival rate")
    p.add_argument("--think", type=float, default=0.5,
                   help="closed-loop mean think time (seconds)")
    p.add_argument("--hold", type=float, default=0.01,
                   help="mean lock-hold time (seconds)")
    p.add_argument("--max-retries", type=int, default=8, dest="max_retries",
                   help="shed retries per acquire before abandoning")
    p.add_argument("--upstreams-per-node", type=int, default=1,
                   dest="upstreams_per_node",
                   help="pooled TCP connections per node")
    p.add_argument("--max-upstreams", type=int, default=8,
                   dest="max_upstreams",
                   help="hard cap on total upstream connections")
    p.add_argument("--max-per-client", type=int, default=1,
                   dest="max_per_client",
                   help="admission: in-flight ops per logical client")
    p.add_argument("--queue-depth", type=int, default=256,
                   dest="queue_depth",
                   help="admission: un-granted acquires parked per node")
    p.add_argument("--max-in-flight", type=int, default=1024,
                   dest="max_in_flight",
                   help="admission: ops outstanding per upstream pipe")
    p.add_argument("--retry-after", type=float, default=0.05,
                   dest="retry_after",
                   help="retry hint (seconds) carried by shed responses")
    p.add_argument("--batch-frames", type=int, default=64,
                   dest="batch_frames",
                   help="flush a batch at this many buffered frames")
    p.add_argument("--batch-bytes", type=int, default=32768,
                   dest="batch_bytes",
                   help="flush a batch at this many buffered bytes")
    p.add_argument("--batch-delay", type=float, default=0.002,
                   dest="batch_delay",
                   help="max seconds a buffered frame waits for a batch")
    p.add_argument("--sim", action="store_true",
                   help="virtual-time engine: no sockets, byte-stable "
                   "report (same spec+seed => identical bytes)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the versioned loadgen-report.json")
    p.set_defaults(fn=cmd_loadgen)

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
    p.add_argument("--sample-every", type=int, default=25, dest="sample_every",
                   help="steps between behaviour samples")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel evaluation workers (result-invariant)")
    p.add_argument("--keep", type=int, default=3,
                   help="top signatures to minimise and write")
    p.add_argument("--corpus-dir", default=None, dest="corpus_dir",
                   metavar="DIR", help="write kept schedules here")
    p.add_argument("--byzantine", action="store_true",
                   help="include a beyond-the-model seed schedule (its "
                   "finds violate safety on live replay by design)")
    p.add_argument("--minimise-budget", type=int, default=24,
                   dest="minimise_budget",
                   help="extra evaluations per kept entry for shrinking")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-round progress lines")
    p.set_defaults(fn=cmd_fuzz)

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
    p.set_defaults(fn=cmd_timeline)

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
    p.set_defaults(fn=cmd_slo)

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
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("report", help="run the experiment suite, emit markdown")
    p.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--records", default=None,
                   help="JSONL checkpoint file for the suite's campaign")
    p.add_argument("--metrics-out", default=None, dest="metrics_out",
                   metavar="PATH",
                   help="write per-section scalar snapshots + campaign "
                   "aggregates as metrics JSONL")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly like other
        # unix tools (redirect stdout so the interpreter's exit flush
        # does not raise a second time)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
