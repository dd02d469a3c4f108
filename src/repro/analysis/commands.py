"""The simulator commands: ``run``, ``locality``, ``stabilize``, ``figure2``
and ``report``.

Each is the entry point ``repro.cli`` dispatches to, with the command's
flags as keyword arguments.  ``run``, ``locality`` and ``stabilize`` share
the observability flags through :class:`repro.obs.trace_io.RunObserver`,
so what they print after a run is the trace's one summary — the lines
``repro trace`` and ``repro stats`` print on the trace file.
"""

from __future__ import annotations

import random
from typing import Optional

from ..campaign.algorithms import make_algorithm
from ..core import (
    invariant_holds,
    invariant_report,
    invariant_with_threshold,
    nc_holds,
    red_set,
    run_figure2,
)
from ..obs.trace_io import RunObserver
from ..sim import AlwaysHungry, System, from_spec
from .locality import measure_failure_locality
from .priority_graph import find_live_cycles
from .stabilization import _find_cycle, plant_priority_cycle, steps_to_predicate


def cmd_run(
    *, topology: str, algorithm: str, seed: int, steps: int, trace: Optional[str],
    metrics_out: Optional[str], snapshot_every: int, timings_out: Optional[str],
    backend: str, profile_out: Optional[str],
) -> int:
    """``repro run``: simulate ``algorithm`` on ``topology`` for ``steps``
    engine steps on the ``backend`` store; print meals and the invariant."""
    from ..fastcore import make_engine

    if steps < 0:
        raise ValueError("--steps must be >= 0")
    topo = from_spec(topology)
    algo = make_algorithm(algorithm)
    observer = RunObserver(
        trace=trace, metrics_out=metrics_out, timings_out=timings_out,
        snapshot_every=snapshot_every, steps=steps,
    )
    engine = make_engine(
        topo,
        algo,
        backend=backend,
        hunger=AlwaysHungry(),
        recorder=observer.recorder,
        bus=observer.bus,
        seed=seed,
    )
    if profile_out:
        from ..perf import write_profile_metrics

        result, profile = engine.run_profiled(steps)
        path = write_profile_metrics(
            profile_out,
            profile,
            header={
                "model": "sim" if backend == "object" else "fastcore",
                "algorithm": algo.name,
                "topology": topology,
                "seed": seed,
                "steps": result.steps,
            },
        )
        print(f"profile: {path}")
    else:
        result = engine.run(steps)
    print(f"{topo} / {algo.name}: ran {result.steps} steps")
    for pid in topo.nodes:
        print(f"  {pid}: {engine.eats_of(pid)} meals")
    final = engine.snapshot()
    has_depth = "depth" in algo.local_domains(topo)
    if has_depth:
        # NADiners family: the full invariant applies.
        print(f"invariant: {invariant_report(final)}")
    else:
        # Other diners: only the eating-exclusion conjunct is meaningful
        # (fork-ordering's edge cells are forks, not priorities).
        from ..core import e_holds

        print(f"no neighbours eating together: {e_holds(final)}")
    observer.finish(
        model="sim",
        algorithm=algo,
        topology_spec=topology,
        seed=seed,
        threshold=topo.diameter if has_depth else None,
        has_depth=has_depth,
    )
    return 0


def cmd_locality(
    *, topology: str, algorithm: str, seed: int, steps: int, victim: int,
    malicious: int, trace: Optional[str], metrics_out: Optional[str],
    snapshot_every: int, timings_out: Optional[str],
) -> int:
    """``repro locality``: crash process ``victim`` (an index) while it
    eats — benignly, or after ``malicious`` havoc steps — and report who
    starves over a ``steps``-long window."""
    topo = from_spec(topology)
    if not 0 <= victim < len(topo):
        raise ValueError(
            f"--victim {victim} out of range for {topology} "
            f"(has {len(topo)} processes)"
        )
    algo = make_algorithm(algorithm)
    crashed = topo.nodes[victim]
    # Observation budget ~ warmup + settle + window engine steps.
    observer = RunObserver(
        trace=trace, metrics_out=metrics_out, timings_out=timings_out,
        snapshot_every=snapshot_every, steps=steps * 2 + steps // 3,
    )
    report = measure_failure_locality(
        algo,
        topo,
        [crashed],
        malicious_steps=malicious or None,
        warmup_steps=steps,
        settle_steps=steps // 3,
        window=steps,
        seed=seed,
        recorder=observer.recorder,
        bus=observer.bus,
    )
    kind = f"malicious({malicious})" if malicious else "benign"
    print(f"{topo} / {report.algorithm}: {kind} crash of {crashed!r} while eating")
    print(f"  starving: {sorted(report.starving)}")
    print(f"  starvation radius: {report.starvation_radius}")
    for d, (count, total) in report.eats_by_distance(topo).items():
        print(f"  distance {d}: {count} processes, {total} meals")
    observer.finish(
        model="sim",
        algorithm=algo,
        topology_spec=topology,
        seed=seed,
        threshold=topo.diameter,
        has_depth="depth" in algo.local_domains(topo),
    )
    return 0


def cmd_stabilize(
    *, topology: str, algorithm: str, seed: int, steps: int, trace: Optional[str],
    metrics_out: Optional[str], snapshot_every: int, timings_out: Optional[str],
    plant_cycle: bool, nc_only: bool, corrected_threshold: bool, max_steps: int,
) -> int:
    """``repro stabilize``: corrupt the state (optionally planting a
    priority cycle) and time the recovery of ``I`` — or of NC alone —
    within ``max_steps``; exit 1 when it does not converge.  ``steps``
    comes with the scenario flags and is not read: ``max_steps`` bounds
    the run."""
    if max_steps < 0:
        raise ValueError("--max-steps must be >= 0")
    topo = from_spec(topology)
    algo = make_algorithm(algorithm)
    if "depth" not in algo.local_domains(topo):
        raise ValueError(
            f"repro stabilize: {algo.name} has no depth counter; "
            "the paper's predicates read the NADiners family's state"
        )
    system = System(topo, algo)
    system.randomize(random.Random(seed))
    if plant_cycle:
        cycle = _find_cycle(topo)
        if cycle is None:
            print("topology has no cycle to plant; corruption only")
        else:
            plant_priority_cycle(system, cycle)
            print(f"planted priority cycle: {cycle}")
    threshold = topo.longest_simple_path() if corrected_threshold else topo.diameter
    if nc_only:
        predicate = nc_holds
    elif corrected_threshold:
        predicate = invariant_with_threshold(threshold)
    else:
        predicate = invariant_holds
    observer = RunObserver(
        trace=trace, metrics_out=metrics_out, timings_out=timings_out,
        snapshot_every=snapshot_every, steps=max_steps,
    )
    result = steps_to_predicate(
        system,
        predicate,
        max_steps=max_steps,
        seed=seed,
        recorder=observer.recorder,
        bus=observer.bus,
    )
    if result.converged:
        print(f"converged after {result.steps} steps")
        print(f"live cycles now: {find_live_cycles(system.snapshot()) or 'none'}")
    else:
        print(f"did NOT converge within {max_steps} steps")
    observer.finish(
        model="sim",
        algorithm=algo,
        topology_spec=topology,
        seed=seed,
        threshold=threshold,
        has_depth=True,
    )
    return 0 if result.converged else 1


def cmd_figure2() -> int:
    """``repro figure2``: replay the paper's Figure 2, panel by panel."""
    replay = run_figure2()
    topo = replay.initial.topology
    for i, config in enumerate(replay.configurations, start=1):
        print(f"panel {i}:")
        states = ", ".join(f"{p}={config.local(p, 'state')}" for p in topo.nodes)
        print(f"  {states}")
        print(f"  red: {sorted(red_set(config))}")
        print(f"  live cycles: {find_live_cycles(config) or 'none'}")
    print(f"transitions replayed: {replay.executed}")
    return 0


def cmd_report(
    *, full: bool, seed: int, jobs: int, records: Optional[str],
    metrics_out: Optional[str], output: Optional[str],
) -> int:
    """``repro report``: run the experiment suite (quick unless ``full``)
    and emit its markdown to ``output`` or stdout."""
    # Looked up on the package when the command runs, not bound at import.
    from . import SuiteConfig, run_suite, to_markdown

    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    result = run_suite(
        SuiteConfig(quick=not full, seed=seed),
        jobs=jobs,
        records_path=records,
        metrics_out=metrics_out,
    )
    markdown = to_markdown(result)
    if output:
        with open(output, "w") as handle:
            handle.write(markdown)
        print(f"wrote {output}")
    else:
        print(markdown)
    if metrics_out:
        print(f"metrics: {metrics_out}")
    return 0
