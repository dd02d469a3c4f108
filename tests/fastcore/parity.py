"""The parity harness: co-run both stores and refuse any divergence.

A test helper (nothing in ``src/`` calls it).

The fast core's whole claim is "same computation, faster".  This module
makes that claim checkable: :func:`co_run` drives the one
:class:`~repro.sim.engine.Engine` over an object-model
:class:`~repro.sim.network.System` and over a
:class:`~repro.fastcore.PackedSystem` — same topology, algorithm, daemon,
hunger policy, fault plan, and seed — stepping them in lockstep and
comparing, at every step,

* the full decoded configuration (locals, edges, dead/malicious sets),
* the emitted :class:`~repro.sim.trace.TraceEvent` streams (equality on the
  frozen dataclass covers step, kind, pid, detail, and — because payloads
  are captured pre-action — the acting process's locals),
* the final :class:`~repro.sim.engine.RunResult` shape and action counts.

Any mismatch raises :class:`ParityError` carrying the first divergent step
and a field-level diff, which is the error you want in CI: not "some hash
differed", but "at step 411, edge {2, 3} points at 3 in the object model
and 2 in the fast one".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.fastcore.engine import FastEngine
from repro.sim.configuration import Configuration
from repro.sim.engine import Engine
from repro.sim.errors import SimulationError
from repro.sim.network import System
from repro.sim.topology import Topology
from repro.sim.trace import TraceEvent, TraceRecorder


class ParityError(SimulationError):
    """The two backends diverged; the message localizes where and how."""


@dataclass(frozen=True)
class ParityReport:
    """Outcome of one successful lockstep co-run."""

    steps: int
    quiescent: bool
    events: Tuple[TraceEvent, ...]
    final: Configuration


def _diff_configurations(
    step: int, obj: Configuration, fast: Configuration
) -> str:
    lines = [f"configurations diverged at step {step}:"]
    for pid in obj.topology.nodes:
        a, b = obj.locals_of(pid), fast.locals_of(pid)
        if a != b:
            lines.append(f"  locals {pid!r}: object {a} != fast {b}")
    for e in obj.topology.edges:
        x, y = tuple(e)
        a, b = obj.edge_value(x, y), fast.edge_value(x, y)
        if a != b:
            lines.append(f"  edge {set(e)!r}: object {a!r} != fast {b!r}")
    if obj.dead != fast.dead:
        lines.append(f"  dead: object {obj.dead!r} != fast {fast.dead!r}")
    if obj.malicious != fast.malicious:
        lines.append(
            f"  malicious: object {obj.malicious!r} != fast {fast.malicious!r}"
        )
    return "\n".join(lines)


def _pair(
    topology: Topology,
    algorithm_factory: Callable[[], object],
    seed: int,
    daemon_factory: Optional[Callable[[], object]],
    hunger_factory: Optional[Callable[[], object]],
    faults_factory: Optional[Callable[[], object]],
    record_events: bool = False,
) -> Tuple[Engine, Engine]:
    """The object engine and the fast one, each over its own instances of
    everything stateful (algorithm, daemon ledger, hunger policy, fault
    plan), seeded identically."""

    def parts():
        return {
            "daemon": daemon_factory() if daemon_factory else None,
            "hunger": hunger_factory() if hunger_factory else None,
            "faults": faults_factory() if faults_factory else None,
            "recorder": TraceRecorder() if record_events else None,
            "seed": seed,
        }

    return (
        Engine(System(topology, algorithm_factory()), **parts()),
        FastEngine(topology, algorithm_factory(), **parts()),
    )


def co_run(
    topology: Topology,
    algorithm_factory: Callable[[], object],
    *,
    steps: int,
    seed: int = 0,
    daemon_factory: Optional[Callable[[], object]] = None,
    hunger_factory: Optional[Callable[[], object]] = None,
    faults_factory: Optional[Callable[[], object]] = None,
    record_events: bool = True,
) -> ParityReport:
    """Run both backends in lockstep for up to ``steps`` steps.

    Factories (not instances) are required for everything stateful — each
    backend must get its own algorithm, daemon ledger, hunger policy, and
    fault plan, seeded identically, or the comparison would be contaminated
    by shared mutable state.  Returns a :class:`ParityReport` on success and
    raises :class:`ParityError` at the first divergence.
    """
    obj, fast = _pair(
        topology, algorithm_factory, seed,
        daemon_factory, hunger_factory, faults_factory, record_events,
    )
    initial_obj, initial_fast = obj.snapshot(), fast.snapshot()
    if initial_obj != initial_fast:
        raise ParityError(_diff_configurations(-1, initial_obj, initial_fast))

    quiescent = False
    taken = 0
    for _ in range(steps):
        progressed_obj = obj.step()
        progressed_fast = fast.step()
        if progressed_obj != progressed_fast:
            raise ParityError(
                f"step {taken}: object progressed={progressed_obj}, "
                f"fast progressed={progressed_fast}"
            )
        if not progressed_obj:
            quiescent = True
            break
        snap_obj, snap_fast = obj.snapshot(), fast.snapshot()
        if snap_obj != snap_fast:
            raise ParityError(_diff_configurations(taken, snap_obj, snap_fast))
        taken += 1

    if obj.action_counts != fast.action_counts:
        raise ParityError(
            "action counts diverged: "
            f"object {dict(obj.action_counts)!r} != fast {dict(fast.action_counts)!r}"
        )
    if record_events:
        a, b = obj.recorder.events, fast.recorder.events
        if a != b:
            index = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
            )
            xa = a[index] if index < len(a) else "<missing>"
            xb = b[index] if index < len(b) else "<missing>"
            raise ParityError(
                f"trace events diverged at event {index}: object {xa!r} != fast {xb!r}"
            )
        events: Tuple[TraceEvent, ...] = a
    else:
        events = ()

    final_obj, final_fast = obj.snapshot(), fast.snapshot()
    if final_obj != final_fast:
        raise ParityError(_diff_configurations(taken, final_obj, final_fast))
    return ParityReport(
        steps=taken, quiescent=quiescent, events=events, final=final_obj
    )
