"""Versioned JSONL trace export, loading, and offline replay.

A trace file is the durable form of one run's observability stream:

* one ``header`` line — format version, model (``sim``/``mp``), algorithm,
  topology spec, enter/exit action names, depth threshold, seed, steps
  taken, snapshot cadence;
* one ``event`` line per :class:`~repro.sim.trace.TraceEvent`, pids and
  details encoded with the repr/literal round-trip of
  :mod:`repro.sim.serialize` (no code execution on load);
* one ``snapshot`` line per recorded configuration, embedding the full
  :func:`repro.sim.serialize.to_json` payload (self-describing: the
  topology rides along).

``read_trace(write_trace(t)) == t`` — events, snapshots, and header all
round-trip exactly, which is what makes offline replay trustworthy:
:func:`analyze` pumps a trace through the same probes a live bus would
drive, so ``repro trace`` on a recorded file reproduces the run's summary
and metrics byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..artefact import CANONICAL, KINDS, identify, write_atomic
from ..sim.configuration import Configuration
from ..sim.errors import SimulationError
from ..sim.serialize import decode_literal, encode_literal, from_json, to_json
from ..sim.trace import EventKind, TraceEvent, TraceRecorder
from .bus import EventBus
from .events import MpEventKind
from .metrics import MetricsRegistry, write_metrics
from .probes import Probe, StepTimerProbe, standard_probes

TRACE_FORMAT_VERSION = KINDS["trace"].format

#: Every event kind either engine publishes, keyed by wire value.
_KINDS: Dict[str, Any] = {
    **{k.value: k for k in EventKind},
    **{k.value: k for k in MpEventKind},
}


@dataclass(frozen=True)
class Trace:
    """One run's recorded stream: header + events + snapshots."""

    header: Mapping[str, Any]
    events: Tuple[TraceEvent, ...]
    snapshots: Tuple[Tuple[int, Configuration], ...] = ()

    def events_of_kind(self, kind) -> Tuple[TraceEvent, ...]:
        return tuple(e for e in self.events if e.kind is kind)

    @property
    def steps(self) -> int:
        return int(self.header.get("steps_taken", 0))


def build_header(
    *,
    model: str,
    algorithm: str,
    seed: int,
    steps_taken: int,
    topology: Optional[str] = None,
    enter_action: str = "enter",
    exit_action: str = "exit",
    threshold: Optional[int] = None,
    has_depth: bool = True,
    snapshot_every: int = 0,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The run metadata a trace needs to be replayable on its own."""
    header: Dict[str, Any] = {
        "format": TRACE_FORMAT_VERSION,
        "kind": "header",
        "model": model,
        "algorithm": algorithm,
        "topology": topology,
        "enter_action": enter_action,
        "exit_action": exit_action,
        "threshold": threshold,
        "has_depth": has_depth,
        "seed": seed,
        "steps_taken": steps_taken,
        "snapshot_every": snapshot_every,
    }
    if extra:
        header.update(extra)
    return header


def trace_from_recorder(
    recorder: TraceRecorder, header: Mapping[str, Any]
) -> Trace:
    """Freeze a live recorder into a :class:`Trace`."""
    return Trace(
        header=dict(header),
        events=recorder.events,
        snapshots=recorder.snapshots,
    )


# ----------------------------------------------------------------- encode


def _encode_payload(payload: Any) -> Any:
    if payload is None:
        return None
    if isinstance(payload, dict):
        return {str(k): encode_literal(v) for k, v in sorted(payload.items())}
    return encode_literal(payload)


def _decode_payload(payload: Any) -> Any:
    if payload is None:
        return None
    if isinstance(payload, dict):
        return {k: decode_literal(v) for k, v in payload.items()}
    return decode_literal(payload)


def event_to_line(event: TraceEvent) -> str:
    record = {
        "kind": "event",
        "step": event.step,
        "event": event.kind.value,
        "pid": None if event.pid is None else encode_literal(event.pid),
        "detail": None if event.detail is None else encode_literal(event.detail),
    }
    if event.payload is not None:
        record["payload"] = _encode_payload(event.payload)
    return json.dumps(record, **CANONICAL)


def event_from_payload(record: Mapping[str, Any]) -> TraceEvent:
    try:
        kind = _KINDS[record["event"]]
    except KeyError:
        raise SimulationError(
            f"unknown trace event kind {record.get('event')!r}"
        ) from None
    pid = record.get("pid")
    detail = record.get("detail")
    return TraceEvent(
        step=record["step"],
        kind=kind,
        pid=None if pid is None else decode_literal(pid),
        detail=None if detail is None else decode_literal(detail),
        payload=_decode_payload(record.get("payload")),
    )


def _trace_lines(trace: Trace) -> Iterator[str]:
    yield json.dumps(dict(trace.header), **CANONICAL)
    for event in trace.events:
        yield event_to_line(event)
    for step, config in trace.snapshots:
        yield json.dumps(
            {
                "kind": "snapshot",
                "step": step,
                "config": json.loads(to_json(config, indent=None)),
            },
            **CANONICAL,
        )


def write_trace(path: Path | str, trace: Trace) -> Path:
    """Write one trace as JSONL (parents created, atomic replace, fsynced)."""
    return write_atomic(path, _trace_lines(trace))


def read_trace(path: Path | str) -> Trace:
    """Load a trace written by :func:`write_trace`.

    Raises :class:`~repro.sim.errors.SimulationError` on a missing or
    version-mismatched header — naming the kind :func:`identify` finds
    when the file is another artefact; a malformed body line is an error
    too — unlike campaign checkpoints, a trace is an analysis input, and
    silent truncation would skew every derived number.
    """
    path = Path(path)
    header: Optional[Dict[str, Any]] = None
    events: List[TraceEvent] = []
    snapshots: List[Tuple[int, Configuration]] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                error = SimulationError(f"{path}:{lineno}: not valid JSON")
                raise (error if header else _not_a_trace(path, error)) from None
            if not isinstance(record, dict):
                raise SimulationError(f"{path}:{lineno}: not a JSON object")
            if header is None and not KINDS["trace"].claims(record):
                error = SimulationError(f"{path}: no trace header line")
                raise _not_a_trace(path, error)
            kind = record.get("kind")
            if kind == "header":
                if record.get("format") != TRACE_FORMAT_VERSION:
                    raise SimulationError(
                        f"{path}: unsupported trace format "
                        f"{record.get('format')!r}"
                    )
                header = record
            elif kind == "event":
                events.append(event_from_payload(record))
            elif kind == "snapshot":
                config = from_json(json.dumps(record["config"]))
                snapshots.append((record["step"], config))
            else:
                raise SimulationError(
                    f"{path}:{lineno}: unknown line kind {kind!r}"
                )
    if header is None:
        raise SimulationError(f"{path}: no trace header line")
    return Trace(
        header=header, events=tuple(events), snapshots=tuple(snapshots)
    )


def _not_a_trace(path: Path, error: SimulationError) -> SimulationError:
    """``error``, for a file that does not open with a trace header —
    unless :func:`identify` knows the file as another kind, or as none."""
    try:
        row = identify(path)
    except ValueError as exc:
        return SimulationError(str(exc))
    if row.name != "trace":
        return SimulationError(f"{path}: {row.name} artefact, not a trace")
    return error


def summarize_trace(trace: Trace) -> List[str]:
    """The one rendering of a trace: what ``repro trace`` and an observed
    ``repro run`` print, and ``repro stats`` prints on the trace file."""
    return analyze(trace).lines()


# ---------------------------------------------------------------- analyze


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze` derives from one trace."""

    trace: Trace
    registry: MetricsRegistry
    probes: List[Probe] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    def summary_json(self) -> str:
        return json.dumps(self.summary, **CANONICAL)

    def lines(self) -> List[str]:
        """The trace's header line, then its probe summary."""
        header = self.trace.header
        return [
            f"trace: {header.get('model')} / {header.get('algorithm')} on "
            f"{header.get('topology')} seed={header.get('seed')}, "
            f"{header.get('steps_taken')} steps ({len(self.trace.events)} "
            f"events, {len(self.trace.snapshots)} snapshots)",
            f"summary: {self.summary_json()}",
        ]


def analyze(
    trace: Trace, *, extra_probes: Sequence[Probe] = ()
) -> TraceAnalysis:
    """Replay a trace through the standard probe set.

    Events and snapshots are merged in step order (a snapshot labelled *k*
    is the state after *k* steps, so it precedes the event of step *k*).
    This is the one code path behind both the live summary (``repro run``
    analyzing its own in-memory recorder) and the offline one
    (``repro trace`` on a file) — identical streams give identical
    registries and summaries, byte for byte.
    """
    header = trace.header
    threshold = header.get("threshold")
    probes: List[Probe] = standard_probes(
        threshold=0 if threshold is None else int(threshold),
        enter_action=str(header.get("enter_action", "enter")),
        exit_action=str(header.get("exit_action", "exit")),
        has_depth=bool(header.get("has_depth", True)),
    )
    probes.extend(extra_probes)

    # Merge: snapshots first at equal step labels (state-after-k precedes
    # the step-k event).
    stream: List[Tuple[int, int, Any]] = [
        (step, 0, config) for step, config in trace.snapshots
    ]
    stream.extend((event.step, 1, event) for event in trace.events)
    stream.sort(key=lambda item: (item[0], item[1]))
    for step, tag, item in stream:
        if tag == 0:
            for probe in probes:
                probe.on_sample(step, item)
        else:
            for probe in probes:
                probe.on_event(item)

    registry = MetricsRegistry()
    for probe in probes:
        probe.publish(registry)
    summary = _summarize(trace, probes, registry)
    return TraceAnalysis(
        trace=trace, registry=registry, probes=probes, summary=summary
    )


def _summarize(
    trace: Trace, probes: Sequence[Probe], registry: MetricsRegistry
) -> Dict[str, Any]:
    header = trace.header
    event_counts: Dict[str, int] = {}
    for event in trace.events:
        key = event.kind.value
        event_counts[key] = event_counts.get(key, 0) + 1

    summary: Dict[str, Any] = {
        "format": TRACE_FORMAT_VERSION,
        "algorithm": header.get("algorithm"),
        "topology": header.get("topology"),
        "seed": header.get("seed"),
        "steps": header.get("steps_taken"),
        "event_counts": dict(sorted(event_counts.items())),
        "snapshots": len(trace.snapshots),
    }
    for probe in probes:
        name = type(probe).__name__
        if name == "EatsProbe":
            summary["eats"] = {
                encode_literal(pid): count
                for pid, count in sorted(
                    probe.eats.items(), key=lambda kv: encode_literal(kv[0])
                )
            }
            summary["total_eats"] = probe.total
        elif name == "DepthProbe":
            summary["depth_histogram"] = {
                str(d): probe.histogram[d] for d in sorted(probe.histogram)
            }
            summary["deep_exits"] = probe.deep_exits
        elif name == "InvariantProbe":
            summary["invariant_timeline"] = [
                [step, nc, st, e] for step, nc, st, e in probe.timeline
            ]
            summary["final_invariant"] = probe.final
            summary["first_legitimate_step"] = probe.first_legitimate_step()
        elif name == "EatingPairsProbe":
            summary["eating_pairs_timeline"] = [
                [step, count] for step, count in probe.timeline
            ]
            summary["max_eating_pairs"] = probe.max_pairs
        elif name == "WaitingChainProbe":
            summary["waiting_chain_max"] = probe.max_length
        elif name == "LocalityProbe" and probe.crashes:
            summary["crashes"] = [
                [step, encode_literal(pid)] for step, pid in probe.crashes
            ]
            summary["observed_radius"] = probe.observed_radius()
    return summary


def write_analysis_metrics(
    path: Path | str,
    analysis: TraceAnalysis,
    *,
    include_meta: bool = False,
) -> Path:
    """Write an analysis's registry as a metrics JSONL file.

    With ``include_meta=False`` (the default) the output is a deterministic
    function of the trace: running it on a live recorder and on the
    re-loaded trace file produces byte-identical files.
    """
    header = {
        "source": "trace",
        "model": analysis.trace.header.get("model"),
        "algorithm": analysis.trace.header.get("algorithm"),
        "topology": analysis.trace.header.get("topology"),
        "seed": analysis.trace.header.get("seed"),
        "steps": analysis.trace.header.get("steps_taken"),
    }
    return write_metrics(
        path, analysis.registry, header=header, include_meta=include_meta
    )


# ---------------------------------------------------------------- commands


class RunObserver:
    """What ``--trace``, ``--metrics-out`` and ``--timings-out`` attach to
    one simulated run — :attr:`recorder` and :attr:`bus`, ``None`` unless
    asked for — and what they write and print after it (:meth:`finish`).

    The snapshot cadence is ``snapshot_every``, or ~100 snapshots over
    ``steps``.  Timings ride the engine's bus into a
    :class:`~repro.obs.probes.StepTimerProbe`: wall-clock timing cannot be
    recovered from a recorded trace, so it is captured live and written to
    a file of its own, leaving ``--metrics-out`` byte-identical under replay.
    """

    def __init__(
        self,
        *,
        trace: Optional[str],
        metrics_out: Optional[str],
        timings_out: Optional[str],
        snapshot_every: int,
        steps: int,
    ) -> None:
        self.trace_path = trace
        self.metrics_out = metrics_out
        self.timings_out = timings_out
        self.snapshot_every = 0
        self.recorder: Optional[TraceRecorder] = None
        if trace or metrics_out:
            self.snapshot_every = snapshot_every or max(1, steps // 100)
            self.recorder = TraceRecorder(snapshot_every=self.snapshot_every)
        self.timer: Optional[StepTimerProbe] = None
        self.bus: Optional[EventBus] = None
        if timings_out:
            self.timer = StepTimerProbe()
            self.bus = EventBus()
            self.bus.subscribe_all(self.timer.on_event)

    def finish(
        self,
        *,
        model: str,
        algorithm: Any,
        topology_spec: str,
        seed: int,
        threshold: Optional[int],
        has_depth: bool,
    ) -> None:
        """Write the files asked for and print their paths, then the
        trace's summary — :func:`summarize_trace`'s lines, which ``repro
        trace`` and ``repro stats`` print on the trace file."""
        analysis = None
        if self.recorder is not None:
            events = self.recorder.events  # the last is of the last step taken
            header = build_header(
                model=model,
                algorithm=algorithm.name,
                topology=topology_spec,
                enter_action=algorithm.enter_action,
                exit_action=algorithm.exit_action,
                threshold=threshold,
                has_depth=has_depth,
                seed=seed,
                steps_taken=events[-1].step + 1 if events else 0,
                snapshot_every=self.snapshot_every,
            )
            trace = trace_from_recorder(self.recorder, header)
            if self.trace_path:
                print(f"trace: {write_trace(self.trace_path, trace)}")
            analysis = analyze(trace)
            if self.metrics_out:
                path = write_analysis_metrics(self.metrics_out, analysis)
                print(f"metrics: {path}")
        if self.timer is not None:
            registry = MetricsRegistry()
            self.timer.publish(registry)
            path = write_metrics(
                self.timings_out,
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
        if analysis is not None:
            print("\n".join(analysis.lines()))


def cmd_trace(*, path: str, metrics_out: Optional[str], limit: int) -> int:
    """``repro trace``: replay a recorded trace offline through the same
    probes and print its summary — what the recording run printed — then,
    with ``limit``, its first events."""
    analysis = analyze(read_trace(path))
    print("\n".join(analysis.lines()))
    for event in analysis.trace.events[:limit]:
        print(str(event))
    if limit and len(analysis.trace.events) > limit:
        print(f"... ({len(analysis.trace.events) - limit} more events)")
    if metrics_out:
        print(f"metrics: {write_analysis_metrics(metrics_out, analysis)}")
    return 0
