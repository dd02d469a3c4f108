"""The corpus schedule-file format: versioned, canonical, self-contained.

``repro fuzz`` distils its worst finds into these files; ``repro cluster
soak --schedule-file`` replays them.  Like the BENCH artefacts, the format
carries an explicit ``format`` version so a reader can refuse documents it
does not understand instead of replaying something subtly different.

A schedule file is one JSON document:

* ``format`` — integer version (:data:`SCHEDULE_FORMAT_VERSION`);
* ``source`` — always ``"chaos-schedule"``;
* ``topology`` — the ``kind:arg`` spec the schedule was built against
  (the file is self-contained: the replayer reconstructs the graph from
  this, never from CLI flags);
* ``seed`` / ``duration_s`` — the :class:`~repro.net.chaos.ChaosSchedule`
  scalars;
* ``profiles`` — ``{"<src>-><dst>": {delay_s, jitter_s, drop_p, dup_p,
  reorder_p}}`` keyed by node ``repr``;
* ``events`` — the fault list in order; ``garbage`` bursts are hex-encoded
  so arbitrary bytes survive JSON;
* ``meta`` — free-form provenance (fuzzer seed, score, signature…), not
  interpreted on replay.

Writing is canonical — sorted keys, fixed separators, trailing newline,
atomic tmp-then-replace — so the fuzzer's determinism contract ("two runs,
byte-identical files") holds at the byte level, and corpus diffs in review
show real changes only.  Reading validates with
:func:`~repro.net.chaos.validate_schedule`, so a hand-edited corpus entry
that went structurally wrong fails loudly before a cluster boots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..artefact import KINDS, present, read_document, tally, write_atomic
from ..net.chaos import (
    ChaosSchedule,
    FaultEvent,
    Link,
    LinkProfile,
    validate_schedule,
)
from ..sim.topology import Pid, Topology, from_spec

__all__ = [
    "SCHEDULE_FORMAT_VERSION",
    "SCHEDULE_SOURCE",
    "ScheduleDoc",
    "read_schedule",
    "schedule_from_doc",
    "schedule_to_doc",
    "summarize_schedule",
    "write_schedule",
]

SCHEDULE_FORMAT_VERSION = KINDS["schedule"].format
SCHEDULE_SOURCE = "chaos-schedule"


@dataclass(frozen=True)
class ScheduleDoc:
    """A parsed schedule file, graph reconstructed and plan validated."""

    schedule: ChaosSchedule
    topology: Topology
    topology_spec: str
    meta: Dict[str, Any]


def schedule_to_doc(
    schedule: ChaosSchedule,
    *,
    topology_spec: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Render a schedule as the (JSON-ready) document dict."""
    events: List[Dict[str, Any]] = []
    for event in schedule.events:
        body: Dict[str, Any] = {
            "at_s": round(event.at_s, 6),
            "kind": event.kind,
            "links": [[repr(a), repr(b)] for a, b in event.links],
        }
        if event.node is not None:
            body["node"] = repr(event.node)
        if event.garbage:
            body["garbage"] = [g.hex() for g in event.garbage]
        events.append(body)
    return {
        "format": SCHEDULE_FORMAT_VERSION,
        "source": SCHEDULE_SOURCE,
        "topology": topology_spec,
        "seed": schedule.seed,
        "duration_s": schedule.duration_s,
        "profiles": {
            f"{a!r}->{b!r}": {
                "delay_s": p.delay_s,
                "jitter_s": p.jitter_s,
                "drop_p": p.drop_p,
                "dup_p": p.dup_p,
                "reorder_p": p.reorder_p,
            }
            for (a, b), p in sorted(
                schedule.profiles.items(), key=lambda kv: repr(kv[0])
            )
        },
        "events": events,
        "meta": dict(meta or {}),
    }


def _pid_of(token: str, by_repr: Dict[str, Pid], context: str) -> Pid:
    try:
        return by_repr[token]
    except KeyError:
        raise ValueError(
            f"{context}: node {token!r} is not in the document's topology"
        ) from None


def schedule_from_doc(doc: Dict[str, Any]) -> ScheduleDoc:
    """Reconstruct schedule + graph from a document dict; validates."""
    if not isinstance(doc, dict):
        raise ValueError("schedule document must be a JSON object")
    version = doc.get("format")
    if version != SCHEDULE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported schedule format {version!r} "
            f"(this build reads format {SCHEDULE_FORMAT_VERSION})"
        )
    spec = doc.get("topology")
    if not isinstance(spec, str) or not spec:
        raise ValueError("schedule document lacks a topology spec")
    topology = from_spec(spec)
    by_repr = {repr(p): p for p in topology.nodes}

    profiles: Dict[Link, LinkProfile] = {}
    for key, fields in (doc.get("profiles") or {}).items():
        src, _, dst = key.partition("->")
        link = (
            _pid_of(src, by_repr, f"profile {key!r}"),
            _pid_of(dst, by_repr, f"profile {key!r}"),
        )
        profiles[link] = LinkProfile(**fields)

    events: List[FaultEvent] = []
    for i, body in enumerate(doc.get("events") or []):
        context = f"event #{i}"
        links: Tuple[Link, ...] = tuple(
            (
                _pid_of(a, by_repr, context),
                _pid_of(b, by_repr, context),
            )
            for a, b in body.get("links", [])
        )
        node = body.get("node")
        events.append(
            FaultEvent(
                at_s=float(body["at_s"]),
                kind=body["kind"],
                links=links,
                node=None if node is None else _pid_of(node, by_repr, context),
                garbage=tuple(bytes.fromhex(g) for g in body.get("garbage", [])),
            )
        )

    schedule = ChaosSchedule(
        seed=int(doc.get("seed", 0)),
        duration_s=float(doc["duration_s"]),
        profiles=profiles,
        events=tuple(events),
    )
    validate_schedule(schedule)
    return ScheduleDoc(
        schedule=schedule,
        topology=topology,
        topology_spec=spec,
        meta=dict(doc.get("meta") or {}),
    )


def write_schedule(
    path: Path | str,
    schedule: ChaosSchedule,
    *,
    topology_spec: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Serialise canonically (atomic write, fsynced); returns the path."""
    doc = schedule_to_doc(schedule, topology_spec=topology_spec, meta=meta)
    body = json.dumps(doc, sort_keys=True, indent=1)
    # Round-trip before committing bytes: a schedule we cannot read back is
    # a corpus entry CI can never replay.
    schedule_from_doc(json.loads(body))
    return write_atomic(path, [body])


def read_schedule(path: Path | str, document: Any = None) -> ScheduleDoc:
    """Load + validate one schedule file."""
    doc = read_document(path, document)
    try:
        return schedule_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def summarize_schedule(doc: ScheduleDoc) -> List[str]:
    """The ``repro stats`` lines for a schedule file."""
    schedule = doc.schedule
    lines = [
        f"chaos schedule: {doc.topology_spec} seed={schedule.seed}, "
        f"{len(schedule.events)} events over {schedule.duration_s}s",
        f"  format: {SCHEDULE_FORMAT_VERSION}",
    ]
    lines += tally(event.kind for event in schedule.events)
    fuzz = doc.meta.get("fuzz")
    if isinstance(fuzz, dict):
        lines += present(
            fuzz, ("origin", "rank", "tool_seed", "budget", "executed"),
            indent="  fuzz ",
        )
    return lines
