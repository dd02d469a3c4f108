"""The flight recorder: a bounded black box every node carries.

Post-mortems of a crashed or violating soak currently depend on full
artefacts (event logs, span files) written at teardown — exactly the
moment a crash can destroy.  A :class:`FlightRecorder` is the aircraft
answer: a fixed-capacity ring of the most recent happenings (collected
event rows, decoded/sent wire frames), one per node, kept in memory at
near-zero cost and dumped atomically the instant something goes wrong —
a soak safety violation, an SLO budget exhaustion, a node crash, a
client watchdog stall, or SIGTERM.

A dump is a self-contained ``flight-<node>.jsonl``: a header naming the
trigger, the node's recent spans (so ``repro timeline`` can merge the
black boxes into a causally ordered walk-back — its merge tolerates the
truncated window because unmatched sends are skipped, not fatal), then
the ring's records oldest-first.  The write path is the same
tmp + flush + fsync + atomic-replace sequence as
:func:`repro.obs.tracing.write_spans`, so a dump racing a SIGKILL still
leaves a complete file or none, never a torn one.

Recording must be cheap enough to stay armed always: at most one dict
build and one ``deque.append`` per happening, no I/O, no serialization
until a dump is actually triggered.  CI gates the armed overhead under
10% on the ``engine/steps/ring16`` and ``net/codec/roundtrip`` kernels
(``REPRO_FLIGHT=1``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..artefact import present, read_jsonl, skipped_note, tally, write_jsonl
from .tracing import Span, span_from_json

#: ``source`` value of the flight-dump artefact family.
FLIGHT_SOURCE = "flight"
#: Default ring size — enough history to walk back a violation, small
#: enough that N rings cost nothing against a soak's footprint.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity ring of one node's recent happenings.

    ``note_event`` takes the supervisor's collected row shape
    (``{"t", "node", "event", "detail"?}``); ``note_trace`` takes an engine
    occurrence's fields (it is an ``EventBus.tap``); ``note_frame`` takes a
    wire frame summary; ``note`` is the raw escape hatch.  The ring drops the
    oldest record on overflow — ``recorded`` minus ``len`` says how many
    were lost to the bound.
    """

    __slots__ = ("node", "capacity", "recorded", "_ring")

    def __init__(self, node: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.node = node
        self.capacity = capacity
        self.recorded = 0
        self._ring: "deque[Dict[str, Any] | tuple]" = deque(maxlen=capacity)

    # The note_* paths stay call-flat (no delegation, one dict literal,
    # one append) — they run on every frame of every armed node, and CI
    # gates the armed kernels under a 10% overhead budget.

    def note(self, record: Dict[str, Any]) -> None:
        self.recorded += 1
        self._ring.append(record)

    def note_event(self, row: Mapping[str, Any]) -> None:
        detail = row.get("detail")
        if detail:
            self._ring.append(
                {"rec": "event", "t": row.get("t", 0.0),
                 "event": row.get("event"), "detail": detail}
            )
        else:
            self._ring.append(
                {"rec": "event", "t": row.get("t", 0.0),
                 "event": row.get("event")}
            )
        self.recorded += 1

    def note_trace(self, step: int, kind: Any, pid: Any, detail: Any) -> None:
        """An engine occurrence, straight off ``EventBus.tap``: kept as the
        bare tuple — :meth:`records` renders the row — so an armed engine
        pays one append per step."""
        self._ring.append((step, kind, pid, detail))
        self.recorded += 1

    def note_frame(
        self, t: float, direction: str, frame_type: Any, peer: Any = None
    ) -> None:
        if peer is None:
            self._ring.append(
                {"rec": "frame", "t": t, "dir": direction, "type": frame_type}
            )
        else:
            self._ring.append(
                {"rec": "frame", "t": t, "dir": direction,
                 "type": frame_type, "peer": peer}
            )
        self.recorded += 1

    def records(self) -> List[Dict[str, Any]]:
        """The ring's contents as rows, oldest first."""
        return [
            record if isinstance(record, dict) else _trace_row(*record)
            for record in self._ring
        ]

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


def _trace_row(step: int, kind: Any, pid: Any, detail: Any) -> Dict[str, Any]:
    row = {"rec": "event", "t": step, "event": kind.value, "pid": pid}
    if detail is not None:
        row["detail"] = detail
    return row


# ------------------------------------------------------------------- JSONL


@dataclass(frozen=True)
class FlightFile:
    """A parsed flight dump."""

    header: Mapping[str, Any]
    spans: List[Span]
    records: List[Dict[str, Any]]
    skipped: int = 0


def dump_flight(
    path: Path | str,
    recorder: FlightRecorder,
    *,
    reason: str,
    tracer: Any = None,
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write one node's black box (atomic replace, fsynced).

    ``tracer`` is the node's :class:`~repro.obs.tracing.SpanRecorder`, if
    tracing is on; its most recent ``capacity`` spans ride along so the
    dump merges into a timeline without the full span artefact.
    """
    spans = [] if tracer is None else list(tracer.spans)[-recorder.capacity:]
    head = {
        "source": FLIGHT_SOURCE,
        "node": recorder.node,
        "reason": reason,
        "records": len(recorder),
        "dropped": recorder.dropped,
        "capacity": recorder.capacity,
        "spans": len(spans),
        **(header or {}),
    }
    rows = chain(
        (span.to_json() for span in spans),
        ({"kind": "record", **record} for record in recorder.records()),
    )
    return write_jsonl(path, "flight", head, rows)


def read_flight(path: Path | str) -> FlightFile:
    """Parse a flight dump leniently: bad lines are counted, not fatal."""
    header, rows, skipped = read_jsonl(path)
    records = [
        {k: v for k, v in row.items() if k != "kind"}
        for row in rows if row.get("kind") == "record"
    ]
    spans = [span for span in map(span_from_json, rows) if span is not None]
    return FlightFile(header=header, spans=spans, records=records,
                      skipped=skipped + len(rows) - len(records) - len(spans))


def summarize_flight(flight: FlightFile) -> List[str]:
    """The ``repro stats`` lines for a flight dump."""
    header = flight.header
    lines = [f"flight dump: node {header.get('node', '?')} — "
             f"reason {header.get('reason', '?')}"]
    lines += present(header, ("topology", "seed", "capacity", "dropped"))
    lines.append(f"  spans: {len(flight.spans)}")
    lines.append(f"  records: {len(flight.records)}")
    lines += tally(
        (r.get("event") or r.get("rec", "?") for r in flight.records),
        indent="    ",
    )
    return lines + skipped_note(flight.skipped)
