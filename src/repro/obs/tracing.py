"""Causal tracing: Lamport clocks, spans, and the span JSONL artefact.

The paper's claims are ordering claims — neighbour exclusion, failure
locality 2, convergence after malicious crashes — but a live cluster only
has per-node wall clocks, which real networks skew.  This module gives the
runtime the classic remedy:

* a :class:`LamportClock` per node, ticked on every local event and merged
  (``max + 1``) on every delivery, so ``a happened-before b`` implies
  ``lc(a) < lc(b)`` across the whole cluster;
* :class:`Span` / :class:`SpanRecorder` — one span per lock-acquire
  lifecycle (request → fork negotiation → grant → release) plus a
  long-lived ``node`` root span per server incarnation, with sends,
  deliveries, retransmits, and chaos hits recorded as span events;
* a versioned span JSONL artefact (``source: "spans"``) written per node,
  which :mod:`repro.obs.timeline` merges into one happened-before-consistent
  global timeline offline.

Wall-clock fields (``t``) are environmental and never enter byte-identity
contracts; the deterministic part of a trace is its *order* — the
``(lc, node, seq)`` keys the timeline sorts by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..artefact import present, read_jsonl, skipped_note, tally, write_jsonl

#: Span name of the per-incarnation root span catching ambient traffic.
ROOT_SPAN = "node"


class LamportClock:
    """The scalar logical clock (Lamport 1978).

    ``tick`` stamps a local event; ``merge`` folds a received stamp in
    (``max(local, remote) + 1``), so the delivery counts as an event too.
    Both return the new value.  ``merge`` is monotone in both arguments and
    its result strictly exceeds them — the property test pins this.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        if value < 0:
            raise ValueError("a Lamport clock never runs backwards")
        self.value = value

    def tick(self) -> int:
        self.value += 1
        return self.value

    def merge(self, remote: int) -> int:
        self.value = max(self.value, int(remote)) + 1
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"LamportClock({self.value})"


@dataclass
class SpanEvent:
    """One point inside a span: a send, a delivery, a retransmit, a chaos
    hit, the grant, the release."""

    name: str
    lc: int
    t: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "lc": self.lc, "t": self.t,
                "detail": self.detail}


@dataclass
class Span:
    """One causal interval on one node.

    A span still open when the artefact is written keeps ``close_lc`` /
    ``close_t`` as ``None`` — a crash-interrupted soak truncates cleanly
    instead of losing the interval.
    """

    span_id: str
    name: str
    node: str
    epoch: int
    open_lc: int
    open_t: float
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    close_lc: Optional[int] = None
    close_t: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.close_lc is not None

    def duration_s(self) -> Optional[float]:
        if self.close_t is None:
            return None
        return round(self.close_t - self.open_t, 6)

    def first_event(self, name: str) -> Optional[SpanEvent]:
        for event in self.events:
            if event.name == name:
                return event
        return None

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "span": self.span_id,
            "name": self.name,
            "node": self.node,
            "epoch": self.epoch,
            "parent": self.parent,
            "open_lc": self.open_lc,
            "open_t": self.open_t,
            "close_lc": self.close_lc,
            "close_t": self.close_t,
            "attrs": self.attrs,
            "events": [e.to_json() for e in self.events],
        }


def span_from_json(row: Mapping[str, Any]) -> Optional[Span]:
    """A :class:`Span` from one artefact line, or ``None`` if malformed."""
    if row.get("kind") != "span":
        return None
    span_id = row.get("span")
    open_lc = row.get("open_lc")
    if not isinstance(span_id, str) or not isinstance(open_lc, int):
        return None
    events: List[SpanEvent] = []
    for raw in row.get("events") or ():
        if not isinstance(raw, dict) or not isinstance(raw.get("lc"), int):
            return None
        events.append(
            SpanEvent(
                name=str(raw.get("name", "?")),
                lc=raw["lc"],
                t=float(raw.get("t") or 0.0),
                detail=dict(raw.get("detail") or {}),
            )
        )
    return Span(
        span_id=span_id,
        name=str(row.get("name", "?")),
        node=str(row.get("node", "?")),
        epoch=int(row.get("epoch") or 0),
        open_lc=open_lc,
        open_t=float(row.get("open_t") or 0.0),
        parent=row.get("parent"),
        attrs=dict(row.get("attrs") or {}),
        events=events,
        close_lc=row.get("close_lc"),
        close_t=row.get("close_t"),
    )


class SpanRecorder:
    """Per-node span store; the node server drives it, the supervisor
    writes it out.  Survives restarts — the supervisor hands the same
    recorder to every incarnation of a node, with ``epoch`` telling the
    spans apart."""

    def __init__(self, node: str) -> None:
        self.node = node
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._counter = 0

    def open(
        self,
        name: str,
        *,
        lc: int,
        t: float,
        epoch: int = 0,
        parent: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        self._counter += 1
        span = Span(
            span_id=f"{self.node}/{epoch}/{self._counter}",
            name=name,
            node=self.node,
            epoch=epoch,
            open_lc=lc,
            open_t=t,
            parent=parent,
            attrs=dict(attrs or {}),
        )
        self.spans.append(span)
        self._open.append(span)
        return span

    def event(
        self,
        span: Optional[Span],
        name: str,
        *,
        lc: int,
        t: float,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        if span is None:
            return
        span.events.append(SpanEvent(name=name, lc=lc, t=t,
                                     detail=dict(detail or {})))

    def close(self, span: Optional[Span], *, lc: int, t: float) -> None:
        if span is None or span.closed:
            return
        span.close_lc = lc
        span.close_t = t
        try:
            self._open.remove(span)
        except ValueError:
            pass

    def current(self) -> Optional[Span]:
        """The span new events belong to: the newest open lifecycle span,
        falling back to the root span (ambient traffic)."""
        for span in reversed(self._open):
            if span.name != ROOT_SPAN:
                return span
        return self._open[-1] if self._open else None

    def open_spans(self) -> Tuple[Span, ...]:
        return tuple(self._open)

    def __len__(self) -> int:
        return len(self.spans)


# ------------------------------------------------------------------- JSONL


@dataclass(frozen=True)
class SpanFile:
    """A parsed span artefact."""

    header: Mapping[str, Any]
    spans: List[Span]
    #: Lines that were not valid span/header records (foreign or truncated).
    skipped: int = 0


def write_spans(
    path: Path | str,
    spans: "SpanRecorder | Iterable[Span]",
    *,
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    """One node's spans as versioned JSONL (atomic replace, fsynced so a
    teardown racing a SIGKILL still leaves the tail on disk)."""
    if isinstance(spans, SpanRecorder):
        node, rows = spans.node, spans.spans
    else:
        rows = list(spans)
        node = rows[0].node if rows else "?"
    head = {
        "source": "spans", "node": node, "spans": len(rows),
        **(header or {}),
    }
    return write_jsonl(path, "spans", head, (span.to_json() for span in rows))


def read_spans(path: Path | str) -> SpanFile:
    """Parse a span artefact leniently: bad lines are counted, not fatal."""
    header, rows, skipped = read_jsonl(path)
    spans = [span for span in map(span_from_json, rows) if span is not None]
    return SpanFile(
        header=header, spans=spans, skipped=skipped + len(rows) - len(spans)
    )


def summarize_spans(span_file: SpanFile) -> List[str]:
    """The ``repro stats`` lines for a span artefact."""
    spans = span_file.spans
    closed = sum(1 for s in spans if s.closed)
    events = sum(len(s.events) for s in spans)
    lines = [f"span log: {len(spans)} spans ({closed} closed, "
             f"{events} events)"]
    lines += present(span_file.header, ("node", "topology", "seed"))
    lines += tally((span.name for span in spans), " spans")
    return lines + skipped_note(span_file.skipped)
