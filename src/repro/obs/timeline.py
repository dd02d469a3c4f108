"""The offline timeline: merge per-node span logs into one causal order.

``repro timeline`` feeds every node's span artefact through this module:

* :func:`merge_timeline` flattens spans to entries and sorts them by
  ``(lc, node, seq)`` — a happened-before-consistent total order (Lamport's
  construction), deterministic under any permutation of the input files
  (the property test pins this);
* :func:`causality_report` rebuilds the happened-before graph (program
  order per node + matched send→recv message edges) and checks it is
  acyclic with strictly increasing clocks along every edge — a cycle or an
  inversion means the trace is corrupted (clock tampering, a mis-merged
  file, or a byzantine node forging stamps);
* :func:`attribute_grants` splits each granted acquire's latency into
  queueing (request to first fork traffic), chaos-induced retransmit
  (gaps closed only by re-sending), and fork transfer (the rest);
* :func:`reconstruct_violations` walks a soak's neighbour-exclusion
  overlaps back to the spans that were open across them, localising an
  injected byzantine violation to the subverted node's spans.

Timeline artefacts (``source: "timeline"``) are canonical JSONL and
byte-stable for a given set of span files.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..artefact import expand, load, read_jsonl, skipped_note, tally, write_jsonl
from .slo import LockState, exclusion_audit, in_time_order, log_end_t
from .tracing import Span, SpanEvent


@dataclass(frozen=True)
class TimelineEntry:
    """One point of the global order: a span open/close or a span event."""

    lc: int
    node: str
    seq: int  #: program-order index within the node (assigned by the merge)
    span: str
    name: str  #: the owning span's name
    ev: str  #: ``open`` / ``close`` / the span-event name
    t: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> Tuple[int, str, int]:
        return (self.lc, self.node, self.seq)

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": "entry",
            "lc": self.lc,
            "node": self.node,
            "seq": self.seq,
            "span": self.span,
            "name": self.name,
            "ev": self.ev,
            "t": self.t,
            "detail": self.detail,
        }


def _node_entries(node: str, spans: Sequence[Span]) -> List[TimelineEntry]:
    """One node's entries in program order (its clock ticks every recorded
    event, so sorting by lc recovers the order events happened in; the sort
    is stable, so a corrupted file with duplicate stamps still yields a
    deterministic — and flagged — order)."""
    raw: List[Tuple[int, str, str, str, float, Dict[str, Any]]] = []
    for span in spans:
        raw.append((span.open_lc, span.span_id, span.name, "open",
                    span.open_t, dict(span.attrs)))
        for event in span.events:
            raw.append((event.lc, span.span_id, span.name, event.name,
                        event.t, dict(event.detail)))
        if span.close_lc is not None:
            raw.append((span.close_lc, span.span_id, span.name, "close",
                        span.close_t or 0.0, {}))
    raw.sort(key=lambda item: item[0])
    return [
        TimelineEntry(lc=lc, node=node, seq=i, span=span_id, name=name,
                      ev=ev, t=t, detail=detail)
        for i, (lc, span_id, name, ev, t, detail) in enumerate(raw)
    ]


def merge_timeline(
    spans_by_node: Mapping[str, Sequence[Span]]
) -> List[TimelineEntry]:
    """All nodes' spans as one ``(lc, node, seq)``-ordered timeline.

    The output is a pure function of the *set* of per-node span lists —
    feeding the files in any order produces identical entries.
    """
    entries: List[TimelineEntry] = []
    for node in sorted(spans_by_node):
        entries.extend(_node_entries(node, spans_by_node[node]))
    entries.sort(key=TimelineEntry.sort_key)
    return entries


# -------------------------------------------------------------- causality


@dataclass
class CausalityReport:
    """What the happened-before reconstruction found."""

    entries: int = 0
    matched_messages: int = 0
    violations: List[str] = field(default_factory=list)
    acyclic: bool = True

    @property
    def ok(self) -> bool:
        return self.acyclic and not self.violations


def causality_report(entries: Sequence[TimelineEntry]) -> CausalityReport:
    """Check the merged timeline is a consistent causal history.

    Rebuilds the happened-before graph — program-order edges within each
    node plus one edge per matched ``send``→``recv`` pair (matched on the
    per-link sequence number the transport already stamps) — and requires
    (a) strictly increasing clocks along every edge and (b) an acyclic
    graph (Kahn's algorithm).  Any failure means the trace is corrupted.
    """
    report = CausalityReport(entries=len(entries))
    by_node: Dict[str, List[TimelineEntry]] = {}
    for entry in entries:
        by_node.setdefault(entry.node, []).append(entry)

    ids: Dict[Tuple[str, int], int] = {}
    for node, rows in by_node.items():
        rows.sort(key=lambda e: e.seq)
        for row in rows:
            ids[(node, row.seq)] = len(ids)
    edges: List[Tuple[int, int]] = []

    for node, rows in by_node.items():
        for prev, nxt in zip(rows, rows[1:]):
            edges.append((ids[(node, prev.seq)], ids[(node, nxt.seq)]))
            if nxt.lc <= prev.lc:
                report.violations.append(
                    f"program-order inversion at {node} seq {nxt.seq}: "
                    f"lc {nxt.lc} after lc {prev.lc}"
                )

    sends: Dict[Tuple[str, str, int], TimelineEntry] = {}
    recvs: Dict[Tuple[str, str, int], TimelineEntry] = {}
    for entry in entries:
        seq = entry.detail.get("seq")
        if not isinstance(seq, int):
            continue
        if entry.ev == "send" and "dst" in entry.detail:
            sends[(entry.node, str(entry.detail["dst"]), seq)] = entry
        elif entry.ev == "recv" and "src" in entry.detail:
            recvs[(str(entry.detail["src"]), entry.node, seq)] = entry
    for key, send in sends.items():
        recv = recvs.get(key)
        if recv is None:
            continue  # dropped by chaos, or the peer's log was truncated
        report.matched_messages += 1
        edges.append((ids[(send.node, send.seq)], ids[(recv.node, recv.seq)]))
        if recv.lc <= send.lc:
            report.violations.append(
                f"message inversion {send.node}->{recv.node} seq {key[2]}: "
                f"recv lc {recv.lc} <= send lc {send.lc}"
            )

    # Kahn's algorithm over the combined graph.
    indegree = [0] * len(ids)
    outgoing: Dict[int, List[int]] = {}
    for a, b in edges:
        outgoing.setdefault(a, []).append(b)
        indegree[b] += 1
    queue = deque(i for i, d in enumerate(indegree) if d == 0)
    processed = 0
    while queue:
        a = queue.popleft()
        processed += 1
        for b in outgoing.get(a, ()):  # noqa: B909 - static graph
            indegree[b] -= 1
            if indegree[b] == 0:
                queue.append(b)
    report.acyclic = processed == len(ids)
    if not report.acyclic:
        report.violations.append(
            f"happened-before cycle: {len(ids) - processed} entries "
            "unreachable by topological sort"
        )
    return report


# ------------------------------------------------------------ attribution

#: Span events that are fork-negotiation traffic.
_MSG_EVENTS = ("send", "recv")


@dataclass(frozen=True)
class GrantAttribution:
    """Where one granted acquire's latency went."""

    span: str
    node: str
    total_s: float
    queue_s: float  #: request accepted → first fork traffic
    retransmit_s: float  #: waiting closed only by re-sending (chaos-induced)
    transfer_s: float  #: the remaining fork-negotiation time
    retransmits: int


def attribute_grants(
    spans_by_node: Mapping[str, Sequence[Span]]
) -> List[GrantAttribution]:
    """Latency attribution for every span that reached its grant."""
    out: List[GrantAttribution] = []
    for node in sorted(spans_by_node):
        for span in spans_by_node[node]:
            grant = span.first_event("grant")
            if grant is None:
                continue
            total = max(0.0, grant.t - span.open_t)
            first_msg = next(
                (e for e in span.events
                 if e.name in _MSG_EVENTS and e.t <= grant.t),
                None,
            )
            queue = total if first_msg is None else max(
                0.0, min(total, first_msg.t - span.open_t)
            )
            retransmit = 0.0
            retransmits = 0
            prev_t = span.open_t
            for event in span.events:
                if event.t > grant.t:
                    break
                if event.name == "retransmit":
                    retransmits += 1
                    retransmit += max(0.0, event.t - prev_t)
                prev_t = event.t
            retransmit = min(retransmit, max(0.0, total - queue))
            transfer = max(0.0, total - queue - retransmit)
            out.append(
                GrantAttribution(
                    span=span.span_id,
                    node=node,
                    total_s=round(total, 6),
                    queue_s=round(queue, 6),
                    retransmit_s=round(retransmit, 6),
                    transfer_s=round(transfer, 6),
                    retransmits=retransmits,
                )
            )
    return out


def attribution_by_node(
    attributions: Iterable[GrantAttribution],
) -> Dict[str, Dict[str, float]]:
    """Per-node totals of the attribution buckets."""
    totals: Dict[str, Dict[str, float]] = {}
    for attribution in attributions:
        row = totals.setdefault(
            attribution.node,
            {"grants": 0, "total_s": 0.0, "queue_s": 0.0,
             "retransmit_s": 0.0, "transfer_s": 0.0, "retransmits": 0},
        )
        row["grants"] += 1
        row["total_s"] = round(row["total_s"] + attribution.total_s, 6)
        row["queue_s"] = round(row["queue_s"] + attribution.queue_s, 6)
        row["retransmit_s"] = round(
            row["retransmit_s"] + attribution.retransmit_s, 6
        )
        row["transfer_s"] = round(row["transfer_s"] + attribution.transfer_s, 6)
        row["retransmits"] += attribution.retransmits
    return totals


# ----------------------------------------------------------- violations


def reconstruct_violations(
    topology,
    events: Sequence[Mapping[str, Any]],
    spans_by_node: Mapping[str, Sequence[Span]],
    *,
    end_t: float,
    exclude: Sequence[str] = (),
    byzantine: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """Each neighbour-exclusion overlap of a soak, walked back to spans.

    Runs the run's own audit (:func:`~repro.obs.slo.exclusion_audit`)
    over a fold of the event log, then finds, for both nodes of every
    overlap, the spans that were open across it.  A node from
    ``byzantine`` is named as the localisation — its spans *are* the
    violation's causal context.
    """
    state = LockState(topology)
    for event in in_time_order(events):
        state.feed(event)
    violations = exclusion_audit(state, end_t, exclude).violations
    byz = set(byzantine)
    out: List[Dict[str, Any]] = []
    for violation in violations:
        spans: Dict[str, List[str]] = {}
        for node in (violation.node_a, violation.node_b):
            hits = []
            for span in spans_by_node.get(node, ()):
                close_t = span.close_t if span.close_t is not None else end_t
                if (span.open_t <= violation.overlap_end
                        and close_t >= violation.overlap_start):
                    hits.append(span.span_id)
            spans[node] = hits
        out.append(
            {
                "node_a": violation.node_a,
                "node_b": violation.node_b,
                "start": violation.overlap_start,
                "end": violation.overlap_end,
                "spans": spans,
                "byzantine": sorted(
                    n for n in (violation.node_a, violation.node_b) if n in byz
                ),
            }
        )
    return out


# ------------------------------------------------------------------- JSONL


@dataclass(frozen=True)
class TimelineFile:
    """A parsed timeline artefact."""

    header: Mapping[str, Any]
    entries: List[TimelineEntry]
    skipped: int = 0


def write_timeline(
    path: Path | str,
    entries: Sequence[TimelineEntry],
    *,
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    """The merged timeline as canonical JSONL — byte-stable for a given
    span-file set, which the CI trace-smoke job enforces with ``cmp``."""
    nodes = sorted({entry.node for entry in entries})
    head = {
        "source": "timeline", "nodes": nodes, "entries": len(entries),
        **(header or {}),
    }
    return write_jsonl(
        path, "timeline", head, (entry.to_json() for entry in entries)
    )


def read_timeline(path: Path | str) -> TimelineFile:
    """Parse a timeline artefact leniently (bad lines counted, not fatal)."""
    header, rows, skipped = read_jsonl(path)
    entries: List[TimelineEntry] = []
    for row in rows:
        if row.get("kind") == "entry" and isinstance(row.get("lc"), int):
            entries.append(
                TimelineEntry(
                    lc=row["lc"],
                    node=str(row.get("node", "?")),
                    seq=int(row.get("seq") or 0),
                    span=str(row.get("span", "?")),
                    name=str(row.get("name", "?")),
                    ev=str(row.get("ev", "?")),
                    t=float(row.get("t") or 0.0),
                    detail=dict(row.get("detail") or {}),
                )
            )
        else:
            skipped += 1
    return TimelineFile(header=header, entries=entries, skipped=skipped)


def _spans_of(entries: Sequence[TimelineEntry]) -> Dict[str, List[Span]]:
    """The spans behind a timeline's entries, per node, as far as
    :func:`attribute_grants` reads them: id, open time and the span's
    events in program order."""
    ordered = sorted(entries, key=lambda e: (e.node, e.seq))
    spans: Dict[str, Dict[str, Span]] = {}
    for e in ordered:
        if e.ev == "open":
            spans.setdefault(e.node, {})[e.span] = Span(
                e.span, e.name, e.node, 0, e.lc, e.t
            )
    for e in ordered:
        span = spans.get(e.node, {}).get(e.span)
        if span is not None and e.ev not in ("open", "close"):
            span.events.append(SpanEvent(e.ev, e.lc, e.t, e.detail))
    return {node: list(by_id.values()) for node, by_id in spans.items()}


def summarize_timeline(timeline: TimelineFile) -> List[str]:
    """The one rendering of a merged timeline: what ``repro timeline``
    prints, and ``repro stats`` prints on the artefact it wrote — the
    causality check and the grant-latency attribution, re-derived from
    the entries."""
    entries = timeline.entries
    lines = _timeline_lines(
        entries, _spans_of(entries), causality_report(entries)
    )
    return lines + skipped_note(timeline.skipped)


def _timeline_lines(
    entries: Sequence[TimelineEntry],
    spans_by_node: Mapping[str, Sequence[Span]],
    report: CausalityReport,
) -> List[str]:
    """:func:`summarize_timeline`'s lines from the entries, the spans
    behind them and their causality report."""
    spans = sum(len(node_spans) for node_spans in spans_by_node.values())
    lo, hi = (entries[0].lc, entries[-1].lc) if entries else (0, 0)
    lines = [
        f"timeline: {len({e.node for e in entries})} nodes, {spans} spans, "
        f"{len(entries)} entries, lc {lo}..{hi}"
    ]
    if report.ok:
        lines.append(f"causality: OK ({report.matched_messages} matched messages)")
    else:
        lines.append(f"causality: CORRUPTED ({len(report.violations)} violations)")
        lines += [f"  {violation}" for violation in report.violations[:10]]
    attributions = attribute_grants(spans_by_node)
    for node, row in sorted(attribution_by_node(attributions).items()):
        lines.append(
            f"  {node}: {row['grants']} grants, total {row['total_s']:.3f}s "
            f"= queue {row['queue_s']:.3f}s + transfer {row['transfer_s']:.3f}s"
            f" + retransmit {row['retransmit_s']:.3f}s "
            f"({row['retransmits']} retransmits)"
        )
    return lines + tally(entry.ev for entry in entries)


#: The artefact kinds that carry spans, i.e. what ``repro timeline`` merges.
SPAN_KINDS = ("spans", "flight")


def cmd_timeline(
    *, paths: Sequence[str], events: Optional[str], out: Optional[str], limit: int,
) -> int:
    """``repro timeline``: merge per-node span logs (files, or ``--trace``
    / ``--flight`` directories) into one happened-before-consistent
    timeline and print its summary; with ``events`` (a soak's event log),
    walk each exclusion violation back to the spans open across it.
    Exit 1 when causality is corrupted."""
    spans_by_node: Dict[str, List[Span]] = {}
    for path in expand(paths, SPAN_KINDS):
        row, parsed = load(path)
        if row.name not in SPAN_KINDS:
            raise ValueError(f"{path}: {row.name} is not a span artefact")
        for span in parsed.spans:
            spans_by_node.setdefault(span.node, []).append(span)
    entries = merge_timeline(spans_by_node)
    report = causality_report(entries)
    header = {"causality_ok": report.ok, "matched_messages": report.matched_messages}
    print("\n".join(_timeline_lines(entries, spans_by_node, report)))
    if events:
        # Deferred: repro.net imports repro.obs at package init.
        from ..net.cluster import read_cluster_events
        from ..sim.topology import from_spec

        log_header, rows, _ = read_cluster_events(events)
        if not log_header.get("topology"):
            raise ValueError(f"{events}: event log has no topology")
        reconstructed = reconstruct_violations(
            from_spec(log_header["topology"]),
            rows,
            spans_by_node,
            end_t=log_end_t(log_header, rows),
            exclude=log_header.get("killed") or (),
            byzantine=log_header.get("byzantine") or (),
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
    for entry in entries[:limit]:
        detail = json.dumps(entry.detail, sort_keys=True)
        print(
            f"  lc={entry.lc} {entry.node} {entry.name}/{entry.ev} "
            f"span={entry.span} {detail}"
        )
    if limit and len(entries) > limit:
        print(f"  ... ({len(entries) - limit} more entries)")
    if out:
        path = write_timeline(out, entries, header=header)
        print(f"timeline artefact: {path}")
    return 0 if report.ok else 1
