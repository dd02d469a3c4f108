"""Campaign trial records and their JSONL encoding.

A campaign's unit of work is a *shard*; running a shard produces one
:class:`TrialRecord`.  Records are streamed to disk as JSON Lines so a
campaign that dies mid-flight loses at most the line being written — the
checkpoint layer (:mod:`repro.campaign.checkpoint`) recovers every complete
line and the runner re-executes only the missing shards.

Determinism contract
--------------------

A record splits into two parts:

* the **canonical part** — ``key``, ``kind``, ``params``, ``seed``,
  ``result`` — a pure function of the shard definition.  Re-running the same
  shard always reproduces it byte for byte (canonical JSON: sorted keys,
  compact separators).
* the **meta part** — ``duration_s`` (per-shard wall time), worker pid,
  engine step counts — useful for profiling a sweep but excluded from the
  determinism contract and from every aggregate.

``canonical_line`` strips the meta part; the determinism regression tests
and the checkpoint digest both operate on canonical lines only.

Format history
--------------

* **v1** — canonical fields plus an opaque ``meta`` object.
* **v2** (current) — per-shard wall time is promoted to a first-class
  ``duration_s`` field (written only with ``include_meta``; still outside
  the canonical part).  The loader accepts both versions, pulling a v1
  record's duration out of its ``meta`` object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from ..artefact import (
    CANONICAL,
    KINDS,
    read_jsonl,
    skipped_note,
    tally,
    write_atomic,
)

FORMAT_VERSION = KINDS["records"].format

#: Format versions :func:`parse_line` accepts.
ACCEPTED_FORMATS = tuple(range(1, FORMAT_VERSION + 1))

def canonical_json(payload: Any) -> str:
    """Deterministic JSON text for ``payload`` (sorted keys, compact)."""
    return json.dumps(payload, **CANONICAL)


def shard_key(kind: str, params: Mapping[str, Any], seed: int) -> str:
    """Stable identity of one shard: sha1 over its canonical definition.

    The key is what checkpoint/resume matches on, so it must not depend on
    dict ordering, worker assignment, or anything else environmental.
    """
    digest = hashlib.sha1(
        canonical_json({"kind": kind, "params": dict(params), "seed": seed}).encode()
    )
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TrialRecord:
    """One completed shard: its definition, its result, and optional meta."""

    key: str
    kind: str
    params: Mapping[str, Any]
    seed: int
    result: Mapping[str, Any]
    meta: Optional[Mapping[str, Any]] = field(default=None, compare=False)
    #: Wall-clock seconds the shard took (format v2); environmental, so
    #: excluded from equality and from the canonical line like ``meta``.
    duration_s: Optional[float] = field(default=None, compare=False)

    def canonical_payload(self) -> Dict[str, Any]:
        """The deterministic part of the record, ready for JSON."""
        return {
            "format": FORMAT_VERSION,
            "key": self.key,
            "kind": self.kind,
            "params": dict(self.params),
            "seed": self.seed,
            "result": dict(self.result),
        }

    def to_line(self, *, include_meta: bool = True) -> str:
        """One JSONL line (no trailing newline)."""
        payload = self.canonical_payload()
        if include_meta:
            if self.duration_s is not None:
                payload["duration_s"] = self.duration_s
            if self.meta is not None:
                payload["meta"] = dict(self.meta)
        return canonical_json(payload)

    def canonical_line(self) -> str:
        """The record's deterministic JSONL form (meta stripped)."""
        return self.to_line(include_meta=False)


def parse_line(line: str) -> Optional[TrialRecord]:
    """Decode one JSONL line; None for blank, truncated, or foreign lines.

    Tolerance here is what makes resume-after-kill work: a campaign killed
    mid-write leaves a final partial line, which simply parses as None and
    gets re-executed.
    """
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or payload.get("format") not in ACCEPTED_FORMATS:
        return None
    meta = payload.get("meta")
    duration_s = payload.get("duration_s")
    if duration_s is None and isinstance(meta, dict):
        # v1 records kept the duration inside the opaque meta object.
        duration_s = meta.get("duration_s")
    try:
        return TrialRecord(
            key=payload["key"],
            kind=payload["kind"],
            params=payload["params"],
            seed=payload["seed"],
            result=payload["result"],
            meta=meta,
            duration_s=duration_s,
        )
    except KeyError:
        return None


class Records(list):
    """:func:`read_records`' list, plus ``skipped``: the non-blank lines
    that were not a record (torn or foreign)."""

    skipped = 0


def read_records(path: Path | str) -> Records:
    """Every complete record in ``path`` (missing file ⇒ empty list)."""
    path = Path(path)
    records = Records()
    if not path.exists():
        return records
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            record = parse_line(line)
            if record is not None:
                records.append(record)
            elif line.strip():
                records.skipped += 1
    return records


def iter_lines(
    records: Mapping[str, TrialRecord] | List[TrialRecord],
    *,
    include_meta: bool = True,
) -> Iterator[str]:
    """Records as JSONL lines in canonical (key-sorted) order."""
    if isinstance(records, Mapping):
        ordered = [records[k] for k in sorted(records)]
    else:
        ordered = sorted(records, key=lambda r: r.key)
    for record in ordered:
        yield record.to_line(include_meta=include_meta)


def write_records(
    path: Path | str,
    records: Mapping[str, TrialRecord] | List[TrialRecord],
    *,
    include_meta: bool = True,
) -> None:
    """Atomically (re)write ``path`` with records in canonical order.

    Used by the runner's finalize step so a finished campaign file is a
    deterministic function of its shard set, however execution interleaved.
    """
    write_atomic(path, iter_lines(records, include_meta=include_meta))


def summarize_records(records: Records) -> List[str]:
    """The ``repro stats`` lines for a campaign records file."""
    if not records:
        raise ValueError("no complete campaign record")
    lines = [f"campaign records: {len(records)}"]
    lines += tally((record.kind for record in records), " shards")
    lines += _duration_line(r.duration_s for r in records)
    return lines + skipped_note(records.skipped)


def _duration_line(seconds: Iterable[Optional[float]]) -> List[str]:
    """The ``duration_s`` line of a campaign summary (none without one)."""
    durations = [s for s in seconds if s is not None]
    if not durations:
        return []
    return [
        f"  duration_s: total {sum(durations):.3f}, "
        f"mean {sum(durations) / len(durations):.3f}, "
        f"max {max(durations):.3f}"
    ]


class CampaignTraceLog:
    """``sweep --trace``: a JSONL log of shard completions with durations.

    The campaign-granularity sibling of an engine trace: one header line,
    then one line per completed shard in completion order — the timeline a
    profiler wants, complementary to the key-ordered records file.  Read
    back with :func:`~repro.artefact.read_jsonl`.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "format": KINDS["campaign-trace"].format,
                "kind": "header",
                "source": "campaign-trace",
            }
        )

    def _write(self, payload: dict) -> None:
        self._handle.write(canonical_json(payload) + "\n")
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


def summarize_campaign_trace(parsed) -> List[str]:
    """The ``repro stats`` lines for a ``sweep --trace`` log."""
    _header, rows, skipped = parsed
    shards = [row for row in rows if row.get("kind") == "shard"]
    lines = [f"campaign trace: {len(shards)} shards completed"]
    lines += tally((str(row.get("shard_kind")) for row in shards), " shards")
    lines += _duration_line(row.get("duration_s") for row in shards)
    return lines + skipped_note(skipped)
