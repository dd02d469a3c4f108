"""The one place that knows what an on-disk artefact is.

Every file the toolkit writes states its kind once, in its first JSON
object, and every consumer goes through the same few names:

* :data:`KINDS` — the table, one row per kind: its tag, the newest
  ``format`` this tool reads, its directory glob, and the names of its
  reader, ``repro stats`` summary and SLO intake (imported on first use,
  so importing this module loads nothing else);
* :func:`identify` — one look at the file, one version rule, one row
  back or a one-line reason; :func:`load` adds the row's reader, handing
  it the document identification already parsed;
* :func:`read_jsonl` / :func:`read_document` — the lenient line loop
  (a soak cut short by a malicious crash leaves a torn or garbage tail;
  such lines are counted, not fatal) and the strict whole-file parse;
* :func:`write_jsonl` / :func:`write_atomic` — a reader never sees a
  half-written file, a teardown racing a SIGKILL keeps the tail;
* :func:`expand` — directory arguments to the files of the wanted kinds;
* :func:`cmd_stats` — ``repro stats``, a kind's summary of any file.
"""

from __future__ import annotations

import fnmatch
import importlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: ``json.dumps`` keywords of the canonical (byte-stable) encoding.
CANONICAL = dict(sort_keys=True, separators=(",", ":"))


def write_atomic(path: Path | str, lines: Iterable[str]) -> Path:
    """Write ``lines`` (newline-terminated here) to ``path``: parents
    created, written to ``*.tmp``, flushed and fsynced, then renamed over
    the target.  If ``lines`` raises, the temp file is removed and the
    target is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


# ------------------------------------------------------------------ table


@dataclass(frozen=True)
class Kind:
    """One row of :data:`KINDS`."""

    name: str
    #: What the file's first JSON object must hold: key → the allowed
    #: values (``None`` among them: the key may be absent), or ``...``
    #: for "present, any value".
    tag: Mapping[str, Any]
    #: Newest ``format`` this tool reads; 1 is the oldest of every kind.
    format: int
    #: Module holding ``reader`` and ``summary`` — imported on first use.
    module: str
    reader: str
    summary: str
    #: The ``SloObservations`` method that takes the reader's result, for
    #: the kinds ``repro slo`` evaluates.
    slo: Optional[str] = None
    #: File-name pattern of this kind inside an artefact directory.
    glob: Optional[str] = None

    def claims(self, first: Mapping[str, Any]) -> bool:
        return all(
            key in first if allowed is ... else first.get(key) in allowed
            for key, allowed in self.tag.items()
        )

    def summarize(self, parsed: Any) -> List[str]:
        """The lines ``repro stats`` prints for :func:`load`'s result."""
        return getattr(importlib.import_module(self.module), self.summary)(parsed)


_HEADER = ("header",)
_ROWS = (
    Kind("metrics", {"kind": _HEADER}, 1,
         "repro.obs.metrics", "read_metrics", "summarize_metrics",
         slo="add_metrics"),
    Kind("records", {"key": ..., "params": ..., "seed": ..., "result": ...}, 2,
         "repro.campaign.record", "read_records", "summarize_records"),
    Kind("campaign-trace", {"kind": _HEADER, "source": ("campaign-trace",)}, 1,
         "repro.campaign.record", "read_jsonl", "summarize_campaign_trace"),
    Kind("trace", {"kind": _HEADER, "source": (None,), "model": ...}, 1,
         "repro.obs.trace_io", "read_trace", "summarize_trace"),
    Kind("events",
         {"kind": _HEADER, "source": ("cluster-events", "soak-events")}, 1,
         "repro.net.cluster", "read_cluster_events", "summarize_cluster_events",
         slo="add_events", glob="*.events"),
    Kind("spans", {"kind": _HEADER, "source": ("spans",)}, 1,
         "repro.obs.tracing", "read_spans", "summarize_spans",
         slo="add_spans", glob="spans-*.jsonl"),
    Kind("flight", {"kind": _HEADER, "source": ("flight",)}, 1,
         "repro.obs.flight", "read_flight", "summarize_flight",
         slo="add_spans", glob="flight-*.jsonl"),
    Kind("timeline", {"kind": _HEADER, "source": ("timeline",)}, 1,
         "repro.obs.timeline", "read_timeline", "summarize_timeline"),
    Kind("loadgen", {"kind": ("loadgen-report",)}, 1,
         "repro.gateway.report", "read_loadgen_report",
         "summarize_loadgen_report", slo="add_loadgen"),
    Kind("slo-spec", {"kind": ("slo-spec",)}, 1,
         "repro.obs.slo", "read_slo_spec", "summarize_slo_spec"),
    Kind("slo-report", {"kind": ("slo-report",)}, 1,
         "repro.obs.slo", "read_slo_report", "summarize_slo_report"),
    Kind("bench", {"kind": ("bench",)}, 1,
         "repro.perf.bench_io", "read_bench", "summarize_bench"),
    Kind("schedule", {"kind": (None,), "topology": ..., "duration_s": ...}, 1,
         "repro.adversary.corpus", "read_schedule", "summarize_schedule"),
)

#: Every kind of file the toolkit writes, by name.  JSONL kinds open with
#: a ``kind:"header"`` line naming their ``source`` (traces name a
#: ``model`` instead); documents are one JSON object tagged
#: ``kind:<name>``; campaign records and chaos schedules carry no tag and
#: are known by their keys.  A file that satisfies several tags belongs
#: to the row that constrains the most keys, so ``metrics`` — whose
#: ``source`` is the caller's to choose — is what any other header falls
#: back to.
KINDS: Dict[str, Kind] = {row.name: row for row in _ROWS}


def tally(labels: Iterable[Any], suffix: str = "", indent: str = "  ") -> List[str]:
    """``<indent><label>: <count><suffix>`` lines, sorted by label — the
    breakdown every ``repro stats`` summary ends with."""
    counts = Counter(labels)
    return [f"{indent}{label}: {counts[label]}{suffix}" for label in sorted(counts)]


def present(
    doc: Mapping[str, Any], keys: Sequence[str], indent: str = "  "
) -> List[str]:
    """``<indent><key>: <value>`` for each of ``keys`` ``doc`` has a value
    for — the header lines of a ``repro stats`` summary."""
    return [f"{indent}{key}: {doc[key]}" for key in keys if doc.get(key) is not None]


def write_jsonl(
    path: Path | str,
    kind: str,
    header: Mapping[str, Any],
    rows: Iterable[Mapping[str, Any]],
) -> Path:
    """A JSONL artefact of ``kind``: the header line — ``header`` stamped
    with ``kind:"header"`` and the table's ``format`` — then ``rows``,
    all canonical, through :func:`write_atomic`."""
    head = {"format": KINDS[kind].format, "kind": "header", **header}
    docs = chain([head], rows)
    return write_atomic(path, (json.dumps(doc, **CANONICAL) for doc in docs))


# --------------------------------------------------------------- identify


def _first_object(path: Path) -> Tuple[Dict[str, Any], Any]:
    """``(first, document)``: the file's first JSON object — its first
    line, or, when that line is not complete JSON (a pretty-printed
    document), the whole file, which is then ``document`` too (``None``
    otherwise).  ``first`` is ``{}`` when neither parses to an object."""
    with path.open("rb") as handle:
        head = handle.readline()
        try:
            doc, document = json.loads(head), None
        except ValueError:  # includes undecodable bytes
            try:
                doc = document = json.loads(head + handle.read())
            except ValueError:
                return {}, None
    return (doc, document) if isinstance(doc, dict) else ({}, None)


def _identify(path: Path) -> Tuple[Kind, Any]:
    try:
        if not os.path.getsize(path):
            raise ValueError(f"{path}: empty file")
        first, document = _first_object(path)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise ValueError(f"{path}: is a directory, not an artefact file") from None
    claimants = [row for row in KINDS.values() if row.claims(first)]
    if not claimants:
        *names, last = KINDS
        raise ValueError(f"{path}: not a {', '.join(names)} or {last} file")
    row = max(claimants, key=lambda r: len(r.tag))
    found = first.get("format")
    if not isinstance(found, int) or found < 1:
        raise ValueError(f"{path}: {row.name} without a format version ({found!r})")
    if found > row.format:
        raise ValueError(
            f"{path}: {row.name} format {found} is newer than this tool "
            f"({row.format})"
        )
    return row, document


def identify(path: Path | str) -> Kind:
    """The :data:`KINDS` row ``path`` belongs to.

    Raises :class:`ValueError` with a one-line, path-prefixed reason when
    the file is missing, empty, of no known kind, or of a ``format``
    outside ``1..row.format``.
    """
    return _identify(Path(path))[0]


def load(path: Path | str) -> Tuple[Kind, Any]:
    """``(row, parsed)``: :func:`identify` and the row's reader, with a
    whole-file document parsed once — identification's parse is the one
    the reader gets."""
    row, document = _identify(Path(path))
    reader = getattr(importlib.import_module(row.module), row.reader)
    return row, reader(path) if document is None else reader(path, document)


# ------------------------------------------------------------------- read


def read_jsonl(path: Path | str) -> Tuple[Dict[str, Any], List[Dict[str, Any]], int]:
    """A JSONL artefact as ``(header, rows, skipped)``, leniently.

    ``header`` is the ``kind:"header"`` object (``{}`` if none), ``rows``
    every other object in file order; blank lines are ignored and every
    line that is torn, undecodable or not an object is counted in
    ``skipped``, not fatal.
    """
    header: Dict[str, Any] = {}
    rows: List[Dict[str, Any]] = []
    skipped = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:  # includes undecodable bytes
                skipped += 1
                continue
            if not isinstance(row, dict):
                skipped += 1
            elif row.get("kind") == "header":
                header = row
            else:
                rows.append(row)
    return header, rows, skipped


def skipped_note(skipped: int) -> List[str]:
    """How a ``repro stats`` summary reports :func:`read_jsonl`'s count."""
    return [f"  skipped lines: {skipped} (truncated or foreign)"] if skipped else []


def read_document(path: Path | str, document: Any = None) -> Any:
    """A whole-file JSON artefact — ``document`` itself when
    :func:`load` already parsed it; :class:`ValueError` naming ``path``
    when it does not parse."""
    if document is not None:
        return document
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # includes undecodable bytes
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def expand(paths: Iterable[str], kinds: Sequence[str]) -> List[str]:
    """``paths`` with every directory replaced by the files in it that
    are named like one of ``kinds`` (sorted by name); plain files pass
    through.  :class:`ValueError` for a directory holding none."""
    globs = [KINDS[name].glob for name in kinds]
    out: List[str] = []
    for arg in paths:
        if not os.path.isdir(arg):
            out.append(arg)
            continue
        found = sorted(
            os.path.join(arg, name)
            for name in os.listdir(arg)
            if any(fnmatch.fnmatchcase(name, glob) for glob in globs)
        )
        if not found:
            raise ValueError(f"{arg}: no {' or '.join(globs)} files in directory")
        out.extend(found)
    return out


def cmd_stats(*, path: str) -> int:
    """``repro stats``: print the summary of any artefact the toolkit
    writes — the kind's ``summarize`` function, the same lines the command
    that wrote the file printed.  Anything else (empty, binary, truncated)
    is a :class:`ValueError` with a one-line, path-prefixed reason."""
    from .sim.errors import SimulationError

    try:
        row, parsed = load(path)
        lines = row.summarize(parsed)
    except (
        OSError, ValueError, KeyError, TypeError, AttributeError, SimulationError,
    ) as exc:
        # identify() and the readers name the path; a summary need not.
        reason = str(exc)
        if not reason.startswith(str(path)):
            reason = f"{path}: unreadable artefact ({reason})"
        raise ValueError(reason) from None
    print("\n".join(lines))
    return 0
