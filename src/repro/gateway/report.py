"""The versioned, byte-stable ``loadgen-report.json`` artefact.

One load-generator run produces one report document: the full generator
spec (so the run is reproducible from the artefact alone), grant-latency
percentiles, the cross-client fairness CV, admission/shed/batch
counters, the safety audit, and a bounded set of exact latency samples
for downstream SLO evaluation.

Discipline matches every other artefact in the repo: ``kind``-tagged and
format-versioned, keys sorted, floats rounded to 6 decimal places,
written atomically with an fsync.  In ``--sim`` mode the whole document
is a pure function of (topology, seed, duration) — two runs with the
same spec are byte-identical, and CI ``cmp``s them.  A live run has real
wall-clock latencies in it; its *format* is canonical but its numbers
are the hardware's.

The sample cap keeps a 10⁶-client report small: when a run collects more
grant waits than ``LATENCY_SAMPLE_CAP``, the sorted samples are thinned
by a deterministic stride (every k-th), which preserves the empirical
distribution — and therefore any percentile — to within 1/cap.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .. import version
from ..artefact import KINDS, read_document, write_atomic

LOADGEN_FORMAT_VERSION = KINDS["loadgen"].format
LOADGEN_REPORT_KIND = "loadgen-report"

#: Exact per-grant samples kept in the report (global and per node).
LATENCY_SAMPLE_CAP = 20000
PER_NODE_SAMPLE_CAP = 5000


def _round6(value: Any) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    if isinstance(value, int):
        return value
    return round(float(value), 6)


def _canonical(value: Any) -> Any:
    """Rounded floats, recursively — the byte-stability workhorse."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return _round6(value)


def thin_samples(sorted_samples: List[float], cap: int) -> List[float]:
    """At most ``cap`` of the sorted samples, by deterministic stride.

    Keeps the extremes: the first element always survives and the last is
    appended when the stride would drop it, so min/max stay exact.
    """
    n = len(sorted_samples)
    if n <= cap:
        return list(sorted_samples)
    stride = (n + cap - 1) // cap
    thinned = sorted_samples[::stride]
    if thinned[-1] != sorted_samples[-1]:
        thinned.append(sorted_samples[-1])
    return thinned


def build_report(spec: Dict[str, Any], results: Dict[str, Any]) -> Dict[str, Any]:
    """The complete report document from a spec and raw results."""
    return _canonical(
        {
            "format": LOADGEN_FORMAT_VERSION,
            "kind": LOADGEN_REPORT_KIND,
            "source": LOADGEN_REPORT_KIND,
            "repro": version(),
            "spec": spec,
            "results": results,
        }
    )


def write_loadgen_report(path: Path | str, report: Dict[str, Any]) -> Path:
    """The byte-stable report document (atomic replace, fsynced)."""
    body = json.dumps(_canonical(report), sort_keys=True, indent=2)
    return write_atomic(path, [body])


def read_loadgen_report(path: Path | str, document: Any = None) -> Dict[str, Any]:
    """Parse a report document; :class:`ValueError` if it is not one."""
    doc = read_document(path, document)
    if not isinstance(doc, dict) or doc.get("kind") != LOADGEN_REPORT_KIND:
        raise ValueError(f"{path}: not a loadgen-report document")
    if not isinstance(doc.get("format"), int):
        raise ValueError(f"{path}: loadgen-report without a format version")
    if doc["format"] > LOADGEN_FORMAT_VERSION:
        raise ValueError(
            f"{path}: loadgen-report format {doc['format']} is newer than "
            f"this tool ({LOADGEN_FORMAT_VERSION})"
        )
    if not isinstance(doc.get("results"), dict):
        raise ValueError(f"{path}: loadgen-report without results")
    return doc


def summarize_loadgen_report(report: Dict[str, Any]) -> List[str]:
    """The one rendering of a report document: what ``repro loadgen``
    prints, and ``repro stats`` prints on the file it wrote."""
    spec = report.get("spec") or {}
    res = report.get("results") or {}
    lat = res.get("latency") or {}
    fair = res.get("fairness") or {}
    lines = [
        f"loadgen report [{spec.get('engine', '?')}]: "
        f"{spec.get('topology', '?')} seed={spec.get('seed', '?')} "
        f"clients={spec.get('clients', '?')} mode={spec.get('mode', '?')} "
        f"duration={spec.get('duration_s', '?')}s",
        f"  grants: {res.get('grants', 0)} "
        f"({res.get('throughput_hz', 0.0):.1f}/s), "
        f"releases {res.get('releases', 0)}, shed {res.get('shed_total', 0)}, "
        f"retries {res.get('retries', 0)}, abandoned {res.get('abandoned', 0)}, "
        f"failures {res.get('failures', 0)}",
    ]
    if lat.get("count"):
        lines.append(
            f"  latency: p50={lat.get('p50_s')}s p99={lat.get('p99_s')}s "
            f"p999={lat.get('p999_s')}s (n={lat['count']})"
        )
    else:
        lines.append("  latency: no grants observed")
    lines.append(
        f"  fairness: grant_count_cv={fair.get('grant_count_cv')} "
        f"mean_wait_cv={fair.get('mean_wait_cv')} "
        f"active={fair.get('clients_active')} "
        f"granted={fair.get('clients_granted')}"
    )
    sheds = res.get("sheds") or {}
    lines += [f"    shed[{reason}]: {sheds[reason]}" for reason in sorted(sheds)]
    batching = res.get("batching") or {}
    if batching.get("upstream_flushes"):
        lines.append(
            f"  batching: {batching['upstream_frames']} frames in "
            f"{batching['upstream_flushes']} flushes "
            f"(mean batch {batching['mean_batch']:.2f}, "
            f"{batching['dials']} dials)"
        )
    per_node = res.get("per_node") or {}
    for label in sorted(per_node):
        doc = per_node[label]
        lines.append(
            f"  node {label}: {doc.get('grants', 0)} grants, "
            f"p99={doc.get('p99_s')}s"
        )
    safety = res.get("safety") or {}
    if safety.get("mode") != "live":
        lines.append("  safety: modelled (sim engine; audit needs a live run)")
    elif safety.get("violations"):
        lines.append(f"  safety: VIOLATED ({safety['violations']} overlaps)")
    else:
        lines.append(
            f"  safety: OK (audited {safety.get('audited_events')} events, "
            f"killed: {', '.join(safety.get('killed') or ()) or 'none'})"
        )
    return lines
