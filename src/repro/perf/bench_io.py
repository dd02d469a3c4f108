"""``BENCH_*.json``: the versioned performance-trajectory file format.

One file is one benchmark run on one machine: per-benchmark robust stats
plus environment provenance (git revision, Python, platform, CPU count), so
a sequence of files committed over PRs forms a *comparable trajectory* —
the question "did PR N make the engine slower?" becomes
``repro bench --compare BENCH_old.json BENCH_new.json``.

The comparison gate is noise-tolerant by construction: it compares
**medians** (robust to one-sided scheduling noise) and only fails past a
relative ``threshold`` (default +25 %).  Comparing files from different
hardware is still apples-to-oranges for absolute numbers — CI uses a wider
threshold for exactly that reason — but the per-benchmark *ratios* remain
the honest first-order signal.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..artefact import KINDS, present, read_document, write_atomic
from .bench import BenchResult

BENCH_FORMAT_VERSION = KINDS["bench"].format

#: Default regression gate: fail past a +25 % median slowdown.
DEFAULT_THRESHOLD = 0.25


def git_revision(cwd: Optional[Path] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment() -> Dict[str, Any]:
    """Provenance snapshot: where and on what these numbers were measured."""
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def bench_payload(
    results: Sequence[BenchResult],
    *,
    options: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The complete BENCH document for a run."""
    return {
        "format": BENCH_FORMAT_VERSION,
        "kind": "bench",
        "env": dict(env) if env is not None else environment(),
        "options": dict(options or {}),
        "benchmarks": {r.name: r.payload() for r in results},
    }


def write_bench(
    path: Path | str,
    results: Sequence[BenchResult],
    *,
    options: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write a BENCH document (parents created, atomic replace, fsynced)."""
    payload = bench_payload(results, options=options, env=env)
    return write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True)])


def read_bench(path: Path | str, document: Any = None) -> Dict[str, Any]:
    """Load and validate a BENCH document.

    Raises ``ValueError`` with a one-line reason on anything that is not a
    version-matched BENCH file — the CLI turns that into a clean exit.
    """
    payload = read_document(path, document)
    if not isinstance(payload, dict) or payload.get("kind") != "bench":
        raise ValueError(f"{path}: not a BENCH file")
    if payload.get("format") != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported BENCH format {payload.get('format')!r}"
        )
    if not isinstance(payload.get("benchmarks"), dict):
        raise ValueError(f"{path}: BENCH file has no benchmarks table")
    return payload


def summarize_bench(payload: Mapping[str, Any]) -> List[str]:
    """The ``repro stats`` lines for a BENCH document — and what ``repro
    bench`` prints for the document it writes."""
    env = payload.get("env", {})
    benchmarks = payload["benchmarks"]
    lines = [f"BENCH file: {len(benchmarks)} benchmarks"]
    lines += present(
        env, ("git_rev", "python", "platform", "cpu_count", "timestamp")
    )
    return lines + [kernel_line(name, benchmarks[name]) for name in sorted(benchmarks)]


def kernel_line(name: str, doc: Mapping[str, Any]) -> str:
    """One kernel's summary line, ``doc`` being its entry in a BENCH
    document's ``benchmarks`` table."""
    stats = doc.get("stats", {})
    return (
        f"  {name}: median {stats.get('median_s')}s, "
        f"iqr {stats.get('iqr_s')}s, min {stats.get('min_s')}s"
    )


# ----------------------------------------------------------------- compare


@dataclass(frozen=True)
class Delta:
    """One benchmark's old→new movement."""

    name: str
    old_median: float
    new_median: float

    @property
    def ratio(self) -> float:
        """new/old; > 1 is a slowdown.  ``inf`` when old is zero."""
        if self.old_median <= 0:
            return float("inf") if self.new_median > 0 else 1.0
        return self.new_median / self.old_median

    def regressed(self, threshold: float) -> bool:
        return self.ratio > 1.0 + threshold


@dataclass(frozen=True)
class CompareReport:
    """Everything ``--compare`` derives from two BENCH files."""

    deltas: List[Delta]
    #: Present only in the new / only in the old file.
    added: List[str]
    removed: List[str]
    threshold: float
    #: Present in both files but without a usable baseline median (zero,
    #: missing, or malformed stats) — reported, never gated on.
    no_baseline: List[str] = dataclass_field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed(self.threshold)]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _median_of(doc: Any) -> Optional[float]:
    """The kernel's median, or ``None`` when the stats are unusable.

    A zero median is unusable too: it cannot anchor a ratio (a kernel that
    measured 0s has no meaningful baseline, and gating new/0 would flag
    every future run as an infinite regression).
    """
    if not isinstance(doc, Mapping):
        return None
    stats = doc.get("stats")
    if not isinstance(stats, Mapping):
        return None
    median = stats.get("median_s")
    if not isinstance(median, (int, float)) or isinstance(median, bool):
        return None
    median = float(median)
    if median <= 0 or median != median:
        return None
    return median


def compare(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Compare two BENCH documents; deltas ranked worst-slowdown first.

    Kernels whose baseline median is zero, missing, or malformed are listed
    under ``no_baseline`` ("new kernel / no baseline" in the table) instead
    of producing a division-by-zero crash or a spurious ∞-ratio regression.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    old_benches = old.get("benchmarks", {})
    new_benches = new.get("benchmarks", {})
    deltas: List[Delta] = []
    no_baseline: List[str] = []
    for name in sorted(set(old_benches) & set(new_benches)):
        old_median = _median_of(old_benches[name])
        new_median = _median_of(new_benches[name])
        if old_median is None or new_median is None:
            no_baseline.append(name)
            continue
        deltas.append(
            Delta(name=name, old_median=old_median, new_median=new_median)
        )
    deltas.sort(key=lambda d: (-d.ratio, d.name))
    return CompareReport(
        deltas=deltas,
        added=sorted(set(new_benches) - set(old_benches)),
        removed=sorted(set(old_benches) - set(new_benches)),
        threshold=threshold,
        no_baseline=no_baseline,
    )


@dataclass(frozen=True)
class HistoryEntry:
    """One BENCH file's contribution to the trajectory table."""

    label: str
    path: Path
    timestamp: Optional[str]
    git_rev: Optional[str]
    medians: Dict[str, float]


def scan_bench_history(
    directory: Path | str,
) -> "tuple[List[HistoryEntry], List[str]]":
    """Every ``BENCH_*.json`` under ``directory``, oldest first.

    Returns ``(entries, ignored)``: entries sorted by environment
    timestamp (files without one sort first, by name) and the names of
    ``BENCH_*.json`` files that failed validation — a foreign file in the
    directory degrades the table, it does not kill it.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise OSError(f"{directory}: not a directory")
    entries: List[HistoryEntry] = []
    ignored: List[str] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        # A malformed or truncated file degrades the table by one column;
        # it must never abort the whole history scan, so every per-file
        # failure mode (unreadable, bad JSON, wrong shape inside an
        # otherwise valid document) lands in ``ignored``.
        try:
            payload = read_bench(path)
            env = payload.get("env")
            if not isinstance(env, Mapping):
                env = {}
            medians: Dict[str, float] = {}
            for name, doc in payload["benchmarks"].items():
                if not isinstance(doc, Mapping):
                    continue
                stats = doc.get("stats")
                median = stats.get("median_s") if isinstance(stats, Mapping) else None
                if isinstance(median, (int, float)) and not isinstance(median, bool):
                    medians[str(name)] = float(median)
            timestamp = env.get("timestamp")
            git_rev = env.get("git_rev")
            entry = HistoryEntry(
                label=path.stem[len("BENCH_"):] or path.stem,
                path=path,
                timestamp=timestamp if isinstance(timestamp, str) else None,
                git_rev=git_rev if isinstance(git_rev, str) else None,
                medians=medians,
            )
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            ignored.append(path.name)
            continue
        entries.append(entry)
    entries.sort(key=lambda e: (e.timestamp or "", e.label))
    return entries, ignored


def format_history(entries: Sequence[HistoryEntry]) -> str:
    """The per-kernel median trajectory table ``bench --history`` prints.

    One column per BENCH file (oldest left), one row per kernel, and a
    trailing last/first ratio — the at-a-glance answer to "has this kernel
    drifted across the committed trajectory?".
    """
    lines = [f"bench history: {len(entries)} BENCH file(s)"]
    for entry in entries:
        rev = (entry.git_rev or "")[:9]
        provenance = " ".join(s for s in (entry.timestamp, rev) if s)
        lines.append(f"  {entry.label}: {provenance or '(no provenance)'}")
    col = max([10] + [len(e.label) for e in entries])
    header = f"{'benchmark':40s}"
    for entry in entries:
        header += f" {entry.label:>{col}s}"
    lines.append(header + "   trend")
    names = sorted({name for entry in entries for name in entry.medians})
    for name in names:
        row = f"{name:40s}"
        for entry in entries:
            median = entry.medians.get(name)
            cell = "-" if median is None else f"{median:.6f}s"
            row += f" {cell:>{col}s}"
        present = [e.medians[name] for e in entries if name in e.medians]
        if len(present) >= 2 and present[0] > 0:
            row += f"  {present[-1] / present[0]:5.2f}x"
        lines.append(row)
    return "\n".join(lines)


def format_compare(report: CompareReport) -> str:
    """The ranked delta table ``repro bench --compare`` prints."""
    lines = [
        f"{'benchmark':40s} {'old median':>12s} {'new median':>12s} "
        f"{'ratio':>7s}  verdict"
    ]
    for delta in report.deltas:
        if delta.regressed(report.threshold):
            verdict = "REGRESSION"
        elif delta.ratio < 1.0 - report.threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"{delta.name:40s} {delta.old_median:>11.6f}s {delta.new_median:>11.6f}s "
            f"{delta.ratio:>6.2f}x  {verdict}"
        )
    for name in report.added:
        lines.append(f"{name:40s} {'-':>12s} {'(new)':>12s}")
    for name in report.no_baseline:
        lines.append(
            f"{name:40s} {'-':>12s} {'-':>12s} {'':>7s}  new kernel / no baseline"
        )
    for name in report.removed:
        lines.append(f"{name:40s} {'(gone)':>12s} {'-':>12s}")
    gate = f"+{report.threshold:.0%} median gate"
    if report.ok:
        lines.append(f"no regressions ({len(report.deltas)} compared, {gate})")
    else:
        worst = report.regressions[0]
        lines.append(
            f"{len(report.regressions)} regression(s) past the {gate}; "
            f"worst: {worst.name} at {worst.ratio:.2f}x"
        )
    return "\n".join(lines)
