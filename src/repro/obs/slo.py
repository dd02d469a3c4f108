"""Declarative SLOs, error budgets, and burn rates over the repo's artefacts.

The paper's guarantees are quantitative — neighbour exclusion always,
failure locality 2, bounded hunger, convergence after a malicious crash —
but until now the repo reported them as raw metric streams a human had to
eyeball.  This module is the judgment layer: a versioned, declarative
:class:`SloSpec` (grant-latency percentiles, per-client fairness, waiting
chains, convergence deadlines, hunger bounds, and safety as a zero-budget
*hard* objective) evaluated two ways:

* **offline**, against any mix of existing artefacts — soak event logs,
  span files, flight-recorder dumps, metrics JSONL — producing a
  byte-stable ``slo-report.json`` (``repro slo``);
* **live**, incrementally against the supervisor's event stream
  (:class:`LiveSloEvaluator`), where a newly exhausted budget annotates
  the culprit's span and triggers a flight-recorder dump, and remaining
  budget / burn rate are exported as ``/metrics`` gauges.

Error-budget math is the standard SRE formulation: an objective with
``target`` 0.99 tolerates 1% bad observations; ``budget_spent`` is the
fraction of that allowance consumed, and the *burn rate* is the worst
``window_s``-wide window's bad fraction divided by the budget (a burn of
1.0 sustained for the whole run exactly exhausts it).  Hard objectives
(``target`` = 1.0, and ``safety`` always) have no allowance: any bad
observation exhausts them, and ``budget_spent`` counts the offences.

Determinism contract: a report is a pure function of the spec and the
artefacts.  Floats are rounded to 6 decimals, keys are sorted, and no
wall-clock or environment field enters the document, so running
``repro slo`` twice over the same inputs writes byte-identical reports.
This is the sensor half of ROADMAP's feedback-controller item: a later
controller actuates on these verdicts instead of raw metrics.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..artefact import KINDS, expand, load, read_document, write_atomic
from .metrics import percentile_of_sorted

SLO_FORMAT_VERSION = KINDS["slo-report"].format
#: ``kind`` values of the two SLO document families.
SLO_SPEC_KIND = "slo-spec"
SLO_REPORT_KIND = "slo-report"

#: Every objective kind the evaluator understands.
OBJECTIVE_KINDS = (
    "grant_latency",  #: fraction of grant waits <= threshold (percentile SLO)
    "fairness",  #: coefficient of variation of per-node mean grant waits
    "waiting_chain",  #: fraction of chain-length samples <= threshold
    "convergence",  #: every restart's convergence deadline <= threshold
    "hunger",  #: grant waits <= threshold at target 1.0 — the hunger bound
    "safety",  #: neighbour-exclusion violations; zero-budget, always hard
)

#: Span names whose lifecycle measures lock-acquire latency.
_WAIT_SPANS = ("acquire", "hunger")


def _round6(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), 6)


# ------------------------------------------------------------------- spec


@dataclass(frozen=True)
class SloObjective:
    """One objective: a threshold, a target good-fraction, a burn window.

    ``safety`` ignores ``threshold`` (any violation is bad) and is hard
    regardless of ``target``.  ``fairness`` is a scalar objective — the
    budget is the headroom under ``threshold``, and ``target`` is unused.
    """

    name: str
    kind: str
    threshold: Optional[float] = None
    target: float = 1.0
    window_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective needs a name")
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                f"(one of {', '.join(OBJECTIVE_KINDS)})"
            )
        if self.kind != "safety" and self.threshold is None:
            raise ValueError(f"objective {self.name!r}: threshold required")
        if self.threshold is not None and self.threshold <= 0:
            raise ValueError(f"objective {self.name!r}: threshold must be positive")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"objective {self.name!r}: target must be in (0, 1]")
        if self.window_s <= 0:
            raise ValueError(f"objective {self.name!r}: window_s must be positive")

    @property
    def hard(self) -> bool:
        return self.kind == "safety" or (
            self.kind != "fairness" and self.target >= 1.0
        )

    @property
    def budget(self) -> float:
        """Allowed bad fraction (0.0 for hard objectives)."""
        return 0.0 if self.hard else 1.0 - self.target

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "SloObjective":
        if not isinstance(doc, Mapping):
            raise ValueError("objective must be a JSON object")
        threshold = doc.get("threshold", doc.get("threshold_s"))
        return SloObjective(
            name=str(doc.get("name", "")),
            kind=str(doc.get("kind", "")),
            threshold=None if threshold is None else float(threshold),
            target=float(doc.get("target", 1.0)),
            window_s=float(doc.get("window_s", 1.0)),
        )

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "window_s": self.window_s,
        }
        if self.threshold is not None:
            doc["threshold"] = self.threshold
        return doc


@dataclass(frozen=True)
class SloSpec:
    """A named, versioned set of objectives."""

    name: str
    objectives: Tuple[SloObjective, ...]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an SLO spec needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "SloSpec":
        if not isinstance(doc, Mapping):
            raise ValueError("spec must be a JSON object")
        if doc.get("kind") != SLO_SPEC_KIND:
            raise ValueError(f'spec kind must be "{SLO_SPEC_KIND}"')
        if doc.get("format") != SLO_FORMAT_VERSION:
            raise ValueError(f"unsupported spec format {doc.get('format')!r}")
        raw = doc.get("objectives")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ValueError("spec objectives must be a list")
        return SloSpec(
            name=str(doc.get("name", "slo")),
            objectives=tuple(SloObjective.from_json(o) for o in raw),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": SLO_FORMAT_VERSION,
            "kind": SLO_SPEC_KIND,
            "name": self.name,
            "objectives": [o.to_json() for o in self.objectives],
        }

    def objective(self, name: str) -> SloObjective:
        for o in self.objectives:
            if o.name == name:
                return o
        raise KeyError(name)


def read_slo_spec(path: Path | str, document: Any = None) -> SloSpec:
    """Load and validate a spec file; :class:`ValueError` names the path."""
    doc = read_document(path, document)
    try:
        return SloSpec.from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def summarize_slo_spec(spec: SloSpec) -> List[str]:
    """The ``repro stats`` lines for a spec file."""
    lines = [f"SLO spec: {spec.name} ({len(spec.objectives)} objectives)"]
    for o in spec.objectives:
        threshold = "" if o.threshold is None else f" thr={o.threshold:g}"
        lines.append(
            f"  {o.name}: {o.kind}{threshold} target={o.target:g} "
            f"window={o.window_s:g}s{' hard' if o.hard else ''}"
        )
    return lines


# ----------------------------------------------------------- observations


@dataclass
class SloObservations:
    """Everything an evaluation consumes, whatever artefacts it came from.

    All timestamps are run-relative seconds (the artefacts' ``t``), so
    observations from different files of the same run line up.
    """

    duration_s: float = 0.0
    #: ``(t, node, wait_s)`` — one lock-acquire lifecycle each.
    grants: List[Tuple[float, str, float]] = field(default_factory=list)
    #: ``(t, length)`` — waiting-chain length whenever the waiting set moved.
    chain_samples: List[Tuple[float, int]] = field(default_factory=list)
    #: node -> seconds from relaunch to first client-matched grant.
    convergence_s: Dict[str, float] = field(default_factory=dict)
    #: Overlap-start times of neighbour-exclusion violations.
    violation_times: List[float] = field(default_factory=list)
    #: Violations known only as a count (metrics artefacts carry no times).
    violation_count: int = 0

    @property
    def violations(self) -> int:
        return max(self.violation_count, len(self.violation_times))

    def observe_duration(self, duration: Any) -> None:
        if isinstance(duration, (int, float)):
            self.duration_s = max(self.duration_s, float(duration))

    def counts(self) -> Dict[str, int]:
        return {
            "grants": len(self.grants),
            "chain_samples": len(self.chain_samples),
            "convergence": len(self.convergence_s),
            "violations": self.violations,
        }

    # ------------------------------------------------- artefact ingestion
    # Each ``add_*`` takes what the artefact's own reader returns (the
    # registry in :mod:`repro.artefact` pairs them).

    def observe_row(self, state: "LockState", row: Mapping[str, Any]) -> bool:
        """Feed one event row through ``state`` and record what it shows: a
        grant wait, a waiting-chain sample (whenever who waits or who holds
        moved), a convergence deadline.  The live evaluator and
        :meth:`add_events` read every row through here, so their reports
        agree by construction.  True when anything was recorded."""
        t = float(row.get("t", 0.0))
        self.observe_duration(t)
        waits = len(state.grants)
        observed = False
        if state.feed(row) and state.neighbors:
            self.chain_samples.append((t, len(state.waiting_chain())))
            observed = True
        if len(state.grants) > waits:
            self.grants.append(state.grants[-1])
            observed = True
        if row.get("event") == "net-convergence":
            node = row.get("node")
            elapsed = (row.get("detail") or {}).get("elapsed_s")
            if node is not None and isinstance(elapsed, (int, float)):
                self.convergence_s[str(node)] = float(elapsed)
                observed = True
        return observed

    def add_events(
        self, log: Tuple[Mapping[str, Any], Sequence[Mapping[str, Any]], int]
    ) -> None:
        """Digest a cluster/soak event log — the richest artefact: its rows
        go through :meth:`observe_row` in time order, exactly as the live
        evaluator saw them, and the neighbour-exclusion verdict is
        :func:`exclusion_audit`'s, closed where :func:`log_end_t` says the
        run ended — as the run itself audited it."""
        from ..sim.errors import TopologyError
        from ..sim.topology import from_spec

        header, events, _skipped = log
        topology = None
        spec = header.get("topology")
        if isinstance(spec, str):
            try:
                topology = from_spec(spec)
            except TopologyError as exc:
                raise ValueError(f"header topology {spec!r}: {exc}") from None
        state = LockState(topology)
        events = in_time_order(events)
        for event in events:
            self.observe_row(state, event)
        self.observe_duration(header.get("duration_s"))
        conv = header.get("convergence_s")
        if isinstance(conv, Mapping):
            for node, value in conv.items():
                if isinstance(value, (int, float)):
                    self.convergence_s[str(node)] = float(value)
        if topology is not None:
            killed = [str(k) for k in header.get("killed") or ()]
            audit = exclusion_audit(state, log_end_t(header, events), killed)
            self.violation_times += [v.overlap_start for v in audit.violations]

    def add_spans(self, span_file: Any) -> None:
        """Grant waits from a span artefact (``spans-*`` or ``flight-*``):
        the interval from span open to its ``grant`` event."""
        for span in span_file.spans:
            if span.name not in _WAIT_SPANS:
                continue
            grant = span.first_event("grant")
            if grant is None:
                continue
            wait = round(grant.t - span.open_t, 6)
            if wait >= 0:
                self.grants.append((grant.t, span.node, wait))
            self.observe_duration(span.close_t)
            self.observe_duration(grant.t)

    def add_metrics(self, metrics_file: Any) -> None:
        """Safety verdict and convergence gauges from a metrics artefact."""
        header, metrics = metrics_file.header, metrics_file.metrics
        if not metrics and "violations" not in header:
            raise ValueError("not an SLO-evaluable artefact")
        self.observe_duration(header.get("duration_s"))
        violations = header.get("violations")
        if isinstance(violations, int):
            self.violation_count = max(self.violation_count, violations)
        prefix = "cluster/convergence_s/"
        for name, payload in metrics.items():
            if name.startswith(prefix):
                value = payload.get("value")
                if isinstance(value, (int, float)):
                    self.convergence_s[name[len(prefix):]] = float(value)

    def add_loadgen(self, doc: Mapping[str, Any]) -> None:
        """Grant waits and the safety verdict from a ``loadgen-report``.

        The report stores exact (thinned) per-node wait samples but no
        per-grant timestamps, so grants get synthetic times spread evenly
        over the run — percentile and fairness objectives are exact,
        windowed burn rates are a uniform smear.
        """
        results = doc.get("results") or {}
        duration = results.get("duration_s")
        self.observe_duration(duration)
        span = (
            float(duration)
            if isinstance(duration, (int, float)) and duration > 0
            else max(self.duration_s, 1.0)
        )

        def _spread(samples: Any, node: str) -> bool:
            if not isinstance(samples, list) or not samples:
                return False
            n = len(samples)
            added = False
            for i, wait in enumerate(samples):
                if isinstance(wait, (int, float)):
                    t = span * (i + 1) / (n + 1)
                    self.grants.append((t, node, float(wait)))
                    added = True
            return added

        per_node = results.get("per_node")
        added_any = False
        if isinstance(per_node, Mapping):
            for label, node_doc in sorted(per_node.items()):
                if isinstance(node_doc, Mapping):
                    added_any |= _spread(
                        node_doc.get("samples_s"), str(label)
                    )
        if not added_any:
            _spread(results.get("latency_samples_s"), "gateway")
        safety = results.get("safety")
        if isinstance(safety, Mapping):
            violations = safety.get("violations")
            if isinstance(violations, int):
                self.violation_count = max(self.violation_count, violations)


# ----------------------------------------------------- lock-service state


#: Rows after which a node holds nothing and waits for nothing.
_NODE_DOWN = ("net-crash-detect", "net-node-stop")
#: Every row kind :meth:`LockState.feed` reads; the rest pass it by.
_STATE_KINDS = frozenset(
    ("net-span-open", "net-span-close", "net-grant", "net-release", *_NODE_DOWN)
)


def greedy_chain(
    waiting: Collection[str],
    neighbors: Mapping[str, Sequence[str]],
    key: Optional[Callable[[str], Any]] = None,
) -> List[str]:
    """The waiting chain over node labels: the first waiter by ``key`` (the
    label itself by default), extended greedily through the first
    not-yet-visited waiting neighbour — the event-stream approximation of
    :func:`repro.obs.probes.waiting_chain`.  ``/metrics``, the SLO
    ``waiting_chain`` objective and the adaptive adversary all walk here."""
    if not waiting:
        return []
    chain = [min(waiting, key=key)]
    seen = set(chain)
    while True:
        frontier = [
            n for n in neighbors.get(chain[-1], ())
            if n in waiting and n not in seen
        ]
        if not frontier:
            return chain
        chain.append(min(frontier, key=key))
        seen.add(chain[-1])


def in_time_order(events: Iterable[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Event rows by ``t``; rows with equal times keep their given order
    (the order they arrived in), because the sort is stable."""
    return sorted(events, key=lambda e: float(e.get("t", 0.0)))


class LockState:
    """The lock service's per-node state, folded one event row at a time.

    Per node it keeps the open wait spans (``acquire``/``hunger``
    lifecycles), whether the node holds the lock, and its hold intervals;
    beside them, every grant wait a span close reported.  A
    ``net-crash-detect`` or ``net-node-stop`` clears the node's hold and
    waits — a dead node holds nothing, so a malicious crash mid-hold must
    not read as a chain link or as its neighbours breaking exclusion.  Hold
    intervals are the audit's and ignore it: a grant stays open until a
    release or the end of the log, and the audit excludes killed nodes.

    Rows come in arrival order live and :func:`in_time_order` offline —
    the same order: rows are stamped as they arrive, and the event log is
    the arrival order stably sorted by ``t``.  ``/metrics``
    (:class:`repro.net.cluster.ClusterSupervisor`), the live and offline SLO
    evaluation and the safety audit (:func:`exclusion_audit`, over the
    supervisor's fold live and a fold of the log offline) all read their
    quantities from this one class.
    """

    def __init__(self, topology: Any = None) -> None:
        self.topology = topology
        #: ``repr(pid) -> neighbour labels`` (the rows' node labels);
        #: empty without a topology.
        self.neighbors: Dict[str, List[str]] = {} if topology is None else {
            repr(p): [repr(q) for q in topology.neighbors(p)]
            for p in topology.nodes
        }
        self.waiting: Dict[str, int] = {}  #: node -> open wait spans
        self.holding: set = set()
        #: node -> its closed ``(grant_t, release_t)`` hold intervals.
        self._intervals: Dict[str, List[Tuple[float, float]]] = {}
        self._open: Dict[str, float] = {}  #: node -> grant time of its open hold
        #: ``(t, node, wait_s)`` — one per span close that saw a grant.
        self.grants: List[Tuple[float, str, float]] = []

    def feed(self, row: Mapping[str, Any]) -> bool:
        """Fold one row; True when who waits or who holds may have moved."""
        kind = row.get("event")
        node = row.get("node")
        if kind not in _STATE_KINDS or node is None:
            return False
        if kind == "net-grant":
            self.holding.add(node)
            self._intervals.setdefault(node, [])
            self._open.setdefault(node, float(row.get("t", 0.0)))
            return True
        if kind == "net-release":
            self.holding.discard(node)
            spans = self._intervals.setdefault(node, [])
            opened = self._open.pop(node, None)
            if opened is not None:
                spans.append((opened, float(row.get("t", 0.0))))
            return True
        if kind in _NODE_DOWN:
            moved = node in self.holding or node in self.waiting
            self.holding.discard(node)
            self.waiting.pop(node, None)
            return moved
        detail = row.get("detail") or {}
        wait = detail.get("wait_s")
        if kind == "net-span-close" and isinstance(wait, (int, float)):
            self.grants.append((float(row.get("t", 0.0)), node, float(wait)))
        if detail.get("name") not in _WAIT_SPANS:
            return False
        left = self.waiting.get(node, 0) + (1 if kind == "net-span-open" else -1)
        if left > 0:
            self.waiting[node] = left
        else:
            self.waiting.pop(node, None)
        return True

    def waiting_chain(self) -> List[str]:
        """The chain over nodes with an open wait span and no hold."""
        return greedy_chain(
            {n for n in self.waiting if n not in self.holding}, self.neighbors
        )

    def hold_intervals(self, end_t: float) -> Dict[str, List[Tuple[float, float]]]:
        """Every node's hold intervals, a still-open one closed at ``end_t``."""
        return {
            node: spans + [(self._open[node], end_t)]
            if node in self._open else list(spans)
            for node, spans in self._intervals.items()
        }


# ------------------------------------------------------- exclusion audit


@dataclass(frozen=True)
class Violation:
    """Two neighbouring nodes held the lock at once."""

    node_a: str
    node_b: str
    overlap_start: float
    overlap_end: float

    def __str__(self) -> str:
        return (f"{self.node_a} ∦ {self.node_b}: "
                f"[{self.overlap_start:.3f}, {self.overlap_end:.3f}]s")


def neighbour_violations(
    topology: Any,
    intervals: Dict[str, List[Tuple[float, float]]],
    *,
    exclude: Sequence[str] = (),
) -> List[Violation]:
    """Every overlap of hold intervals across a topology edge, ordered by
    start, then edge, then each endpoint's interval order: one sweep per
    edge over both endpoints' start-sorted holds, each meeting only the
    other endpoint's holds still open when it starts.

    ``exclude`` names (repr'd) nodes outside the audit — the maliciously
    crashed ones, whose own behaviour the specification does not bound.
    """
    excluded = set(exclude)
    found = []
    for n, e in enumerate(topology.edges):
        p, q = tuple(e)
        a, b = repr(p), repr(q)
        if a in excluded or b in excluded:
            continue
        begun: Tuple[list, list] = ([], [])  # per endpoint: (end, index) heap
        for start, side, k, end in sorted(
            (s, side, k, t) for side, node in enumerate((a, b))
            for k, (s, t) in enumerate(intervals.get(node, ())) if s < t
        ):
            other = begun[1 - side]
            while other and other[0][0] <= start:
                heapq.heappop(other)
            for other_end, m in other:
                i, j = (m, k) if side else (k, m)
                found.append((start, a, b, n, i, j, min(end, other_end)))
            heapq.heappush(begun[side], (end, k))
    found.sort()
    return [Violation(a, b, lo, hi) for lo, a, b, _n, _i, _j, hi in found]


class ExclusionAudit(NamedTuple):
    """One neighbour-exclusion verdict and the hold intervals it read."""

    intervals: Dict[str, List[Tuple[float, float]]]
    violations: List[Violation]


def exclusion_audit(
    state: LockState, end_t: float, killed: Sequence[str] = ()
) -> ExclusionAudit:
    """The paper's E as a service verdict, reached only here — live over
    the supervisor's fold, offline (``repro slo``, ``repro timeline
    --events``) over a fold of the log.  Open holds close at ``end_t``, the
    run's ``duration_s`` (:func:`log_end_t`); ``killed`` (maliciously
    crashed) nodes are outside the audit."""
    intervals = state.hold_intervals(end_t)
    return ExclusionAudit(
        intervals,
        neighbour_violations(state.topology, intervals, exclude=killed),
    )


def log_end_t(header: Mapping[str, Any], events: Sequence[Mapping[str, Any]]) -> float:
    """A recorded run's end for :func:`exclusion_audit`: its header's
    ``duration_s``, else (a log still streaming) the last row's ``t``."""
    end = header.get("duration_s")
    if isinstance(end, (int, float)):
        return float(end)
    return max((float(e.get("t", 0.0)) for e in events), default=0.0)


# -------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class ObjectiveVerdict:
    """One objective's budget accounting.  All floats pre-rounded (6dp)."""

    name: str
    kind: str
    hard: bool
    threshold: Optional[float]
    target: float
    total: int  #: observations considered
    bad: int  #: observations over threshold (or violations)
    value: Optional[float]  #: headline measurement (quantile / CV / max / count)
    good_fraction: Optional[float]
    budget_spent: float  #: >= 1.0 means exhausted (hard: offence count)
    burn_rate: Optional[float]  #: worst ``window_s`` window's burn

    @property
    def ok(self) -> bool:
        return self.budget_spent < 1.0

    @property
    def budget_remaining(self) -> float:
        return max(0.0, round(1.0 - self.budget_spent, 6))

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "hard": self.hard,
            "threshold": self.threshold,
            "target": self.target,
            "total": self.total,
            "bad": self.bad,
            "value": self.value,
            "good_fraction": self.good_fraction,
            "budget_spent": self.budget_spent,
            "budget_remaining": self.budget_remaining,
            "burn_rate": self.burn_rate,
            "ok": self.ok,
        }


def _worst_window_burn(
    points: Sequence[Tuple[float, bool]],
    duration_s: float,
    window_s: float,
    budget: float,
) -> Optional[float]:
    """The worst ``window_s``-wide window's burn rate over ``(t, bad)``
    points; hard objectives (budget 0) burn one unit per offence."""
    if not points or duration_s <= 0:
        return None
    windows = max(1, math.ceil(duration_s / window_s))
    totals = [0] * windows
    bads = [0] * windows
    for t, bad in points:
        i = min(windows - 1, max(0, int(t // window_s)))
        totals[i] += 1
        if bad:
            bads[i] += 1
    worst = 0.0
    for total, bad in zip(totals, bads):
        if total == 0:
            continue
        if budget > 0:
            worst = max(worst, (bad / total) / budget)
        else:
            worst = max(worst, float(bad))
    return worst


def evaluate_objective(
    objective: SloObjective,
    obs: SloObservations,
    *,
    burn: bool = True,
) -> ObjectiveVerdict:
    """One objective against the accumulated observations.

    ``burn=False`` skips the windowed pass — the live evaluator's cheap
    exhaustion check on every observation.
    """
    threshold = objective.threshold
    points: List[Tuple[float, bool]] = []
    value: Optional[float] = None
    total = bad = 0
    budget_spent: Optional[float] = None

    if objective.kind in ("grant_latency", "hunger"):
        total = len(obs.grants)
        points = [(t, wait > threshold) for t, _node, wait in obs.grants]
        bad = sum(1 for _t, is_bad in points if is_bad)
        if total:
            ordered = sorted(wait for _t, _node, wait in obs.grants)
            value = percentile_of_sorted(ordered, objective.target)
    elif objective.kind == "waiting_chain":
        total = len(obs.chain_samples)
        points = [(t, length > threshold) for t, length in obs.chain_samples]
        bad = sum(1 for _t, is_bad in points if is_bad)
        if total:
            value = float(max(length for _t, length in obs.chain_samples))
    elif objective.kind == "convergence":
        deadlines = sorted(obs.convergence_s.values())
        total = len(deadlines)
        bad = sum(1 for v in deadlines if v > threshold)
        if deadlines:
            value = deadlines[-1]
    elif objective.kind == "safety":
        total = bad = obs.violations
        value = float(obs.violations)
        points = [(t, True) for t in obs.violation_times]
    elif objective.kind == "fairness":
        by_node: Dict[str, List[float]] = {}
        for _t, node, wait in obs.grants:
            by_node.setdefault(node, []).append(wait)
        means = [sum(waits) / len(waits) for waits in by_node.values()]
        total = len(means)
        if means:
            mean = sum(means) / len(means)
            if mean > 0 and len(means) > 1:
                variance = sum((m - mean) ** 2 for m in means) / len(means)
                value = math.sqrt(variance) / mean
            else:
                value = 0.0
        # Scalar objective: the budget is the headroom under the threshold.
        budget_spent = 0.0 if value is None else value / threshold
        bad = 1 if budget_spent is not None and budget_spent >= 1.0 else 0

    good_fraction = None if not total else (total - bad) / total
    if budget_spent is None:
        if objective.hard:
            budget_spent = float(bad)
        elif total:
            budget_spent = (bad / total) / objective.budget
        else:
            budget_spent = 0.0
    burn_rate = (
        _worst_window_burn(
            points, obs.duration_s, objective.window_s, objective.budget
        )
        if burn and objective.kind != "fairness"
        else None
    )
    return ObjectiveVerdict(
        name=objective.name,
        kind=objective.kind,
        hard=objective.hard,
        threshold=_round6(threshold),
        target=_round6(objective.target) or objective.target,
        total=total,
        bad=bad,
        value=_round6(value),
        good_fraction=_round6(good_fraction),
        budget_spent=_round6(budget_spent) or 0.0,
        burn_rate=_round6(burn_rate),
    )


@dataclass(frozen=True)
class SloReport:
    """The full evaluation: one verdict per objective, plus provenance-free
    observation counts (nothing here depends on the environment)."""

    spec_name: str
    duration_s: float
    verdicts: Tuple[ObjectiveVerdict, ...]
    observations: Dict[str, int]

    @property
    def exhausted(self) -> List[str]:
        return [v.name for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.exhausted

    def to_json(self) -> Dict[str, Any]:
        return {
            "format": SLO_FORMAT_VERSION,
            "kind": SLO_REPORT_KIND,
            "spec": self.spec_name,
            "ok": self.ok,
            "exhausted": self.exhausted,
            "duration_s": self.duration_s,
            "observations": dict(sorted(self.observations.items())),
            "objectives": [v.to_json() for v in self.verdicts],
        }


def evaluate(spec: SloSpec, obs: SloObservations) -> SloReport:
    """Every objective against the accumulated observations."""
    return SloReport(
        spec_name=spec.name,
        duration_s=_round6(obs.duration_s) or 0.0,
        verdicts=tuple(evaluate_objective(o, obs) for o in spec.objectives),
        observations=obs.counts(),
    )


def write_slo_report(path: Path | str, report: SloReport) -> Path:
    """The byte-stable report document (atomic replace, fsynced)."""
    body = json.dumps(report.to_json(), sort_keys=True, indent=2)
    return write_atomic(path, [body])


def read_slo_report(path: Path | str, document: Any = None) -> Dict[str, Any]:
    """Parse a report document; :class:`ValueError` if it is not one."""
    doc = read_document(path, document)
    if not isinstance(doc, dict) or doc.get("kind") != SLO_REPORT_KIND:
        raise ValueError(f"{path}: not an slo-report document")
    return doc


def summarize_slo_report(doc: Mapping[str, Any]) -> List[str]:
    """The one rendering of a report document (:meth:`SloReport.to_json`):
    what ``repro slo`` and ``cluster soak --slo`` print, and ``repro stats``
    prints on the file they wrote.

    The last line is the machine-greppable budget verdict:
    ``budget: OK ...`` or ``budget: EXHAUSTED ...``.
    """
    objectives = doc.get("objectives") or []
    lines = [f"SLO report: {doc.get('spec', '?')} (window "
             f"{doc.get('duration_s')}s, {len(objectives)} objectives)"]
    for key, value in sorted((doc.get("observations") or {}).items()):
        lines.append(f"  {key}: {value}")
    width = max((len(row["name"]) for row in objectives), default=0)
    for row in objectives:
        detail = f"{row['kind']:<13}"
        if row.get("value") is not None:
            detail += f" value={row['value']:g}"
        if row.get("threshold") is not None:
            detail += f" thr={row['threshold']:g}"
        if row.get("good_fraction") is not None:
            good = row["total"] - row["bad"]
            detail += f" good={row['good_fraction']:.2%} ({good}/{row['total']})"
        if row.get("hard"):
            detail += " hard"
        detail += (f" spent={row['budget_spent']:g}"
                   f" remaining={row['budget_remaining']:g}")
        if row.get("burn_rate") is not None:
            detail += f" burn={row['burn_rate']:g}"
        status = "ok" if row.get("ok") else "EXHAUSTED"
        lines.append(f"  {row['name']:<{width}}  {detail}  {status}")
    if doc.get("ok"):
        lines.append(f"budget: OK — {len(objectives)} objectives within budget")
    else:
        lines.append("budget: EXHAUSTED — " + ", ".join(doc.get("exhausted") or ()))
    return lines


# ------------------------------------------------------------ live stream


class LiveSloEvaluator:
    """Incremental evaluation over the supervisor's collected event rows.

    Reads each row through :meth:`SloObservations.observe_row` and its own
    :class:`LockState`, exactly as the offline path does, so the live
    verdict and the post-run report agree.  :meth:`on_event` returns
    the objectives whose budget that event newly exhausted (with the
    implicated nodes for safety hits) so the supervisor can annotate spans
    and trigger flight dumps; :meth:`samples` exports remaining budget and
    burn rate as Prometheus gauges.
    """

    def __init__(self, spec: SloSpec, topology: Any) -> None:
        self.spec = spec
        self.obs = SloObservations()
        self.state = LockState(topology)
        self._exhausted: set = set()

    def on_event(self, row: Mapping[str, Any]) -> List[Dict[str, Any]]:
        observed = self.obs.observe_row(self.state, row)
        implicated: List[str] = []
        if row.get("event") == "net-grant":
            node = row.get("node")
            for peer in self.state.neighbors.get(node, ()):
                if peer in self.state.holding:
                    # Neighbour exclusion broken right now, live.
                    self.obs.violation_times.append(float(row.get("t", 0.0)))
                    observed = True
                    implicated = sorted({node, peer, *implicated})
        if not observed:
            return []
        hits: List[Dict[str, Any]] = []
        for objective in self.spec.objectives:
            if objective.name in self._exhausted:
                continue
            verdict = evaluate_objective(objective, self.obs, burn=False)
            if not verdict.ok:
                self._exhausted.add(objective.name)
                hits.append({"objective": objective.name, "nodes": implicated})
        return hits

    @property
    def exhausted(self) -> List[str]:
        return sorted(self._exhausted)

    def reconcile_safety(self, times: Sequence[float]) -> None:
        """Adopt the offline interval audit's violation set wholesale.

        The audit is authoritative both ways: it catches overlaps the
        event order hid from the live check, and it excludes crashed
        holders the live check may have counted before the crash was
        detected.  An objective the live check flagged stays in
        :attr:`exhausted` (its flight dumps already fired), but the final
        :meth:`report` reflects the audited set."""
        self.obs.violation_times = sorted(float(t) for t in times)

    def report(self) -> SloReport:
        return evaluate(self.spec, self.obs)

    def samples(self) -> List[Any]:
        """Remaining-budget and burn-rate gauges for ``/metrics``."""
        from .prom import Sample

        out: List[Any] = []
        for verdict in self.report().verdicts:
            out.append(
                Sample(
                    "repro_slo_budget_remaining",
                    verdict.budget_remaining,
                    labels={"objective": verdict.name},
                    help="Fraction of the SLO error budget left (0 = exhausted)",
                )
            )
            if verdict.burn_rate is not None:
                out.append(
                    Sample(
                        "repro_slo_burn_rate",
                        verdict.burn_rate,
                        labels={"objective": verdict.name},
                        help="Worst windowed error-budget burn rate",
                    )
                )
        return out


# --------------------------------------------------------- artefact intake


def ingest_artefact(obs: SloObservations, path: Path | str) -> str:
    """Identify one artefact file and feed it into ``obs``.

    Returns the kind's name (``events`` / ``spans`` / ``flight`` /
    ``metrics`` / ``loadgen``); :class:`ValueError` if the file is of a
    kind with no SLO intake, or of none.
    """
    row, parsed = load(path)
    if row.slo is None:
        raise ValueError(f"{path}: {row.name} is not an SLO-evaluable artefact")
    try:
        getattr(obs, row.slo)(parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return row.name


def cmd_slo(*, spec: str, artefacts: Sequence[str], out: Optional[str]) -> int:
    """``repro slo``: evaluate the spec file ``spec`` offline against
    recorded artefacts (a ``--trace`` or ``--flight`` directory drops in);
    exit 1 when any objective's error budget is exhausted."""
    slo_spec = read_slo_spec(spec)
    observations = SloObservations()
    in_directories = [n for n, row in KINDS.items() if row.slo and row.glob]
    for path in expand(artefacts, in_directories):
        print(f"ingested {ingest_artefact(observations, path)}: {path}")
    report = evaluate(slo_spec, observations)
    print("\n".join(summarize_slo_report(report.to_json())))
    if out:
        print(f"slo report: {write_slo_report(out, report)}")
    return 1 if report.exhausted else 0
