"""Exhaustive property checks: closure, convergence, monotonicity.

One implementation for every state representation: a *state* is any
hashable, a transition system is anything whose ``successors(state)``
returns ``(pid, action, target)`` triples over the same kind of state, and a
predicate is a callable on states.  The object model's
:class:`~repro.verification.explorer.TransitionSystem` runs them over
``Configuration`` objects (the reference, and the only explorer for
algorithms without an action table); ``repro check`` runs them over
:class:`repro.fastcore.explorer.FastTransitionSystem`'s int keys, where a
label is a ``(process index, action index)`` pair and a counterexample or
stuck SCC is decoded (``codec.unpack(codec.unkey(k))``) only when reported.

These functions turn the paper's lemmas into machine-checked statements on
small instances:

* :func:`check_closure` — Lemmas 1/4 closure parts and Theorem 1's "I is
  closed": no transition leaves the predicate.
* :func:`check_monotone_set` — Lemma 2 ("once stably shallow, always stably
  shallow") and Lemma 5 ("a red process never changes colour once I
  holds"): a configuration-to-set function never loses members along any
  transition.
* :func:`check_convergence` — Theorem 1's convergence part, proved per
  instance via strongly connected components:

  1. enumerate the full state space and its transition graph;
  2. condense it into SCCs (Tarjan);
  3. closure makes every SCC purely legitimate or purely illegitimate;
  4. an illegitimate SCC cannot trap a weakly fair computation if it is
     *fair-escapable*: some ``(process, action)`` is enabled at **every**
     state of the SCC and executing it from **any** state of the SCC leaves
     the SCC (weak fairness eventually fires it), or the SCC has no internal
     transition at all (every computation must leave it immediately, or it
     is a terminal deadlock, which fails the check);
  5. the condensation is a DAG, so a computation escapes illegitimate SCCs
     finitely often and its tail lives in a legitimate SCC.

  If every illegitimate SCC is fair-escapable the instance provably
  converges under weak fairness.  The check is sufficient, not necessary:
  a failure returns the offending SCC for inspection instead of claiming
  non-convergence.
* :func:`starving` — Theorem 2's liveness, per live process: the weakly
  fair computations in which it never eats, as SCCs and terminal states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from .explorer import Triples, reachable_graph

State = Hashable
Predicate = Callable[[Any], bool]
SetFn = Callable[[Any], AbstractSet[Any]]
Graph = Dict[State, Triples]  # state -> its (pid, action, target) triples


class TransitionRelation(Protocol):
    """What the checks need of a transition system."""

    def successors(self, state: Any) -> Triples: ...


@dataclass(frozen=True)
class Counterexample:
    """A transition that violated a property (in the checked system's own
    state and label vocabulary)."""

    source: State
    pid: Any
    action: Any
    target: State


@dataclass(frozen=True)
class ClosureReport:
    holds: bool
    checked_states: int
    counterexample: Optional[Counterexample]


def _first_break(
    ts: TransitionRelation,
    configs: Iterable[State],
    select: Predicate | None,
    kept_from: Callable[[Any], Predicate],
) -> ClosureReport:
    """The first transition from a ``select``-ed state (every state when
    None) whose target fails the test ``kept_from(source)`` returns (called
    once per source); the report counts the selected states up to and
    including its source."""
    checked = 0
    for config in configs:
        if select is not None and not select(config):
            continue
        checked += 1
        kept = kept_from(config)
        for pid, action, target in ts.successors(config):
            if not kept(target):
                return ClosureReport(
                    holds=False,
                    checked_states=checked,
                    counterexample=Counterexample(config, pid, action, target),
                )
    return ClosureReport(holds=True, checked_states=checked, counterexample=None)


def check_closure(
    ts: TransitionRelation,
    predicate: Predicate,
    configs: Iterable[State],
) -> ClosureReport:
    """Does every transition out of a predicate-state stay in the predicate?

    Only states satisfying the predicate are expanded — exactly the paper's
    definition of a closed predicate.
    """
    return _first_break(ts, configs, predicate, lambda _config: predicate)


def check_monotone_set(
    ts: TransitionRelation,
    set_fn: SetFn,
    configs: Iterable[State],
    *,
    only_when: Predicate | None = None,
) -> ClosureReport:
    """Does ``set_fn(source) ⊆ set_fn(target)`` hold along every transition?

    ``only_when`` restricts the sources considered (e.g. Lemma 5 is stated
    for computations starting in I).  Note that when ``only_when`` is a
    closed predicate, restricting sources checks whole computations, not
    just single steps.
    """

    def kept_from(config: Any) -> Predicate:
        members = set_fn(config)
        return lambda target: members <= set_fn(target)

    return _first_break(ts, configs, only_when, kept_from)


def check_numeric_nonincreasing(
    ts: TransitionRelation,
    measure: Callable[[Any], float],
    configs: Iterable[State],
) -> ClosureReport:
    """Does ``measure`` never increase along any transition?

    Theorem 3 in checkable form: with ``measure = len ∘ eating_pairs``,
    a pass over the full enumeration proves the simultaneously-eating-pairs
    count is non-increasing from *every* state, not just inside I.
    """

    def kept_from(config: Any) -> Predicate:
        value = measure(config)
        return lambda target: measure(target) <= value

    return _first_break(ts, configs, None, kept_from)


# ------------------------------------------------------------- convergence


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the SCC-based convergence proof attempt."""

    converges: bool
    total_states: int
    legit_states: int
    scc_count: int
    illegit_scc_count: int
    #: When the check fails: the states of the first SCC that is neither
    #: legitimate nor provably fair-escapable (for inspection).
    stuck_scc: Tuple[State, ...] = ()
    #: "deadlock" when the stuck SCC is a terminal illegitimate state;
    #: "no-escape-action" when it cycles without a provable escape.
    failure_kind: Optional[str] = None


def _tarjan_sccs(graph: Graph) -> List[List[State]]:
    """Iterative Tarjan strongly-connected components."""
    index: Dict[State, int] = {}
    low: Dict[State, int] = {}
    on_stack: set = set()
    stack: List[State] = []
    sccs: List[List[State]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work: List[Tuple[State, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            transitions = graph[node]
            while child_index < len(transitions):
                child = transitions[child_index][2]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: List[State] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _common_labels(
    states: Iterable[State], successors: Callable[[Any], Triples]
) -> set:
    """The ``(pid, action)`` labels enabled at every one of ``states`` —
    one transition per enabled label, so these are the enabled sets."""
    common = None
    for state in states:
        labels = {(pid, action) for pid, action, _target in successors(state)}
        common = labels if common is None else common & labels
        if not common:
            return set()
    return common or set()


def _trap(scc: Sequence[State], graph: Graph) -> Optional[str]:
    """Why an illegitimate SCC may hold a weakly fair computation forever —
    "deadlock" (a terminal state) or "no-escape-action" (a cycle no label
    enabled at all of its states is sure to leave) — or None if it cannot."""
    scc_set = set(scc)
    if not any(
        target in scc_set for node in scc for _pid, _action, target in graph[node]
    ):
        # Computations cannot linger; but a terminal state would trap.
        return "deadlock" if not graph[scc[0]] else None
    for pid, action in sorted(_common_labels(scc, graph.__getitem__), key=repr):
        if all(
            target not in scc_set
            for node in scc
            for p, a, target in graph[node]
            if p == pid and a == action
        ):
            return None
    return "no-escape-action"


def check_convergence(
    ts: TransitionRelation,
    predicate: Predicate,
    configs: Iterable[State],
    *,
    max_states: int = 1_000_000,
    graph: Graph | None = None,
) -> ConvergenceReport:
    """Attempt the SCC-based convergence proof (see module docstring).

    ``configs`` seeds the space; it is closed under reachability first
    (:func:`~repro.verification.explorer.reachable_graph`), so passing the
    full enumeration checks convergence from truly arbitrary states.  Pass
    the ``graph`` of those configs, as
    :func:`repro.verification.check.prove` does, to reuse it.
    """
    if graph is None:
        graph = reachable_graph(ts.successors, configs, max_states=max_states)
    legit = {config for config in graph if predicate(config)}
    sccs = _tarjan_sccs(graph)
    illegit_sccs = [scc for scc in sccs if scc[0] not in legit]
    stuck, kind = (), None
    for scc in illegit_sccs:
        kind = _trap(scc, graph)
        if kind is not None:
            stuck = tuple(scc)
            break
    return ConvergenceReport(
        converges=kind is None,
        total_states=len(graph),
        legit_states=len(legit),
        scc_count=len(sccs),
        illegit_scc_count=len(illegit_sccs),
        stuck_scc=stuck,
        failure_kind=kind,
    )


def starving(graph: Graph, q: Any, enter_label: Any) -> List[Tuple[State, ...]]:
    """Where a weakly fair computation can keep live process ``q`` from
    eating: ``[]`` when it cannot (``q`` is served), else the witnesses.

    ``graph`` must be closed under its transitions (the full space of
    :meth:`~repro.fastcore.explorer.FastTransitionSystem.enumerate_keys`,
    dead processes pinned, is); ``(q, enter_label)`` labels ``q``'s
    ``enter`` edges.  A witness is a maximal SCC of ``graph`` without those
    edges that has an internal edge and in which every label enabled at all
    of its states, read in ``graph``, labels one of its internal edges: a
    tour of it is weakly fair and ``q`` never enters.  A terminal state is
    a witness too, as a 1-tuple: ``q`` is not eating there, since an
    eater's ``exit`` is always enabled.
    """
    pruned = {
        state: [t for t in triples if t[0] != q or t[1] != enter_label]
        for state, triples in graph.items()
    }
    witnesses: List[Tuple[State, ...]] = []
    for scc in _tarjan_sccs(pruned):
        members = set(scc)
        internal = {
            (pid, action)
            for state in scc
            for pid, action, target in pruned[state]
            if target in members
        }
        if internal:
            if _common_labels(scc, graph.__getitem__) <= internal:
                witnesses.append(tuple(scc))
        elif not graph[scc[0]]:
            witnesses.append((scc[0],))
    return witnesses


def convergence_distances(
    graph: Graph, predicate: Predicate
) -> Dict[State, Optional[int]]:
    """Per state: the length of the *shortest* path to a legitimate state.

    Computed by reverse BFS from the legitimate set, so one pass covers the
    whole graph.  ``None`` marks states from which no legitimate state is
    reachable at all (with a correct stabilizing program there are none).
    The maximum finite value is the instance's optimal-recovery diameter —
    a lower bound on any daemon's worst-case convergence time, useful to
    compare against the measured E3 numbers.
    """
    reverse: Dict[State, List[State]] = {c: [] for c in graph}
    for config, transitions in graph.items():
        for _pid, _action, target in transitions:
            reverse[target].append(config)
    distances: Dict[State, Optional[int]] = {c: None for c in graph}
    frontier: List[State] = []
    for config in graph:
        if predicate(config):
            distances[config] = 0
            frontier.append(config)
    cursor = 0
    while cursor < len(frontier):
        config = frontier[cursor]
        cursor += 1
        next_distance = distances[config] + 1  # type: ignore[operator]
        for predecessor in reverse[config]:
            if distances[predecessor] is None:
                distances[predecessor] = next_distance
                frontier.append(predecessor)
    return distances


def optimal_recovery_diameter(graph: Graph, predicate: Predicate) -> Optional[int]:
    """max over states of the shortest distance to legitimacy (None when
    some state cannot reach legitimacy at all)."""
    distances = convergence_distances(graph, predicate)
    worst = 0
    for value in distances.values():
        if value is None:
            return None
        worst = max(worst, value)
    return worst


def confirm_fair_livelock(
    ts: TransitionRelation, states: Sequence[State]
) -> bool:
    """Is an infinite *weakly fair* execution trapped in ``states``?

    ``states`` must be a strongly connected component of the transition
    graph (as returned in :attr:`ConvergenceReport.stuck_scc`).  Because an
    SCC admits a tour visiting all its states infinitely often, it hosts a
    weakly fair livelock whenever **no action is enabled at every state** —
    along the tour, every action is disabled infinitely often, so weak
    fairness imposes no obligation.  (Sufficient condition; a False result
    is inconclusive.)

    This turns a :class:`ConvergenceReport` failure into a positive
    counterexample: the no-fixdepth ablation's hungry/thinking alternation
    wave (the paper's Figure 2 narration) is confirmed this way.
    """
    if not states:
        return False
    if len(states) == 1 and all(
        target != states[0] for _pid, _action, target in ts.successors(states[0])
    ):
        return False  # no self-loop: nothing lingers in one state
    return not _common_labels(states, ts.successors)


def check_all_states(
    predicate: Predicate, configs: Iterable[State]
) -> Tuple[bool, Optional[State]]:
    """Does ``predicate`` hold at every configuration?  Returns the first
    counterexample otherwise (used for "safety inside I" style checks)."""
    for config in configs:
        if not predicate(config):
            return False, config
    return True, None
