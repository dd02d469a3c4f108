"""The §3 predicates evaluated on Configuration objects — the reference the
packed predicates are tested against.

These are the bodies ``core/predicates.py`` carried until NC, SH/ST, E and
RD became passes over the packed layout's ``anc``/``desc`` masks, moved here
verbatim: a DFS per question, written from the paper's definitions, so a
mistake in a mask pass shows up as a difference.  Nothing in ``src/``
imports this file and no option selects it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.state import (
    VAR_DEPTH,
    DinerState,
    diner_state,
    direct_ancestors,
    direct_descendants,
)
from repro.sim.configuration import Configuration
from repro.sim.topology import Pid

T = DinerState.THINKING
H = DinerState.HUNGRY
E = DinerState.EATING


# --------------------------------------------------------- priority graph


def priority_edges(config: Configuration) -> Tuple[Tuple[Pid, Pid], ...]:
    """All priority-graph edges as ``(ancestor, descendant)`` pairs."""
    topology = config.topology
    order = {p: i for i, p in enumerate(topology.nodes)}
    result: List[Tuple[Pid, Pid]] = []
    for e in sorted(topology.edges, key=lambda e: tuple(sorted(order[x] for x in e))):
        p, q = sorted(e, key=lambda x: order[x])
        ancestor = config.edge_value(p, q)
        descendant = q if ancestor == p else p
        result.append((ancestor, descendant))
    return tuple(result)


def _descendant_adjacency(
    config: Configuration, *, live_only: bool
) -> Dict[Pid, Tuple[Pid, ...]]:
    """Adjacency ``p -> direct descendants of p`` (optionally live-induced)."""
    faulty = config.faulty
    adjacency: Dict[Pid, Tuple[Pid, ...]] = {}
    for p in config.topology.nodes:
        if live_only and p in faulty:
            adjacency[p] = ()
            continue
        descendants = direct_descendants(config, p)
        if live_only:
            descendants = tuple(q for q in descendants if q not in faulty)
        adjacency[p] = descendants
    return adjacency


def _has_cycle(adjacency: Dict[Pid, Tuple[Pid, ...]], nodes: Iterable[Pid]) -> bool:
    """Iterative three-colour DFS cycle detection."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {p: WHITE for p in nodes}
    for start in colour:
        if colour[start] is not WHITE:
            continue
        stack: List[Tuple[Pid, int]] = [(start, 0)]
        colour[start] = GREY
        while stack:
            node, index = stack[-1]
            children = adjacency.get(node, ())
            if index < len(children):
                stack[-1] = (node, index + 1)
                child = children[index]
                if child not in colour:
                    continue
                if colour[child] == GREY:
                    return True
                if colour[child] == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return False


def nc_holds(config: Configuration) -> bool:
    """Predicate NC: every priority cycle contains a dead process."""
    live = [p for p in config.topology.nodes if p not in config.faulty]
    adjacency = _descendant_adjacency(config, live_only=True)
    return not _has_cycle(adjacency, live)


# ----------------------------------------------------------- shallowness


def longest_live_ancestor_chain(config: Configuration, pid: Pid) -> float:
    """The paper's ``l:p``: longest chain of live ancestors including ``p``.

    Returns ``math.inf`` when ``p`` sits on (or below) a live priority
    cycle, in which case chains are unbounded.  Dead processes contribute
    0 and block chain growth through them.
    """
    faulty = config.faulty
    if pid in faulty:
        return 0.0
    # Ancestor adjacency restricted to live processes.
    live_ancestors: Dict[Pid, Tuple[Pid, ...]] = {}
    memo: Dict[Pid, float] = {}
    ON_STACK = object()
    state: Dict[Pid, object] = {}

    def ancestors(p: Pid) -> Tuple[Pid, ...]:
        if p not in live_ancestors:
            live_ancestors[p] = tuple(
                q for q in direct_ancestors(config, p) if q not in faulty
            )
        return live_ancestors[p]

    def chain(p: Pid) -> float:
        if p in memo:
            return memo[p]
        if state.get(p) is ON_STACK:
            return math.inf
        state[p] = ON_STACK
        best = 1.0
        for q in ancestors(p):
            value = chain(q)
            best = max(best, 1.0 + value)
            if best == math.inf:
                break
        state[p] = None
        memo[p] = best
        return best

    return chain(pid)



def is_shallow(config: Configuration, pid: Pid, threshold: int | None = None) -> bool:
    """Predicate SH:p.

    ``threshold`` is the constant the paper calls ``D``; None means the
    literal choice (the graph diameter) — see the module docstring.
    """
    if pid in config.faulty:
        return True
    bound = config.topology.diameter if threshold is None else threshold
    depth = config.local(pid, VAR_DEPTH)
    if depth > bound:
        return False
    l_p = longest_live_ancestor_chain(config, pid)
    for q in direct_descendants(config, pid):
        depth_q = config.local(q, VAR_DEPTH)
        if depth_q + l_p <= bound:
            continue
        if depth_q + 1 <= depth:
            continue
        return False
    return True


def shallow_set(config: Configuration, threshold: int | None = None) -> FrozenSet[Pid]:
    """All shallow processes."""
    return frozenset(
        p for p in config.topology.nodes if is_shallow(config, p, threshold)
    )


def stably_shallow_set(
    config: Configuration, threshold: int | None = None
) -> FrozenSet[Pid]:
    """All stably shallow processes.

    A process is stably shallow when it is shallow and either dead or all of
    its live (transitive) descendants are shallow.
    """
    shallow = shallow_set(config, threshold)
    faulty = config.faulty
    adjacency = _descendant_adjacency(config, live_only=False)

    # Transitive closure of descendants per process, memoized by DFS.  The
    # graph may contain cycles (we are outside the invariant), so use an
    # explicit visited set per query but share reachability via cache of
    # "reaches an unshallow live process".
    reaches_unshallow: Dict[Pid, bool] = {}

    def query(p: Pid) -> bool:
        """Does ``p`` reach (via descendants, through any process) a live
        non-shallow process?"""
        if p in reaches_unshallow:
            return reaches_unshallow[p]
        seen: Set[Pid] = set()
        stack = [p]
        found = False
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for child in adjacency[node]:
                if child not in faulty and child not in shallow:
                    found = True
                    stack.clear()
                    break
                if child not in seen:
                    stack.append(child)
        reaches_unshallow[p] = found
        return found

    result = []
    for p in config.topology.nodes:
        if p not in shallow:
            continue
        if p in faulty:
            result.append(p)
        elif not query(p):
            result.append(p)
    return frozenset(result)


def st_holds(config: Configuration, threshold: int | None = None) -> bool:
    """Predicate ST: all processes are stably shallow."""
    return len(stably_shallow_set(config, threshold)) == len(config.topology)


# --------------------------------------------------------------- eating


def eating_pairs(config: Configuration) -> FrozenSet[frozenset]:
    """Edges whose both endpoints are eating (dead or alive)."""
    result = []
    for e in config.topology.edges:
        p, q = tuple(e)
        if diner_state(config, p) is E and diner_state(config, q) is E:
            result.append(e)
    return frozenset(result)


def e_holds(config: Configuration) -> bool:
    """Predicate E: neighbours eat simultaneously only if both are dead."""
    faulty = config.faulty
    for e in eating_pairs(config):
        if not all(p in faulty for p in e):
            return False
    return True


# -------------------------------------------------------------- invariant


def invariant_holds(config: Configuration, threshold: int | None = None) -> bool:
    """The paper's invariant ``I = NC ∧ ST ∧ E`` (Theorem 1).

    ``threshold`` parameterises the depth bound used by ST; see the module
    docstring.  When checking a run of ``NADiners(diameter_override=t)``,
    pass the same ``t`` here.
    """
    return nc_holds(config) and e_holds(config) and st_holds(config, threshold)


def invariant_with_threshold(threshold: int) -> Callable[[Configuration], bool]:
    """A single-argument invariant predicate bound to ``threshold``
    (convenient for ``Engine.run(stop_when=...)``)."""

    def predicate(config: Configuration) -> bool:
        return invariant_holds(config, threshold)

    predicate.__name__ = f"invariant_holds_t{threshold}"
    return predicate


def invariant_report(
    config: Configuration, threshold: int | None = None
) -> Dict[str, bool]:
    """Each conjunct separately — convenient for diagnostics and tests."""
    return {
        "NC": nc_holds(config),
        "ST": st_holds(config, threshold),
        "E": e_holds(config),
    }


# ------------------------------------------------------------ red / green


def red_set(config: Configuration) -> FrozenSet[Pid]:
    """The least fixpoint of the paper's RD predicate.

    Red processes are those (transitively) blocked by dead processes; the
    dead themselves are red by definition.  Computed by iterating RD until
    no process changes colour — RD is monotone, so the iteration reaches the
    unique least fixpoint.
    """
    faulty = config.faulty
    red: Set[Pid] = set(faulty)
    changed = True
    while changed:
        changed = False
        for p in config.topology.nodes:
            if p in red:
                continue
            state_p = diner_state(config, p)
            if state_p is T:
                blocked = any(
                    q in red and diner_state(config, q) is not T
                    for q in direct_ancestors(config, p)
                )
            elif state_p is H:
                ancestors = direct_ancestors(config, p)
                descendants = direct_descendants(config, p)
                blocked = all(
                    q in red and diner_state(config, q) is T for q in ancestors
                ) and any(
                    q in red and diner_state(config, q) is E for q in descendants
                )
            else:
                blocked = False
            if blocked:
                red.add(p)
                changed = True
    return frozenset(red)


def green_set(config: Configuration) -> FrozenSet[Pid]:
    """All processes that are not red."""
    return frozenset(config.topology.nodes) - red_set(config)
