"""The paper's predicates: NC, SH/ST, E, the invariant I, and RD colouring.

Each predicate is written once, as a pass over the packed layout of
:mod:`repro.fastcore.packed`: the per-process ``state``/``depth``/``status``
vectors and the ``anc``/``desc`` bitsets (bit ``q`` of ``anc[p]`` set when
``q`` is a direct ancestor of ``p``), exactly as §3 of the paper defines
them:

* **NC** (Lemma 1) — every cycle of the priority graph contains a dead
  process; equivalently, the subgraph induced by live processes is acyclic.
  One Kahn pass over the live masks decides it and yields every ``l:p``, the
  length of the longest chain of live ancestors of ``p`` including ``p``; a
  process the pass cannot reach sits on or below a live cycle and gets ∞.
* **SH:p** (shallow, §3.1) — ``p`` is dead, or ``depth.p ≤ D`` and for every
  direct descendant ``q`` either ``depth.q + l.p ≤ D`` (a large depth can no
  longer be propagated past ``D``) or ``depth.q + 1 ≤ depth.p`` (``p``'s
  fixdepth is disabled with respect to ``q``).
* **stably shallow** — shallow, and dead or with all live (transitive)
  descendants shallow: one backward closure over ``anc`` from the live
  non-shallow processes finds who is not.  **ST** (Lemma 3): every process
  is stably shallow — which holds exactly when every live process is
  shallow, since a non-shallow one is not stably shallow itself.
* **E** (Lemma 4) — two neighbours eat simultaneously only if both are dead:
  the eating mask tested against each live eater's ``anc | desc``.
* **I = NC ∧ ST ∧ E** (Theorem 1) — the legitimate-state predicate the
  program stabilizes to.
* **RD / red–green** (§3.2) — the least fixpoint classifying processes into
  *red* (transitively blocked by dead processes; their color never changes
  once I holds) and *green* (guaranteed to make progress — Theorem 2),
  iterated on masks.

Every public function takes either spelling of a state.  A
:class:`~repro.sim.configuration.Configuration` crosses into the packed
layout once per call, through the lossless ``PackedCodec.pack`` (one codec
per topology), and pid sets come back as pids.  A ``PackedState`` is read
as it is — the model checker's ``codec.unkey(k)`` — and its answers name
process indices.  E on a ``Configuration`` (:func:`eating_pairs`,
:func:`e_holds`) is the exception: it reads only ``state`` and the topology
and never packs, because the baselines (hygienic, fork-ordering) have no
packed form and every sweep trial ends in it.

Reproduction finding — the ``threshold`` parameter
--------------------------------------------------

The paper compares ``depth`` against the graph diameter ``D``, but ``depth``
propagates along *priority edges*, so in a legitimate acyclic priority graph
it can reach the longest simple **directed path**, which may exceed the
diameter (e.g. 2 vs 1 on the triangle K3, where the only acyclic orientation
is a transitive tournament).  On such graphs the literal predicate ``ST`` is
unsatisfiable — the invariant ``I`` is empty — and the program exhibits
harmless *spurious exits* (safety is untouched; exits only demote).  On
trees and lines the longest simple path equals the diameter and the paper's
claims hold literally.

Every depth-sensitive predicate therefore takes ``threshold`` (default: the
diameter, the paper's literal choice — for a ``PackedState``, the diameter
of the graph its masks describe).  Passing
``Topology.longest_simple_path()`` — and running
``NADiners(diameter_override=...)`` with the same value — restores a
non-empty invariant on any graph.  Experiment E9 demonstrates both regimes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

from ..sim.configuration import Configuration
from ..sim.errors import UnknownProcessError
from ..sim.topology import Pid, Topology
from .algorithm import NADiners
from .figure1 import STATE_CODE
from .state import VAR_STATE, DinerState

if TYPE_CHECKING:
    from ..fastcore.packed import PackedState

#: Either spelling of a state every public function here accepts.
State = Union[Configuration, "PackedState"]

THINKING, EATING = STATE_CODE["T"], STATE_CODE["E"]


# ------------------------------------------------------------- the crossing


@lru_cache(maxsize=64)
def _codec(topology: Topology):
    """The codec a ``Configuration`` of ``topology`` is packed with."""
    from ..fastcore.packed import PackedCodec  # first use: not at import

    return PackedCodec(topology, NADiners())


def _packed(state: State) -> Tuple[PackedState, Sequence[Pid]]:
    """``(PackedState, pid of each index)`` for either spelling of a state."""
    if isinstance(state, Configuration):
        return _codec(state.topology).pack(state), state.topology.nodes
    return state, range(len(state.state))


def _bound(state: State, ps: PackedState, threshold: int | None) -> int:
    """The depth bound ``D``: ``threshold``, else the diameter."""
    if threshold is not None:
        return threshold
    if isinstance(state, Configuration):
        return state.topology.diameter
    adjacent = [a | d for a, d in zip(ps.anc, ps.desc)]
    diameter = 0
    for p in range(len(adjacent)):
        seen = frontier = 1 << p
        hops = 0
        while True:
            reached = 0
            for q in _bits(frontier):
                reached |= adjacent[q]
            frontier = reached & ~seen
            if not frontier:
                break
            seen |= frontier
            hops += 1
        diameter = max(diameter, hops)
    return diameter


def _bits(mask: int) -> Iterator[int]:
    """The indices of ``mask``'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _index(names: Sequence[Pid], pid: Pid) -> int:
    try:
        return names.index(pid)
    except ValueError:
        raise UnknownProcessError(pid) from None


def _named(mask: int, names: Sequence[Pid]) -> FrozenSet[Pid]:
    return frozenset(names[p] for p in _bits(mask))


# -------------------------------------------------------------- the passes


def _mask(values: Sequence[int], code: int) -> int:
    """The processes whose entry in ``values`` is ``code``, as a bitset."""
    mask = 0
    for p, value in enumerate(values):
        if value == code:
            mask |= 1 << p
    return mask


def _live(ps: PackedState) -> int:
    return _mask(ps.status, 0)  # 0 is alive; malicious and dead are faulty


def _chains(ps: PackedState, live: int) -> List[float]:
    """Every ``l:p``, by Kahn's algorithm over the live ancestor masks.

    ``l[p]`` is 0 for a faulty process, ``1 + max l`` of its live direct
    ancestors once they are all placed, and ``math.inf`` for a live process
    the pass never places (on or below a live cycle).  NC holds iff no
    ``l[p]`` is infinite.
    """
    anc, desc = ps.anc, ps.desc
    n = len(anc)
    chain: List[float] = [0] * n
    waiting = [0] * n
    placed: List[int] = []
    for p in _bits(live):
        chain[p] = 1
        waiting[p] = (anc[p] & live).bit_count()
        if not waiting[p]:
            placed.append(p)
    for p in placed:  # grows while it is walked: the Kahn queue
        below = chain[p] + 1
        for q in _bits(desc[p] & live):
            if chain[q] < below:
                chain[q] = below
            waiting[q] -= 1
            if not waiting[q]:
                placed.append(q)
    if len(placed) < live.bit_count():
        for p in range(n):
            if waiting[p]:
                chain[p] = math.inf
    return chain


def _shallow(
    ps: PackedState, live: int, chain: List[float], bound: int
) -> int:
    """The mask of shallow processes: every faulty one, and each live ``p``
    with ``depth.p ≤ D`` whose direct descendants' depths all stay within
    ``max(D - l.p, depth.p - 1)`` — SH's two escapes, solved for ``depth.q``."""
    depth, desc = ps.depth, ps.desc
    shallow = ((1 << len(depth)) - 1) & ~live
    for p in _bits(live):
        d = depth[p]
        if d > bound:
            continue
        limit = max(bound - chain[p], d - 1)
        for q in _bits(desc[p]):
            if depth[q] > limit:
                break
        else:
            shallow |= 1 << p
    return shallow


def _stably_shallow(ps: PackedState, live: int, shallow: int) -> int:
    """``shallow`` minus every live process with a descendant path to a live
    non-shallow one: the closure over ``anc`` from that set, through any
    process, dead or alive."""
    anc = ps.anc
    reaches = 0
    frontier = live & ~shallow
    while frontier:
        above = 0
        for p in _bits(frontier):
            above |= anc[p]
        frontier = above & ~reaches
        reaches |= above
    return shallow & ~(reaches & live)


def _e(ps: PackedState, live: int) -> bool:
    """E: no live eater has an eating neighbour."""
    eating = _mask(ps.state, EATING)
    anc, desc = ps.anc, ps.desc
    return not any((anc[p] | desc[p]) & eating for p in _bits(eating & live))


def _red(ps: PackedState) -> int:
    """RD's least fixpoint, from the faulty processes up (RD is monotone)."""
    anc, desc = ps.anc, ps.desc
    everyone = (1 << len(anc)) - 1
    thinking, eating = _mask(ps.state, THINKING), _mask(ps.state, EATING)
    hungry = everyone & ~thinking & ~eating
    red = everyone & ~_live(ps)
    while True:
        grown = red
        for p in _bits(thinking & ~red):
            if anc[p] & red & ~thinking:  # an ancestor blocked for good
                grown |= 1 << p
        red_thinking, red_eating = red & thinking, red & eating
        for p in _bits(hungry & ~red):
            if not anc[p] & ~red_thinking and desc[p] & red_eating:
                grown |= 1 << p
        if grown == red:
            return red
        red = grown


# --------------------------------------------------------- priority graph


def priority_edges(config: State) -> Tuple[Tuple[Pid, Pid], ...]:
    """All priority-graph edges as ``(ancestor, descendant)`` pairs, by
    endpoint indices."""
    ps, names = _packed(config)
    result: List[Tuple[Pid, Pid]] = []
    for p, (anc, desc) in enumerate(zip(ps.anc, ps.desc)):
        for q in _bits((anc | desc) >> (p + 1) << (p + 1)):
            a, d = (p, q) if desc >> q & 1 else (q, p)
            result.append((names[a], names[d]))
    return tuple(result)


def nc_holds(config: State) -> bool:
    """Predicate NC: every priority cycle contains a dead process."""
    ps, _names = _packed(config)
    return math.inf not in _chains(ps, _live(ps))


# ----------------------------------------------------------- shallowness


def longest_live_ancestor_chain(config: State, pid: Pid) -> float:
    """The paper's ``l:p``: longest chain of live ancestors including ``p``.

    Returns ``math.inf`` when ``p`` sits on (or below) a live priority
    cycle, in which case chains are unbounded.  Dead processes contribute
    0 and block chain growth through them.
    """
    ps, names = _packed(config)
    return float(_chains(ps, _live(ps))[_index(names, pid)])


def _shallow_of(
    config: State, threshold: int | None
) -> Tuple[PackedState, Sequence[Pid], int, int]:
    """``(PackedState, names, live mask, shallow mask)`` of ``config``."""
    ps, names = _packed(config)
    live = _live(ps)
    shallow = _shallow(ps, live, _chains(ps, live), _bound(config, ps, threshold))
    return ps, names, live, shallow


def is_shallow(config: State, pid: Pid, threshold: int | None = None) -> bool:
    """Predicate SH:p.

    ``threshold`` is the constant the paper calls ``D``; None means the
    literal choice (the graph diameter) — see the module docstring.
    """
    _ps, names, _live, shallow = _shallow_of(config, threshold)
    return bool(shallow >> _index(names, pid) & 1)


def shallow_set(config: State, threshold: int | None = None) -> FrozenSet[Pid]:
    """All shallow processes."""
    _ps, names, _live, shallow = _shallow_of(config, threshold)
    return _named(shallow, names)


def stably_shallow_set(
    config: State, threshold: int | None = None
) -> FrozenSet[Pid]:
    """All stably shallow processes.

    A process is stably shallow when it is shallow and either dead or all of
    its live (transitive) descendants are shallow.
    """
    ps, names, live, shallow = _shallow_of(config, threshold)
    return _named(_stably_shallow(ps, live, shallow), names)


def st_holds(config: State, threshold: int | None = None) -> bool:
    """Predicate ST: all processes are stably shallow."""
    _ps, _names, live, shallow = _shallow_of(config, threshold)
    return not live & ~shallow


# --------------------------------------------------------------- eating


def eating_pairs(config: State) -> FrozenSet[frozenset]:
    """Edges whose both endpoints are eating (dead or alive)."""
    if not isinstance(config, Configuration):
        eating = _mask(config.state, EATING)
        return frozenset(
            frozenset((p, q))
            for p in _bits(eating)
            for q in _bits(config.desc[p] & eating)
        )
    eats = DinerState.EATING.value
    result = []
    for e in config.topology.edges:
        p, q = tuple(e)
        if config.local(p, VAR_STATE) == eats and config.local(q, VAR_STATE) == eats:
            result.append(e)
    return frozenset(result)


def e_holds(config: State) -> bool:
    """Predicate E: neighbours eat simultaneously only if both are dead."""
    if not isinstance(config, Configuration):
        return _e(config, _live(config))
    faulty = config.faulty
    return all(e <= faulty for e in eating_pairs(config))


# -------------------------------------------------------------- invariant


def _conjuncts(config: State, threshold: int | None) -> Iterator[bool]:
    """NC, E and ST of ``config`` in that order, each computed when asked."""
    ps, _names = _packed(config)
    live = _live(ps)
    chain = _chains(ps, live)
    yield math.inf not in chain
    yield _e(ps, live)
    yield not live & ~_shallow(ps, live, chain, _bound(config, ps, threshold))


def invariant_report(
    config: State, threshold: int | None = None
) -> Dict[str, bool]:
    """Each conjunct separately — convenient for diagnostics and tests."""
    nc, e, st = _conjuncts(config, threshold)
    return {"NC": nc, "ST": st, "E": e}


def invariant_holds(config: State, threshold: int | None = None) -> bool:
    """The paper's invariant ``I = NC ∧ ST ∧ E`` (Theorem 1).

    ``threshold`` parameterises the depth bound used by ST; see the module
    docstring.  When checking a run of ``NADiners(diameter_override=t)``,
    pass the same ``t`` here.
    """
    return all(_conjuncts(config, threshold))


def invariant_with_threshold(threshold: int) -> Callable[[State], bool]:
    """A single-argument invariant predicate bound to ``threshold``
    (convenient for ``Engine.run(stop_when=...)``)."""

    def predicate(config: State) -> bool:
        return invariant_holds(config, threshold)

    predicate.__name__ = f"invariant_holds_t{threshold}"
    return predicate


# ------------------------------------------------------------ red / green


def red_set(config: State) -> FrozenSet[Pid]:
    """The least fixpoint of the paper's RD predicate.

    Red processes are those (transitively) blocked by dead processes; the
    dead themselves are red by definition.  RD is monotone, so iterating it
    from the dead set reaches the unique least fixpoint.
    """
    ps, names = _packed(config)
    return _named(_red(ps), names)


def green_set(config: State) -> FrozenSet[Pid]:
    """All processes that are not red."""
    ps, names = _packed(config)
    return _named(((1 << len(names)) - 1) & ~_red(ps), names)
