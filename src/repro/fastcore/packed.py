"""Packed state: the fast core's bitset encoding of a configuration.

The object model (:mod:`repro.sim`) keeps one dict per process and one dict
entry per edge; every guard evaluation walks Python objects.  The fast core
re-encodes the same state as flat per-process vectors plus per-process
*bitsets* (arbitrary-precision ints, one bit per process):

* ``state`` — ``0/1/2`` for ``T/H/E`` (one int per process);
* ``needs`` — the hunger input bit;
* ``depth`` — the distance-to-farthest-descendant estimate;
* ``status`` — ``0`` alive, ``1`` malicious, ``2`` dead;
* ``anc``/``desc`` — per-process ancestor/descendant bitsets, the packed
  form of every edge variable (the set bit names the higher-priority
  endpoint, exactly the Figure 1 edge convention).

Bitset operands act on the *whole process set at once*: ``anc[p] & nonT``
evaluates the paper's ``∀ ancestor q: state.q = T`` for all ancestors in one
machine operation, which is where the speedup over per-neighbour dict reads
comes from.  :func:`enabled_bits` below is the single shared definition of
the five guards over this encoding; the fast engine and the fast explorer
both call it, so they cannot drift apart.

:class:`PackedCodec` converts between this encoding and the object model's
:class:`~repro.sim.configuration.Configuration` — losslessly, so parity can
be asserted configuration-by-configuration — and between a state and one
fixed-layout ``int`` (:meth:`PackedCodec.key` / :meth:`PackedCodec.unkey`),
which *is* the checker's state: a successor is its parent's int with the
writing process's fields replaced (:meth:`PackedCodec.rekey`).  (numpy does
the bulk array conversion for analysis consumers via
:meth:`PackedState.as_arrays`.)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.algorithm import NADiners
from ..core.state import (
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_FIXDEPTH,
    ACTION_JOIN,
    ACTION_LEAVE,
    VAR_DEPTH,
    VAR_NEEDS,
    VAR_STATE,
)
from ..sim.configuration import Configuration
from ..sim.errors import DomainError, SimulationError, UnknownProcessError
from ..sim.topology import Pid, Topology

#: T/H/E codes.  Order matters: it is the FiniteDomain declaration order.
STATE_VALUES: Tuple[str, ...] = ("T", "H", "E")
STATE_CODE: Dict[str, int] = {v: i for i, v in enumerate(STATE_VALUES)}

#: Action bit positions, in declaration order (= enabled-list order).
ACTION_NAMES: Tuple[str, ...] = (
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_FIXDEPTH,
)
A_JOIN, A_LEAVE, A_ENTER, A_EXIT, A_FIXDEPTH = range(5)

ALIVE, MALICIOUS, DEAD = 0, 1, 2


class UnsupportedBackendError(SimulationError):
    """The fast backend cannot represent this algorithm/daemon/fault mix."""


def enabled_bits(
    p: int,
    state: List[int],
    needs: List[bool],
    depth: List[int],
    status: List[int],
    anc: List[int],
    desc: List[int],
    nonT_mask: int,
    e_mask: int,
    d_const: int,
    cap: Optional[int],
) -> int:
    """The 5-bit enabled-action set of process ``p`` (0 if not alive).

    Bit ``k`` set means action ``ACTION_NAMES[k]`` is enabled — identical,
    by construction, to evaluating the object model's five guards.
    """
    if status[p]:
        return 0
    s = state[p]
    anc_nonT = anc[p] & nonT_mask
    bits = 0
    if s == 0:
        if needs[p] and not anc_nonT:
            bits = 1  # join
    elif s == 1:
        if anc_nonT:
            bits = 2  # leave
        elif not (desc[p] & e_mask):
            bits = 4  # enter
    else:
        bits = 8  # exit: state = E
    d = depth[p]
    if d > d_const:
        bits |= 8  # exit: depth beyond the cycle-detection threshold
    dm = desc[p]
    while dm:
        q = (dm & -dm).bit_length() - 1
        dm &= dm - 1
        pv = depth[q] + 1
        if cap is not None and pv > cap:
            pv = cap
        if d < pv:
            bits |= 16  # fixdepth
            break
    return bits


def apply_action(
    ps: "PackedState",
    p: int,
    a: int,
    nbrs: Tuple[int, ...],
    cap: Optional[int],
) -> None:
    """Execute action ``a`` at process ``p`` in place — the packed form of
    the five NADiners commands, shared by the fast engine and explorer."""
    if a == A_JOIN:
        ps.state[p] = 1
    elif a == A_LEAVE:
        ps.state[p] = 0
    elif a == A_ENTER:
        ps.state[p] = 2
    elif a == A_EXIT:
        # state := T; depth := 0; every incident edge points away from p.
        bp = 1 << p
        ps.state[p] = 0
        ps.depth[p] = 0
        anc = ps.anc
        desc = ps.desc
        for q in nbrs:
            bq = 1 << q
            anc[p] |= bq
            desc[p] &= ~bq
            anc[q] &= ~bp
            desc[q] |= bp
    else:
        # fixdepth: adopt the largest violating propagated estimate.
        depth = ps.depth
        best = depth[p]
        m = ps.desc[p]
        while m:
            q = (m & -m).bit_length() - 1
            m &= m - 1
            pv = depth[q] + 1
            if cap is not None and pv > cap:
                pv = cap
            if pv > best:
                best = pv
        depth[p] = best


class PackedState:
    """One mutable packed configuration (plain lists + int bitsets)."""

    __slots__ = ("state", "needs", "depth", "status", "anc", "desc")

    def __init__(
        self,
        state: List[int],
        needs: List[bool],
        depth: List[int],
        status: List[int],
        anc: List[int],
        desc: List[int],
    ) -> None:
        self.state = state
        self.needs = needs
        self.depth = depth
        self.status = status
        self.anc = anc
        self.desc = desc

    def copy(self) -> "PackedState":
        return PackedState(
            self.state[:],
            self.needs[:],
            self.depth[:],
            self.status[:],
            self.anc[:],
            self.desc[:],
        )

    def as_arrays(self):
        """Numpy views of the per-process vectors (for vectorized analysis)."""
        import numpy as np

        return {
            "state": np.array(self.state, dtype=np.uint8),
            "needs": np.array(self.needs, dtype=np.bool_),
            "depth": np.array(self.depth, dtype=np.int64),
            "status": np.array(self.status, dtype=np.uint8),
        }


class PackedCodec:
    """Bidirectional Configuration ↔ PackedState translation for NADiners.

    The codec owns every topology- and algorithm-derived constant the fast
    paths need (neighbour index lists, edge iteration order, domains for
    fault sampling, the threshold ``D`` and the depth cap), so engines and
    explorers share one source of truth.
    """

    def __init__(self, topology: Topology, algorithm: NADiners) -> None:
        if type(algorithm) is not NADiners:
            raise UnsupportedBackendError(
                f"fast backend supports NADiners only, not {algorithm!r}"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.pids: Tuple[Pid, ...] = topology.nodes
        self.n = len(self.pids)
        self.index: Dict[Pid, int] = {pid: i for i, pid in enumerate(self.pids)}
        #: Neighbour index tuples in adjacency order (the havoc target order).
        self.nbrs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(self.index[q] for q in topology.neighbors(pid))
            for pid in self.pids
        )
        #: Neighbour bitset per process (for dirty marking / safety checks).
        self.nbr_mask: Tuple[int, ...] = tuple(
            sum(1 << q for q in row) for row in self.nbrs
        )
        #: Edges in ``topology.edges`` iteration order — the exact order
        #: ``System.randomize`` samples them in, which RNG parity requires.
        self.edge_order = []
        for e in topology.edges:
            i, j = (self.index[x] for x in tuple(e))
            self.edge_order.append((e, i, j, algorithm.edge_domain(topology, e)))
        self.local_domains = dict(algorithm.local_domains(topology))
        self._state_dom = self.local_domains[VAR_STATE]
        self._needs_dom = self.local_domains[VAR_NEEDS]
        self._depth_dom = self.local_domains[VAR_DEPTH]
        self.cap: Optional[int] = algorithm.depth_cap
        self.d_const: int = (
            algorithm.diameter_override
            if algorithm.diameter_override is not None
            else topology.diameter
        )
        self._depth_bits: Optional[int] = None
        if self.cap is not None and self.cap <= 255:
            self._build_key_layout()

    def _build_key_layout(self) -> None:
        """Fix where each variable lives in the int :meth:`key` returns.

        Process ``p`` owns one ``width``-bit field at ``p * width`` holding
        ``state · needs · status · depth`` (high to low); above the ``n``
        fields sits one bit per edge, in ``edge_order``, set when the edge's
        first endpoint is the ancestor.  The per-process masks below are
        what lets :meth:`rekey` touch only one process's write set.
        """
        db = self._depth_bits = self.cap.bit_length()
        width = db + 5
        n = self.n
        self._shift = tuple(p * width for p in range(n))
        field = (1 << width) - 1
        #: field value -> (state, needs, depth, status), for :meth:`unkey`
        self._fields = tuple(
            (f >> (db + 3), bool((f >> (db + 2)) & 1), f & ((1 << db) - 1),
             (f >> db) & 3)
            for f in range(field + 1)
        )
        self._edge_base = n * width
        #: per edge: (first endpoint, second endpoint, their bits)
        self._edge_ends = tuple(
            (i, j, 1 << i, 1 << j) for _e, i, j, _dom in self.edge_order
        )
        #: per process: its incident edges as (key bit, neighbour bit, value
        #: of the key bit when the *neighbour* is the ancestor)
        incident: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
        for bit, (i, j, bi, bj) in enumerate(self._edge_ends):
            kb = 1 << (self._edge_base + bit)
            incident[i].append((kb, bj, False))
            incident[j].append((kb, bi, True))
        self._incident = tuple(tuple(row) for row in incident)
        #: per process: everything but its field / field and incident edges
        self._keep_field = tuple(~(field << s) for s in self._shift)
        self._keep_all = tuple(
            keep & ~sum(kb for kb, _bq, _v in row)
            for keep, row in zip(self._keep_field, self._incident)
        )

    # ------------------------------------------------------------ initial

    def initial_state(self, initially_dead: Iterable[Pid] = ()) -> PackedState:
        """The packed equivalent of ``System(topology, algorithm)``."""
        topo = self.topology
        algo = self.algorithm
        n = self.n
        state = [0] * n
        needs = [False] * n
        depth = [algo._initial_depth(pid, topo) for pid in self.pids]
        status = [ALIVE] * n
        anc = [0] * n
        desc = [0] * n
        for _e, i, j, _dom in self.edge_order:
            lo, hi = (i, j) if i < j else (j, i)
            anc[hi] |= 1 << lo  # earlier node-order endpoint is the ancestor
            desc[lo] |= 1 << hi
        for pid in initially_dead:
            if pid not in self.index:
                raise UnknownProcessError(pid)
            status[self.index[pid]] = DEAD
        return PackedState(state, needs, depth, status, anc, desc)

    # ------------------------------------------------------- pack / unpack

    def pack(self, config: Configuration) -> PackedState:
        """Encode an object-model configuration (validating as it goes)."""
        if config.topology.nodes != self.topology.nodes or (
            config.topology.edges != self.topology.edges
        ):
            raise UnknownProcessError("configuration topology mismatch")
        n = self.n
        state = [0] * n
        needs = [False] * n
        depth = [0] * n
        status = [ALIVE] * n
        anc = [0] * n
        desc = [0] * n
        for pid, p in self.index.items():
            values = config.locals_of(pid)
            state[p] = STATE_CODE[self._state_dom.validate(VAR_STATE, values[VAR_STATE])]
            needs[p] = self._needs_dom.validate(VAR_NEEDS, values[VAR_NEEDS])
            depth[p] = self._depth_dom.validate(VAR_DEPTH, values[VAR_DEPTH])
        for _e, i, j, dom in self.edge_order:
            value = dom.validate(f"edge {(self.pids[i], self.pids[j])!r}",
                                 config.edge_value(self.pids[i], self.pids[j]))
            a = i if value == self.pids[i] else j
            d = j if a == i else i
            anc[d] |= 1 << a
            desc[a] |= 1 << d
        for pid in config.dead:
            status[self.index[pid]] = DEAD
        for pid in config.malicious:
            status[self.index[pid]] = MALICIOUS
        return PackedState(state, needs, depth, status, anc, desc)

    def unpack(self, ps: PackedState) -> Configuration:
        """Decode back to the object model, preserving the object model's
        dict orders so serialized snapshots are byte-identical."""
        locals_: Dict[Pid, Dict[str, Any]] = {}
        for p, pid in enumerate(self.pids):
            locals_[pid] = {
                VAR_STATE: STATE_VALUES[ps.state[p]],
                VAR_NEEDS: ps.needs[p],
                VAR_DEPTH: ps.depth[p],
            }
        edges: Dict[Any, Any] = {}
        for e, i, j, _dom in self.edge_order:
            edges[e] = self.pids[i] if (ps.anc[j] >> i) & 1 else self.pids[j]
        return Configuration(
            self.topology,
            locals_,
            edges,
            dead=(pid for p, pid in enumerate(self.pids) if ps.status[p] == DEAD),
            malicious=(
                pid for p, pid in enumerate(self.pids) if ps.status[p] == MALICIOUS
            ),
        )

    # ---------------------------------------------------------------- keys

    def key(self, ps: PackedState) -> int:
        """The configuration as one ``int`` — injective, fixed layout (see
        :meth:`_build_key_layout`), and the checker's *state*: visited-set
        element, frontier element and successor are all this number.

        Requires a depth cap ≤ 255 (the model checker always runs capped;
        ``depth_cap = D + 1``) so that every field has a fixed width.
        """
        if self._depth_bits is None:
            raise UnsupportedBackendError(
                "packed keys need depth_cap <= 255 (run the checker capped)"
            )
        k = 0
        for p, d in enumerate(ps.depth):
            if not 0 <= d <= self.cap:
                raise DomainError(VAR_DEPTH, d)  # would spill into a neighbour
            k = self.rekey(k, ps, p, True)
        return k

    def unkey(self, k: int) -> PackedState:
        """Inverse of :meth:`key` (for ints :meth:`key`/:meth:`rekey` made)."""
        n = self.n
        ps = PackedState([0] * n, [False] * n, [0] * n, [0] * n, [], [])
        self.unkey_into(k, ps)
        return ps

    def unkey_into(self, k: int, ps: PackedState) -> Tuple[int, int]:
        """Decode ``k`` over ``ps`` (the explorer reuses one scratch state
        for a whole sweep; its ``anc``/``desc`` lists are replaced, the rest
        written in place) and return the ``(nonT, eating)`` process bitsets
        the guards and the E audit need, read off in the same pass."""
        state, needs, depth, status = ps.state, ps.needs, ps.depth, ps.status
        fields = self._fields
        mask = len(fields) - 1
        nonT = e_mask = 0
        for p, shift in enumerate(self._shift):
            s, needs[p], depth[p], status[p] = fields[(k >> shift) & mask]
            state[p] = s
            if s:
                nonT |= 1 << p
                if s == 2:
                    e_mask |= 1 << p
        anc = [0] * self.n
        desc = [0] * self.n
        k >>= self._edge_base
        for i, j, bi, bj in self._edge_ends:
            if k & 1:
                anc[j] |= bi
                desc[i] |= bj
            else:
                anc[i] |= bj
                desc[j] |= bi
            k >>= 1
        ps.anc = anc
        ps.desc = desc
        return nonT, e_mask

    def rekey(self, k: int, ps: PackedState, p: int, edges: bool) -> int:
        """``k`` with process ``p``'s write set re-encoded from ``ps``.

        §2: a command at ``p`` writes ``p``'s locals and, at most, ``p``'s
        incident edge cells — so a successor's key is its parent's with one
        field (and, when ``edges``, ``deg(p)`` bits) replaced.  This is the
        only place a field is encoded: :meth:`key` is ``rekey`` of every
        process from 0.
        """
        field = (
            ((ps.state[p] << 1 | ps.needs[p]) << 2 | ps.status[p])
            << self._depth_bits | ps.depth[p]
        ) << self._shift[p]
        if not edges:
            return k & self._keep_field[p] | field
        k = k & self._keep_all[p] | field
        anc_p = ps.anc[p]
        for kb, bq, q_first in self._incident[p]:
            if bool(anc_p & bq) == q_first:
                k |= kb
        return k

    # -------------------------------------------------------------- safety

    def neighbors_eating(self, ps: PackedState) -> bool:
        """True when two neighbouring processes are both in state E —
        the safety violation every reachability sweep watches for."""
        e_mask = 0
        for p, s in enumerate(ps.state):
            if s == 2:
                e_mask |= 1 << p
        return self.adjacent(e_mask)

    def adjacent(self, mask: int) -> bool:
        """True when the process bitset ``mask`` holds two neighbours."""
        m = mask
        while m:
            p = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & self.nbr_mask[p]:
                return True
        return False
