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
comes from.  No guard or command is written in this module: Figure 1 is the
action table of :mod:`repro.core.figure1`, and :mod:`repro.fastcore.table`
generates from it the code that reads these vectors (for the packed store)
and the int below (for the explorer).

:class:`PackedCodec` converts between this encoding and the object model's
:class:`~repro.sim.configuration.Configuration` — losslessly, so parity can
be asserted configuration-by-configuration — and between a state and one
fixed-layout ``int`` (:meth:`PackedCodec.key` / :meth:`PackedCodec.unkey`,
laid out by :class:`KeyLayout`), which *is* the checker's state: a
successor is its parent's int with the writing process's fields replaced.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..core.figure1 import FIGURE1, STATE_CODE, STATE_VALUES, view_program
from ..core.state import VAR_DEPTH, VAR_NEEDS, VAR_STATE
from ..sim.configuration import Configuration
from ..sim.errors import DomainError, SimulationError, UnknownProcessError
from ..sim.topology import Pid, Topology

#: Figure 1's own action names and bit positions.  A store or explorer takes
#: its positions from its algorithm's table (``PackedCodec.table``), which
#: for an ablation has fewer rows; these name the full program's.
ACTION_NAMES: Tuple[str, ...] = FIGURE1.names
A_JOIN, A_LEAVE, A_ENTER, A_EXIT, A_FIXDEPTH = range(len(ACTION_NAMES))

ALIVE, MALICIOUS, DEAD = 0, 1, 2


class UnsupportedBackendError(SimulationError):
    """The fast backend cannot represent this algorithm/daemon/fault mix."""


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


class KeyLayout(NamedTuple):
    """Where each variable lives in the int :meth:`PackedCodec.key` returns.

    Process ``p`` owns one field at ``shift[p]`` holding ``state · needs ·
    status · depth`` (high to low: 2, 1, 2 and ``depth_bits`` bits); above
    the ``n`` fields, from ``edge_base``, sits one bit per edge of ``edges``
    (endpoint index pairs, in ``topology.edges`` order), set when the
    edge's first endpoint is the ancestor.
    """

    depth_bits: int
    shift: Tuple[int, ...]
    edge_base: int
    edges: Tuple[Tuple[int, int], ...]

    def field(self, state: int, needs: bool, status: int, depth: int) -> int:
        """One process's field, before its shift."""
        return ((state << 1 | needs) << 2 | status) << self.depth_bits | depth


class PackedCodec:
    """Bidirectional Configuration ↔ PackedState translation for the
    paper's program and its table-edit ablations.

    The codec owns every topology- and algorithm-derived constant the fast
    paths need (the action table, neighbour index lists, edge iteration
    order, domains for fault sampling, the threshold ``D`` and the depth
    cap), so engines and explorers share one source of truth.
    """

    def __init__(self, topology: Topology, algorithm) -> None:
        # The refusal follows the program, not a class list: anything that
        # runs exactly the actions its table lowers to has a packed form.
        table = getattr(algorithm, "table", None)
        if table is None or algorithm.actions() != view_program(
            table, algorithm.depth_cap, algorithm.diameter_override
        ):
            raise UnsupportedBackendError(
                "fast backend runs an action table (NADiners and its "
                f"table-edit variants) only, not {algorithm!r}"
            )
        #: Figure 1 as this algorithm runs it; row order = action bit order.
        self.table = table
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
        #: The int-key layout; None without a depth cap <= 255 (no fixed
        #: field width), and then :meth:`require_layout` refuses.
        self.layout: Optional[KeyLayout] = None
        if self.cap is not None and self.cap <= 255:
            width = self.cap.bit_length() + 5
            self.layout = KeyLayout(
                depth_bits=self.cap.bit_length(),
                shift=tuple(p * width for p in range(self.n)),
                edge_base=self.n * width,
                edges=tuple((i, j) for _e, i, j, _dom in self.edge_order),
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

    def require_layout(self) -> KeyLayout:
        """:attr:`layout`, or the typed refusal when there is none."""
        if self.layout is None:
            raise UnsupportedBackendError(
                "packed keys need depth_cap <= 255 (run the checker capped)"
            )
        return self.layout

    def key(self, ps: PackedState) -> int:
        """The configuration as one ``int`` — injective, fixed layout (see
        :class:`KeyLayout`), and the checker's *state*: visited-set element,
        frontier element and successor are all this number.

        Requires a depth cap ≤ 255 (the model checker always runs capped;
        ``depth_cap = D + 1``) so that every field has a fixed width.
        """
        layout = self.require_layout()
        k = 0
        for p, shift in enumerate(layout.shift):
            d = ps.depth[p]
            if not 0 <= d <= self.cap:
                raise DomainError(VAR_DEPTH, d)  # would spill into a neighbour
            k |= layout.field(ps.state[p], ps.needs[p], ps.status[p], d) << shift
        for bit, (i, j) in enumerate(layout.edges, layout.edge_base):
            if (ps.anc[j] >> i) & 1:
                k |= 1 << bit
        return k

    def unkey(self, k: int) -> PackedState:
        """Inverse of :meth:`key` (for ints :meth:`key` or the generated
        successor code made)."""
        layout = self.require_layout()
        n, db = self.n, layout.depth_bits
        state, needs, depth, status = [0] * n, [False] * n, [0] * n, [0] * n
        anc, desc = [0] * n, [0] * n
        for p, shift in enumerate(layout.shift):
            f = k >> shift
            depth[p] = f & ((1 << db) - 1)
            status[p] = (f >> db) & 3
            needs[p] = bool((f >> (db + 2)) & 1)
            state[p] = (f >> (db + 3)) & 3
        for bit, (i, j) in enumerate(layout.edges, layout.edge_base):
            a, d = (i, j) if (k >> bit) & 1 else (j, i)
            anc[d] |= 1 << a
            desc[a] |= 1 << d
        return PackedState(state, needs, depth, status, anc, desc)

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
