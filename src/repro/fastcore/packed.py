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
and the int below (for the explorer).  No predicate is written here either:
:mod:`repro.core.predicates` reads a :class:`PackedState` as it is.

:class:`PackedCodec` converts between this encoding and the object model's
:class:`~repro.sim.configuration.Configuration` — losslessly, so parity can
be asserted configuration-by-configuration — and between a state and one
fixed-layout ``int`` (:meth:`PackedCodec.key` / :meth:`PackedCodec.unkey`),
which *is* the checker's state: a successor is its parent's int with the
writing process's fields replaced.  :class:`KeyLayout` decides where every
field sits, once, from the algorithm's declared domains; the key codec, the
full-space enumeration and the generated successor code all read it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import AbstractSet, Any, Dict, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Tuple

from ..core.figure1 import FIGURE1, STATE_CODE, STATE_VALUES, lowered_table
from ..core.state import VAR_DEPTH, VAR_NEEDS, VAR_STATE
from ..sim.configuration import Configuration
from ..sim.domains import Domain
from ..sim.errors import DomainError, SimulationError, UnknownProcessError
from ..sim.topology import Pid, Topology

#: Figure 1's own action names and bit positions.  A store or explorer takes
#: its positions from its algorithm's table (``PackedCodec.table``), which
#: for an ablation has fewer rows; these name the full program's.
ACTION_NAMES: Tuple[str, ...] = FIGURE1.names
A_JOIN, A_LEAVE, A_ENTER, A_EXIT, A_FIXDEPTH = range(len(ACTION_NAMES))

ALIVE, MALICIOUS, DEAD = 0, 1, 2
#: The liveness status's name beside the declared locals (a key field and a
#: :class:`PackedState` vector, like them).
STATUS = "status"


class UnsupportedBackendError(SimulationError):
    """The fast backend cannot represent this algorithm/daemon/fault mix."""


class PackedState:
    """One mutable packed configuration (plain lists + int bitsets); the
    vectors come in :class:`KeyLayout`'s field order, as ``unkey`` builds
    them."""

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


#: The locals the checker's full space pins: no action writes ``needs`` and
#: no stabilization predicate reads it, so it is held true throughout.
PINNED: Dict[str, Any] = {VAR_NEEDS: True}


class KeyLayout:
    """Where each variable lives in the int :meth:`PackedCodec.key` returns,
    derived from the algorithm's declared domains.

    Process ``p`` owns a slot of :attr:`slot_bits` bits from ``p ·
    slot_bits``.  Read from its top bit down, the slot holds the 2-bit
    liveness ``status`` and then every declared local in declaration order,
    each as its index in ``domain.values()`` in just enough bits for the
    largest index.  Above the ``n`` slots, from :attr:`edge_base`, sits one
    bit per edge (``topology.edges`` order): the edge's index in its
    ``edge_domain``.  :attr:`edges` holds each edge's endpoint indices in
    that domain's order, so a set bit names the second one the ancestor.

    :meth:`rank` numbers the keys of one ``needs``/``status`` assignment
    densely, in :meth:`keys`' order, so that a per-state structure can be a
    flat array indexed by it rather than a hash table of keys.
    """

    def __init__(
        self, domains: Mapping[str, Domain], n: int, edges: Sequence[Tuple[int, int]]
    ) -> None:
        #: name -> its domain's values, in declaration order, ``status`` last
        self.values = {name: tuple(dom.values()) for name, dom in domains.items()}
        self.values[STATUS] = (ALIVE, MALICIOUS, DEAD)
        self.width = {
            name: (len(values) - 1).bit_length() for name, values in self.values.items()
        }
        #: name -> its offset in a slot
        self.offset: Dict[str, int] = {}
        low = 0
        for name in (*reversed(list(domains)), STATUS):  # status on top
            self.offset[name], low = low, low + self.width[name]
        self.n, self.slot_bits, self.edge_base = n, low, n * low
        self.edges: Tuple[Tuple[int, int], ...] = tuple(edges)
        #: bits in a key
        self.bits = self.edge_base + len(self.edges)

    def at(self, p: int, name: str) -> int:
        """The offset of process ``p``'s ``name`` in a key."""
        return p * self.slot_bits + self.offset[name]

    def mask(self, name: str) -> int:
        """``name``'s bits, before a process's offset shifts them."""
        return (1 << self.width[name]) - 1

    def _live_slots(self) -> List[int]:
        """A live process's slot values in the full space, in enumeration
        order: each declared local over its domain (the first declared
        slowest), the :data:`PINNED` ones held."""
        declared = [name for name in self.values if name != STATUS]
        indices = [
            [self.values[name].index(PINNED[name])] if name in PINNED
            else range(len(self.values[name]))
            for name in declared
        ]
        return [
            sum(i << self.offset[name] for name, i in zip(declared, combo))
            for combo in itertools.product(*indices)
        ]

    def _edge_offsets(self) -> List[int]:
        """The edges' key bits, first varying slowest in :meth:`keys`: by
        sorted endpoint indices."""
        return [
            bit for _pair, bit in sorted(
                zip(map(sorted, self.edges), range(self.edge_base, self.bits))
            )
        ]

    @property
    def size(self) -> int:
        """How many keys :meth:`keys` yields."""
        return len(self._live_slots()) ** self.n << len(self.edges)

    @cached_property
    def _places(self) -> Dict[int, Tuple[int, int]]:
        """:meth:`rank`'s digits: the key offset of every field a
        transition can change -> ``(its mask, its place value)``.  The
        declared locals but the :data:`PINNED` ones, process by process,
        then the edges, each digit in :meth:`keys`' order of significance;
        ``status`` and the pinned locals are no digit."""
        digits = [
            (self.at(p, name), len(values))
            for p in range(self.n)
            for name, values in self.values.items()
            if name != STATUS and name not in PINNED
        ] + [(bit, 2) for bit in self._edge_offsets()]
        places, weight = {}, 1
        for offset, radix in reversed(digits):
            places[offset] = ((1 << (radix - 1).bit_length()) - 1, weight)
            weight *= radix
        return places

    def weight(self, offset: int) -> int:
        """The place value in :meth:`rank` of the field at ``offset`` in a
        key (:meth:`at`, or ``edge_base + e`` for edge ``e``)."""
        return self._places[offset][1]

    @cached_property
    def unranked(self) -> int:
        """The bits of a key :meth:`rank` ignores: every process's
        ``status`` and :data:`PINNED` locals, which no action writes."""
        return sum(
            self.mask(name) << self.at(p, name)
            for p in range(self.n)
            for name in self.values
            if name == STATUS or name in PINNED
        )

    def rank(self, k: int) -> int:
        """The index of ``k`` in ``keys(dead)``, ``dead`` being ``k``'s own
        dead processes: a mixed-radix number in ``range(size)`` over the
        fields a transition can change.  Two keys differing only in
        :attr:`unranked` bits have one rank."""
        return sum(
            (k >> offset & mask) * weight
            for offset, (mask, weight) in self._places.items()
        )

    def keys(self, dead: AbstractSet[int] = frozenset()) -> Iterator[int]:
        """Every key of the full space — the :data:`PINNED` locals held,
        the processes at indices ``dead`` dead, every other variable over
        its whole domain — in the order of ``enumerate_configurations(
        algorithm, topology, fixed_locals=PINNED, dead=…)``: the last
        process and the last edge (by endpoint indices) vary fastest, each
        variable and edge through its domain's order."""
        live = self._live_slots()
        dead_bits = DEAD << self.offset[STATUS]
        slots = [
            [(v | dead_bits if p in dead else v) << p * self.slot_bits for v in live]
            for p in range(self.n)
        ]
        edge_bits = [(0, 1 << bit) for bit in self._edge_offsets()]
        orientations = [sum(bits) for bits in itertools.product(*edge_bits)]
        for locals_ in itertools.product(*slots):
            base = sum(locals_)
            for edges in orientations:
                yield base | edges


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
        # runs exactly the actions its table lowers to, in the vocabulary the
        # packed lowerings spell (Figure 1's: no fork atoms), over the
        # variables they lay out (a ``depth`` too), has a packed form.
        lowered = lowered_table(algorithm)
        if (
            lowered is None
            or not lowered.table.vocabulary <= FIGURE1.vocabulary
            or VAR_DEPTH not in algorithm.local_domains(topology)
        ):
            raise UnsupportedBackendError(
                "fast backend runs an action table (NADiners and its "
                f"table-edit variants) only, not {algorithm!r}"
            )
        #: Figure 1 as this algorithm runs it; row order = action bit order.
        self.table = lowered.table
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
        self.cap: Optional[int] = lowered.cap
        self.d_const: int = (
            lowered.d_override
            if lowered.d_override is not None
            else topology.diameter
        )
        #: The int-key layout; None without a depth cap <= 255 (no fixed
        #: field width), and then :meth:`require_layout` refuses.
        self.layout: Optional[KeyLayout] = None
        if self.cap is not None and self.cap <= 255:
            self.layout = KeyLayout(self.local_domains, self.n, [
                tuple(self.index[v] for v in dom.values())
                for _e, _i, _j, dom in self.edge_order
            ])

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
        for p in self.indices(initially_dead):
            status[p] = DEAD
        return PackedState(state, needs, depth, status, anc, desc)

    def indices(self, pids: Iterable[Pid]) -> List[int]:
        """The process indices of ``pids``; an unknown one is refused."""
        try:
            return [self.index[pid] for pid in pids]
        except KeyError as exc:
            raise UnknownProcessError(exc.args[0]) from None

    # ------------------------------------------------------- pack / unpack

    def pack(self, config: Configuration) -> PackedState:
        """Encode an object-model configuration (validating as it goes)."""
        if config.topology is not self.topology and (
            config.topology.nodes != self.topology.nodes
            or config.topology.edges != self.topology.edges
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
        edges = config.edge_values()
        for e, i, j, dom in self.edge_order:
            value = edges[e]
            if not dom.contains(value):  # the edge is named only on failure
                raise DomainError(f"edge {(self.pids[i], self.pids[j])!r}", value)
            a, d = (i, j) if value == self.pids[i] else (j, i)
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
        for name, values in layout.values.items():
            for p, v in enumerate(getattr(ps, name)):
                if not 0 <= v < len(values):
                    raise DomainError(name, v)  # would spill into a neighbour
                k |= v << layout.at(p, name)
        for bit, (i, j) in enumerate(layout.edges, layout.edge_base):
            if (ps.anc[i] >> j) & 1:
                k |= 1 << bit
        return k

    def unkey(self, k: int) -> PackedState:
        """Inverse of :meth:`key` (for ints :meth:`key` or the generated
        successor code made)."""
        layout = self.require_layout()
        rows, bits = self._slot_rows, layout.slot_bits
        mask = (1 << bits) - 1
        slots = [rows[k >> at & mask] for at in range(0, layout.edge_base, bits)]
        anc, desc = [0] * self.n, [0] * self.n
        for bit, (i, j) in enumerate(layout.edges, layout.edge_base):
            a, d = (j, i) if (k >> bit) & 1 else (i, j)
            anc[d] |= 1 << a
            desc[a] |= 1 << d
        return PackedState(*map(list, zip(*slots)), anc, desc)

    @cached_property
    def _slot_rows(self) -> List[Tuple[Any, ...]]:
        """:meth:`unkey`'s table: a slot's value -> its fields in
        :class:`PackedState`'s vector order (the layout's; ``needs`` a bool)."""
        layout = self.layout
        return [
            tuple(
                (bool if name == VAR_NEEDS else int)(
                    slot >> layout.offset[name] & layout.mask(name)
                )
                for name in layout.values
            )
            for slot in range(1 << layout.slot_bits)
        ]
