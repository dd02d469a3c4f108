"""The fast transition relation: successors and reachability over packed
state.

Mirrors :class:`repro.verification.explorer.TransitionSystem` — same enabled
order (pid-major, action declaration order), same successor set, same
``max_states`` guard — but a state here is one ``int``,
:meth:`PackedCodec.key`'s fixed-layout encoding: it is the visited-set
element, the frontier element and the successor at once.  Expanding a state
runs code generated for this topology from the algorithm's action table
(:func:`repro.fastcore.table.int_key_program`): guards read neighbour fields
of the int by constant shifts, and each successor is the parent int with
only the writer's fields replaced (§2: a command at ``p`` writes ``p``'s
locals and ``p``'s incident edges, nothing else).
The decoded :meth:`successors` output is asserted identical to the object
model's in ``tests/fastcore``.  ``repro check`` runs on this class alone:
:meth:`reachable_stats` is ``--reachable``, and the theorems are
:mod:`repro.verification.properties` over :meth:`enumerate_keys` with
:meth:`successors` taking the keys as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set
from typing import Tuple, Union

from ..core.figure1 import STATE_CODE
from ..core.state import VAR_DEPTH, VAR_STATE
from ..sim.configuration import Configuration
from ..sim.errors import StateSpaceExceededError
from ..sim.topology import Pid, Topology
from ..verification.explorer import Transition
from .packed import ALIVE, DEAD, PackedCodec, PackedState
from .table import int_key_program

#: A state in any of its spellings; an ``int`` is a :meth:`PackedCodec.key`.
Source = Union[Configuration, PackedState, int]


@dataclass(frozen=True)
class FastReachability:
    """Outcome of a packed BFS sweep.

    ``states`` matches ``len(TransitionSystem.reachable_from(sources))``
    exactly (the CI smoke job cmp's the two); ``violations`` counts visited
    states where two neighbours eat simultaneously.
    """

    states: int
    transitions: int
    violations: int


class FastTransitionSystem:
    """Successor computation over int-keyed packed states.

    Constructed like the object :class:`TransitionSystem` —
    ``FastTransitionSystem(algorithm, topology)`` — so call sites can switch
    backends by swapping the class.
    """

    def __init__(self, algorithm, topology: Topology) -> None:
        self.algorithm = algorithm
        self.topology = topology
        codec = self.codec = PackedCodec(topology, algorithm)
        #: The generated expansion and its text.  Without a key layout
        #: (uncapped depth) there is nothing to generate over; construction
        #: still succeeds and the first expansion gets the codec's refusal.
        self.source = ""
        self._expand = lambda k: codec.require_layout()
        if codec.layout is not None:
            program = int_key_program(codec)
            self.source = program.source
            self._expand = program.functions["expand"]

    # -------------------------------------------------------- packed layer

    def successors_packed(
        self, k: int
    ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """Expand the state ``k`` (a :meth:`PackedCodec.key` int).

        Returns its one-step successors as ``(p, a, successor key)`` triples
        — pid-major, action declaration order, the object model's
        ``all_enabled`` order — and whether ``k`` itself has two neighbours
        eating (the audit shares the decode).  A method in this class's own
        dict, called once per state: the layer a profiler or the
        benchmark's tracer times.
        """
        return self._expand(k)

    # -------------------------------------------------------- object layer

    def _key(self, source: Source) -> int:
        if isinstance(source, int):
            return source
        if not isinstance(source, PackedState):
            source = self.codec.pack(source)
        return self.codec.key(source)

    def enabled(self, config: Source) -> List[Tuple[object, str]]:
        """Decoded mirror of ``TransitionSystem.enabled``."""
        pids, names = self.codec.pids, self.codec.table.names
        return [
            (pids[p], names[a])
            for p, a, _k in self.successors_packed(self._key(config))[0]
        ]

    def successors(self, config: Source) -> Sequence[Tuple]:
        """Decoded mirror of ``TransitionSystem.successors`` — or, for a
        state given as its key, the ``(p, a, successor key)`` triples as
        generated: states in, the same kind of states out, which is what
        :mod:`repro.verification.properties` asks of a transition system
        (``codec.pids[p]`` / ``codec.table.names[a]`` name a reported label).
        """
        if isinstance(config, int):
            return self.successors_packed(config)[0]
        codec = self.codec
        names = codec.table.names
        return [
            Transition(codec.pids[p], names[a], codec.unpack(codec.unkey(k)))
            for p, a, k in self.successors_packed(self._key(config))[0]
        ]

    # --------------------------------------------------------- enumeration

    def enumerate_keys(self, *, dead: Iterable[Pid] = ()) -> Iterator[int]:
        """Every state of the full space, as its key, ``needs`` pinned true.

        Counts through :class:`KeyLayout`'s fields — no ``Configuration`` is
        built — in the order of ``enumerate_configurations(algorithm,
        topology, fixed_locals={"needs": True}, dead=dead)``: the last
        process and the last edge vary fastest, an edge tries its earlier
        endpoint as the ancestor first.  ``space_size`` of the same arguments
        is how many there are.
        """
        codec = self.codec
        layout = codec.require_layout()
        dead_at = {codec.index[pid] for pid in dead}
        states = [STATE_CODE[v] for v in codec.local_domains[VAR_STATE].values()]
        depths = list(codec.local_domains[VAR_DEPTH].values())
        fields = [
            [
                layout.field(s, True, DEAD if p in dead_at else ALIVE, d) << shift
                for s in states
                for d in depths
            ]
            for p, shift in enumerate(layout.shift)
        ]
        # The edge bit is set when the layout's *first* endpoint is the
        # ancestor; the object enumeration sorts edges by endpoint indices.
        edges = sorted(
            (sorted((i, j)), (1 << bit, 0) if i < j else (0, 1 << bit))
            for bit, (i, j) in enumerate(layout.edges, layout.edge_base)
        )
        orientations = [
            sum(bits) for bits in itertools.product(*(pair for _e, pair in edges))
        ]
        for locals_ in itertools.product(*fields):
            base = sum(locals_)
            for edge_bits in orientations:
                yield base | edge_bits

    # ------------------------------------------------------- reachability

    def reachable_stats(
        self,
        sources: Iterable[Source],
        *,
        max_states: int = 1_000_000,
        progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> FastReachability:
        """BFS closure of ``sources``, counting instead of materializing.

        Level-synchronous over a ``set`` of int keys: a state is one int from
        the moment it is found, each level's list is dropped once expanded,
        and nothing else is kept per state.  ``progress(level, states,
        frontier)`` is called after each level.  Raises
        :class:`StateSpaceExceededError` past ``max_states``, like the
        object explorer.
        """
        visited: Set[int] = set()
        frontier: List[int] = []
        for source in sources:
            k = self._key(source)
            if k not in visited:
                visited.add(k)
                frontier.append(k)
        expand = self.successors_packed
        transitions = 0
        violations = 0
        level = 0
        while frontier:
            found: List[int] = []
            for k in frontier:
                successors, eating = expand(k)
                violations += eating
                transitions += len(successors)
                for _p, _a, target in successors:
                    if target not in visited:
                        if len(visited) >= max_states:
                            raise StateSpaceExceededError(max_states)
                        visited.add(target)
                        found.append(target)
            frontier = found
            level += 1
            if progress is not None:
                progress(level, len(visited), len(frontier))
        return FastReachability(
            states=len(visited), transitions=transitions, violations=violations
        )
