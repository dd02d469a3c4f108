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
model's in ``tests/fastcore``; :meth:`reachable_stats` is what the CLI's
``check --backend fast`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

from ..sim.configuration import Configuration
from ..sim.errors import StateSpaceExceededError
from ..sim.topology import Topology
from ..verification.explorer import Transition
from .packed import PackedCodec, PackedState
from .table import int_key_program

Source = Union[Configuration, PackedState]


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

    def successors(self, config: Source) -> List[Transition]:
        """Decoded mirror of ``TransitionSystem.successors``."""
        codec = self.codec
        names = codec.table.names
        return [
            Transition(codec.pids[p], names[a], codec.unpack(codec.unkey(k)))
            for p, a, k in self.successors_packed(self._key(config))[0]
        ]

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
