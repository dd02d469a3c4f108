"""The fast transition relation: successors and reachability over packed
state.

Mirrors :class:`repro.verification.explorer.TransitionSystem` — same enabled
order (pid-major, action declaration order), same successor set, same
``max_states`` guard — but a state here is one ``int``,
:meth:`PackedCodec.key`'s encoding in the :class:`~.packed.KeyLayout`
derived from the algorithm's declared domains: it is the visited-set
element, the frontier element and the successor at once.  Expanding a state
runs code generated for this topology from the algorithm's action table
(:func:`repro.fastcore.table.int_key_program`): guards read neighbour fields
of the int by constant shifts, and each successor is the parent int with
only the writer's fields replaced (§2: a command at ``p`` writes ``p``'s
locals and ``p``'s incident edges, nothing else).
``tests/fastcore`` decodes :meth:`successors` and asserts it identical to
the object model's.  ``repro check`` runs on this class alone:
:meth:`reachable_count` is ``--reachable``, and the theorems are
:mod:`repro.verification.properties` over :meth:`enumerate_keys` with
:meth:`successors` taking the keys as they are.  The two use the two
functions generated from the same rows: the proofs need each transition's
label, so they take ``expand``'s ``(p, a, key)`` triples one state at a
time; a closure needs only the new keys, so :meth:`reachable_count` hands
each BFS level to ``level``, which tests every successor against the
visited set where it is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Set, Tuple

from ..sim.configuration import Configuration
from ..sim.errors import StateSpaceExceededError
from ..sim.topology import Pid, Topology
from .packed import PackedCodec
from .table import int_key_program


@dataclass(frozen=True)
class FastReachability:
    """Outcome of a packed BFS sweep.

    ``states`` matches ``len(TransitionSystem.reachable_from(sources))``
    exactly (``tests/fastcore`` holds the two to each other; CI greps the
    command's pinned counts); ``violations`` counts visited states where two
    neighbours eat simultaneously.
    """

    states: int
    transitions: int
    violations: int


class FastTransitionSystem:
    """Successor computation over int-keyed packed states.

    Constructed like the object :class:`TransitionSystem` —
    ``FastTransitionSystem(algorithm, topology)``.  A state is a key:
    :meth:`successors` and :meth:`enumerate_keys` speak keys, and
    :meth:`describe` turns one into text for a report.
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
        #: The generated closure loop, ``level(frontier, seen, found, limit)``,
        #: compiled by the first :meth:`reachable_count` that has a state to
        #: expand: a proof over the full space never needs it.
        self._level: Optional[Callable[..., Tuple[int, int]]] = None

    def successors_packed(self, k: int) -> List[Tuple[int, int, int]]:
        """Expand the state ``k`` (a :meth:`PackedCodec.key` int).

        Returns its one-step successors as ``(p, a, successor key)`` triples
        — pid-major, action declaration order, the object model's
        ``all_enabled`` order.  A method in this class's own dict, called
        once per state by the proofs (:meth:`successors`) — the layer a
        profiler or the benchmark's tracer times there.
        :meth:`reachable_count` does not call it: its levels run in the
        generated ``level`` loop, one call per level, which also audits
        each state for two neighbours eating.
        """
        return self._expand(k)

    def successors(self, k: int) -> List[Tuple[int, int, int]]:
        """The ``(p, a, successor key)`` triples of the state ``k``, as
        generated: states in, the same kind of states out, which is what
        :mod:`repro.verification.properties` asks of a transition system
        (``codec.pids[p]`` / ``codec.table.names[a]`` name a reported label).
        """
        return self.successors_packed(k)

    def describe(self, k: int) -> str:
        """The state ``k`` as ``Configuration.describe`` prints it."""
        codec = self.codec
        return codec.unpack(codec.unkey(k)).describe()

    def enumerate_keys(self, *, dead: Iterable[Pid] = ()) -> Iterator[int]:
        """Every state of the full space, as its key, ``needs`` pinned true
        and the processes ``dead`` dead: :meth:`KeyLayout.keys`, in the
        order of ``enumerate_configurations(algorithm, topology,
        fixed_locals={"needs": True}, dead=dead)``.  ``codec.layout.size``
        is how many there are.  An unknown process in ``dead`` raises
        :class:`~repro.sim.errors.UnknownProcessError` here, not when the
        first key is drawn.
        """
        codec = self.codec
        return codec.require_layout().keys(frozenset(codec.indices(dead)))

    def reachable_count(
        self,
        sources: Iterable[Configuration],
        *,
        max_states: int = 1_000_000,
        progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> FastReachability:
        """BFS closure of the configurations ``sources``, counting instead
        of materializing.

        Level-synchronous over a ``set`` of int keys: a state is one int from
        the moment it is found, each level's list is dropped once expanded,
        and nothing else is kept per state.  Each level is one call of the
        generated ``level`` loop, which keeps :meth:`successors_packed`'s
        order.  ``progress(level, states, frontier)`` is called after each
        level.  Raises :class:`StateSpaceExceededError` when the closure
        has more than ``max_states`` states, like the object explorer;
        the size is checked after each expanded state, so the set holds at
        most one state's successors more than the cap when it raises.
        """
        visited: Set[int] = set()
        frontier: List[int] = []
        for source in sources:
            k = self.codec.key(self.codec.pack(source))
            if k not in visited:
                visited.add(k)
                frontier.append(k)
        # The sources alone may exceed the cap: only a state found past it
        # raises, as in the object explorer.
        limit = max(max_states, len(visited))
        if frontier and self._level is None:
            self._level = int_key_program(self.codec, "level").functions["level"]
        expand_level = self._level
        transitions = 0
        violations = 0
        level = 0
        while frontier:
            found: List[int] = []
            fanned, eating = expand_level(frontier, visited, found, limit)
            if len(visited) > limit:
                raise StateSpaceExceededError(max_states)
            transitions += fanned
            violations += eating
            frontier = found
            level += 1
            if progress is not None:
                progress(level, len(visited), len(frontier))
        return FastReachability(
            states=len(visited), transitions=transitions, violations=violations
        )
