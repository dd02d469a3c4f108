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
each BFS level to a generated loop, which tests every successor against the
visited states where it is computed.  Those are a bitmap indexed by
:meth:`KeyLayout.rank` (``bitmap``, one bit a state of the full space, the
successor key built only for a state not seen before) when every source
shares its ``needs`` and ``status`` fields and the bitmap is at most 8
bytes per state the cap allows; otherwise a ``set`` of keys (``level``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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
        #: The generated closure loops (``level``, ``bitmap``), each
        #: compiled by the first :meth:`reachable_count` that runs it: a
        #: proof over the full space never needs them.
        self._loops: Dict[str, Callable[..., Tuple[int, ...]]] = {}

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

        Level-synchronous: each level is one call of a generated loop,
        which keeps :meth:`successors_packed`'s order, and each level's
        list is dropped once expanded.  The visited states are a bitmap of
        ranks (:meth:`KeyLayout.rank`), one bit per state of the full space,
        when every source has the same ``needs`` and ``status`` fields (no
        action writes them, so the rank then tells the closure's states
        apart) and the bitmap takes at most 8 bytes per state the cap
        allows; otherwise a ``set`` of int keys, ≈ 70 bytes per state.
        ``progress(level, states, frontier)`` is called after each level.
        Raises :class:`StateSpaceExceededError` when the closure has more
        than ``max_states`` states, like the object explorer; the count is
        checked after each expanded state, so at most one state's
        successors more than the cap are visited when it raises.
        """
        codec = self.codec
        keys = list(dict.fromkeys(codec.key(codec.pack(s)) for s in sources))
        if not keys:
            return FastReachability(states=0, transitions=0, violations=0)
        # The sources alone may exceed the cap: only a state found past it
        # raises, as in the object explorer.
        limit = max(max_states, len(keys))
        layout = codec.layout
        if (
            len({k & layout.unranked for k in keys}) == 1
            and -(-layout.size // 8) <= 8 * limit
        ):
            levels = self._bitmap_levels(keys, limit)
        else:
            levels = self._set_levels(keys, limit)
        transitions = violations = 0
        for level, (states, frontier, fanned, eating) in enumerate(levels, 1):
            if states > limit:
                raise StateSpaceExceededError(max_states)
            transitions += fanned
            violations += eating
            if progress is not None:
                progress(level, states, frontier)
        return FastReachability(
            states=states, transitions=transitions, violations=violations
        )

    def _loop(self, name: str) -> Callable[..., Tuple[int, ...]]:
        """The generated closure loop ``name``, compiled on first use."""
        if name not in self._loops:
            self._loops[name] = int_key_program(self.codec, name).functions[name]
        return self._loops[name]

    def _set_levels(
        self, keys: List[int], limit: int
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Per BFS level from ``keys``: ``(states, frontier, transitions,
        violations)``, the visited states a ``set`` of keys."""
        expand_level = self._loop("level")
        visited, frontier = set(keys), keys
        while frontier:
            found: List[int] = []
            fanned, eating = expand_level(frontier, visited, found, limit)
            frontier = found
            yield len(visited), len(frontier), fanned, eating

    def _bitmap_levels(
        self, keys: List[int], limit: int
    ) -> Iterator[Tuple[int, int, int, int]]:
        """:meth:`_set_levels`, the visited states a bitmap of ranks; the
        keys must share their :attr:`KeyLayout.unranked` bits."""
        expand_level = self._loop("bitmap")
        layout = self.codec.layout
        seen = bytearray(-(-layout.size // 8))
        frontier, ranks = keys, [layout.rank(k) for k in keys]
        for r in ranks:
            seen[r >> 3] |= 1 << (r & 7)
        states = len(keys)
        while frontier:
            found: List[int] = []
            found_ranks: List[int] = []
            fanned, eating, states = expand_level(
                frontier, ranks, seen, found, found_ranks, states, limit
            )
            frontier, ranks = found, found_ranks
            yield states, len(frontier), fanned, eating
