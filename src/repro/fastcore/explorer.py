"""The fast transition relation: successors and reachability over packed
state.

Mirrors :class:`repro.verification.explorer.TransitionSystem` — same enabled
order (pid-major, action declaration order), same successor set, same
``max_states`` guard — but a state here is one ``int``,
:meth:`PackedCodec.key`'s fixed-layout encoding: it is the visited-set
element, the frontier element and the successor at once.  Expanding a state
decodes it into one reused scratch :class:`PackedState`, evaluates guards via
:func:`~repro.fastcore.packed.enabled_bits`, runs commands via
:func:`~repro.fastcore.packed.apply_action`, and forms each successor as the
parent int with only the writer's fields re-encoded (§2: a command at ``p``
writes ``p``'s locals and ``p``'s incident edges, nothing else).
The decoded :meth:`successors` output is asserted identical to the object
model's in the parity battery; :meth:`reachable_stats` is what the CLI's
``check --backend fast`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

from ..sim.configuration import Configuration
from ..sim.errors import StateSpaceExceededError
from ..sim.topology import Topology
from ..verification.explorer import Transition
from .packed import (
    ACTION_NAMES,
    PackedCodec,
    PackedState,
    apply_action,
    enabled_bits,
)

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
        self.codec = PackedCodec(topology, algorithm)
        #: the one decoded state of a sweep: every expansion overwrites it
        self._scratch = self.codec.initial_state()

    # -------------------------------------------------------- packed layer

    def successors_packed(
        self, k: int
    ) -> Tuple[List[Tuple[int, int, int]], bool]:
        """Expand the state ``k`` (a :meth:`PackedCodec.key` int).

        Returns its one-step successors as ``(p, a, successor key)`` triples
        — pid-major, action declaration order, the object model's
        ``all_enabled`` order — and whether ``k`` itself has two neighbours
        eating (the audit shares the decode).  ``k`` is decoded once into the
        scratch state; each command runs on the scratch, the successor is
        ``k`` with the writer's fields re-encoded, and the scratch is undone.
        """
        codec = self.codec
        ps = self._scratch
        nonT, e_mask = codec.unkey_into(k, ps)
        state, needs, depth, status = ps.state, ps.needs, ps.depth, ps.status
        anc, desc = ps.anc, ps.desc
        anc0, desc0 = anc[:], desc[:]
        d_const, cap, nbrs, rekey = codec.d_const, codec.cap, codec.nbrs, codec.rekey
        out: List[Tuple[int, int, int]] = []
        for p in range(codec.n):
            bits = enabled_bits(
                p, state, needs, depth, status, anc, desc, nonT, e_mask, d_const, cap
            )
            s, d = state[p], depth[p]
            while bits:
                b = bits & -bits
                bits ^= b
                a = b.bit_length() - 1
                apply_action(ps, p, a, nbrs[p], cap)
                wrote_edges = anc[p] != anc0[p]
                out.append((p, a, rekey(k, ps, p, wrote_edges)))
                state[p] = s
                depth[p] = d
                if wrote_edges:
                    anc[:] = anc0
                    desc[:] = desc0
        return out, codec.adjacent(e_mask)

    # -------------------------------------------------------- object layer

    def _key(self, source: Source) -> int:
        if not isinstance(source, PackedState):
            source = self.codec.pack(source)
        return self.codec.key(source)

    def enabled(self, config: Source) -> List[Tuple[object, str]]:
        """Decoded mirror of ``TransitionSystem.enabled``."""
        pids = self.codec.pids
        return [
            (pids[p], ACTION_NAMES[a])
            for p, a, _k in self.successors_packed(self._key(config))[0]
        ]

    def successors(self, config: Source) -> List[Transition]:
        """Decoded mirror of ``TransitionSystem.successors``."""
        codec = self.codec
        return [
            Transition(codec.pids[p], ACTION_NAMES[a], codec.unpack(codec.unkey(k)))
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
