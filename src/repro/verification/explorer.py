"""State-space enumeration and the transition relation.

The paper's stabilization claims quantify over **every** state: Theorem 1
says the program converges from an arbitrary state.  On small instances we
can make that "every" literal: enumerate the full configuration space
(product of all variable domains) and compute every transition by executing
the very same :class:`~repro.sim.process.ActionDef` objects the simulator
runs — no second implementation of the semantics exists to drift.

Enumerability requires finite domains, so algorithms must be instantiated
with finite counters (e.g. ``NADiners(depth_cap=topology.diameter + 1)`` —
see :mod:`repro.core.algorithm` for why that cap is sound).

:class:`TransitionSystem` over ``Configuration`` objects is the reference
explorer: it runs every ``Algorithm`` (K-state, the baselines, the
low-atomicity adapter have no other), and the int-keyed
:class:`repro.fastcore.explorer.FastTransitionSystem` that ``repro check``
uses is tested against it.  :class:`Transition` and :func:`reachable_graph`
are what the two share with :mod:`repro.verification.properties`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping
from typing import NamedTuple, Optional, Sequence, Tuple

from ..sim.configuration import Configuration
from ..sim.errors import SimulationError, StateSpaceExceededError
from ..sim.network import System
from ..sim.process import Algorithm
from ..sim.topology import Pid, Topology


def space_size(
    algorithm: Algorithm,
    topology: Topology,
    *,
    fixed_locals: Mapping[str, Any] | None = None,
) -> int:
    """How many configurations :func:`enumerate_configurations` will yield."""
    fixed = fixed_locals or {}
    domains = algorithm.local_domains(topology)
    per_process = 1
    for name, domain in domains.items():
        if name in fixed:
            continue
        per_process *= len(list(domain.values()))
    total = per_process ** len(topology)
    for e in topology.edges:
        total *= len(list(algorithm.edge_domain(topology, e).values()))
    return total


def enumerate_configurations(
    algorithm: Algorithm,
    topology: Topology,
    *,
    fixed_locals: Mapping[str, Any] | None = None,
    dead: Iterable[Pid] = (),
) -> Iterator[Configuration]:
    """Yield every configuration of the (possibly restricted) state space.

    ``fixed_locals`` pins variables to one value system-wide — typically
    ``{"needs": True}``, which cuts the space in half per process without
    affecting the stabilization predicates (they never read ``needs``).
    ``dead`` marks processes as crashed; their variables still range over
    their domains (a dead process's state is frozen but arbitrary).
    """
    fixed = dict(fixed_locals or {})
    domains = dict(algorithm.local_domains(topology))
    for name in fixed:
        if name not in domains:
            raise SimulationError(f"fixed variable {name!r} is not declared")

    free_names = [n for n in domains if n not in fixed]
    free_values: List[List[Any]] = [list(domains[n].values()) for n in free_names]
    per_process: List[Dict[str, Any]] = []
    for combo in itertools.product(*free_values):
        values = dict(fixed)
        values.update(zip(free_names, combo))
        per_process.append(values)

    nodes = topology.nodes
    order = {p: i for i, p in enumerate(nodes)}
    edges = sorted(topology.edges, key=lambda e: tuple(sorted(order[x] for x in e)))
    edge_values = [list(algorithm.edge_domain(topology, e).values()) for e in edges]

    dead = tuple(dead)
    for local_combo in itertools.product(per_process, repeat=len(nodes)):
        local_values = dict(zip(nodes, local_combo))
        for edge_combo in itertools.product(*edge_values):
            yield Configuration(
                topology,
                local_values,
                dict(zip(edges, edge_combo)),
                dead=dead,
            )


class Transition(NamedTuple):
    """One labelled edge of a transition system: ``(pid, action, target)``.

    The property checks destructure it, so any plain triple serves — the
    int-keyed explorer's generated ``(process index, action index, key)``
    tuples go through :mod:`repro.verification.properties` as they are.
    """

    pid: Any
    action: Any
    target: Any


#: What ``successors(state)`` returns, for states of any hashable kind.
Triples = Sequence[Tuple[Any, Any, Any]]


def reachable_graph(
    successors: Callable[[Any], Triples],
    sources: Iterable[Any],
    *,
    max_states: int = 1_000_000,
) -> Dict[Any, Triples]:
    """BFS closure of ``sources`` under ``successors``: the full labelled
    graph ``{state: transitions}``, for states of any hashable kind.

    Raises :class:`StateSpaceExceededError` past ``max_states`` (guard against an
    accidentally infinite space, e.g. an uncapped depth counter).
    """
    graph: Dict[Any, Triples] = {}
    frontier: List[Any] = []
    for state in sources:
        if state not in graph:
            graph[state] = ()  # until expanded
            frontier.append(state)
    cursor = 0
    while cursor < len(frontier):
        state = frontier[cursor]
        cursor += 1
        transitions = successors(state)
        graph[state] = transitions
        for _pid, _action, target in transitions:
            if target not in graph:
                if len(graph) >= max_states:
                    raise StateSpaceExceededError(max_states)
                graph[target] = ()
                frontier.append(target)
    return graph


class FastExplorer:
    """Packed-state reachability for the checker's visited set.

    Wraps :class:`repro.fastcore.explorer.FastTransitionSystem` behind the
    verification layer's vocabulary: ``enabled``/``successors`` match
    :class:`TransitionSystem` transition-for-transition (the parity battery
    pins this), while :meth:`reachable_count` replaces the object BFS's
    configuration-keyed graph with a ``set`` of ints, one per state — the
    representation that lets exhaustive sweeps scale past toy rings.
    """

    def __init__(self, algorithm: Algorithm, topology: Topology) -> None:
        # Imported lazily: fastcore imports this module for ``Transition``.
        from ..fastcore.explorer import FastTransitionSystem

        self.algorithm = algorithm
        self.topology = topology
        self._fts = FastTransitionSystem(algorithm, topology)

    def enabled(self, config: Configuration) -> List[Tuple[Pid, str]]:
        """Mirror of :meth:`TransitionSystem.enabled`."""
        return self._fts.enabled(config)

    def successors(self, config: Configuration) -> "List[Transition]":
        """Mirror of :meth:`TransitionSystem.successors`."""
        return self._fts.successors(config)

    def reachable_count(
        self,
        sources: Iterable[Configuration],
        *,
        max_states: int = 1_000_000,
        progress: Optional[Callable[[int, int, int], None]] = None,
    ):
        """BFS closure size + transition/violation counts over packed keys.

        Returns a :class:`repro.fastcore.explorer.FastReachability` whose
        ``states`` equals ``len(TransitionSystem.reachable_from(sources))``;
        ``progress(level, states, frontier)`` is called once per BFS level.
        """
        return self._fts.reachable_stats(
            sources, max_states=max_states, progress=progress
        )


class TransitionSystem:
    """Computes successors of configurations by executing the algorithm.

    A single scratch :class:`System` is reused across calls; each successor
    computation restores it to the source configuration, executes one
    enabled action, and snapshots.

    :class:`FastExplorer` is the packed-state drop-in for the read-only
    surface (``enabled``/``successors``/reachability counting); this class
    remains the reference that defines what those must return.
    """

    def __init__(self, algorithm: Algorithm, topology: Topology) -> None:
        self.algorithm = algorithm
        self.topology = topology
        self._scratch = System(topology, algorithm)

    def enabled(self, config: Configuration) -> List[Tuple[Pid, str]]:
        """Every enabled ``(pid, action name)`` pair at ``config``."""
        self._scratch.restore(config)
        return [
            (pid, action.name)
            for pid, action in self._scratch.all_enabled()
        ]

    def successors(self, config: Configuration) -> List[Transition]:
        """All one-step successors of ``config`` with their labels."""
        scratch = self._scratch
        scratch.restore(config)
        enabled = scratch.all_enabled()
        transitions: List[Transition] = []
        for pid, action in enabled:
            scratch.restore(config)
            scratch.execute(pid, action)
            transitions.append(Transition(pid, action.name, scratch.snapshot()))
        return transitions

    def reachable_from(
        self, sources: Iterable[Configuration], *, max_states: int = 1_000_000
    ) -> Dict[Configuration, List[Transition]]:
        """BFS closure of ``sources``: :func:`reachable_graph` over
        :meth:`successors` (same ``max_states`` guard)."""
        return reachable_graph(self.successors, sources, max_states=max_states)
