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
explorer: it runs every ``Algorithm`` (K-state, hygienic, fork-ordering and
the low-atomicity adapter have no other; choy-singh and the ablations also
pack), and the int-keyed
:class:`repro.fastcore.explorer.FastTransitionSystem` that ``repro check``
uses is tested against it.  :class:`Transition` and :func:`reachable_graph`
are what :mod:`repro.verification.properties` builds on.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping
from typing import NamedTuple, Sequence, Tuple

from ..sim.configuration import Configuration
from ..sim.errors import SimulationError, StateSpaceExceededError
from ..sim.errors import UnknownProcessError
from ..sim.network import System
from ..sim.process import Algorithm
from ..sim.topology import Pid, Topology


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
    their domains (a dead process's state is frozen but arbitrary).  An
    unknown process in ``dead`` raises :class:`UnknownProcessError`.
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
    for pid in dead:
        if pid not in order:
            raise UnknownProcessError(pid)
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


class TransitionSystem:
    """Computes successors of configurations by executing the algorithm.

    A single scratch :class:`System` is reused across calls; each successor
    computation restores it to the source configuration, executes one
    enabled action, and snapshots.

    The int-keyed :class:`repro.fastcore.explorer.FastTransitionSystem`
    is tested against it; this class remains the reference that defines
    what its successors and closures must be.
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
