"""Low-atomicity transformation: guards over cached neighbour state.

The paper's program is written in *composite atomicity*: a guard reads
several neighbours' variables and the command executes in one atomic step.
Real shared-memory (and message-passing) systems only offer read/write
atomicity: a process reads **one** remote variable at a time, so guards are
necessarily evaluated over a possibly stale local *cache*.  §4 points to
Nesterenko & Arora's atomicity refinement [15], which makes that gap safe
with a stabilizing handshake.

:class:`LowAtomicityAdapter` mechanically transforms any kernel
:class:`~repro.sim.process.Algorithm` into its read/write-atomicity
version:

* for every neighbour variable a process's guards may read, it adds a local
  cache variable ``cache::<q>::<var>``;
* it adds one ``refresh::<q>`` action per neighbour, copying that
  neighbour's variables (and the shared edge cell) into the cache in a
  single step — the one remote read the model allows;
* the original actions run unchanged, but their views redirect every
  ``peek``/``edge_value`` to the cache, and ``set_edge`` writes through to
  both the cache and the real cell.

The transformation preserves each action's local effect but **not** the
original correctness proof: two neighbours may both see stale "thinking"
caches and both enter eating.  That failure is the point — experiment E11
measures it, quantifying exactly what [15]'s handshake must repair; the
repaired side of the comparison is the token-synchronized message-passing
diners of :mod:`repro.mp` (experiment E7c), where the fork tokens supply
the synchronization the naive caches lack.

The adapter also demonstrates kernel compositionality: adapted algorithms
run on the unmodified engine, fault machinery, and model checker.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from ..sim.domains import Domain
from ..sim.process import ActionDef, Algorithm, ProcessView
from ..sim.topology import Edge, Pid, Topology

CACHE_SEP = "::"


def cache_var(neighbor: Pid, variable: str) -> str:
    """Name of the cache slot for ``neighbor``'s ``variable``."""
    return f"cache{CACHE_SEP}{neighbor!r}{CACHE_SEP}{variable}"


def edge_cache_var(neighbor: Pid) -> str:
    """Name of the cache slot for the shared cell on the edge to ``neighbor``."""
    return f"cache{CACHE_SEP}{neighbor!r}{CACHE_SEP}<edge>"


class CachedView:
    """A :class:`ProcessView` facade that serves remote reads from caches.

    Own-variable access and writes pass through; ``peek`` and ``edge_value``
    read the cache slots; ``set_edge`` writes through to the real cell *and*
    the cache (a process knows what it just wrote).
    """

    __slots__ = ("_inner",)

    def __init__(self, inner: ProcessView) -> None:
        self._inner = inner

    @property
    def pid(self) -> Pid:
        return self._inner.pid

    @property
    def topology(self) -> Topology:
        return self._inner.topology

    @property
    def diameter(self) -> int:
        return self._inner.diameter

    @property
    def neighbors(self) -> Tuple[Pid, ...]:
        return self._inner.neighbors

    @property
    def ordered_neighbors(self) -> Tuple[Pid, ...]:
        return self._inner.ordered_neighbors

    def get(self, variable: str) -> Any:
        return self._inner.get(variable)

    def set(self, variable: str, value: Any) -> None:
        self._inner.set(variable, value)

    def peek(self, neighbor: Pid, variable: str) -> Any:
        if neighbor == self._inner.pid:
            return self._inner.get(variable)
        return self._inner.get(cache_var(neighbor, variable))

    def edge_value(self, neighbor: Pid) -> Any:
        return self._inner.get(edge_cache_var(neighbor))

    def set_edge(self, neighbor: Pid, value: Any) -> None:
        self._inner.set_edge(neighbor, value)
        self._inner.set(edge_cache_var(neighbor), value)


class LowAtomicityAdapter(Algorithm):
    """Run ``base`` under read/write atomicity (see module docstring).

    Parameters
    ----------
    base:
        Any algorithm written for composite atomicity.
    refresh_whole_neighbor:
        True (default, and what [15] assumes of a single remote *process*
        read): one refresh action copies all of one neighbour's variables
        plus the shared edge cell.  False splits refreshing into one action
        per (neighbour, variable) — the harshest register-level atomicity.
    """

    def __init__(self, base: Algorithm, *, refresh_whole_neighbor: bool = True) -> None:
        self.base = base
        self.refresh_whole_neighbor = refresh_whole_neighbor
        self.name = f"{base.name}/low-atomicity"
        self.hunger_variable = base.hunger_variable

    # ------------------------------------------------------- declarations

    def local_domains(self, topology: Topology) -> Mapping[str, Domain]:
        base_domains = dict(self.base.local_domains(topology))
        domains: Dict[str, Domain] = dict(base_domains)
        max_degree_nodes = topology.nodes
        # Cache slots must exist for every potential neighbour of every
        # process; the kernel declares domains per-algorithm (not per-pid),
        # so declare slots for every node id.  Unused slots stay at their
        # initial value and cost nothing.
        for q in max_degree_nodes:
            for variable, domain in base_domains.items():
                domains[cache_var(q, variable)] = domain
            domains[edge_cache_var(q)] = _AnyEdgeDomain(self.base, topology)
        return domains

    def edge_domain(self, topology: Topology, e: Edge) -> Domain:
        return self.base.edge_domain(topology, e)

    def initial_locals(self, pid: Pid, topology: Topology) -> Mapping[str, Any]:
        values: Dict[str, Any] = dict(self.base.initial_locals(pid, topology))
        for q in topology.nodes:
            if topology.are_neighbors(pid, q):
                neighbor_initial = self.base.initial_locals(q, topology)
                for variable, value in neighbor_initial.items():
                    values[cache_var(q, variable)] = value
                from ..sim.topology import edge as mk_edge

                values[edge_cache_var(q)] = self.base.initial_edge(
                    mk_edge(pid, q), topology
                )
            else:
                for variable, domain in self.base.local_domains(topology).items():
                    values[cache_var(q, variable)] = next(iter(domain.values()))
                values[edge_cache_var(q)] = pid
        return values

    def initial_edge(self, e: Edge, topology: Topology) -> Any:
        return self.base.initial_edge(e, topology)

    # ------------------------------------------------------------ actions

    def actions(self) -> Tuple[ActionDef, ...]:
        wrapped = tuple(
            ActionDef(
                action.name,
                _wrap_guard(action),
                _wrap_command(action),
            )
            for action in self.base.actions()
        )
        return wrapped + (
            ActionDef("refresh", self._refresh_guard, self._refresh),
        )

    # In the real model re-reading a neighbour is *always* allowed, so the
    # refresh action is semantically always enabled; guarding it on "some
    # cache slot is stale" merely removes the no-op executions (stutter
    # removal), which keeps quiescence detection and fair scheduling sane.
    # One refresh execution performs exactly one remote read: a whole
    # neighbour (one process read, what [15] assumes) or a single stale
    # slot (register-level atomicity, the harshest mode).

    def _refresh_guard(self, view: ProcessView) -> bool:
        return self._first_stale(view) is not None

    def _refresh(self, view: ProcessView) -> None:
        stale = self._first_stale(view)
        assert stale is not None
        q, variable = stale
        if self.refresh_whole_neighbor:
            for name in self.base.local_domains(view.topology):
                view.set(cache_var(q, name), view.peek(q, name))
            view.set(edge_cache_var(q), view.edge_value(q))
        elif variable is None:
            view.set(edge_cache_var(q), view.edge_value(q))
        else:
            view.set(cache_var(q, variable), view.peek(q, variable))

    def _first_stale(self, view: ProcessView) -> Tuple[Pid, Any] | None:
        """The first stale (neighbour, variable) slot; variable None means
        the edge-cell cache.  Deterministic scan order."""
        for q in view.neighbors:
            if view.get(edge_cache_var(q)) != view.edge_value(q):
                return (q, None)
            for variable in self.base.local_domains(view.topology):
                if view.get(cache_var(q, variable)) != view.peek(q, variable):
                    return (q, variable)
        return None


def _wrap_guard(action: ActionDef):
    def guard(view: ProcessView) -> bool:
        return action.guard(CachedView(view))

    return guard


def _wrap_command(action: ActionDef):
    def command(view: ProcessView) -> None:
        action.command(CachedView(view))

    return command


class _AnyEdgeDomain(Domain):
    """Domain of an edge-cache slot: any endpoint id of any edge.

    Edge cells of different edges have different domains; a per-neighbour
    cache slot mirrors exactly one edge, but the declaration is shared
    across processes, so the slot's domain is the union of all node ids.
    """

    def __init__(self, base: Algorithm, topology: Topology) -> None:
        values = set(topology.nodes)
        for e in topology.edges:
            for value in base.edge_domain(topology, e).values():
                values.add(value)
        order = {p: i for i, p in enumerate(topology.nodes)}
        self._values = tuple(
            sorted(values, key=lambda v: (v not in order, order.get(v, 0), repr(v)))
        )
        self._value_set = frozenset(self._values)

    def contains(self, value: Any) -> bool:
        return value in self._value_set

    def sample(self, rng) -> Any:
        return rng.choice(self._values)

    def values(self):
        return iter(self._values)

    def __repr__(self) -> str:
        return f"_AnyEdgeDomain({len(self._values)} values)"
