"""The mutable system: processes, their variables, and shared edge cells.

A :class:`System` instantiates an :class:`~repro.sim.process.Algorithm` on a
:class:`~repro.sim.topology.Topology`.  It owns all mutable state — local
variables, shared edge variables, and each process's crash status — and
mediates every read and write so that domain violations and model violations
(writing a neighbour's local, stepping a dead process) fail loudly.

Because every write goes through the system, it also keeps the *enabled set*
current incrementally: each mutator marks stale exactly the processes whose
guards the model lets read the written cell, and :meth:`System.all_enabled`
re-evaluates only those (see its docstring for the rule).

The system knows nothing about time or scheduling; that is the engine's job.
It does know how to snapshot itself into an immutable
:class:`~repro.sim.configuration.Configuration` and how to rebuild itself
from one, which is how the simulator, the predicates, and the model checker
share a single implementation of the algorithm's transition semantics.
"""

from __future__ import annotations

import enum
import random
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from .configuration import Configuration
from .domains import Domain
from .errors import (
    DeadProcessError,
    NotNeighborsError,
    UnknownProcessError,
    UnknownVariableError,
)
from .process import ActionDef, Algorithm, ProcessView
from .topology import Edge, Pid, Topology, edge


class ProcessStatus(enum.Enum):
    """Crash status of one process."""

    ALIVE = "alive"
    #: Arbitrary-behaviour phase of a malicious crash: the process still
    #: takes steps, but they are havoc writes, not algorithm actions.
    MALICIOUS = "malicious"
    #: Halted.  A dead process never takes another step; its variables stay
    #: frozen at whatever values they held when it died.
    DEAD = "dead"


class System:
    """Mutable state of one distributed system run.

    Parameters
    ----------
    topology:
        The communication graph.
    algorithm:
        The program every process runs.
    initially_dead:
        Processes dead from the very first state (the paper's "initially
        dead" special case of crash failure).
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        *,
        initially_dead: Iterable[Pid] = (),
    ) -> None:
        self._topology = topology
        self._algorithm = algorithm
        self._actions: Tuple[ActionDef, ...] = tuple(algorithm.actions())
        self._local_domains: Mapping[str, Domain] = dict(algorithm.local_domains(topology))
        self._edge_domains: Dict[Edge, Domain] = {
            e: algorithm.edge_domain(topology, e) for e in topology.edges
        }
        self._locals: Dict[Pid, Dict[str, Any]] = {}
        for pid in topology.nodes:
            values = dict(algorithm.initial_locals(pid, topology))
            self._validate_locals(pid, values)
            self._locals[pid] = values
        self._edges: Dict[Edge, Any] = {}
        for e in topology.edges:
            value = algorithm.initial_edge(e, topology)
            self._edge_domains[e].validate(f"edge {tuple(e)!r}", value)
            self._edges[e] = value
        self._status: Dict[Pid, ProcessStatus] = {
            pid: ProcessStatus.ALIVE for pid in topology.nodes
        }
        for pid in initially_dead:
            if pid not in self._status:
                raise UnknownProcessError(pid)
            self._status[pid] = ProcessStatus.DEAD
        self._views: Dict[Pid, ProcessView] = {
            pid: ProcessView(self, pid, self._locals, self._edges)
            for pid in topology.nodes
        }
        # The enabled set (see all_enabled): one slot of (pid, action) pairs
        # per process, in node order, plus the processes whose slot is stale.
        self._enabled: Dict[Pid, List[Tuple[Pid, ActionDef]]] = {
            pid: [] for pid in topology.nodes
        }
        self._stale: Set[Pid] = set(topology.nodes)
        #: Who may read a local of ``pid``: the process and its neighbours.
        self._readers: Dict[Pid, Tuple[Pid, ...]] = {
            pid: (pid,) + topology.neighbors(pid) for pid in topology.nodes
        }
        #: Every cell ``pid`` may write, as (store, key, domain): its locals
        #: in declaration order, then its incident edges in neighbour order.
        self._writable: Dict[Pid, List[Tuple[dict, Any, Domain]]] = {
            pid: [
                (self._locals[pid], name, domain)
                for name, domain in self._local_domains.items()
            ]
            + [
                (self._edges, e, self._edge_domains[e])
                for e in (edge(pid, q) for q in topology.neighbors(pid))
            ]
            for pid in topology.nodes
        }
        self._live: Tuple[Pid, ...] | None = None
        self._malicious: Tuple[Pid, ...] | None = None

    def _validate_locals(self, pid: Pid, values: Mapping[str, Any]) -> None:
        """Check initial locals cover exactly the declared variables."""
        declared = set(self._local_domains)
        provided = set(values)
        if provided != declared:
            missing = declared - provided
            extra = provided - declared
            raise UnknownVariableError(
                f"initial locals of {pid!r} mismatch declaration "
                f"(missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for name, value in values.items():
            self._local_domains[name].validate(name, value)

    # ------------------------------------------------------------- basics

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def algorithm(self) -> Algorithm:
        return self._algorithm

    @property
    def pids(self) -> Tuple[Pid, ...]:
        """All process identifiers in deterministic (construction) order."""
        return self._topology.nodes

    def view(self, pid: Pid) -> ProcessView:
        """The action-execution view of ``pid``."""
        try:
            return self._views[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    # ------------------------------------------------------------- status

    def status(self, pid: Pid) -> ProcessStatus:
        try:
            return self._status[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    def is_live(self, pid: Pid) -> bool:
        """True when ``pid`` runs algorithm actions (neither dead nor malicious)."""
        return self.status(pid) is ProcessStatus.ALIVE

    def live_pids(self) -> Tuple[Pid, ...]:
        """The ALIVE processes, in node order."""
        if self._live is None:
            self._live = self._with_status(ProcessStatus.ALIVE)
        return self._live

    def malicious_pids(self) -> Tuple[Pid, ...]:
        """The processes mid-way through a malicious crash, in node order."""
        if self._malicious is None:
            self._malicious = self._with_status(ProcessStatus.MALICIOUS)
        return self._malicious

    def _with_status(self, status: ProcessStatus) -> Tuple[Pid, ...]:
        return tuple(p for p, s in self._status.items() if s is status)

    def _set_status(self, pid: Pid, status: ProcessStatus) -> None:
        if self._status[pid] is not status:
            self._status[pid] = status
            self._live = self._malicious = None
            self._stale.add(pid)

    def mark_malicious(self, pid: Pid) -> None:
        """Enter the arbitrary-behaviour phase of a malicious crash."""
        if self.status(pid) is ProcessStatus.DEAD:
            raise DeadProcessError(pid)
        self._set_status(pid, ProcessStatus.MALICIOUS)

    def kill(self, pid: Pid) -> None:
        """Halt ``pid`` permanently (benign crash, or end of malice)."""
        self.status(pid)  # raises for unknown pid
        self._set_status(pid, ProcessStatus.DEAD)

    # ----------------------------------------------------------- variables

    def read_local(self, pid: Pid, variable: str) -> Any:
        try:
            values = self._locals[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None
        try:
            return values[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None

    def write_local(self, pid: Pid, variable: str, value: Any) -> None:
        """Write one local variable; a no-op when ``value`` is the object
        already stored (so neither validated nor staled again)."""
        domain = self._local_domains.get(variable)
        if domain is None:
            raise UnknownVariableError(variable)
        try:
            values = self._locals[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None
        old = values[variable]
        if value is old:
            return
        domain.validate(variable, value)
        values[variable] = value
        if value != old:
            self._stale.update(self._readers[pid])

    def locals_of(self, pid: Pid) -> Dict[str, Any]:
        """A copy of ``pid``'s local variables (safe to keep after mutation)."""
        try:
            return dict(self._locals[pid])
        except KeyError:
            raise UnknownProcessError(pid) from None

    def read_edge(self, e: Edge) -> Any:
        try:
            return self._edges[e]
        except KeyError:
            raise NotNeighborsError(*tuple(e))

    def write_edge(self, e: Edge, value: Any) -> None:
        """Write one shared edge cell (same no-op rule as :meth:`write_local`)."""
        try:
            old = self._edges[e]
        except KeyError:
            raise NotNeighborsError(*tuple(e))
        if value is old:
            return
        self._edge_domains[e].validate(f"edge {tuple(e)!r}", value)
        self._edges[e] = value
        if value != old:
            self._stale.update(e)

    def local_domain(self, variable: str) -> Domain:
        try:
            return self._local_domains[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None

    def local_variable_names(self) -> Tuple[str, ...]:
        return tuple(self._local_domains)

    def edge_domain_of(self, e: Edge) -> Domain:
        try:
            return self._edge_domains[e]
        except KeyError:
            raise NotNeighborsError(*tuple(e))

    # ------------------------------------------------------------- actions

    def enabled_actions(self, pid: Pid) -> List[ActionDef]:
        """The algorithm actions of ``pid`` whose guards hold right now,
        evaluated from scratch (this is what fills one slot of the enabled
        set; :meth:`all_enabled` is the cached whole).

        Dead and malicious processes have no enabled algorithm actions: a
        dead process takes no steps at all, and a malicious one only takes
        havoc steps (driven by the fault machinery, not by guards).
        """
        if self.status(pid) is not ProcessStatus.ALIVE:
            return []
        view = self._views[pid]
        return [a for a in self._actions if a.enabled(view)]

    def all_enabled(self) -> List[Tuple[Pid, ActionDef]]:
        """Every enabled ``(pid, action)`` pair: processes in node order,
        each one's actions in declaration order.

        The list is maintained incrementally.  §2 of the paper lets a guard
        of ``p`` read only ``p``'s locals, its neighbours' locals and the
        cells of ``p``'s incident edges, and :class:`ProcessView` is the only
        door a guard has to state (own + neighbour locals, incident edges,
        static topology; the low-atomicity ``CachedView`` and ``KStateToken``
        go through it too).  So every mutator marks stale exactly the
        processes that may read what it wrote, and only those are
        re-evaluated here:

        ==============================  =================================
        write                           stales
        ==============================  =================================
        local of ``p``                  ``p`` and every neighbour of ``p``
        edge ``{p, q}``                 ``p`` and ``q``
        ``kill`` / ``mark_malicious``   ``p`` (status is not observable)
        ``havoc_process(p)``            ``p`` and every neighbour of ``p``
        ``randomize(pids)``             each chosen ``p`` and its neighbours
        ``restore``                     the above, per cell it changed
        ==============================  =================================

        A write that stores an equal value stales nothing, and a write of
        the very object already stored is skipped outright, so two things
        are required of a program.  A guard that reads anything
        :class:`ProcessView` does not offer (a global, another process's
        state through a closure, the clock) is a model violation *and* a
        stale-cache bug: nothing would invalidate it.  And every value a
        :class:`~repro.sim.domains.Domain` admits must be immutable: a
        command that mutates a stored list or dict in place and writes it
        back has changed state behind the identity check, with no error.
        """
        if self._stale:
            self._reevaluate_stale()
        return list(chain.from_iterable(self._enabled.values()))

    def is_enabled(self, pid: Pid, action: ActionDef) -> bool:
        """True when ``(pid, action)`` is in :meth:`all_enabled` right now."""
        if self._stale:
            self._reevaluate_stale()
        return (pid, action) in self._enabled.get(pid, ())

    def _reevaluate_stale(self) -> None:
        for pid in self._stale:
            self._enabled[pid] = [
                (pid, action) for action in self.enabled_actions(pid)
            ]
        self._stale.clear()

    def execute(self, pid: Pid, action: ActionDef) -> None:
        """Run ``action`` at ``pid`` (the caller has checked the guard)."""
        if self.status(pid) is not ProcessStatus.ALIVE:
            raise DeadProcessError(pid)
        action.execute(self._views[pid])

    def is_quiescent(self) -> bool:
        """True when no live process has an enabled action (terminal state)."""
        return not self.all_enabled()

    # ---------------------------------------------------- fault primitives

    def havoc_process(self, pid: Pid, rng: random.Random) -> None:
        """One arbitrary step of a malicious process.

        Writes random in-domain values to a random non-empty subset of
        ``pid``'s own local variables and incident edge variables.  This is
        the strongest perturbation the paper's model allows a faulty process:
        it can only touch state it could legally write when healthy.
        """
        if self.status(pid) is ProcessStatus.DEAD:
            raise DeadProcessError(pid)
        targets = self._writable[pid]
        count = rng.randint(1, len(targets))
        for store, key, domain in rng.sample(targets, count):
            store[key] = domain.sample(rng)
        self._stale.update(self._readers[pid])

    def randomize(self, rng: random.Random, pids: Iterable[Pid] | None = None) -> None:
        """Transient fault: replace state with arbitrary in-domain values.

        With ``pids=None`` the whole system state (all locals, all edges) is
        perturbed, matching the paper's "transient failure ... leaves the
        system in arbitrary state".  A subset limits the blast radius.
        """
        chosen = tuple(self.pids if pids is None else pids)
        chosen_set = set(chosen)
        for pid in chosen:
            if pid not in self._locals:
                raise UnknownProcessError(pid)
            for name, domain in self._local_domains.items():
                self._locals[pid][name] = domain.sample(rng)
            self._stale.update(self._readers[pid])
        for e in self._topology.edges:
            if chosen_set & set(e):
                self._edges[e] = self._edge_domains[e].sample(rng)

    # ------------------------------------------------------- configuration

    def snapshot(self) -> Configuration:
        """Freeze the current state into an immutable configuration."""
        return Configuration(
            self._topology,
            self._locals,
            self._edges,
            dead=(p for p, s in self._status.items() if s is ProcessStatus.DEAD),
            malicious=self.malicious_pids(),
        )

    def restore(self, configuration: Configuration) -> None:
        """Overwrite the system state from ``configuration``.

        The configuration must concern the same topology.  Domain validation
        is applied to every cell that changes, so a configuration fabricated
        with out-of-domain values is rejected rather than silently accepted;
        a cell already holding the configuration's value is left alone.
        """
        if configuration.topology.nodes != self._topology.nodes or (
            configuration.topology.edges != self._topology.edges
        ):
            raise UnknownProcessError("configuration topology mismatch")
        for pid in self.pids:
            for name, value in configuration.locals_of(pid).items():
                self.write_local(pid, name, value)
        edge_values = configuration.edge_values()
        for e in self._topology.edges:
            self.write_edge(e, edge_values[e])
        for pid in self.pids:
            if pid in configuration.dead:
                self._set_status(pid, ProcessStatus.DEAD)
            elif pid in configuration.malicious:
                self._set_status(pid, ProcessStatus.MALICIOUS)
            else:
                self._set_status(pid, ProcessStatus.ALIVE)

    @classmethod
    def from_configuration(
        cls, algorithm: Algorithm, configuration: Configuration
    ) -> "System":
        """Materialise a mutable system from a snapshot."""
        system = cls(configuration.topology, algorithm)
        system.restore(configuration)
        return system

    def __repr__(self) -> str:
        dead = [p for p, s in self._status.items() if s is not ProcessStatus.ALIVE]
        return (
            f"System({self._algorithm.name}, n={len(self._topology)}, "
            f"faulty={sorted(map(repr, dead))})"
        )
