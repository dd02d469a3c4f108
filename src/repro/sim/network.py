"""The mutable system: processes, their variables, and shared edge cells.

A :class:`System` instantiates an :class:`~repro.sim.process.Algorithm` on a
:class:`~repro.sim.topology.Topology`.  It owns all mutable state — local
variables, shared edge variables, and each process's crash status — and
mediates every read and write so that domain violations and model violations
(writing a neighbour's local, stepping a dead process) fail loudly.

Because every write goes through the system, it also keeps the *enabled set*
current incrementally: each mutator marks stale exactly the processes whose
guards the model lets read the written cell, and :meth:`System.enabled`
re-evaluates only those (its docstring has the rule).

The system knows nothing about time or scheduling; that is the engine's job.
What the engine needs of it is the :class:`StateStore` surface — the enabled
set in index form (:class:`EnabledSet`), ``execute``, the fault primitives,
the live/malicious queries, ``locals_of`` and ``snapshot`` — which
:class:`repro.fastcore.PackedSystem` offers over packed state, so one engine
and one set of daemons drive either representation.
It does know how to snapshot itself into an immutable
:class:`~repro.sim.configuration.Configuration` and how to rebuild itself
from one, which is how the simulator, the predicates, and the model checker
share a single implementation of the algorithm's transition semantics.
"""

from __future__ import annotations

import enum
import random
from typing import Any, Callable, Dict, Iterable, List, Mapping, Set, Tuple

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


class EnabledSet:
    """The enabled set in index form: what a store publishes, what a daemon
    reads.

    ``bits[p]`` has bit ``a`` set when ``actions[a]`` is enabled at
    ``pids[p]``; ``count`` is the number of set bits.  ``changed`` holds the
    processes whose bits changed since a fairness ledger last cleared it —
    a set, so a daemon that keeps no ledger and never clears it leaks
    nothing.  It has one consumer: the daemon of the engine driving the
    store.
    """

    __slots__ = ("pids", "actions", "bits", "count", "changed")

    def __init__(self, pids: Iterable[Pid], actions: Iterable[ActionDef]) -> None:
        self.pids: Tuple[Pid, ...] = tuple(pids)
        self.actions: Tuple[ActionDef, ...] = tuple(actions)
        self.bits: List[int] = [0] * len(self.pids)
        self.count = 0
        self.changed: Set[int] = set()

    def update(self, p: int, bits: int) -> None:
        """Process ``p``'s guards were re-evaluated to ``bits``."""
        old = self.bits[p]
        if bits != old:
            self.bits[p] = bits
            self.count += bits.bit_count() - old.bit_count()
            self.changed.add(p)

    def items(self) -> List[Tuple[int, int]]:
        """Every enabled ``(process index, action index)``: processes in
        node order, each one's actions in declaration order."""
        out = []
        for p, bits in enumerate(self.bits):
            while bits:
                low = bits & -bits
                out.append((p, low.bit_length() - 1))
                bits ^= low
        return out

    def nth(self, k: int) -> Tuple[int, int]:
        """``items()[k]`` without building the list."""
        p = 0
        for bits in self.bits:
            if bits:
                c = bits.bit_count()
                if k < c:
                    while k:
                        bits &= bits - 1
                        k -= 1
                    return p, (bits & -bits).bit_length() - 1
                k -= c
            p += 1
        raise IndexError("enabled set has fewer entries")

    def pairs(self) -> List[Tuple[Pid, ActionDef]]:
        """:meth:`items` as ``(pid, action)`` pairs, for code that reads
        names (strategies, score functions, tests)."""
        pids, actions = self.pids, self.actions
        return [(pids[p], actions[a]) for p, a in self.items()]


#: One cell a process may write, as ``(put, key, domain)``: ``put(key, value)``
#: stores an in-domain value raw — unvalidated, staling nothing.
Cell = Tuple[Callable[[Any, Any], None], Any, Domain]


class StateStore:
    """What an engine drives: a topology's worth of process state behind
    pid-level mutators, publishing its enabled set as an :class:`EnabledSet`.

    Holds what :class:`System` and :class:`repro.fastcore.PackedSystem` must
    do identically whatever the representation — above all the fault
    primitives' draw recipe, which is what makes a seed produce the same
    computation on both.  A subclass supplies the state, ``execute``,
    ``write_local``, ``locals_of``, ``snapshot``, ``status``, and:

    * ``_writable`` — per pid, every :data:`Cell` it may write: its locals in
      declaration order (``_local_count`` of them), then its incident edges
      in neighbour order;
    * ``_edge_cells`` — ``(edge, cell)`` in ``topology.edges`` order;
    * ``_wrote(pid)`` — re-evaluates (or marks stale) everyone who may read
      a cell of ``pid``: its closed neighbourhood;
    * ``_set_status(pid, status)`` — stores a changed status, re-evaluates
      (or stales) ``pid`` and calls ``_status_changed``.
    """

    def __init__(self, topology: Topology, algorithm: Algorithm) -> None:
        self.topology = topology
        self.algorithm = algorithm
        #: All process identifiers in deterministic (construction) order.
        self.pids: Tuple[Pid, ...] = topology.nodes
        self._actions: Tuple[ActionDef, ...] = tuple(algorithm.actions())
        self._index: Dict[Pid, int] = {pid: i for i, pid in enumerate(topology.nodes)}
        self._enabled = EnabledSet(topology.nodes, self._actions)
        #: Processes whose hunger input someone other than the environment
        #: may have written (a fault, a caller) or that were just revived;
        #: the engine puts a constant policy's answer back for these only.
        self.hunger_stale: Set[Pid] = set(topology.nodes)
        self._hunger_var = algorithm.hunger_variable
        self._live: Tuple[Pid, ...] | None = None
        self._malicious: Tuple[Pid, ...] | None = None

    # -------------------------------------------------------- enabled set

    def enabled(self) -> EnabledSet:
        """The current enabled set, in index form."""
        return self._enabled

    def all_enabled(self) -> List[Tuple[Pid, ActionDef]]:
        """Every enabled ``(pid, action)`` pair: processes in node order,
        each one's actions in declaration order."""
        return self.enabled().pairs()

    def is_quiescent(self) -> bool:
        """True when no live process has an enabled action (terminal state)."""
        return not self.enabled().count

    def fire(self, p: int, a: int) -> None:
        """``execute`` for a caller that holds the enabled set's indices (the
        engine, with a daemon's pick): run ``actions[a]`` at ``pids[p]``."""
        self.execute(self.pids[p], self._actions[a])

    # ------------------------------------------------------------- status

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
        return tuple(p for p in self.pids if self.status(p) is status)

    def _status_changed(self, pid: Pid, status: ProcessStatus) -> None:
        self._live = self._malicious = None
        if status is ProcessStatus.ALIVE:
            self.hunger_stale.add(pid)

    def mark_malicious(self, pid: Pid) -> None:
        """Enter the arbitrary-behaviour phase of a malicious crash."""
        if self.status(pid) is ProcessStatus.DEAD:
            raise DeadProcessError(pid)
        self._set_status(pid, ProcessStatus.MALICIOUS)

    def kill(self, pid: Pid) -> None:
        """Halt ``pid`` permanently (benign crash, or end of malice)."""
        self.status(pid)  # raises for unknown pid
        self._set_status(pid, ProcessStatus.DEAD)

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
        cells = self._writable[pid]
        count = rng.randint(1, len(cells))
        for put, key, domain in rng.sample(cells, count):
            put(key, domain.sample(rng))
        self.hunger_stale.add(pid)
        self._wrote(pid)

    def randomize(self, rng: random.Random, pids: Iterable[Pid] | None = None) -> None:
        """Transient fault: replace state with arbitrary in-domain values.

        With ``pids=None`` the whole system state (all locals, all edges) is
        perturbed, matching the paper's "transient failure ... leaves the
        system in arbitrary state".  A subset limits the blast radius.
        """
        chosen = tuple(self.pids if pids is None else pids)
        for pid in chosen:
            if pid not in self._index:
                raise UnknownProcessError(pid)
        for pid in chosen:
            for put, name, domain in self._writable[pid][: self._local_count]:
                put(name, domain.sample(rng))
        chosen_set = set(chosen)
        for e, (put, key, domain) in self._edge_cells:
            if chosen_set & e:
                put(key, domain.sample(rng))
        self.hunger_stale.update(chosen)
        for pid in chosen:
            self._wrote(pid)


class System(StateStore):
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
        super().__init__(topology, algorithm)
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
        #: The processes whose bits in the enabled set are stale (see
        #: ``enabled``, which re-evaluates them).
        self._stale: Set[Pid] = set(topology.nodes)
        #: Each action's bit in the enabled set, beside its guard.
        self._guards = tuple((1 << a, action.guard) for a, action in enumerate(self._actions))
        #: The one refresh ``enabled`` calls per stale live process: the
        #: algorithm's generated one when it offers it, else the guard loop.
        self._bits: Callable[[ProcessView], int] = (
            algorithm.enabled_bits() or self._guard_bits
        )
        #: Who may read a local of ``pid``: the process and its neighbours.
        self._readers: Dict[Pid, Tuple[Pid, ...]] = {
            pid: (pid,) + topology.neighbors(pid) for pid in topology.nodes
        }
        edge_cells = {
            e: (self._edges.__setitem__, e, self._edge_domains[e])
            for e in topology.edges
        }
        self._edge_cells = list(edge_cells.items())
        self._local_count = len(self._local_domains)
        self._writable = {
            pid: [
                (self._locals[pid].__setitem__, name, domain)
                for name, domain in self._local_domains.items()
            ]
            + [edge_cells[edge(pid, q)] for q in topology.neighbors(pid)]
            for pid in topology.nodes
        }

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

    def _set_status(self, pid: Pid, status: ProcessStatus) -> None:
        if self._status[pid] is not status:
            self._status[pid] = status
            self._stale.add(pid)
            self._status_changed(pid, status)

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
        if variable == self._hunger_var:
            self.hunger_stale.add(pid)
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
        evaluated from scratch (the reference for one process's bits in the
        enabled set; :meth:`enabled` is the cached whole).

        Dead and malicious processes have no enabled algorithm actions: a
        dead process takes no steps at all, and a malicious one only takes
        havoc steps (driven by the fault machinery, not by guards).
        """
        if self.status(pid) is not ProcessStatus.ALIVE:
            return []
        view = self._views[pid]
        return [a for a in self._actions if a.enabled(view)]

    def enabled(self) -> EnabledSet:
        """The current enabled set, maintained incrementally.

        §2 of the paper lets a guard of ``p`` read only ``p``'s locals, its
        neighbours' locals and the cells of ``p``'s incident edges, and
        :class:`ProcessView` is the only door a guard has to state (own +
        neighbour locals, incident edges, static topology; the low-atomicity
        ``CachedView`` and ``KStateToken`` go through it too).  So every
        mutator marks stale exactly the processes that may read what it
        wrote, and only those are re-evaluated here:

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
            update, index, views = self._enabled.update, self._index, self._views
            refresh, status, alive = self._bits, self._status, ProcessStatus.ALIVE
            for pid in self._stale:
                update(index[pid], refresh(views[pid]) if status[pid] is alive else 0)
            self._stale.clear()
        return self._enabled

    def _guard_bits(self, view: ProcessView) -> int:
        """The enabled bits at ``view``, one guard call per action: the
        refresh of an algorithm that offers none of its own."""
        bits = 0
        for bit, guard in self._guards:
            if guard(view):
                bits |= bit
        return bits

    def execute(self, pid: Pid, action: ActionDef) -> None:
        """Run ``action`` at ``pid`` (the caller has checked the guard)."""
        if self.status(pid) is not ProcessStatus.ALIVE:
            raise DeadProcessError(pid)
        action.execute(self._views[pid])

    def _wrote(self, pid: Pid) -> None:
        self._stale.update(self._readers[pid])

    # ------------------------------------------------------- configuration

    def snapshot(self) -> Configuration:
        """Freeze the current state into an immutable configuration."""
        return Configuration(
            self.topology,
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
        if configuration.topology.nodes != self.topology.nodes or (
            configuration.topology.edges != self.topology.edges
        ):
            raise UnknownProcessError("configuration topology mismatch")
        for pid in self.pids:
            for name, value in configuration.locals_of(pid).items():
                self.write_local(pid, name, value)
        edge_values = configuration.edge_values()
        for e in self.topology.edges:
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
            f"System({self.algorithm.name}, n={len(self.topology)}, "
            f"faulty={sorted(map(repr, dead))})"
        )
