"""Algorithms, actions, and the view an action executes against.

The paper's programming model (§2) is guarded commands over shared memory: a
process owns local variables, may *read* its neighbours' local variables, and
shares with each neighbour one edge variable that either endpoint may write
(in a restricted manner).  This module captures that model:

* :class:`ActionDef` — a named ``guard``/``command`` pair.  Both receive a
  :class:`ProcessView`, the only handle through which an action may touch
  state.  The view enforces the model: reads of neighbour locals are allowed,
  writes are confined to own locals and incident edge variables, and crash
  status is *not* observable (crashes are undetectable in the paper's model).
* :class:`Algorithm` — a distributed program: variable declarations (with
  domains, so faults and the model checker know every variable's value
  space), initial values, and the action list every process runs.

Algorithms are written once and instantiated per system; all per-process
state lives in the :class:`~repro.sim.network.System`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Tuple

from .domains import Domain
from .errors import NotNeighborsError, SimulationError, UnknownVariableError
from .topology import Edge, Pid, Topology, edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .network import System


class ProcessView:
    """The window through which one process's actions see the world.

    A view is bound to a process ``pid`` in a :class:`System`.  It exposes:

    * read/write access to ``pid``'s own local variables;
    * read-only access to neighbours' local variables (shared-memory reads);
    * read/write access to the shared variable of each incident edge.

    It deliberately does **not** expose whether a neighbour is alive: the
    malicious-crash model makes crashes undetectable, and keeping death out
    of the view keeps every algorithm honest about that.

    This is the *only* door a guard has to state, and the system's
    incremental enabled set leans on it: what a view cannot read cannot
    change its process's guards (see ``System.enabled``).  Reads go
    straight to the system's cell stores — the view holds the handful of
    cells it may see — while every write goes through the system, which
    validates it and marks the readers of the written cell stale.
    """

    __slots__ = (
        "_system", "_pid", "_neighbors", "_ordered", "_own", "_readable", "_edges",
        "_edge_of",
    )

    def __init__(
        self,
        system: "System",
        pid: Pid,
        local_cells: Mapping[Pid, Mapping[str, Any]],
        edge_cells: Mapping[Edge, Any],
    ) -> None:
        self._system = system
        self._pid = pid
        self._neighbors = system.topology.neighbors(pid)
        self._ordered: Tuple[Pid, ...] | None = None
        self._own = local_cells[pid]
        self._readable = {q: local_cells[q] for q in (pid,) + self._neighbors}
        self._edges = edge_cells
        self._edge_of = {q: edge(pid, q) for q in self._neighbors}

    @property
    def pid(self) -> Pid:
        """The process this view belongs to."""
        return self._pid

    @property
    def topology(self) -> Topology:
        """The communication graph (read-only global knowledge)."""
        return self._system.topology

    @property
    def diameter(self) -> int:
        """The system diameter — the paper's constant ``D``, known to all."""
        return self._system.topology.diameter

    @property
    def neighbors(self) -> Tuple[Pid, ...]:
        """The direct neighbours of this process."""
        return self._neighbors

    @property
    def ordered_neighbors(self) -> Tuple[Pid, ...]:
        """The direct neighbours by node index (their order in
        ``topology.nodes``) — static, so sorted once per view."""
        if self._ordered is None:
            nodes = self._system.topology.nodes
            self._ordered = tuple(sorted(self._neighbors, key=nodes.index))
        return self._ordered

    # ------------------------------------------------------------- locals

    def get(self, variable: str) -> Any:
        """Read one of this process's own local variables."""
        try:
            return self._own[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None

    def set(self, variable: str, value: Any) -> None:
        """Write one of this process's own local variables."""
        self._system.write_local(self._pid, variable, value)

    def peek(self, neighbor: Pid, variable: str) -> Any:
        """Read a local variable of a *neighbour* (shared-memory read).

        Reading an arbitrary remote process would break the model, so only
        neighbours (and the process itself) are allowed.
        """
        try:
            values = self._readable[neighbor]
        except KeyError:
            raise NotNeighborsError(self._pid, neighbor) from None
        try:
            return values[variable]
        except KeyError:
            raise UnknownVariableError(variable) from None

    # -------------------------------------------------------------- edges

    def edge_value(self, neighbor: Pid) -> Any:
        """Read the shared variable on the edge to ``neighbor``."""
        try:
            return self._edges[self._edge_of[neighbor]]
        except KeyError:
            raise NotNeighborsError(self._pid, neighbor) from None

    def set_edge(self, neighbor: Pid, value: Any) -> None:
        """Write the shared variable on the edge to ``neighbor``."""
        try:
            e = self._edge_of[neighbor]
        except KeyError:
            raise NotNeighborsError(self._pid, neighbor) from None
        self._system.write_edge(e, value)


GuardFn = Callable[[ProcessView], bool]
CommandFn = Callable[[ProcessView], None]


@dataclass(frozen=True)
class ActionDef:
    """One guarded command: ``name : guard -> command``.

    The same :class:`ActionDef` object is shared by every process running the
    algorithm; per-process binding happens by pairing it with a ``pid`` at
    scheduling time.
    """

    name: str
    guard: GuardFn
    command: CommandFn

    def enabled(self, view: ProcessView) -> bool:
        """Evaluate the guard against ``view``."""
        return bool(self.guard(view))

    def execute(self, view: ProcessView) -> None:
        """Run the command against ``view`` (caller checks the guard)."""
        self.command(view)

    def __repr__(self) -> str:
        return f"ActionDef({self.name!r})"


class Algorithm(ABC):
    """A distributed program in the guarded-command shared-memory model.

    Subclasses declare variables with domains, provide initial values, and
    list their actions.  ``hunger_variable`` names the boolean input variable
    driven externally by a :class:`~repro.sim.hunger.HungerPolicy` (the
    paper's ``needs():p``); algorithms without such an input return ``None``.
    """

    #: Human-readable algorithm name (used in traces and benchmark output).
    name: str = "algorithm"

    #: Name of the externally driven "wants to eat" boolean, or None.
    hunger_variable: str | None = None

    #: Name of the action whose execution means "this process eats" — what
    #: throughput and locality measurements count.  Variants that rename
    #: their critical-section entry override this instead of every
    #: measurement hard-coding ``"enter"``.
    enter_action: str = "enter"

    #: Name of the action that leaves the critical section; the depth probe
    #: watches its firings for ``depth > D`` (cycle-break) evidence.
    exit_action: str = "exit"

    @abstractmethod
    def local_domains(self, topology: Topology) -> Mapping[str, Domain]:
        """Declare every local variable and its domain.

        The domains may depend on the topology (e.g. the ``depth`` counter
        saturates relative to the diameter).
        """

    @abstractmethod
    def edge_domain(self, topology: Topology, e: Edge) -> Domain:
        """The domain of the shared variable on edge ``e``."""

    @abstractmethod
    def initial_locals(self, pid: Pid, topology: Topology) -> Mapping[str, Any]:
        """Legitimate initial values for ``pid``'s local variables."""

    @abstractmethod
    def initial_edge(self, e: Edge, topology: Topology) -> Any:
        """Legitimate initial value for the shared variable on edge ``e``."""

    @abstractmethod
    def actions(self) -> Tuple[ActionDef, ...]:
        """The guarded commands every process runs, in declaration order."""

    def enabled_bits(self) -> Callable[[ProcessView], int] | None:
        """One function giving a view's whole enabled set at once (bit ``a``
        set when ``actions()[a]``'s guard holds), or None, and then a store
        evaluates the guards one by one.  A table algorithm returns its
        generated refresh while it runs exactly its table's lowering."""
        return None

    # ------------------------------------------------------------ helpers

    def action_named(self, name: str) -> ActionDef:
        """Look an action up by name (mostly for tests and ablations)."""
        for action in self.actions():
            if action.name == name:
                return action
        raise SimulationError(f"{self.name} has no action named {name!r}")

    def __repr__(self) -> str:
        return f"<Algorithm {self.name}>"
