"""Dijkstra's classic fork-ordering diners (the paper's reference [8]).

The oldest deadlock-free solution: one fork per edge, a global total order
on forks, and hold-and-wait acquisition in ascending order.  A process eats
when it holds every incident fork and releases them all afterwards.

In the shared-memory model the fork on edge ``{p, q}`` is the edge variable,
taking one of three values: ``FORK_FREE``, ``p`` (p holds it), or ``q``.
The global order ranks edge ``{p, q}`` by ``(min, max)`` of the endpoints'
node indices, so each process meets its forks in its neighbours' index
order: every lower-indexed neighbour first, then every higher one, each
ascending.

Expected behaviour under the paper's fault models (what E2/E8 measure):

* deadlock-free and live without faults (the total order breaks cycles);
* **unbounded failure locality**: a process that crashes holding forks
  blocks its neighbours, who sit on their lower-ordered forks forever and
  transitively block *their* neighbours — starvation chains of any length;
* **not stabilizing**: an arbitrary state can violate the ascending-order
  discipline (each of two processes holding the fork the other needs),
  a permanent deadlock the algorithm has no mechanism to detect.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Tuple

from ..core.figure1 import FORK_FREE, Action, ActionTable, table_bits, view_program
from ..core.state import (
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_JOIN,
    VAR_NEEDS,
    VAR_STATE,
    DinerState,
)
from ..sim.domains import BoolDomain, Domain, FiniteDomain
from ..sim.process import ActionDef, Algorithm
from ..sim.topology import Edge, Pid, Topology

T = DinerState.THINKING.value
H = DinerState.HUNGRY.value
E = DinerState.EATING.value

ACTION_ACQUIRE = "acquire"

#: The program, in the action-table vocabulary of Figure 1: ``next_free``
#: is "the lowest-ordered fork I lack is free", ``all_held`` "I hold every
#: fork".
FORK_ORDERING = ActionTable((
    Action(ACTION_JOIN, (("needs", "state == T"),), (("state", "H"),)),
    Action(ACTION_ACQUIRE, (("state == H", "next_free"),), (), edges="take next"),
    Action(ACTION_ENTER, (("state == H", "all_held"),), (("state", "E"),)),
    Action(ACTION_EXIT, (("state == E",),), (("state", "T"),),
           edges="release held"),
))


class ForkOrderingDiners(Algorithm):
    """Resource-ordering diners: acquire incident forks in ascending order.

    Four actions per process ``p`` (:data:`FORK_ORDERING`):

    ``join``     ``needs ∧ state = T  →  state := H``
    ``acquire``  ``state = H ∧ the lowest-ordered fork p is missing is free
                 →  take it``
    ``enter``    ``state = H ∧ p holds all incident forks  →  state := E``
    ``exit``     ``state = E  →  state := T; release all forks p holds``
    """

    name = "fork-ordering"
    hunger_variable = VAR_NEEDS

    table: ActionTable = FORK_ORDERING

    def __init__(self) -> None:
        self._actions = view_program(self.table, None, None)

    # ------------------------------------------------------- declarations

    def local_domains(self, topology: Topology) -> Mapping[str, Domain]:
        return {
            VAR_STATE: FiniteDomain((T, H, E)),
            VAR_NEEDS: BoolDomain(),
        }

    def edge_domain(self, topology: Topology, e: Edge) -> Domain:
        order = {p: i for i, p in enumerate(topology.nodes)}
        p, q = sorted(e, key=lambda x: order[x])
        return FiniteDomain((FORK_FREE, p, q))

    def initial_locals(self, pid: Pid, topology: Topology) -> Mapping[str, Any]:
        return {VAR_STATE: T, VAR_NEEDS: False}

    def initial_edge(self, e: Edge, topology: Topology) -> Any:
        return FORK_FREE

    def actions(self) -> Tuple[ActionDef, ...]:
        return self._actions

    def enabled_bits(self) -> Optional[Callable[..., int]]:
        return table_bits(self)
