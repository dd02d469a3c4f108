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

from typing import Any

from ..core.algorithm import TableDiners
from ..core.figure1 import FORK_FREE, Action, ActionTable
from ..core.state import ACTION_ENTER, ACTION_EXIT, ACTION_JOIN
from ..sim.domains import Domain, FiniteDomain
from ..sim.topology import Edge, Topology

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


class ForkOrderingDiners(TableDiners):
    """Resource-ordering diners: acquire incident forks in ascending order.

    Four actions per process ``p`` (:data:`FORK_ORDERING`):

    ``join``     ``needs ∧ state = T  →  state := H``
    ``acquire``  ``state = H ∧ the lowest-ordered fork p is missing is free
                 →  take it``
    ``enter``    ``state = H ∧ p holds all incident forks  →  state := E``
    ``exit``     ``state = E  →  state := T; release all forks p holds``

    Its edges are fork cells, not priorities: free, or the holder.
    """

    name = "fork-ordering"
    table = FORK_ORDERING

    def edge_domain(self, topology: Topology, e: Edge) -> Domain:
        return FiniteDomain((FORK_FREE, *super().edge_domain(topology, e).values()))

    def initial_edge(self, e: Edge, topology: Topology) -> Any:
        return FORK_FREE
