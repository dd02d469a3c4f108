"""Chandy–Misra style "hygienic" diners (the paper's reference [5]).

The essence of the hygienic algorithm, expressed at the same shared-memory
granularity as the paper's program: an acyclic priority graph over the
neighbour relation; a hungry process eats once every *conflicting* (hungry or
eating) neighbour is its descendant; after eating it demotes itself below all
neighbours.  This is the classic solution the paper builds on ("a well-known
idea of maintaining a partial order of priority among processes [5]"), and
so it is Figure 1 less the paper's two mechanisms: three rows in the same
vocabulary (:data:`HYGIENIC`), no new atom or cell.

What it deliberately lacks — and what the benchmarks show it costs:

* **no dynamic threshold** (``leave``, and ``join``'s ancestor test):
  hungry processes wait on hungry ancestors indefinitely, so a single
  crashed process can starve a chain of processes of any length — failure
  locality grows with the topology;
* **no cycle breaking** (``fixdepth``, ``depth`` and ``exit``'s
  ``depth > D``): from an arbitrary initial state a priority cycle among
  hungry processes is a permanent deadlock — the algorithm is not
  stabilizing.
"""

from __future__ import annotations

from ..core.algorithm import TableDiners
from ..core.figure1 import Action, ActionTable
from ..core.state import ACTION_ENTER, ACTION_EXIT, ACTION_JOIN

#: The program: ``enter`` waits for no ancestor to be hungry or eating and
#: no descendant to be eating — no conflicting neighbour above it.
HYGIENIC = ActionTable((
    Action(ACTION_JOIN, (("needs", "state == T"),), (("state", "H"),)),
    Action(ACTION_ENTER, (("state == H", "not anc_nonT", "not desc_E"),),
           (("state", "E"),)),
    Action(ACTION_EXIT, (("state == E",),), (("state", "T"),), edges="away"),
))


class HygienicDiners(TableDiners):
    """Priority-graph diners without threshold or stabilization machinery.

    Three actions per process ``p`` (:data:`HYGIENIC`):

    ``join``   ``needs ∧ state = T  →  state := H``
    ``enter``  ``state = H ∧ (∀ ancestor q: state.q = T) ∧
               (∀ descendant q: state.q ≠ E)  →  state := E``
    ``exit``   ``state = E  →  state := T; demote below all neighbours``

    The edge-variable convention is :class:`~repro.core.NADiners`'s (the
    stored identifier is the ancestor), so all priority-graph analysis code
    applies unchanged.
    """

    name = "hygienic"
    table = HYGIENIC
