"""The paper's program (Figure 1): stabilizing diners with failure locality 2.

Five actions per process ``p``:

``join``
    ``needs ∧ state = T ∧ (∀ ancestor q: state.q = T)  →  state := H``
``leave``
    ``state = H ∧ (∃ ancestor q: state.q ≠ T)  →  state := T``
    — the *dynamic threshold*: a hungry process yields to its descendants
    while an ancestor is hungry or eating, which is what bounds the failure
    locality at 2.
``enter``
    ``state = H ∧ (∀ ancestor q: state.q = T) ∧ (∀ descendant q: state.q ≠ E)
    →  state := E``
``exit``
    ``state = E ∨ depth > D  →  state := T; depth := 0;
    (∀ neighbour q: priority := q)``
    — finishing a meal *or* detecting a priority cycle (depth beyond the
    diameter) demotes ``p`` below all its neighbours, which keeps the
    priority graph acyclic and, in the cycle case, breaks the cycle.
``fixdepth``
    ``∃ descendant q: depth < depth.q + 1  →  depth := depth.q + 1``
    — propagates the distance-to-farthest-descendant estimate upwards; in a
    priority cycle the estimates grow without bound until some process
    exceeds ``D`` and ``exit`` fires.

The rows themselves are data, :data:`repro.core.figure1.FIGURE1`; this
module declares the variables and the initial state, and its actions are
that table lowered to ``ProcessView`` (``figure1.view_program``, and
``figure1.view_bits`` for the store's one-frame refresh).  What every diner
written as a table shares — that lowering, ``state``/``needs`` and the
node-order priority — is :class:`TableDiners`; the paper's program adds
``depth``, a baseline its rows and, for fork-ordering, its fork cells.
The translation is literal except for two deliberate, documented choices:

* ``fixdepth`` takes the **maximum** violating descendant value rather than
  an arbitrary one.  This equals executing the paper's action once per
  violating descendant back-to-back, so every computation produced is still
  a computation of the paper's program (with stuttering removed).
* an optional ``depth_cap`` clamps ``depth`` for the model checker.  With
  ``depth_cap = D + 1`` the clamp is a sound abstraction: every guard only
  tests ``depth > D``, and the clamped guard ``depth < min(depth.q + 1, cap)``
  prevents the degenerate self-loop at the cap.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Tuple

from ..sim.domains import BoolDomain, Domain, FiniteDomain, IntRange, SaturatingInt
from ..sim.process import ActionDef, Algorithm
from ..sim.topology import Edge, Pid, Topology
from .figure1 import FIGURE1, STATE_VALUES, ActionTable, table_bits, view_program
from .state import VAR_DEPTH, VAR_NEEDS, VAR_STATE, DinerState


class TableDiners(Algorithm):
    """A diner that *is* an action table: its actions are ``table`` lowered
    to ``ProcessView`` (with ``depth_cap`` and ``D`` as a subclass sets
    them), its variables ``state`` and ``needs``, initially thinking and
    sated, and its edges name the ancestor, the earlier endpoint in node
    order at the start.  A subclass declares its rows and what it adds."""

    hunger_variable = VAR_NEEDS

    #: The program this class runs; every backend lowers the same rows.
    table: ActionTable
    depth_cap: Optional[int] = None
    diameter_override: Optional[int] = None

    def __init__(self) -> None:
        self._actions = view_program(
            self.table, self.depth_cap, self.diameter_override
        )

    # ------------------------------------------------------- declarations

    def local_domains(self, topology: Topology) -> Mapping[str, Domain]:
        return {VAR_STATE: FiniteDomain(STATE_VALUES), VAR_NEEDS: BoolDomain()}

    def edge_domain(self, topology: Topology, e: Edge) -> Domain:
        order = {p: i for i, p in enumerate(topology.nodes)}
        return FiniteDomain(tuple(sorted(e, key=lambda p: order[p])))

    def initial_locals(self, pid: Pid, topology: Topology) -> Mapping[str, Any]:
        return {VAR_STATE: DinerState.THINKING.value, VAR_NEEDS: False}

    def initial_edge(self, e: Edge, topology: Topology) -> Any:
        # Priority by node order: the earlier endpoint is the ancestor.
        # Consistent with a global topological order, hence acyclic.
        order = {p: i for i, p in enumerate(topology.nodes)}
        return min(e, key=lambda p: order[p])

    def actions(self) -> Tuple[ActionDef, ...]:
        return self._actions

    def enabled_bits(self) -> Optional[Callable[..., int]]:
        return table_bits(self)


class NADiners(TableDiners):
    """Nesterenko–Arora malicious-crash-tolerant dining philosophers.

    Parameters
    ----------
    depth_cap:
        ``None`` (default) keeps ``depth`` unbounded as in the paper.  An
        integer cap (use ``topology.diameter + 1``) makes the state space
        finite for model checking; see the module docstring for why the
        clamp is sound.
    diameter_override:
        The value each process uses as the constant ``D``.  ``None``
        (default, and what the paper assumes) uses the true diameter; the
        wrong-D ablation (:mod:`repro.core.variants`) sets this to study what
        a mis-configured diameter costs.
    """

    name = "na-diners"

    #: A variant is a subclass with an edited table.
    table: ActionTable = FIGURE1

    def __init__(
        self,
        depth_cap: int | None = None,
        *,
        diameter_override: int | None = None,
    ) -> None:
        if depth_cap is not None and depth_cap < 1:
            raise ValueError("depth_cap must be at least 1")
        if diameter_override is not None and diameter_override < 0:
            raise ValueError("diameter_override must be non-negative")
        self.depth_cap = depth_cap
        self.diameter_override = diameter_override
        super().__init__()

    # ------------------------------------------------------- declarations

    def local_domains(self, topology: Topology) -> Mapping[str, Domain]:
        if self.depth_cap is not None:
            depth_domain: Domain = IntRange(0, self.depth_cap)
        else:
            # Unbounded for writes; fault injection samples up to 2D + 2 so a
            # transient fault can push depth both below and beyond the
            # cycle-detection threshold.
            depth_domain = SaturatingInt(2 * topology.diameter + 2)
        return {**super().local_domains(topology), VAR_DEPTH: depth_domain}

    def initial_locals(self, pid: Pid, topology: Topology) -> Mapping[str, Any]:
        return {
            **super().initial_locals(pid, topology),
            VAR_DEPTH: self._initial_depth(pid, topology),
        }

    def _initial_depth(self, pid: Pid, topology: Topology) -> int:
        """The exact distance to ``pid``'s farthest descendant in the initial
        (node-order) priority DAG, so the initial state is quiescent: with
        all-zero depths ``fixdepth`` would be legitimately enabled."""
        value = topology.node_order_depths()[pid]
        if self.depth_cap is not None:
            value = min(value, self.depth_cap)
        return value
