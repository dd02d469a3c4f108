"""Figure 1 transcribed by hand — the reference every lowering is tested against.

These are the guard/command methods ``core/algorithm.py`` and
``core/variants.py`` carried until the object model's ``ActionDef``s became
a lowering of the action table (``repro.core.figure1.view_program``), moved
here verbatim.  They are a *reference implementation*: written from the
paper's figure, not from the table, so a mistake in a table row or in a
lowering shows up as a difference.  Nothing in ``src/`` imports this file and
no option selects it; ``oracle_for(algorithm)`` gives tests an algorithm
whose declarations are ``algorithm``'s and whose actions are these.
"""

from __future__ import annotations

from typing import Tuple

from repro.core import (
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_FIXDEPTH,
    ACTION_JOIN,
    ACTION_LEAVE,
    VAR_DEPTH,
    VAR_NEEDS,
    VAR_STATE,
    DinerState,
    NADiners,
    NoDynamicThresholdDiners,
    NoFixdepthDiners,
)
from repro.sim.process import ActionDef, ProcessView
from repro.sim.topology import Pid

T = DinerState.THINKING.value
H = DinerState.HUNGRY.value
E = DinerState.EATING.value


def view_ancestors(view: ProcessView) -> Tuple[Pid, ...]:
    """Direct ancestors of the view's process (edge variable names them)."""
    return tuple(q for q in view.neighbors if view.edge_value(q) == q)


def view_descendants(view: ProcessView) -> Tuple[Pid, ...]:
    """Direct descendants of the view's process."""
    return tuple(q for q in view.neighbors if view.edge_value(q) == view.pid)


class OracleDiners(NADiners):
    """``NADiners``'s declarations with the hand-written actions."""

    def __init__(
        self,
        depth_cap: int | None = None,
        *,
        diameter_override: int | None = None,
    ) -> None:
        super().__init__(depth_cap, diameter_override=diameter_override)
        self._actions = (
            ActionDef(ACTION_JOIN, self._join_guard, self._join),
            ActionDef(ACTION_LEAVE, self._leave_guard, self._leave),
            ActionDef(ACTION_ENTER, self._enter_guard, self._enter),
            ActionDef(ACTION_EXIT, self._exit_guard, self._exit),
            ActionDef(ACTION_FIXDEPTH, self._fixdepth_guard, self._fixdepth),
        )

    @staticmethod
    def _join_guard(view: ProcessView) -> bool:
        return (
            bool(view.get(VAR_NEEDS))
            and view.get(VAR_STATE) == T
            and all(view.peek(q, VAR_STATE) == T for q in view_ancestors(view))
        )

    @staticmethod
    def _join(view: ProcessView) -> None:
        view.set(VAR_STATE, H)

    @staticmethod
    def _leave_guard(view: ProcessView) -> bool:
        return view.get(VAR_STATE) == H and any(
            view.peek(q, VAR_STATE) != T for q in view_ancestors(view)
        )

    @staticmethod
    def _leave(view: ProcessView) -> None:
        view.set(VAR_STATE, T)

    @staticmethod
    def _enter_guard(view: ProcessView) -> bool:
        return (
            view.get(VAR_STATE) == H
            and all(view.peek(q, VAR_STATE) == T for q in view_ancestors(view))
            and all(view.peek(q, VAR_STATE) != E for q in view_descendants(view))
        )

    @staticmethod
    def _enter(view: ProcessView) -> None:
        view.set(VAR_STATE, E)

    def _d(self, view: ProcessView) -> int:
        """The constant ``D`` as this algorithm instance believes it."""
        if self.diameter_override is not None:
            return self.diameter_override
        return view.diameter

    def _exit_guard(self, view: ProcessView) -> bool:
        return view.get(VAR_STATE) == E or view.get(VAR_DEPTH) > self._d(view)

    @staticmethod
    def _exit(view: ProcessView) -> None:
        view.set(VAR_STATE, T)
        view.set(VAR_DEPTH, 0)
        for q in view.neighbors:
            view.set_edge(q, q)

    def _fixdepth_guard(self, view: ProcessView) -> bool:
        depth = view.get(VAR_DEPTH)
        return any(
            depth < self._propagated(view, q) for q in view_descendants(view)
        )

    def _fixdepth(self, view: ProcessView) -> None:
        depth = view.get(VAR_DEPTH)
        candidates = [
            value
            for q in view_descendants(view)
            if (value := self._propagated(view, q)) > depth
        ]
        view.set(VAR_DEPTH, max(candidates))

    def _propagated(self, view: ProcessView, q: Pid) -> int:
        """``depth.q + 1``, clamped when a depth cap is in force."""
        value = view.peek(q, VAR_DEPTH) + 1
        if self.depth_cap is not None:
            value = min(value, self.depth_cap)
        return value


class OracleNoFixdepth(OracleDiners):
    """``fixdepth`` removed and ``exit`` firing only after a meal."""

    def __init__(self, depth_cap: int | None = None) -> None:
        super().__init__(depth_cap)
        base = {a.name: a for a in super().actions()}
        self._actions = (
            base[ACTION_JOIN],
            base[ACTION_LEAVE],
            base[ACTION_ENTER],
            ActionDef(ACTION_EXIT, self._exit_meal_only_guard, self._exit),
        )

    @staticmethod
    def _exit_meal_only_guard(view: ProcessView) -> bool:
        return view.get(VAR_STATE) == E


class OracleNoDynamicThreshold(OracleDiners):
    """``leave`` removed."""

    def __init__(self, depth_cap: int | None = None) -> None:
        super().__init__(depth_cap)
        self._actions = tuple(
            a for a in super().actions() if a.name != ACTION_LEAVE
        )


def oracle_for(algorithm: NADiners) -> OracleDiners:
    """The hand-written counterpart of ``algorithm`` (the paper's program, a
    wrong-``D`` instance, an ablation or a subclass of one): same cap, same
    ``D``, same name."""
    if isinstance(algorithm, NoFixdepthDiners):
        oracle: OracleDiners = OracleNoFixdepth(algorithm.depth_cap)
    elif isinstance(algorithm, NoDynamicThresholdDiners):
        oracle = OracleNoDynamicThreshold(algorithm.depth_cap)
    else:
        oracle = OracleDiners(
            algorithm.depth_cap, diameter_override=algorithm.diameter_override
        )
    oracle.name = algorithm.name
    return oracle
