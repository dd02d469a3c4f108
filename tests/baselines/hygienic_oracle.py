"""Chandy–Misra hygienic diners transcribed by hand — the reference the
hygienic action table is tested against.

These are the guard/command methods ``baselines/hygienic.py`` carried until
its ``ActionDef``s became a lowering of ``HYGIENIC`` (three rows in Figure
1's vocabulary, ``repro.core.figure1.view_program``), moved here verbatim.
Written from the algorithm, not from the table, so a mistake in a row or in
the lowering shows up as a difference.  Nothing in ``src/`` imports this
file; :class:`HygienicOracle` has ``HygienicDiners``'s declarations and
these actions.
"""

from __future__ import annotations

from repro.baselines import HygienicDiners
from repro.core import (
    ACTION_ENTER,
    ACTION_EXIT,
    ACTION_JOIN,
    VAR_NEEDS,
    VAR_STATE,
    DinerState,
)
from repro.sim.process import ActionDef, ProcessView

T = DinerState.THINKING.value
H = DinerState.HUNGRY.value
E = DinerState.EATING.value


class HygienicOracle(HygienicDiners):
    """``HygienicDiners``'s declarations with the hand-written actions."""

    def __init__(self) -> None:
        super().__init__()
        self._actions = (
            ActionDef(ACTION_JOIN, self._join_guard, self._join),
            ActionDef(ACTION_ENTER, self._enter_guard, self._enter),
            ActionDef(ACTION_EXIT, self._exit_guard, self._exit),
        )

    @staticmethod
    def _join_guard(view: ProcessView) -> bool:
        return bool(view.get(VAR_NEEDS)) and view.get(VAR_STATE) == T

    @staticmethod
    def _join(view: ProcessView) -> None:
        view.set(VAR_STATE, H)

    @staticmethod
    def _enter_guard(view: ProcessView) -> bool:
        if view.get(VAR_STATE) != H:
            return False
        for q in view.neighbors:
            state_q = view.peek(q, VAR_STATE)
            if state_q == E:
                return False
            if state_q == H and view.edge_value(q) != view.pid:
                # A hungry neighbour with priority over us blocks us.
                return False
        return True

    @staticmethod
    def _enter(view: ProcessView) -> None:
        view.set(VAR_STATE, E)

    @staticmethod
    def _exit_guard(view: ProcessView) -> bool:
        return view.get(VAR_STATE) == E

    @staticmethod
    def _exit(view: ProcessView) -> None:
        view.set(VAR_STATE, T)
        for q in view.neighbors:
            view.set_edge(q, q)
