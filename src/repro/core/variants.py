"""Ablation variants of the paper's program.

Each variant removes (or misconfigures) exactly one of the mechanisms the
paper's "Solution ideas" section credits with one tolerance property, so the
ablation benchmarks (experiment E8) can show that the mechanism is what buys
the property.  Each is declared here and only here, as an edit of the action
table (:data:`repro.core.figure1.FIGURE1`) that every backend lowers:

* :class:`NoFixdepthDiners` — drops cycle breaking (``fixdepth`` and the
  ``depth > D`` disjunct of ``exit``).  Crash-tolerant but **not
  stabilizing**: a transient fault that creates a priority cycle livelocks
  the cycle's processes forever.
* :class:`NoDynamicThresholdDiners` — drops ``leave``.  Stabilizing but with
  **unbounded failure locality**: a crashed eater can starve a whole chain
  of waiting processes, at any distance.
* :class:`WrongDiameterDiners` — runs the full program with a wrong constant
  ``D``.  Underestimating keeps liveness and stabilization (more spurious
  ``exit`` s, so more scheduling churn); overestimating keeps correctness but
  slows cycle detection proportionally.
"""

from __future__ import annotations

from .algorithm import NADiners
from .figure1 import FIGURE1
from .state import ACTION_EXIT, ACTION_FIXDEPTH, ACTION_LEAVE


class NoFixdepthDiners(NADiners):
    """The program without its cycle-breaking machinery.

    ``fixdepth`` is removed and ``exit`` fires only after eating, never on
    ``depth > D``.  From a legitimate initial state this behaves exactly like
    the full program; from an arbitrary state a priority cycle is permanent.
    """

    name = "na-diners/no-fixdepth"
    table = FIGURE1.without(ACTION_FIXDEPTH).with_guard(
        ACTION_EXIT, (("state == E",),)
    )


class NoDynamicThresholdDiners(NADiners):
    """The program without ``leave`` (no dynamic threshold).

    Hungry processes never yield to their descendants, so waiting chains
    behind a crashed process extend arbitrarily far: failure locality grows
    with the topology instead of staying at 2.
    """

    name = "na-diners/no-threshold"
    table = FIGURE1.without(ACTION_LEAVE)


class WrongDiameterDiners(NADiners):
    """The full program run with a wrong value of the constant ``D`` — the
    same table, a different integer."""

    def __init__(self, assumed_diameter: int, depth_cap: int | None = None) -> None:
        super().__init__(depth_cap, diameter_override=assumed_diameter)
        self.name = f"na-diners/D={assumed_diameter}"
