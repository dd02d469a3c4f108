"""Shared vocabulary of the dining-philosophers programs.

All diners algorithms in this repository (the paper's program, its ablation
variants, and the baselines) use the same three-valued ``state`` variable and
the same edge-variable convention, so the predicates, analysis and metrics
modules can treat them uniformly.

Edge-variable convention (from Figure 1 of the paper): the shared variable
``priority:p:q`` on edge ``{p, q}`` holds the identifier of the
**higher-priority endpoint** — the *ancestor*.  If ``priority:p:q == q`` the
edge is directed from ``q`` towards ``p`` in the priority graph, ``q`` is a
direct ancestor of ``p``, and ``p`` is a direct descendant of ``q``.
A process's *descendants* are the processes reachable from it along priority
edges; after ``exit`` a process points every incident edge at its neighbour,
making itself a sink (lowest priority).
"""

from __future__ import annotations

import enum
from typing import Tuple

from ..sim.configuration import Configuration
from ..sim.topology import Pid


class DinerState(str, enum.Enum):
    """The paper's ``state:p ∈ {T, H, E}``."""

    THINKING = "T"
    HUNGRY = "H"
    EATING = "E"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Local-variable names shared by all diners algorithms.
VAR_STATE = "state"
VAR_NEEDS = "needs"
VAR_DEPTH = "depth"

#: Action names of the paper's program (Figure 1), reused by variants.
ACTION_JOIN = "join"
ACTION_LEAVE = "leave"
ACTION_ENTER = "enter"
ACTION_EXIT = "exit"
ACTION_FIXDEPTH = "fixdepth"


def direct_ancestors(config: Configuration, pid: Pid) -> Tuple[Pid, ...]:
    """Neighbours with priority over ``pid`` (edge variable names them)."""
    return tuple(
        q
        for q in config.topology.neighbors(pid)
        if config.edge_value(pid, q) == q
    )
