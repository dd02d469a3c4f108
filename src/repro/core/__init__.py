"""The paper's contribution: the malicious-crash-tolerant diners program.

Public surface:

* :data:`FIGURE1` — the paper's program as an action table, written once;
* :class:`NADiners` — that program's variables, domains and initial state,
  with the table lowered to guarded commands over ``ProcessView``;
  :class:`TableDiners`, its base, is any diner written as a table;
* the predicates of §3 (``invariant_holds``, ``nc_holds``, ``st_holds``,
  ``e_holds``, ``red_set``, ``green_set``, ...);
* the ablation variants used by experiment E8;
* the Figure 2 reconstruction.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    # re-exported: hunger is the diners' input signal
    "..sim.hunger": (
        "AlwaysHungry HungerPolicy NeverHungry ProbabilisticHunger "
        "ScriptedHunger SelectiveHunger"
    ),
    ".algorithm": "NADiners TableDiners",
    ".figure1": "FIGURE1 ActionTable",
    ".figure2": (
        "FIGURE2_DEPTHS FIGURE2_PRIORITIES FIGURE2_SEQUENCE FIGURE2_STATES "
        "Figure2Replay figure2_configuration figure2_system run_figure2"
    ),
    ".predicates": (
        "e_holds eating_pairs green_set invariant_holds invariant_report "
        "invariant_with_threshold is_shallow longest_live_ancestor_chain "
        "nc_holds priority_edges red_set shallow_set st_holds "
        "stably_shallow_set"
    ),
    ".state": (
        "ACTION_ENTER ACTION_EXIT ACTION_FIXDEPTH ACTION_JOIN ACTION_LEAVE "
        "VAR_DEPTH VAR_NEEDS VAR_STATE DinerState direct_ancestors"
    ),
    ".variants": (
        "NoDynamicThresholdDiners NoFixdepthDiners WrongDiameterDiners"
    ),
})
