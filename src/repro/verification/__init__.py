"""Explicit-state model checking of the paper's lemmas on small instances.

Workflow (see experiment E9), Theorem 1 on line(3) the way ``repro check``
runs it::

    from repro.core import NADiners, invariant_with_threshold
    from repro.fastcore import FastTransitionSystem
    from repro.sim import line
    from repro.verification.check import full_space, prove

    topo = line(3)
    t = topo.diameter                      # cap t + 1: a finite, sound abstraction
    fts = FastTransitionSystem(NADiners(depth_cap=t + 1, diameter_override=t), topo)
    keys, legit = full_space(fts, invariant_with_threshold(t))  # needs pinned
    closure, convergence, graph = prove(fts, keys, legit)
    assert len(keys) == 6912 and convergence.legit_states == 924
    assert closure.holds and convergence.converges                # I closed, true ⤳ I

:func:`~repro.verification.check.prove` takes any transition system whose
``successors(state)`` returns ``(pid, action, target)`` triples over
hashable states: the object :class:`TransitionSystem` over
:func:`enumerate_configurations` — the reference, and the explorer for any
``Algorithm`` — runs it the same way (E8a, E9b).  On
:class:`repro.fastcore.FastTransitionSystem`'s int keys (exported here as
:data:`FastExplorer`, the same class) star(3) takes 5–8 s and 180 MB on a
1-CPU container instead of 111 s and 3.2 GB, and line(4) and ring(4) fit at
all.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".explorer": "Transition TransitionSystem enumerate_configurations",
    ".properties": (
        "ClosureReport ConvergenceReport Counterexample check_all_states "
        "check_closure check_convergence check_monotone_set "
        "check_numeric_nonincreasing confirm_fair_livelock "
        "convergence_distances optimal_recovery_diameter starving"
    ),
    # fastcore's one int-keyed explorer, under the name
    # benchmarks/e2e/offline.py imports
    "..fastcore.explorer": {"FastExplorer": "FastTransitionSystem"},
})
