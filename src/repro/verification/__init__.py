"""Explicit-state model checking of the paper's lemmas on small instances.

Workflow (see experiment E9)::

    from repro.core import NADiners, invariant_holds
    from repro.sim import ring
    from repro.verification import (
        TransitionSystem, enumerate_configurations, check_closure,
        check_convergence,
    )

    topo = ring(3)
    algo = NADiners(depth_cap=topo.diameter + 1)   # finite, sound abstraction
    ts = TransitionSystem(algo, topo)
    configs = list(enumerate_configurations(algo, topo, fixed_locals={"needs": True}))
    assert check_closure(ts, invariant_holds, configs).holds        # I closed
    assert check_convergence(ts, invariant_holds, configs).converges  # true ⤳ I

That is the object path: the reference, and the explorer for any
``Algorithm``.  The property functions take any hashable state, and
``repro check`` (:mod:`repro.verification.check`) runs the same ones over
:class:`repro.fastcore.FastTransitionSystem`'s int keys (exported here as
:data:`FastExplorer`, the same class) — star(3) in 5–8 s and 180 MB on a
1-CPU container instead of 111 s and 3.2 GB, line(4) and ring(4) at all.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".explorer": "Transition TransitionSystem enumerate_configurations",
    ".properties": (
        "ClosureReport ConvergenceReport Counterexample build_graph "
        "check_all_states check_closure check_convergence check_monotone_set "
        "check_numeric_nonincreasing confirm_fair_livelock "
        "convergence_distances optimal_recovery_diameter"
    ),
    # fastcore's one int-keyed explorer, under the name
    # benchmarks/e2e/offline.py imports
    "..fastcore.explorer": {"FastExplorer": "FastTransitionSystem"},
})
