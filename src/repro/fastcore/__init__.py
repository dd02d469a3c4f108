"""fastcore — the packed-state fast backend.

One engine (:class:`repro.sim.engine.Engine`) drives either of two state
stores: the object model's :class:`~repro.sim.network.System`, which stays
the reference representation and runs every algorithm, and this package's
:class:`PackedSystem`, which keeps the paper's program as packed vectors +
bitsets and steps it several times faster.  :func:`make_engine` is the one
place a backend *name* (``"object"`` or ``"fast"``) becomes a store:

>>> engine = make_engine(topology, algorithm, backend="fast", seed=7)
>>> engine.run(10_000)

Step cycle, daemons, fault handling and RNG draws are shared code, and the
guards and commands are written once — the action table of
:mod:`repro.core.figure1`, lowered to ``ActionDef``s for the object model
and, by :mod:`repro.fastcore.table`, to the packed code — so a seed produces
the same computation on both; ``tests/fastcore/`` holds the co-run harness
and the seeded battery that pins the two step-for-step.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".engine": "FastEngine PackedSystem STATE_BACKENDS make_engine",
    ".explorer": "FastReachability FastTransitionSystem",
    ".packed": "PackedCodec PackedState UnsupportedBackendError",
})
