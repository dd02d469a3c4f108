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
the same computation on both; see :mod:`repro.fastcore.parity` for the
co-run harness and ``tests/fastcore/`` for the seeded battery that pins the
two step-for-step.
"""

from __future__ import annotations

from ..sim.engine import Engine
from ..sim.network import System
from .engine import FastEngine, PackedSystem
from .explorer import FastReachability, FastTransitionSystem
from .packed import PackedCodec, PackedState, UnsupportedBackendError
from .parity import ParityError, ParityReport, co_run

#: Registered state backends, by name.
STATE_BACKENDS = ("object", "fast")


def make_engine(
    topology,
    algorithm,
    daemon=None,
    *,
    backend: str = "object",
    initially_dead=(),
    initial=None,
    **kwargs,
) -> Engine:
    """Build an engine over the state store ``backend`` names.

    ``initial`` starts from an arbitrary configuration (and then decides who
    is dead); everything else is passed to :class:`Engine`.
    """
    if backend == "fast":
        return FastEngine(
            topology,
            algorithm,
            daemon,
            initially_dead=initially_dead,
            initial=initial,
            **kwargs,
        )
    if backend != "object":
        raise UnsupportedBackendError(
            f"unknown state backend {backend!r}; expected one of {STATE_BACKENDS}"
        )
    if initial is not None:
        system = System.from_configuration(algorithm, initial)
    else:
        system = System(topology, algorithm, initially_dead=initially_dead)
    return Engine(system, daemon, **kwargs)


__all__ = [
    "FastEngine",
    "FastReachability",
    "FastTransitionSystem",
    "PackedCodec",
    "PackedState",
    "PackedSystem",
    "ParityError",
    "ParityReport",
    "STATE_BACKENDS",
    "UnsupportedBackendError",
    "co_run",
    "make_engine",
]
