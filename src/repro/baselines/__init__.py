"""Prior diners algorithms the paper positions itself against.

All three share the paper's model (shared-memory guarded commands, the same
``state``/``needs`` variables) so that every comparison in the benchmarks is
apples-to-apples:

* :class:`HygienicDiners` — Chandy–Misra priority-graph diners [5]:
  live without faults, but unbounded failure locality and not stabilizing;
* :class:`ChoySinghDiners` — dynamic-threshold diners [6, 7]:
  failure locality 2 (optimal) but not stabilizing;
* :class:`ForkOrderingDiners` — Dijkstra's resource-ordering diners [8]:
  deadlock-free without faults (starvation-free only under random
  schedules), unbounded locality, not stabilizing.

The paper's contribution (:class:`repro.core.NADiners`) is the only one of
the four that is simultaneously failure-local *and* stabilizing — which is
exactly what the benchmark suite demonstrates.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".choy_singh": "ChoySinghDiners",
    ".fork_ordering": "FORK_FREE ForkOrderingDiners",
    ".hygienic": "HygienicDiners",
})
