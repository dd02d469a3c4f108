"""Low-atomicity (read/write) execution of composite-atomicity algorithms.

§4 of the paper notes that moving off composite atomicity needs the
atomicity refinement of Nesterenko & Arora [15].  This package provides the
mechanical half of that move — running any kernel algorithm over cached
neighbour state with one remote read per step — and experiment E11 measures
the safety gap the refinement exists to close.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".adapter": "CachedView LowAtomicityAdapter cache_var edge_cache_var",
})
