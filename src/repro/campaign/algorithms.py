"""The algorithm registry: every name ``--algorithm`` and a shard accept.

Each name maps to the class it builds as ``module:Class``, imported only
when :func:`make_algorithm` builds it, so listing the names (the CLI's
``--algorithm`` choices) imports no algorithm.
"""

from __future__ import annotations

from typing import Any, Dict

from .._lazy import resolve

ALGORITHMS: Dict[str, str] = {
    "na-diners": "repro.core.algorithm:NADiners",
    "choy-singh": "repro.baselines.choy_singh:ChoySinghDiners",
    "hygienic": "repro.baselines.hygienic:HygienicDiners",
    "fork-ordering": "repro.baselines.fork_ordering:ForkOrderingDiners",
    "no-fixdepth": "repro.core.variants:NoFixdepthDiners",
    "no-threshold": "repro.core.variants:NoDynamicThresholdDiners",
}


def make_algorithm(name: str) -> Any:
    """Instantiate a registered algorithm by name."""
    try:
        target = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; one of {sorted(ALGORITHMS)}"
        ) from None
    return resolve(target)()
