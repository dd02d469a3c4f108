"""repro — Dining Philosophers that Tolerate Malicious Crashes.

A complete reproduction of Nesterenko & Arora (ICDCS 2002):

* :mod:`repro.sim` — guarded-command shared-memory simulation kernel with
  weakly fair daemons and a malicious-crash / transient-fault model;
* :mod:`repro.core` — the paper's stabilizing, failure-locality-2 diners
  program, its invariant predicates, and ablation variants;
* :mod:`repro.baselines` — prior diners algorithms the paper compares
  against (Chandy–Misra hygienic, Choy–Singh dynamic threshold, naive
  fork ordering);
* :mod:`repro.mp` — the §4 message-passing transformation (Dijkstra K-state
  handshake);
* :mod:`repro.analysis` — failure locality, stabilization time, throughput
  and fairness measurement;
* :mod:`repro.verification` — an explicit-state model checker validating the
  paper's lemmas exhaustively on small instances;
* :mod:`repro.net` — the live cluster runtime: the §4 processes over real
  asyncio TCP with a chaos proxy layer and a lock-service client API.
"""

from ._lazy import lazy_namespace

__version__ = "1.0.0"


def version() -> str:
    """The installed package version, from distribution metadata.

    Falls back to the hard-coded ``__version__`` when the package runs
    straight off a source tree (``PYTHONPATH=src``) without being
    installed.  ``repro --version`` and every cluster/soak artefact header
    use this single source.
    """
    try:
        from importlib.metadata import PackageNotFoundError, metadata

        return metadata("repro")["Version"]
    except PackageNotFoundError:
        return __version__
    except Exception:  # pragma: no cover - metadata backend quirks
        return __version__


# Every subpackage (``repro.sim``, ``repro.net``, …) is imported on first
# access, never by ``import repro``.
__getattr__, __dir__, _ = lazy_namespace(__name__, {})

__all__ = [
    "analysis",
    "baselines",
    "core",
    "lowatom",
    "mp",
    "net",
    "sim",
    "verification",
    "version",
    "__version__",
]
