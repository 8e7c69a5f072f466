"""Performance layer: content-addressed memoization.

The experiment suite re-solves identical planning problems and re-simulates
identical training steps many times over — ``fig5``, ``fig7`` and ``fig8``
share most of their (system, model, topology) cells, and ``fig11`` repeats
``fig10``'s runs verbatim.  This package provides the machinery to compute
each cell once:

* :mod:`repro.perf.fingerprint` — stable, cross-process content hashes for
  the planner's input objects (canonical-bytes encoding, never ``id()`` or
  ``repr()``);
* :mod:`repro.perf.cache` — a two-tier (in-memory + on-disk) result cache
  keyed by those fingerprints, versioned and safe to delete.

:func:`repro.core.api.plan_mobius` and
:func:`repro.experiments.runner.run_system` consult the global cache
transparently; the suite's cell drain (:mod:`repro.experiments.schedule`)
fans cells out across processes that share the on-disk tier.
"""

from repro.perf.cache import (
    CACHE_VERSION,
    CacheConfig,
    CacheStats,
    ResultCache,
    cache_overridden,
    configure_cache,
    get_cache,
)
from repro.perf.fingerprint import canonical_bytes, fingerprint

__all__ = [
    "CACHE_VERSION",
    "CacheConfig",
    "CacheStats",
    "ResultCache",
    "cache_overridden",
    "canonical_bytes",
    "configure_cache",
    "fingerprint",
    "get_cache",
]
