"""Long-lived optimizer service layer.

One-shot reproduction runs (:func:`repro.api.optimize`) rebuild every AND-OR
DAG from a cold start.  A production multi-query optimizer — the recurring
batch workloads Roy et al. motivate MQO with — re-optimizes heavily
overlapping batches against the *same* catalog over and over.  This package
provides the state that makes those warm rebuilds cheap:

* :class:`repro.service.session.SessionCache` — the catalog-lifetime fragment
  cache consulted by :class:`repro.dag.builder.DagBuilder`;
* :class:`repro.service.session.OptimizerSession` — the
  :class:`~repro.api.MQOptimizer` subclass that adds a plan cache over whole
  batches and threads the fragment cache through every build;
* :class:`repro.service.session.SessionCacheLimits` /
  :class:`repro.service.session.BoundedCache` — per-family LRU bounds for
  long-lived deployments;
* :class:`repro.service.session.CacheWarmer` — a background thread that pre-
  populates a session's fragment cache from a queue of anticipated batches.

Since PR 7 every cache key is *content-addressed* (canonical equivalence keys
plus per-relation statistics digests, never ``id()``), so a warm
``SessionCache`` can be pickled with :meth:`OptimizerSession.snapshot_state`
and fanned out to worker processes via :meth:`OptimizerSession.from_snapshot`.

Since PR 9 the layer is *resilient* (see ``docs/RESILIENCE.md``):

* :class:`repro.service.resilience.OptimizeBudget` — deadline-budgeted
  anytime optimization with a documented degradation ladder
  (:class:`~repro.optimizer.report.DegradationLevel`); every budgeted result
  carries a :class:`~repro.optimizer.report.DegradationReport`;
* :class:`repro.service.faults.FaultInjector` — deterministic seeded chaos
  harness over the cache families and snapshot bytes; under any injected
  fault, served plans stay byte-identical to the cold path;
* sealed snapshots — :meth:`OptimizerSession.snapshot_state` payloads carry a
  versioned header plus sha256 checksum, rejected with
  :class:`~repro.service.resilience.SnapshotError` when damaged
  (:meth:`OptimizerSession.from_snapshot_or_cold` falls back to a cold
  session instead of raising).
"""

from repro.service.faults import FaultInjector
from repro.service.resilience import (
    BudgetExceeded,
    CorruptedEntry,
    DegradationLevel,
    DegradationReport,
    OptimizeBudget,
    SnapshotError,
)
from repro.service.session import (
    BoundedCache,
    CacheWarmer,
    OptimizerSession,
    SessionCache,
    SessionCacheLimits,
    SessionCacheStats,
)

__all__ = [
    "BoundedCache",
    "BudgetExceeded",
    "CacheWarmer",
    "CorruptedEntry",
    "DegradationLevel",
    "DegradationReport",
    "FaultInjector",
    "OptimizeBudget",
    "OptimizerSession",
    "SessionCache",
    "SessionCacheLimits",
    "SessionCacheStats",
    "SnapshotError",
]
