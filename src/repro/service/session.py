"""Catalog-lifetime plan cache, warm-rebuild sessions, and the service path.

The PR 4 builder memo tables are *per build*: a fresh
:class:`~repro.dag.builder.DagBuilder` starts cold, so a service that
re-optimizes overlapping batches (the recurring-workload scenario of the
paper) pays the full DAG-expansion cost on every request.  This module keeps
the memoizable part of that work alive across builds:

:class:`SessionCache` — the **fragment cache** consulted by the builder
before its per-build memos.  Entries are keyed on *canonical equivalence
keys* (the same keys that unify sub-expressions inside one DAG, so they are
stable across builds), interned to dense ids, plus whatever order-sensitive
inputs the cached computation consumed:

* scan-choice entries — the stored table's and the scan's
  :class:`~repro.cost.estimation.LogicalProperties`, chosen access path and
  cost — per scan key, pushed-down predicate order, *prune tag* (the
  batch-referenced columns of the table, which drive early projection), and
  statistics digest;
* **block logs**: a join block's whole expansion — every sub-set node with
  its key, properties and label, and every partition a fresh expansion
  appends with its :func:`~repro.cost.algorithms.choose_join` outcome — per
  block signature (aliases, leaf key and properties ids, predicates), so a
  warm rebuild replays a query block or a weak join in one pass
  (:class:`~repro.dag.block_logs.BlockLog`).  A block no log fits is
  expanded per node, as in a cold build, and its log is recorded;
* **subsumption logs**: a join group's join-level subsumption derivation —
  the weak join's scans, predicates and key ids, and each member's residual
  selection with its filter cost, priced for up to two row states — per
  group member key ids, so a warm rebuild appends the group's derivations
  without deriving them (:class:`~repro.dag.subsumption.GroupLog`);
* executed results (the backing store of the cross-batch result cache).

Everything else is recomputed per build — select/project/aggregate
properties, the keys of join sub-sets, block shapes and the implication
proofs of selection subsumption: caching them across builds measured within
noise, and per-node join properties and partition recipes measured a net
loss once block logs existed (see the cache audit in
``docs/ARCHITECTURE.md``).

**Content addressing** (PR 7) is what makes warm rebuilds *byte-identical*
rather than merely close: float folds in the estimator are evaluation-order
sensitive, so a cached value may only be reused when its inputs would fold to
bit-identical results.  Properties objects are interned by
:meth:`~repro.cost.estimation.LogicalProperties.content_key` — a flat tuple of
three byte strings: the row bits, the token of the interned
:class:`~repro.cost.estimation.Schema` (column order, widths and bound bits)
and the packed distinct bits — so two properties with the same content id
are interchangeable in every pure fold, and leaf
entries additionally embed the owning relation's statistics digest
(:meth:`~repro.catalog.schema.Table.stats_digest`).  Every downstream key is
derived from those leaf contents, so a cached fragment can never alias a
pre-mutation snapshot, and — unlike the identity-keyed scheme this replaced
(see ``tests/analysis_fixtures/historical_pr7.py``) — the whole cache
pickles: keys mean the same thing in any process, which is what enables the
multi-worker service path below.

**Invalidation.**  Fragments hold content only; the relations an entry
reads are tracked for executed results (:attr:`ResultCacheEntry.deps
<repro.execution.result_cache.ResultCacheEntry.deps>`, computed by the
executor) and for cached plans (the DAG's stored-table nodes), nowhere
else.  :meth:`SessionCache.sync` runs once per build (never per cache hit)
and compares the catalog's per-relation statistics *digests*
(:meth:`~repro.catalog.catalog.Catalog.stats_digests`) against the last
synchronized snapshot — not just the mutation epochs, so even statistics
swapped in behind the catalog's back are caught.  A statistics change evicts
the ``results`` entries (and, in :class:`OptimizerSession`, the cached plans)
that read a changed relation.  The fragment families keep theirs: leaf keys
embed the statistics digest, block signatures embed the leaves'
properties ids and subsumption logs price only the rows they were priced
for, so an entry recorded before a write is never served for other
statistics, and it is right again once a later write restores them;
LRU bounds what they keep.  A change of a relation's *index set* (which
join pricing reads beyond the leaf properties; ``update_statistics`` never
makes one) and :meth:`SessionCache.invalidate` of one relation evict the
``results`` entries and plans that read it and clear the fragment families
whole: fragments recompute to the same bytes, so the coarser eviction costs
one rebuild after a rare event, never a wrong answer.  A schema change
(:attr:`~repro.catalog.catalog.Catalog.schema_epoch`) clears everything.

**Bounds.**  Each cache family is a :class:`BoundedCache` — a dict with an
optional LRU ``maxsize`` (:class:`SessionCacheLimits`).  Content addressing
is what makes LRU eviction safe: an evicted fragment is recomputed to the
same content, hence the same interned ids, so surviving dependent entries
still replay byte-identically.  Unbounded by default; long-lived services
pass explicit limits (``SessionCacheLimits.bounded()``).

:class:`OptimizerSession` — the **service façade**: a
:class:`~repro.api.MQOptimizer` subclass that owns a :class:`SessionCache`
and adds a batch-level plan cache (batch → built DAG and per-algorithm
:class:`~repro.optimizer.report.OptimizationResult`).  It overrides only
``build_dag`` and ``optimize``; everything else, ``optimize_all`` included,
is the base optimizer's.  For multi-process deployments,
:meth:`OptimizerSession.snapshot_state` pickles the fragment cache and
:meth:`OptimizerSession.from_snapshot` rebuilds a warm session from those
bytes in another process; :class:`CacheWarmer` is a background thread that
drains a queue of *anticipated* batches through the session (the
queue-driven cache-population pattern of PartitionCache's pcache-observer),
so fragments are warm before a client asks.

Correctness is anchored the same way as every other fast path in this repo:
the session-backed builder must produce DAGs byte-identical
(``tests.generators.dag_fingerprint``) to the memo-free reference builder
(``DagBuilder(..., memoize=False)``) on cold builds, warm rebuilds, shifted
overlapping batches, post-invalidation rebuilds, and rebuilds from a pickled
snapshot in a different process — ``tests/test_session_cache.py`` enforces
all of them.

A session serializes its own calls with an internal lock, so a foreground
caller and a :class:`CacheWarmer` can share one session; for parallelism use
one session (or one worker process seeded via snapshot) per worker.
"""

from __future__ import annotations

import pickle
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro.execution.result_cache
from repro.api import Algorithm, MQOptimizer
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Index
from repro.cost.estimation import LogicalProperties, PropsContentKey
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.dag.builder import DagBuilder, Query
from repro.dag.nodes import Dag
from repro.execution.result_cache import ResultCache
from repro.optimizer import GreedyOptions, OptimizationResult
from repro.optimizer.report import DegradationLevel
from repro.service.resilience import (
    CorruptedEntry,
    OptimizeBudget,
    SnapshotError,
    cached_report,
    open_snapshot,
    run_ladder,
    seal_snapshot,
)

_MISSING: Any = object()


def _restore_bounded(
    maxsize: Optional[int],
    evictions: int,
    quarantined: int,
    items: List[Tuple[Any, Any]],
) -> "BoundedCache":
    """Unpickle helper for :class:`BoundedCache` (module-level for pickle)."""
    cache = BoundedCache(maxsize)
    for key, value in items:
        dict.__setitem__(cache, key, value)
    cache.evictions = evictions
    cache.quarantined = quarantined
    return cache


class BoundedCache(Dict[Any, Any]):
    """A dict with an optional LRU bound, used for every cache family.

    With ``maxsize=None`` (the default) this is a plain dict with near-zero
    overhead on the hot paths.  With a bound, :meth:`get`/:meth:`setdefault`
    refresh recency (delete + reinsert, exploiting dict insertion order),
    :meth:`peek` reads without refreshing it, and
    :meth:`__setitem__` evicts the least-recently-used entry once full,
    counting evictions in :attr:`evictions`.  Eviction order is pure
    insertion/access order — no hash-order dependence — and pickling
    preserves entries, order, bound, and the fault counters.

    **Fault containment** (PR 9): a stored
    :class:`~repro.service.resilience.CorruptedEntry` poison wrapper is
    treated by :meth:`get` and :meth:`peek` as a miss — the entry is evicted
    on sight (counted in :attr:`quarantined`) and the caller recomputes,
    which by content addressing is byte-identical to a cold miss.  A chaos
    harness (or an operator reproducing an incident) can set
    :attr:`fault_hook`, a callable invoked with ``(cache, key)`` before every
    lookup; hooks are deliberately not pickled — a snapshot never transports
    an injector.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            # A zero bound would evict from an empty dict on the first insert.
            raise ValueError(
                f"BoundedCache maxsize must be >= 1 or None, got {maxsize!r}"
            )
        super().__init__()
        self.maxsize = maxsize
        self.evictions = 0
        #: Poisoned entries evicted on read (see class docstring).
        self.quarantined = 0
        #: Chaos hook: called as ``fault_hook(cache, key)`` before lookups.
        self.fault_hook: Optional[Callable[["BoundedCache", Any], None]] = None

    def get(self, key: Any, default: Any = None) -> Any:
        hook = self.fault_hook
        if hook is not None:
            hook(self, key)
        if self.maxsize is None:
            value = dict.get(self, key, _MISSING)
        else:
            value = dict.pop(self, key, _MISSING)
            if value is not _MISSING:
                dict.__setitem__(self, key, value)
        if value is _MISSING:
            return default
        if value.__class__ is CorruptedEntry:
            dict.__delitem__(self, key)
            self.quarantined += 1
            return default
        return value

    def peek(self, key: Any, default: Any = None) -> Any:
        """:meth:`get` without the recency refresh.

        The fault hook runs and a :class:`CorruptedEntry` is quarantined, but
        a live entry keeps its place in the LRU order — for readers that look
        at an entry without using it.  :meth:`get` inlines the same steps
        rather than calling this: it is the hot read of every cache family,
        and the extra call measured ~5% of warm-rebuild throughput.
        """
        hook = self.fault_hook
        if hook is not None:
            hook(self, key)
        value = dict.get(self, key, _MISSING)
        if value is _MISSING:
            return default
        if value.__class__ is CorruptedEntry:
            dict.__delitem__(self, key)
            self.quarantined += 1
            return default
        return value

    def setdefault(self, key: Any, default: Any = None) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            self[key] = default
            return default
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        maxsize = self.maxsize
        if maxsize is not None and len(self) >= maxsize and key not in self:
            dict.__delitem__(self, next(iter(self)))
            self.evictions += 1
        dict.__setitem__(self, key, value)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (
            _restore_bounded,
            (self.maxsize, self.evictions, self.quarantined, list(self.items())),
        )


@dataclass(frozen=True)
class SessionCacheLimits:
    """Per-family LRU bounds for a :class:`SessionCache`.

    ``None`` means unbounded (the default everywhere: a single catalog's
    fragment universe is finite and warm-rebuild benchmarks want maximal
    reuse).  Long-lived services serving many distinct batches should pass
    explicit bounds — :meth:`bounded` is a ready-made profile.
    ``max_interned`` guards the id interners, which grow monotonically even
    when the entry caches are bounded: when the interned-key count passes the
    guard at a sync point, the session performs a counted full reset
    (:attr:`SessionCacheStats.interner_resets`) and starts cold.
    """

    scans: Optional[int] = None
    results: Optional[int] = None
    block_logs: Optional[int] = None
    subsumption_logs: Optional[int] = None
    max_interned: Optional[int] = None

    @classmethod
    def bounded(cls, scale: int = 1) -> "SessionCacheLimits":
        """A bounded profile sized for a long-lived service (``scale``×)."""
        return cls(
            scans=1_024 * scale,
            results=512 * scale,
            # Sized by peak RSS on service-mixed: at 1,024 a long run fills
            # the family and RSS rises 13% (see docs/ARCHITECTURE.md).
            block_logs=384 * scale,
            # Above the 480 join groups a long service-mixed run forms.
            subsumption_logs=512 * scale,
            max_interned=65_536 * scale,
        )


def _index_sets(catalog: Catalog) -> Dict[str, Tuple[Index, ...]]:
    """Every relation's index set, by name (see :meth:`SessionCache.sync`)."""
    return {table.name.lower(): table.indexes for table in catalog.tables()}


@dataclass
class SessionCacheStats:
    """Hit/miss/eviction counters of one :class:`SessionCache`.

    ``evicted_entries`` counts *invalidation* evictions (catalog changes and
    manual ``invalidate`` calls); ``lru_evictions`` counts capacity evictions
    from bounded families.  ``entries``, ``lru_evictions``, and
    ``quarantined`` are filled by :meth:`SessionCache.snapshot` (they are
    derived from the cache tables, not maintained incrementally);
    ``recipe_quarantines`` counts the block logs the builder refused because
    they were structurally damaged (they self-heal: the block is expanded per
    node and its log re-recorded); a damaged subsumption log counts in its
    family's quarantines, so in ``quarantined``.  A block log that does not
    fit a build (one of its nodes exists there with other properties) counts
    as a miss and stays for the builds it fits.  A fault-free session has no
    quarantines.
    """

    hits: int = 0
    misses: int = 0
    entries: int = 0
    builds: int = 0
    stats_invalidations: int = 0
    schema_invalidations: int = 0
    evicted_entries: int = 0
    lru_evictions: int = 0
    interner_resets: int = 0
    quarantined: int = 0
    recipe_quarantines: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SessionCache:
    """Catalog-lifetime fragment cache shared by successive DAG builds.

    The cache is bound to one catalog and one cost model;
    :class:`~repro.dag.builder.DagBuilder` refuses a session built against
    different ones, because every cached value bakes their state in.  See the
    module docstring for the entry taxonomy, the content-addressing contract,
    and the invalidation rules.  The whole object pickles (the catalog
    travels with it); see :meth:`OptimizerSession.snapshot_state`.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        limits: Optional[SessionCacheLimits] = None,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model
        self.limits = limits or SessionCacheLimits()
        # Canonical equivalence keys -> dense ids (hashed once per node per
        # build; the fragment caches below are keyed on the ids).
        self._key_ids: Dict[Hashable, int] = {}  # repro-lint: ok(M001) catalog-independent: interns canonical keys by value
        # The interned keys by id: builds and block logs name a key through
        # this one object instead of keeping equal copies alive.
        self._keys: List[Hashable] = []
        # LogicalProperties content keys -> dense ids.  Content addressing:
        # two properties objects with equal content keys fold to bit-identical
        # results everywhere, so they share one id — across builds, across
        # processes, and across recomputation after an LRU eviction.
        self._props_ids: Dict[PropsContentKey, int] = {}  # repro-lint: ok(M001) content interner; ids are stable because keys are values, never object identities
        # Relation statistics digests -> dense ids, embedded in leaf cache
        # keys so a leaf entry can never be served for different statistics.
        self._digest_ids: Dict[str, int] = {}  # repro-lint: ok(M001) content interner over catalog digests; stale leaf keys simply stop being looked up
        limits_ = self.limits
        # -- fragment caches ---------------------------------------------------
        #: (scan key id, predicate order, prune tag, stats digest id) ->
        #: (stored table props, props, label, ScanOp, cost)
        self.scans: BoundedCache = BoundedCache(limits_.scans)
        #: executed-result digest -> ResultCacheEntry; the backing store of
        #: :class:`repro.execution.result_cache.ResultCache` — rows actually
        #: computed by the executor, content-addressed by the physical
        #: subtree that produced them (catalog statistics digests included),
        #: offered back to later builds as base derivations.
        self.results: BoundedCache = BoundedCache(limits_.results)
        #: (aliases, leaf key ids, leaf props ids, block predicates) -> up
        #: to ``BLOCK_LOG_VARIANTS`` whole expansions of a join block, the
        #: latest first (see :class:`repro.dag.block_logs.BlockLog`).
        self.block_logs: BoundedCache = BoundedCache(limits_.block_logs)
        #: member key ids of a join group, in node id order -> the group's
        #: join-level subsumption derivation, ``None`` when its members'
        #: selections are identical (see
        #: :class:`repro.dag.subsumption.GroupLog`).
        self.subsumption_logs: BoundedCache = BoundedCache(limits_.subsumption_logs)
        # -- invalidation state ----------------------------------------------
        self._synced_schema_epoch = catalog.schema_epoch
        self._synced_digests = catalog.stats_digests()
        self._synced_indexes = _index_sets(catalog)
        #: Bumped by every eviction (sync-driven or manual) so that holders
        #: of derived state — the :class:`OptimizerSession` plan cache — can
        #: notice invalidations performed directly on this object.
        self.generation = 0
        self.stats = SessionCacheStats()

    # -- interning (used by the builder) --------------------------------------
    def key_id(self, key: Hashable) -> int:
        ids = self._key_ids
        ident = ids.get(key)
        if ident is None:
            ident = len(ids)
            ids[key] = ident
            self._keys.append(key)
        return ident

    def key_of(self, ident: int) -> Hashable:
        """The interned key object of id *ident*."""
        return self._keys[ident]

    def props_id(self, props: LogicalProperties) -> int:
        ids = self._props_ids
        key = props.content_key()
        ident = ids.get(key)
        if ident is None:
            ident = len(ids)
            ids[key] = ident
        return ident

    def table_digest_id(self, table: str) -> int:
        """Dense id of *table*'s current statistics digest (leaf key part)."""
        ids = self._digest_ids
        digest = self.catalog.table(table).stats_digest()
        ident = ids.get(digest)
        if ident is None:
            ident = len(ids)
            ids[digest] = ident
        return ident

    def interned_count(self) -> int:
        """Total interned ids (keys, properties contents, digests)."""
        return len(self._key_ids) + len(self._props_ids) + len(self._digest_ids)

    # -- invalidation ----------------------------------------------------------
    def sync(self) -> Optional[FrozenSet[str]]:
        """Bring the cache up to date with the catalog.

        Returns the set of relations whose statistics changed since the last
        sync (empty when nothing changed), or ``None`` when a schema change
        forced a full wipe.  Unlike the epoch fast path this replaced, the
        comparison is against per-relation statistics *content digests* on
        every call — so a table swapped into the catalog behind its back (no
        epoch bump) is treated exactly like a declared update.  The digests
        are memoized per table object, so an unchanged catalog costs one
        string comparison per relation.  Builds must be preceded by a sync;
        :meth:`~repro.dag.builder.DagBuilder.build` calls it itself, so
        direct builder users get it for free and :class:`OptimizerSession`
        merely calls it earlier to also refresh its plan cache.
        """
        catalog = self.catalog
        max_interned = self.limits.max_interned
        if max_interned is not None and self.interned_count() > max_interned:
            self.reset()
        if catalog.schema_epoch != self._synced_schema_epoch:
            self.clear()
            self.stats.schema_invalidations += 1
            changed: Optional[FrozenSet[str]] = None
            digests = catalog.stats_digests()
            indexes = _index_sets(catalog)
        else:
            digests = catalog.stats_digests()
            synced = self._synced_digests
            if digests == synced:
                return frozenset()
            names = set(digests)
            names.update(synced)
            changed = frozenset(
                name for name in names if digests.get(name) != synced.get(name)
            )
            # Fragment keys pin the statistics they were computed from (see
            # the module docstring), so a write evicts executed results only
            # — unless it changed an index set, which they do not pin.
            indexes = _index_sets(catalog)
            synced_indexes = self._synced_indexes
            self._evict(changed, fragments=any(
                indexes.get(name) != synced_indexes.get(name) for name in changed
            ))
            self.stats.stats_invalidations += 1
        self._synced_schema_epoch = catalog.schema_epoch
        self._synced_digests = digests
        self._synced_indexes = indexes
        return changed

    def clear(self) -> None:
        """Drop every catalog-dependent entry (schema-change semantics)."""
        self.generation += 1
        for cache in self._families().values():
            self.stats.evicted_entries += len(cache)
            cache.clear()

    def reset(self) -> None:
        """Start cold: drop the entry caches *and* the id interners.

        The interners grow monotonically (every distinct canonical key,
        properties content, and digest ever seen), so a bounded session needs
        a pressure valve: :meth:`sync` calls this when
        :attr:`SessionCacheLimits.max_interned` is exceeded.  Interned ids
        are embedded in the keys and values of every family, so every family
        is dropped too.
        """
        self.generation += 1
        self.stats.interner_resets += 1
        for cache in self._families().values():
            self.stats.evicted_entries += len(cache)
            cache.clear()
        self._key_ids.clear()
        self._keys.clear()
        self._props_ids.clear()
        self._digest_ids.clear()

    def invalidate(self, table: Optional[str] = None) -> None:
        """Manually evict the executed results reading *table*, and every
        fragment (or, without *table*, everything)."""
        if table is None:
            self.clear()
        else:
            self._evict(frozenset((table.lower(),)), fragments=True)

    def _evict(self, changed: FrozenSet[str], fragments: bool) -> None:
        """Drop the ``results`` entries that read a relation in *changed*
        and, with *fragments*, every entry of the other families.

        A poisoned ``results`` entry has no dependencies to test: it is
        dropped as stale and counted in the family's ``quarantined``."""
        if not changed:
            return
        self.generation += 1
        for name, cache in self._families().items():
            if name == "results":
                stale = []
                poisoned = []
                for key, entry in cache.items():
                    if entry.__class__ is CorruptedEntry:
                        poisoned.append(key)
                    elif entry.deps & changed:
                        stale.append(key)
                for key in stale + poisoned:
                    del cache[key]
                cache.quarantined += len(poisoned)
                self.stats.evicted_entries += len(stale)
            elif fragments:
                self.stats.evicted_entries += len(cache)
                cache.clear()

    # -- introspection ---------------------------------------------------------
    def entry_count(self) -> int:
        """Total entries over every family (``sum(family_sizes().values())``)."""
        return sum(len(cache) for cache in self._families().values())

    def family_sizes(self) -> Dict[str, int]:
        """Current entry count per cache family (bounded families stay
        under their configured ``maxsize`` by construction)."""
        return {name: len(cache) for name, cache in self._families().items()}

    def lru_evictions(self) -> int:
        """Total capacity evictions across every bounded family."""
        return sum(cache.evictions for cache in self._families().values())

    def quarantined_count(self) -> int:
        """Total poisoned entries evicted on read, across every family."""
        return sum(cache.quarantined for cache in self._families().values())

    def _families(self) -> Dict[str, BoundedCache]:
        """Every cache family by name: the invalidation registry."""
        return {
            "scans": self.scans,
            "results": self.results,
            "block_logs": self.block_logs,
            "subsumption_logs": self.subsumption_logs,
        }

    def snapshot(self) -> SessionCacheStats:
        """A copy of the counters with derived fields filled in."""
        stats = SessionCacheStats(**vars(self.stats))
        stats.entries = self.entry_count()
        stats.lru_evictions = self.lru_evictions()
        stats.quarantined = self.quarantined_count()
        return stats


@dataclass
class _PlanEntry:
    """One plan-cache slot: the built DAG, the relations it reads
    (:func:`_read_relations`) and per-algorithm results."""

    dag: Dag
    relations: FrozenSet[str]
    results: Dict[Hashable, OptimizationResult] = field(default_factory=dict)


def _read_relations(dag: Dag) -> FrozenSet[str]:
    """The relations *dag* reads, lowercased: the tables of its stored-table
    nodes.  Every relation a build reads has one, under its scans, weak-join
    leaves, nested invariants and cached-read sources alike."""
    arena = dag.arena
    return frozenset([
        table.lower()
        for table in compress(arena.eq_base_table, arena.eq_is_base)
        if table is not None
    ])


#: Key type of the plan cache: ((query name, expression), ...).
BatchKey = Tuple[Tuple[str, object], ...]


class OptimizerSession(MQOptimizer):
    """A long-lived multi-query optimizer bound to one catalog.

    Where the base :class:`~repro.api.MQOptimizer` rebuilds every DAG cold, a
    session keeps two cache layers alive between calls:

    * a **plan cache**: an exact batch seen before (same query names and
      expressions, same catalog statistics) returns its previously built DAG
      — and previously computed optimization results — outright; bounded by
      ``max_plans`` (LRU) when given;
    * the :class:`SessionCache` **fragment cache**, which makes rebuilding a
      *different but overlapping* batch cheap by replaying whole join-block
      expansions and reusing scan choices.

    Both layers follow the catalog's statistics digests: statistics changes
    evict the plans and executed results touching the affected relations
    (the content-addressed fragments stay), schema changes start the session
    cold.  See the module docstring
    for the invalidation contract and ``tests/test_work_counts.py`` for the
    warm-rebuild work (joins re-priced, blocks expanded) it pins.

    Calls are serialized by an internal re-entrant lock, so a background
    :class:`CacheWarmer` can share the session with a foreground caller.
    For process-level parallelism, see :meth:`snapshot_state` /
    :meth:`from_snapshot` and ``examples/multi_worker_service.py``.

    Usage::

        session = OptimizerSession(catalog)
        result = session.optimize(batch, Algorithm.GREEDY)   # cold build
        result = session.optimize(batch, Algorithm.GREEDY)   # plan-cache hit
        catalog.update_statistics("orders", row_count=2_000_000)
        result = session.optimize(batch, Algorithm.GREEDY)   # rebuilt fresh
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cache_plans: bool = True,
        limits: Optional[SessionCacheLimits] = None,
        max_plans: Optional[int] = None,
        result_cache: bool = False,
    ) -> None:
        super().__init__(catalog, cost_model)
        #: When ``False``, only the fragment cache is used: every call
        #: rebuilds the DAG (warm), which is what the byte-identity tests and
        #: the fragment-level warm-rebuild benchmarks exercise.
        self.cache_plans = cache_plans
        self.max_plans = max_plans
        self.cache = SessionCache(catalog, cost_model, limits=limits)
        #: Cross-batch executed-result store (``None`` when disabled): the
        #: façade over this session's ``results`` family.  Enable it, hand
        #: it to an :class:`~repro.execution.Executor`, and every DAG built
        #: here injects previously executed intermediates as base
        #: derivations (:mod:`repro.execution.result_cache`).
        self.result_cache: Optional[ResultCache] = None
        if result_cache:
            self.result_cache = ResultCache(self.cache)
        self._plans: BoundedCache = BoundedCache(max_plans)
        self._cache_generation = self.cache.generation
        self._lock = threading.RLock()
        self.plan_hits = 0
        self.plan_misses = 0
        #: Set by :meth:`from_snapshot_or_cold` when the snapshot was
        #: rejected and this session started cold instead.
        self.restore_error: Optional[SnapshotError] = None

    # -- multi-worker state sharing -------------------------------------------
    def snapshot_state(self, include_plans: bool = False) -> bytes:
        """Serialize the fragment cache (catalog included) for other workers.

        Content-addressed keys are what make the snapshot meaningful
        elsewhere: interned ids are dense ints whose meaning is pinned by the
        content values stored next to them, not by any ``id()`` of this
        process.  By default the plan cache is *not* included — workers
        rebuild plans cheaply through the warm fragments.  With
        ``include_plans=True`` the cached plans travel too: a DAG now pickles
        through its arena — a handful of flat id/float/flag columns (see
        :meth:`repro.dag.arena.DagArena.__getstate__`) rather than a pointer
        graph with one ``__reduce__`` record per node — which is what makes
        whole-plan snapshots small enough to fan out.  The pickled payload is
        sealed in a versioned header with a sha256 checksum
        (:func:`~repro.service.resilience.seal_snapshot`), so damaged bytes
        are rejected at restore time instead of unpickling garbage.  Restore
        with :meth:`from_snapshot` (both payload formats are recognized).
        """
        with self._lock:
            if not include_plans:
                payload = pickle.dumps(self.cache, protocol=pickle.HIGHEST_PROTOCOL)
            else:
                payload = pickle.dumps(
                    ("session-state", self.cache, self._plans),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            return seal_snapshot(payload)

    @classmethod
    def from_snapshot(cls, data: bytes, **options: Any) -> "OptimizerSession":
        """A new session primed with a pickled fragment cache.

        The bytes must carry the :meth:`snapshot_state` integrity header;
        truncated, bit-flipped, or foreign payloads raise
        :class:`~repro.service.resilience.SnapshotError` (a
        :class:`TypeError` subclass — the historical foreign-payload
        contract), and :meth:`from_snapshot_or_cold` is the documented
        fall-back for callers that can rebuild state.  Both payload formats
        are accepted: a bare :class:`SessionCache` (the default
        :meth:`snapshot_state`) or the tagged
        ``("session-state", cache, plans)`` tuple produced with
        ``include_plans=True``, in which case the plan cache is restored as
        well.  The snapshot carries its own catalog and cost model (and cache
        limits), so the restored session is self-contained; *options* are
        forwarded to the constructor (``cache_plans``, ``max_plans``,
        ``result_cache``) — except ``limits``, which raises
        :class:`TypeError` because the snapshot's own limits apply.  A snapshot transports
        *content*, not accounting: hit/miss/eviction counters restart at
        zero so every worker reports its own traffic, not its donor's.
        """
        if "limits" in options:
            raise TypeError(
                "from_snapshot() does not accept limits: the snapshot's own "
                "cache limits apply"
            )
        payload = open_snapshot(data)
        try:
            state = pickle.loads(payload)
        except Exception as exc:  # checksum passed but the pickle is foreign
            raise SnapshotError(f"snapshot payload failed to unpickle: {exc}") from exc
        plans: Optional[BoundedCache] = None
        if (
            isinstance(state, tuple)
            and len(state) == 3
            and state[0] == "session-state"
        ):
            cache, plans = state[1], state[2]
            if not isinstance(plans, BoundedCache):
                raise SnapshotError(
                    f"snapshot plan cache is not a BoundedCache: {type(plans)!r}"
                )
        else:
            cache = state
        if not isinstance(cache, SessionCache):
            raise SnapshotError(
                f"snapshot does not contain a SessionCache: {type(cache)!r}"
            )
        cache.stats = SessionCacheStats()
        for family in cache._families().values():
            family.evictions = 0
            family.quarantined = 0
        session = cls(cache.catalog, cost_model=cache.cost_model, **options)
        session.cache = cache
        session._cache_generation = cache.generation
        if session.result_cache is not None:
            # Rebind the façade to the restored cache (the constructor bound
            # it to the fresh one that was just replaced); the restored
            # ``results`` family — cached rows included — keeps serving.
            session.result_cache = ResultCache(cache)
        if plans is not None:
            session._plans = plans
        return session

    @classmethod
    def from_snapshot_or_cold(
        cls,
        data: bytes,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        **options: Any,
    ) -> "OptimizerSession":
        """Restore from *data*, falling back to a cold session on damage.

        The self-healing deployment path: a worker handed corrupted snapshot
        bytes (truncation in transit, a flipped bit on disk) starts from a
        cold cache against *catalog* instead of crashing — strictly slower,
        never wrong, since every warm entry is merely a byte-identical
        shortcut for work the cold path recomputes.  The triggering
        :class:`~repro.service.resilience.SnapshotError` (or ``None`` on a
        clean restore) is kept in :attr:`restore_error` for observability.
        """
        try:
            # The snapshot carries its own catalog and cost model.
            session = cls.from_snapshot(data, **options)
        except SnapshotError as exc:
            session = cls(catalog, cost_model=cost_model, **options)
            session.restore_error = exc
        return session

    # -- plan cache ------------------------------------------------------------
    @staticmethod
    def _batch_key(queries: Sequence[Query]) -> BatchKey:
        return tuple((query.name, query.expression) for query in queries)

    def _sync(self) -> None:
        if self.cache.generation != self._cache_generation:
            # Someone invalidated the fragment cache directly (e.g.
            # ``session.cache.invalidate(...)``): the eviction bypassed this
            # façade, so drop every cached plan conservatively.
            self._plans.clear()
        changed = self.cache.sync()
        if changed is None:
            self._plans.clear()
        elif changed:
            stale = [key for key, entry in self._plans.items() if entry.relations & changed]
            for key in stale:
                del self._plans[key]
        self._cache_generation = self.cache.generation

    def _dag_entry(self, queries: Sequence[Query]) -> _PlanEntry:
        self._sync()
        key = self._batch_key(queries)
        if self.cache_plans:
            entry = self._plans.get(key)
            if entry is not None:
                self.plan_hits += 1
                return entry
            self.plan_misses += 1
        builder = DagBuilder(
            self.catalog,
            cost_model=self.cost_model,
            session=self.cache,
            result_cache=self.result_cache,
        )
        dag = builder.build(list(queries))
        entry = _PlanEntry(dag, _read_relations(dag))
        if self.cache_plans:
            self._plans[key] = entry
        return entry

    # -- public API ------------------------------------------------------------
    def build_dag(self, queries: Sequence[Query]) -> Dag:
        """Build (or fetch) the combined AND-OR DAG for *queries*.

        Repeated calls with an unchanged catalog reuse cached fragments; with
        :attr:`cache_plans` enabled an exact repeat returns the previously
        built :class:`~repro.dag.nodes.Dag` object itself.
        """
        with self._lock:
            return self._dag_entry(queries).dag

    def optimize(
        self,
        queries: Sequence[Query],
        algorithm: Union[str, Algorithm] = Algorithm.GREEDY,
        dag: Optional[Dag] = None,
        greedy_options: Optional[GreedyOptions] = None,
        budget: Optional[OptimizeBudget] = None,
    ) -> OptimizationResult:
        """Optimize a batch, reusing cached DAGs and results where possible.

        A given *dag* is searched as given.  Its results are served from and
        stored in the plan cache only when it is the DAG this session holds
        for *queries* (as in :meth:`optimize_all`, which builds once).

        With a *budget*, the call runs under a wall-clock deadline and
        degrades gracefully on expiry (see
        :func:`repro.service.resilience.run_ladder`); the returned result
        carries a :class:`~repro.optimizer.report.DegradationReport`.  Only
        ``FULL`` (undegraded) results enter the plan cache, and they enter it
        without their report: a cache hit serves an unbudgeted call the cached
        object itself and a budgeted call a copy with a fresh ``FULL`` report.
        Without a *budget* the behavior — results, counters, cached objects —
        is bit-identical to pre-budget code.
        """
        algorithm = Algorithm.parse(algorithm)
        with self._lock:
            start = time.perf_counter()
            if dag is None:
                entry = self._dag_entry(queries)
                dag = entry.dag
            else:
                self._sync()
                entry = self._plans.get(self._batch_key(queries))
            # Results are cached per held DAG; any other DAG is searched uncached.
            results = (
                entry.results
                if self.cache_plans and entry is not None and entry.dag is dag
                else None
            )
            result_key = (algorithm, greedy_options)
            if results is not None:
                cached = results.get(result_key)
                if cached is not None:
                    self.plan_hits += 1
                    if budget is not None:
                        cached = replace(
                            cached,
                            degradation=cached_report(algorithm, cached.algorithm, budget, start),
                        )
                    return self._adopt_cached_reads(cached)
                self.plan_misses += 1
            if budget is None:
                result = super().optimize(
                    queries, algorithm, dag=dag, greedy_options=greedy_options
                )
                if results is not None:
                    results[result_key] = result
                return self._adopt_cached_reads(result)
            result = run_ladder(dag, algorithm, budget, start, greedy_options=greedy_options)
            report = result.degradation
            if (
                results is not None
                and report is not None
                and report.level is DegradationLevel.FULL
            ):
                results[result_key] = replace(result, degradation=None)
            return self._adopt_cached_reads(result)

    def _adopt_cached_reads(self, result: OptimizationResult) -> OptimizationResult:
        """Swap injected cached reads into the chosen plan (result-cache on).

        Runs after the optimization search so the search itself stays
        bit-identical to a cache-off run; see
        :func:`repro.execution.result_cache.adopt_cached_reads`.  Idempotent,
        so plan-cache hits can pass through here again safely.  Looked up on
        its module at call time, so a wrapper installed there (the traced
        ``perfbench`` run) sees every call.
        """
        if self.result_cache is not None:
            repro.execution.result_cache.adopt_cached_reads(result.plan, self.result_cache)
        return result

    # -- maintenance -----------------------------------------------------------
    def invalidate(self, table: Optional[str] = None) -> None:
        """Manually drop cached state for *table* (or the whole session)."""
        with self._lock:
            if table is None:
                self.cache.clear()
                self._plans.clear()
            else:
                name = table.lower()
                self.cache.invalidate(name)
                stale = [key for key, entry in self._plans.items() if name in entry.relations]
                for key in stale:
                    del self._plans[key]
            # The plan cache was evicted in step with the fragment cache here,
            # so the next _sync must not treat the generation bump as an
            # external invalidation and wipe the surviving plans.
            self._cache_generation = self.cache.generation

    def cache_stats(self) -> SessionCacheStats:
        """Fragment-cache counters (plan-cache hits are separate fields)."""
        return self.cache.snapshot()


class CacheWarmer:
    """Background cache-population worker (the pcache-observer pattern).

    A request-log observer, a scheduler, or any component that can
    *anticipate* batches enqueues them here; a daemon thread drains the queue
    through :meth:`OptimizerSession.build_dag`, so the session's fragment
    (and plan) caches are warm before a client submits the real request.
    The session's internal lock serializes the warmer against foreground
    calls, and correctness is unaffected either way: warming only populates
    caches whose reuse is byte-identical by construction.

    A raising batch never kills the drain thread.  Each failed batch is
    retried with bounded exponential backoff (``attempts`` tries total,
    sleeping ``backoff_s * 2**i`` between them — transient failures like a
    catalog mid-update are expected in a live service) before it is counted
    into :attr:`errors`; the most recent exception is kept in
    :attr:`last_error` for observability either way, and :attr:`retries`
    counts the extra attempts made.

    Usage::

        warmer = CacheWarmer(session)
        warmer.enqueue(anticipated_batch)
        ...
        warmer.close()   # drain outstanding batches, stop the thread
    """

    def __init__(
        self,
        session: OptimizerSession,
        attempts: int = 3,
        backoff_s: float = 0.01,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts!r}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s!r}")
        self.session = session
        self.attempts = attempts
        self.backoff_s = backoff_s
        self.warmed = 0
        self.errors = 0
        self.retries = 0
        self.last_error: Optional[BaseException] = None
        self._queue: "queue.Queue[Optional[List[Query]]]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._drain, name="repro-cache-warmer", daemon=True
        )
        self._thread.start()

    def enqueue(self, queries: Sequence[Query]) -> None:
        """Schedule *queries* to be built in the background."""
        self._queue.put(list(queries))

    def pending(self) -> int:
        """Batches enqueued but not yet warmed (approximate, by nature)."""
        return self._queue.qsize()

    def _drain(self) -> None:
        while True:
            batch = self._queue.get()
            try:
                if batch is None:
                    return
                for attempt in range(self.attempts):
                    try:
                        self.session.build_dag(batch)
                        self.warmed += 1
                        break
                    except Exception as exc:
                        self.last_error = exc
                        if attempt + 1 < self.attempts:
                            self.retries += 1
                            time.sleep(self.backoff_s * (2 ** attempt))
                else:
                    self.errors += 1
            finally:
                self._queue.task_done()

    def flush(self) -> None:
        """Block until every batch enqueued so far has been processed."""
        self._queue.join()

    def close(self) -> None:
        """Drain outstanding batches, then stop the worker thread."""
        self._queue.put(None)
        self._thread.join()
