"""Differential lockdown of the cross-batch result cache (PR 10).

Two oracles pin the feature:

1. **Cache-off ≡ seed.**  A session built without ``result_cache=True`` and
   an :class:`Executor` without a cache must behave *byte-identically* to the
   plain one-shot pipeline — same rows (row and column order included) and
   the same work accounting, down to the float accumulators.  The cache must
   cost nothing when it is off.

2. **Cache-on rows ≡ cold rows.**  Whatever the cache serves — exact digest
   matches at execution time, injected cached reads, covering hits that
   re-filter a weaker cached result through a compensating residual
   selection — the per-query rows must be byte-identical to a cold
   execution, while the accounted work (block reads) only ever goes down.

The sweeps run the PSP scale-up composites CQ1..CQ5, the TPC-D batch BQ5,
and 40 seeded random overlapping batches through one long-lived cached
session, each batch checked against its own cold execution.  Lifecycle tests
cover statistics-driven invalidation, the LRU bound of the ``results``
family, and the snapshot round-trip; ``TestCandidateIndex`` checks every
build-time candidate list against a full scan of the store.
"""

import gc
import hashlib
import random

import pytest

from repro import MQOptimizer
from repro.algebra import Join, Relation, Select, TruePredicate, col, eq, ge
from repro.catalog import psp_catalog, tpcd_catalog
from repro.dag.builder import Query
from repro.dag.nodes import CachedReadOp
from repro.execution import Executor, generate_psp_data, generate_tpcd_data
from repro.execution.result_cache import ResultCache
from repro.service.resilience import CorruptedEntry
from repro.service.session import OptimizerSession, SessionCacheLimits
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.generators import random_query_workload, rows_digest
from tests.test_properties import tracked_reachable


def work_digest(result):
    """Rows digest plus the full work accounting — the seed-behavior oracle."""
    stats = result.stats
    token = "|".join((
        rows_digest(result.per_query_rows),
        str(stats.rows_scanned), str(stats.rows_processed),
        str(stats.rows_materialized), str(stats.blocks_read),
        str(stats.blocks_written), str(stats.reuses),
        repr(stats.io_seconds), repr(stats.cpu_seconds),
    ))
    return hashlib.sha256(token.encode()).hexdigest()


def _has_cross_product(query):
    stack = [query.expression]
    while stack:
        expression = stack.pop()
        if isinstance(expression, Join) and isinstance(
            expression.predicate, TruePredicate
        ):
            return True
        stack.extend(expression.children())
    return False


def executable_workloads(count):
    """The first *count* seeded random batches free of cross-product joins.

    Cross products are legal plans but explode row counts under execution;
    the generator's other shapes (shared scans, overlapping range/equality
    selections, repeated tables, aggregations) are what the cache is about.
    Deterministic: seeds are scanned in order from 0.
    """
    workloads = []
    seed = 0
    while len(workloads) < count:
        workload = random_query_workload(seed)
        if not any(_has_cross_product(query) for query in workload):
            workloads.append((seed, workload))
        seed += 1
    return workloads


def cold_run(catalog, database, queries):
    """The seed pipeline: one-shot optimization, cache-less execution."""
    plan = MQOptimizer(catalog).optimize(queries, "greedy").plan
    return Executor(database, catalog).run(plan)


def cached_session(catalog, limits=None):
    session = OptimizerSession(
        catalog, cache_plans=False, result_cache=True, limits=limits
    )
    return session, session.result_cache


@pytest.fixture(scope="module")
def psp6():
    return psp_catalog(relation_count=6), generate_psp_data(
        relation_count=6, rows_per_table=100
    )


@pytest.fixture(scope="module")
def psp22():
    return psp_catalog(), generate_psp_data(relation_count=22, rows_per_table=80)


@pytest.fixture(scope="module")
def tpcd():
    return tpcd_catalog(), generate_tpcd_data(0.002)


class TestCacheOffIsSeedBehavior:
    def test_session_without_result_cache_has_no_cache(self, psp6):
        catalog, _ = psp6
        assert OptimizerSession(catalog, cache_plans=False).result_cache is None
        assert Executor(dict(), catalog).result_cache is None

    def test_cache_off_work_digest_matches_one_shot(self, psp6):
        catalog, database = psp6
        session = OptimizerSession(catalog, cache_plans=False)
        for queries in (component_query(1), component_query(2),
                        executable_workloads(1)[0][1]):
            warm = Executor(database, catalog).run(
                session.optimize(queries, "greedy").plan
            )
            reference = cold_run(catalog, database, queries)
            assert work_digest(warm) == work_digest(reference)

    def test_results_family_stays_empty_without_cache(self, psp6):
        catalog, database = psp6
        session = OptimizerSession(catalog, cache_plans=False)
        Executor(database, catalog).run(
            session.optimize(component_query(1), "greedy").plan
        )
        assert len(session.cache.results) == 0


class TestDifferentialRows:
    def test_scaleup_composites_rows_identical_and_cheaper(self, psp22):
        catalog, database = psp22
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        off_blocks = on_blocks = 0
        for i in range(1, 6):
            queries = scaleup_queries(i)
            cold = cold_run(catalog, database, queries)
            cached = executor.run(session.optimize(queries, "greedy").plan)
            assert rows_digest(cached.per_query_rows) == rows_digest(
                cold.per_query_rows
            ), f"CQ{i}: cached rows diverged from the cold execution"
            assert cached.stats.blocks_read <= cold.stats.blocks_read
            off_blocks += cold.stats.blocks_read
            on_blocks += cached.stats.blocks_read
        assert on_blocks < off_blocks
        counters = cache.counters()
        assert counters["stores"] > 0
        assert counters["exec_serves"] + counters["injected_serves"] > 0

    def test_bq5_rows_identical_across_repeats(self, tpcd):
        catalog, database = tpcd
        queries = batched_queries(5)
        cold = cold_run(catalog, database, queries)
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        first = executor.run(session.optimize(queries, "greedy").plan)
        second = executor.run(session.optimize(queries, "greedy").plan)
        oracle = rows_digest(cold.per_query_rows)
        assert rows_digest(first.per_query_rows) == oracle
        assert rows_digest(second.per_query_rows) == oracle
        # The repeat must be served, not recomputed.
        assert second.stats.blocks_read < cold.stats.blocks_read
        assert cache.exec_serves + cache.injected_serves > 0

    def test_forty_seeded_random_batches_differential(self, psp6):
        catalog, database = psp6
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        off_blocks = on_blocks = 0
        for seed, queries in executable_workloads(40):
            cold = cold_run(catalog, database, queries)
            cached = executor.run(session.optimize(queries, "greedy").plan)
            assert rows_digest(cached.per_query_rows) == rows_digest(
                cold.per_query_rows
            ), f"seed {seed}: cached rows diverged from the cold execution"
            assert cached.stats.blocks_read <= cold.stats.blocks_read, (
                f"seed {seed}: the cache made execution do *more* block reads"
            )
            off_blocks += cold.stats.blocks_read
            on_blocks += cached.stats.blocks_read
        assert on_blocks < off_blocks
        counters = cache.counters()
        assert counters["exact_injections"] > 0
        assert counters["injected_serves"] > 0

    def test_covering_hit_applies_residual_selection(self, psp6):
        catalog, database = psp6
        weaker = Query("weak", Select(Relation("psp1"),
                                      ge(col("psp1", "num"), 700)))
        stronger = Query("strong", Select(Relation("psp1"),
                                          ge(col("psp1", "num"), 900)))
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        executor.run(session.optimize([weaker], "greedy").plan)
        assert cache.covering_injections == 0
        cold = cold_run(catalog, database, [stronger])
        cached = executor.run(session.optimize([stronger], "greedy").plan)
        # The stronger scan was answered from the weaker cached result plus
        # a compensating residual selection — and the rows are byte-equal.
        assert cache.covering_injections >= 1
        assert cache.injected_serves >= 1
        assert rows_digest(cached.per_query_rows) == rows_digest(
            cold.per_query_rows
        )

    def test_covering_sweep_forces_residual_hits(self, psp6):
        """Chain batches whose scan thresholds strengthen batch over batch:
        every later batch can only be answered from the earlier, weaker
        cached scans through residual compensation."""
        catalog, database = psp6

        def chain(threshold, name):
            expression = Select(Relation("psp1"),
                                ge(col("psp1", "num"), threshold))
            expression = Join(expression, Relation("psp2"),
                              eq(col("psp1", "sp"), col("psp2", "p")))
            return Query(name, expression)

        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        for index, threshold in enumerate((600, 700, 800, 900)):
            queries = [chain(threshold, f"T{threshold}")]
            cold = cold_run(catalog, database, queries)
            cached = executor.run(session.optimize(queries, "greedy").plan)
            assert rows_digest(cached.per_query_rows) == rows_digest(
                cold.per_query_rows
            ), f"threshold {threshold}"
            if index:
                assert cache.covering_injections >= index
        assert cache.injected_serves > 0


class TestLifecycle:
    def test_statistics_update_invalidates_dependent_entries(self, psp6):
        catalog = psp_catalog(relation_count=6)  # private: this test mutates
        database = generate_psp_data(relation_count=6, rows_per_table=100)
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        executor.run(session.optimize(component_query(1), "greedy").plan)
        deps_before = [entry.deps for entry in session.cache.results.values()]
        assert any("psp1" in deps for deps in deps_before)
        assert any("psp1" not in deps for deps in deps_before)
        catalog.update_statistics("psp1", row_count=777)
        session.cache.sync()
        deps_after = [entry.deps for entry in session.cache.results.values()]
        assert deps_after, "invalidation wiped unrelated entries"
        assert all("psp1" not in deps for deps in deps_after)

    def test_statistics_write_quarantines_a_poisoned_entry(self, psp6):
        """A poisoned ``results`` entry that no lookup has met yet is
        dropped by the next statistics write and counted as quarantined,
        whichever relations it read."""
        catalog = psp_catalog(relation_count=6)  # private: this test mutates
        database = generate_psp_data(relation_count=6, rows_per_table=100)
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        executor.run(session.optimize(component_query(1), "greedy").plan)
        results = session.cache.results
        digest = next(key for key, entry in results.items() if "psp1" not in entry.deps)
        dict.__setitem__(results, digest, CorruptedEntry(results[digest]))
        kept = [key for key, entry in dict.items(results)
                if key != digest and "psp1" not in entry.deps]
        catalog.update_statistics("psp1", row_count=777)
        assert session.cache.sync() == frozenset({"psp1"})
        assert list(results) == kept
        assert results.quarantined == 1

    def test_results_family_honors_lru_bound(self, psp6):
        catalog, database = psp6
        session, cache = cached_session(
            catalog, limits=SessionCacheLimits(results=2)
        )
        executor = Executor(database, catalog, result_cache=cache)
        for component in (1, 2, 1, 2):
            queries = component_query(component)
            cold = cold_run(catalog, database, queries)
            cached = executor.run(session.optimize(queries, "greedy").plan)
            assert len(session.cache.results) <= 2
            assert rows_digest(cached.per_query_rows) == rows_digest(
                cold.per_query_rows
            )
        assert session.cache.results.evictions > 0

    def test_snapshot_roundtrip_serves_restored_entries(self, psp6):
        catalog, database = psp6
        donor, donor_cache = cached_session(catalog)
        Executor(database, catalog, result_cache=donor_cache).run(
            donor.optimize(component_query(1), "greedy").plan
        )
        restored = OptimizerSession.from_snapshot(
            donor.snapshot_state(), cache_plans=False, result_cache=True
        )
        assert restored.result_cache is not None
        assert restored.result_cache.store is restored.cache.results
        assert len(restored.cache.results) == len(donor.cache.results)
        executor = Executor(database, catalog,
                            result_cache=restored.result_cache)
        cold = cold_run(catalog, database, component_query(1))
        served = executor.run(restored.optimize(component_query(1),
                                                "greedy").plan)
        assert rows_digest(served.per_query_rows) == rows_digest(
            cold.per_query_rows
        )
        assert served.stats.blocks_read < cold.stats.blocks_read
        counters = restored.result_cache.counters()
        assert counters["exec_serves"] + counters["injected_serves"] > 0


def reference_candidates(store, table, alias):
    """The candidate oracle: every stored scan-kind entry of ``(table,
    alias)``, read straight from the dict (poisoned values skipped), smallest
    first by ``(row_count, predicate tokens, digest)``."""
    matches = []
    for value in dict.values(store):
        if value.__class__ is CorruptedEntry:
            continue
        entry = value
        if entry.kind == "scan" and entry.table == table and entry.alias == alias:
            matches.append(entry)
    return sorted(matches, key=lambda entry: (
        entry.row_count,
        ",".join(sorted(str(p) for p in entry.predicates or ())),
        entry.digest,
    ))


def full_scan_candidates(cache, table, alias):
    """Candidates the way a store-wide probe finds them: every stored digest
    read through ``BoundedCache.get`` (fault hooks, quarantine), then the
    oracle over what is left."""
    store = cache.store
    for digest in list(store):
        store.get(digest)
    return reference_candidates(store, table, alias)


class TestCandidateIndex:
    """``ResultCache.scan_candidates`` equals a full scan of the store at
    every call of a walk that evicts, invalidates, quarantines and restores
    from a snapshot, and it leaves the store's LRU order as it found it."""

    WALK_STEPS = 14
    STATS_WRITE_STEP = 4
    CORRUPT_STEP = 7
    SNAPSHOT_STEP = 10

    def walk(self):
        """Run the seeded walk; returns the counters it leaves behind."""
        catalog = psp_catalog(relation_count=8)  # private: the walk mutates
        database = generate_psp_data(relation_count=8, rows_per_table=60)
        session, cache = cached_session(catalog, limits=SessionCacheLimits(results=8))
        executor = Executor(database, catalog, result_cache=cache)
        rng = random.Random(3)
        evictions = quarantined = invalidated = 0
        for step in range(self.WALK_STEPS):
            start = rng.randrange(1, 4)
            queries = component_query(start, seed=rng.choice((42, 43))) + (
                component_query(start + 1)
            )
            if step == self.STATS_WRITE_STEP:
                catalog.update_statistics("psp3", row_count=777)
            if step == self.SNAPSHOT_STEP:
                evictions += session.cache.results.evictions
                quarantined += session.cache.results.quarantined
                invalidated += session.cache.stats.evicted_entries
                session = OptimizerSession.from_snapshot(
                    session.snapshot_state(), cache_plans=False, result_cache=True
                )
                cache = session.result_cache
                executor = Executor(database, session.catalog, result_cache=cache)
            executor.run(session.optimize(queries, "greedy").plan)
            if step == self.CORRUPT_STEP:
                # Poison the newest scan entry, then rebuild the same window:
                # its (table, alias) is probed, so the entry is quarantined.
                store = cache.store
                digest = next(
                    digest for digest, entry in reversed(dict.items(store))
                    if entry.kind == "scan"
                )
                dict.__setitem__(store, digest, CorruptedEntry(store[digest]))
                before = store.quarantined
                session.optimize(queries, "greedy")
                assert store.quarantined == before + 1
        results = session.cache.results
        return {
            "evictions": evictions + results.evictions,
            "quarantined": quarantined + results.quarantined,
            "store": list(results),
            "counters": cache.counters(),
            "evicted_entries": invalidated + session.cache.stats.evicted_entries,
        }

    def test_candidates_match_a_full_scan_and_keep_lru_order(self, monkeypatch):
        index_candidates = ResultCache.scan_candidates
        calls = []

        def checked(cache, table, alias):
            store = cache.store
            expected = reference_candidates(store, table, alias)
            poisoned = {
                digest for digest, value in dict.items(store)
                if value.__class__ is CorruptedEntry
            }
            before = list(store)
            found = index_candidates(cache, table, alias)
            after = list(store)
            assert [e.digest for e in found] == [e.digest for e in expected]
            assert all(a is b for a, b in zip(found, expected))
            # Only poisoned entries may leave, and nothing else moves.
            assert set(before) - set(after) <= poisoned
            assert after == [digest for digest in before if digest in set(after)]
            calls.append(len(found))
            return found

        monkeypatch.setattr(ResultCache, "scan_candidates", checked)
        indexed = self.walk()
        monkeypatch.setattr(ResultCache, "scan_candidates", full_scan_candidates)
        scanned = self.walk()
        assert indexed == scanned
        assert len(calls) > 40 and sum(calls) > 10, calls
        assert indexed["evictions"] > 0 and indexed["quarantined"] == 1
        assert indexed["evicted_entries"] > 0  # the statistics write
        counters = indexed["counters"]
        assert counters["exact_injections"] + counters["covering_injections"] > 0


def test_standalone_drill_rows_identical_and_block_reads_halved():
    """Twelve overlapping component windows over a 10-relation catalog
    (starts cycle 1..5, widths alternate 1/2), executed cache-off — a fresh
    one-shot optimizer and cache-less executor per batch — and cache-on —
    one result-cache session and one executor bound to it.  Every batch
    returns byte-identical rows, and the accounted block reads fall at least
    2x."""
    catalog = psp_catalog(relation_count=10)
    database = generate_psp_data(relation_count=10, rows_per_table=300)
    workloads = [
        [query for c in range(start, start + width) for query in component_query(c)]
        for start, width in (((i * 2) % 5 + 1, 1 + i % 2) for i in range(12))
    ]
    off_digests = []
    off_blocks = 0
    for queries in workloads:
        execution = cold_run(catalog, database, queries)
        off_digests.append(rows_digest(execution.per_query_rows))
        off_blocks += execution.stats.blocks_read

    session, cache = cached_session(catalog)
    executor = Executor(database, catalog, result_cache=cache)
    on_blocks = 0
    for index, queries in enumerate(workloads):
        execution = executor.run(session.optimize(queries, "greedy").plan)
        assert rows_digest(execution.per_query_rows) == off_digests[index], index
        on_blocks += execution.stats.blocks_read
    assert off_blocks >= 2.0 * on_blocks, (off_blocks, on_blocks)


class TestRowsInvisibleToGarbageCollector:
    """Stored rows are tuples of atoms, which the collector stops tracking
    after its first pass over them: a full store costs every collection a
    few objects per entry and column, however many rows the entries hold."""

    @staticmethod
    def entry_bound(entry):
        """Tracked objects one entry may reach: the entry and its key
        payload, plus each column's reference and estimated statistics."""
        return 16 + 4 * len(entry.columns)

    @pytest.fixture(scope="class")
    def walked(self):
        catalog = psp_catalog(relation_count=6)
        database = generate_psp_data(relation_count=6, rows_per_table=300)
        session, cache = cached_session(catalog)
        executor = Executor(database, catalog, result_cache=cache)
        rng = random.Random(5)
        plans = []
        for _ in range(12):
            queries = component_query(rng.randrange(1, 3),
                                      seed=rng.choice((42, 43, 44)))
            plan = session.optimize(queries, "greedy").plan
            executor.run(plan)
            plans.append(plan)
        gc.collect()
        return session, plans

    def test_stored_and_pinned_rows_are_untracked(self, walked):
        session, plans = walked
        entries = list(session.cache.results.values())
        assert entries
        for entry in entries:
            assert entry.rows and gc.is_tracked(entry.rows) is False
            assert all(gc.is_tracked(row) is False for row in entry.rows)
        reads = [
            plan.dag.arena.op_operator[op_id]
            for plan in plans
            for op_id in plan.choice_op
            if op_id >= 0 and isinstance(plan.dag.arena.op_operator[op_id], CachedReadOp)
        ]
        assert reads, "the walk never injected a cached read"
        for read in reads:
            assert all(gc.is_tracked(row) is False for row in read.rows)

    def test_tracked_objects_grow_with_entries_not_rows(self, walked):
        session, _ = walked
        values = list(session.cache.results.values())
        bound = sum(self.entry_bound(entry) for entry in values)
        rows = sum(entry.row_count for entry in values)
        assert rows > 2 * bound
        assert tracked_reachable(values) <= bound
        for value in values:
            assert tracked_reachable([value]) <= self.entry_bound(value)
