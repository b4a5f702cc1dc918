"""Catalog-lifetime session cache: byte-identity and invalidation.

The :class:`~repro.service.session.OptimizerSession` subsystem reuses scan
choices, base-table properties and whole join-block expansions (block logs)
across DAG builds.  Like every fast path in this repo, it is locked
to the builder oracle (:mod:`tests.oracles.builder`, built by
``tests.generators.reference_dag``) via
:func:`tests.generators.dag_fingerprint`:

* cold build == reference, warm rebuild == reference (same batch);
* shifted overlapping batches on a *shared* session == their own reference
  (this is where identity-keying earns its keep: the same canonical key can
  carry differently-ordered float folds in different batches);
* post-invalidation rebuilds == a reference built against the *mutated*
  catalog — and != the pre-mutation DAG, which is exactly the check that a
  stale-cache bug (serving pre-mutation properties) would trip.

Invalidation granularity is tested directly against the cache tables:
statistics mutations evict only the executed results and plans depending on
the mutated relation (the content-addressed fragments stay, and hit again
once the statistics are restored), schema changes clear everything.
"""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro import Algorithm, MQOptimizer, OptimizerSession, Query, SessionCache
from repro.algebra import Join, Relation, Select, col, eq, ge
from repro.catalog import psp_catalog, tpcd_catalog
from repro.catalog.catalog import CatalogError
from repro.catalog.schema import Index, make_table
from repro.cost.estimation import ColumnStats, LogicalProperties
from repro.dag import block_logs
from repro.dag.builder import DagBuilder
from repro.execution import Executor, generate_psp_data
from repro.service import BoundedCache, CacheWarmer, CorruptedEntry, SessionCacheLimits
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload, reference_dag

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# Catalog epochs and statistics versioning
# ---------------------------------------------------------------------------

class TestCatalogEpochs:
    def test_add_table_is_a_schema_change(self):
        catalog = psp_catalog(relation_count=3)
        schema_epoch = catalog.schema_epoch
        digests = catalog.stats_digests()
        catalog.add_table(make_table("extra", 10, [("x", 8, 5)]))
        assert catalog.schema_epoch > schema_epoch
        after = catalog.stats_digests()
        assert set(after) - set(digests) == {"extra"}
        assert {name: after[name] for name in digests} == digests

    def test_update_statistics_is_stats_only_and_targeted(self):
        catalog = psp_catalog(relation_count=3)
        schema_epoch = catalog.schema_epoch
        digests = catalog.stats_digests()
        before = catalog.table("psp2")
        updated = catalog.update_statistics(
            "psp2", row_count=123, distinct={"num": 7}, bounds={"p": (1, 2)}
        )
        assert catalog.schema_epoch == schema_epoch
        after = catalog.stats_digests()
        assert set(after) == set(digests)
        assert {name for name in digests if after[name] != digests[name]} == {"psp2"}
        assert updated.row_count == 123
        assert updated.column("num").distinct == 7
        assert (updated.column("p").low, updated.column("p").high) == (1, 2)
        # Schema is preserved: same columns, widths, indexes.
        assert updated.column_names() == before.column_names()
        assert updated.column("sp").width == before.column("sp").width
        assert updated.indexes == before.indexes
        assert catalog.table("psp2") is updated

    def test_update_statistics_rejects_unknown_names(self):
        catalog = psp_catalog(relation_count=2)
        with pytest.raises(CatalogError):
            catalog.update_statistics("nope", row_count=1)
        with pytest.raises(CatalogError):
            catalog.update_statistics("psp1", distinct={"nope": 1})


# ---------------------------------------------------------------------------
# Byte-identity of session-backed builds against the builder oracle
# ---------------------------------------------------------------------------

class TestWarmRebuildOracle:
    def test_cold_and_warm_match_reference(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        reference = dag_fingerprint(reference_dag(optimizer.catalog, queries))
        assert dag_fingerprint(session.build_dag(queries)) == reference  # cold
        assert dag_fingerprint(session.build_dag(queries)) == reference  # warm
        assert dag_fingerprint(session.build_dag(queries)) == reference  # warm again
        stats = session.cache_stats()
        assert stats.builds == 3 and stats.hits > 0

    def test_shifted_overlapping_batches_share_one_session(self):
        """Overlapping-but-different batches must each equal their own
        reference even though they reuse each other's fragments."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        batches = [
            scaleup_queries(2),                                       # SQ1..SQ6
            [q for c in range(3, 9) for q in component_query(c)],     # SQ3..SQ8
            scaleup_queries(1),                                       # SQ1..SQ2
            scaleup_queries(2),                                       # repeat
        ]
        for index, queries in enumerate(batches):
            warm = dag_fingerprint(session.build_dag(queries))
            reference = dag_fingerprint(reference_dag(optimizer.catalog, queries))
            assert warm == reference, f"batch {index}"

    def test_random_query_batches_on_shared_session(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        for seed in range(12):
            queries = random_query_workload(seed)
            assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                reference_dag(optimizer.catalog, queries)
            ), seed
        # Second sweep: everything warm, including cross-batch sharing.
        for seed in range(12):
            queries = random_query_workload(seed)
            assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                reference_dag(optimizer.catalog, queries)
            ), ("warm", seed)

    def test_random_batches_with_outer_predicates_on_shared_session(self):
        """Blocks carrying predicates over an outer alias, cold then warm."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        for sweep in ("cold", "warm"):
            for seed in range(12):
                queries = random_query_workload(seed, outer_predicates=True)
                assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                    reference_dag(optimizer.catalog, queries)
                ), (sweep, seed)

    def test_tpcd_batches_with_nested_queries(self):
        catalog = tpcd_catalog(1.0)
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        for index in (2, 5, 5):
            queries = batched_queries(index)
            assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                reference_dag(optimizer.catalog, queries)
            ), index

    def test_optimization_results_match_plain_optimizer(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog)
        queries = scaleup_queries(2)
        plain = optimizer.optimize_all(queries)
        warm = session.optimize_all(queries)
        rewarm = session.optimize_all(queries)
        for name in plain:
            assert plain[name].cost == warm[name].cost == rewarm[name].cost, name
            assert sorted(plain[name].plan.materialized) == sorted(
                warm[name].plan.materialized
            ), name


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------

def _fragment_families(cache: SessionCache):
    """Every cache family but ``results``, by name."""
    return {name: family for name, family in cache._families().items() if name != "results"}


class TestInvalidation:
    def test_statistics_write_keeps_fragments_and_restore_hits_them(self):
        """A write evicts the executed results and the plans that read the
        written relation and keeps every content-addressed fragment; once
        the write is undone, the pre-write block logs and scans serve the
        rebuild without a miss.  Every build equals the builder oracle
        on the catalog as it stands."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, result_cache=True)
        cache = session.cache
        touching = scaleup_queries(1)                 # psp1..psp6
        disjoint = list(component_query(10))          # psp10..psp14
        executor = Executor(generate_psp_data(rows_per_table=60), catalog,
                            result_cache=session.result_cache)
        for queries in (touching, disjoint):
            executor.run(session.optimize(queries, Algorithm.GREEDY).plan)
        dag_touching = session.build_dag(touching)
        dag_disjoint = session.build_dag(disjoint)

        def fragment_build():
            """A build on the session's fragments (no result injection)."""
            built = dag_fingerprint(DagBuilder(catalog, session=cache).build(touching))
            assert built == dag_fingerprint(reference_dag(catalog, touching))
            return built

        before = fragment_build()
        fragments = {name: list(family) for name, family in _fragment_families(cache).items()}
        reading = [key for key, entry in cache.results.items() if "psp1" in entry.deps]
        kept = [key for key in cache.results if key not in reading]
        assert reading and kept
        rows = catalog.table("psp1").row_count

        catalog.update_statistics("psp1", row_count=12_345)
        assert session.build_dag(disjoint) is dag_disjoint  # syncs the session
        assert list(cache.results) == kept
        assert cache.stats.evicted_entries == len(reading)
        for name, keys in fragments.items():
            family = cache._families()[name]
            assert all(key in family for key in keys), name
        assert session.build_dag(touching) is not dag_touching
        assert fragment_build() != before

        catalog.update_statistics("psp1", row_count=rows)
        misses = cache.stats.misses
        assert fragment_build() == before
        assert cache.stats.misses == misses

    def test_index_set_change_evicts_the_relation_fragments(self):
        """Join pricing reads a relation's indexes, which no fragment key
        pins: a table swapped behind the catalog's back with a clustered
        index on its join column and the same statistics empties every
        fragment family, evicts the executed results and the plans that
        read the relation and keeps the others, and the rebuild equals a
        reference on the swapped catalog, where a kept block log would
        price merge joins without the index."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, result_cache=True)
        cache = session.cache
        touching = scaleup_queries(1)                 # psp1..psp6
        disjoint = list(component_query(10))          # psp10..psp14
        executor = Executor(generate_psp_data(rows_per_table=60), catalog,
                            result_cache=session.result_cache)
        for queries in (touching, disjoint):
            executor.run(session.optimize(queries, Algorithm.GREEDY).plan)
        dag_touching = session.build_dag(touching)
        dag_disjoint = session.build_dag(disjoint)
        before = dag_fingerprint(DagBuilder(catalog, session=cache).build(touching))
        kept = [key for key, entry in cache.results.items() if "psp2" not in entry.deps]
        assert kept and len(kept) < len(cache.results)
        indexes = (Index("psp2", "p", clustered=True),)
        catalog._tables["psp2"] = dataclasses.replace(catalog.table("psp2"), indexes=indexes)
        assert session.build_dag(disjoint) is dag_disjoint  # syncs the session
        assert list(cache.results) == kept
        assert not any(_fragment_families(cache).values())
        assert session.build_dag(touching) is not dag_touching
        rebuilt = dag_fingerprint(DagBuilder(catalog, session=cache).build(touching))
        assert rebuilt == dag_fingerprint(reference_dag(catalog, touching))
        assert rebuilt != before

    def test_post_invalidation_rebuild_matches_fresh_reference(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        pre = dag_fingerprint(session.build_dag(queries))
        session.build_dag(queries)  # fully warm
        catalog.update_statistics("psp2", row_count=55_555, distinct={"num": 13})
        post = dag_fingerprint(session.build_dag(queries))
        assert post == dag_fingerprint(reference_dag(optimizer.catalog, queries))
        # The mutation must be visible: serving the pre-mutation DAG (a
        # stale-cache bug) would leave the fingerprint unchanged.
        assert post != pre

    def test_stale_cache_bug_would_be_caught(self):
        """Regression test for the PR 7 identity-keying bug class: mutate
        statistics *behind the catalog's back* (no epoch or version bump) and
        the warm rebuild must still match the post-mutation reference.  Sync
        compares per-relation statistics *content digests* every build, and
        leaf cache keys embed the digest, so the swapped table is treated
        exactly like a declared update.  (Until PR 7 this test demonstrated
        the bug — the identity-keyed session served stale pre-mutation
        properties; a pinned reduction of that failure lives on as
        ``tests/analysis_fixtures/historical_pr7.py``.)"""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        pre = dag_fingerprint(session.build_dag(queries))
        # Bypass update_statistics: swap the table without touching epochs.
        table = catalog.table("psp2")
        catalog._tables["psp2"] = make_table(
            "psp2",
            55_555,
            [(c.name, c.width, c.distinct) for c in table.columns],
        )
        rebuilt = dag_fingerprint(session.build_dag(queries))
        reference = dag_fingerprint(reference_dag(optimizer.catalog, queries))
        assert rebuilt == reference  # the mutation was picked up...
        assert rebuilt != pre        # ...and it is visible in the result.
        # The digest comparison accounted it as a statistics invalidation
        # even though no epoch moved.
        assert session.cache.stats.stats_invalidations >= 1

    def test_schema_change_clears_everything(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        session.build_dag(queries)
        assert session.cache.entry_count() > 0
        catalog.add_table(make_table("extra", 100, [("x", 8, 10)], primary_key="x"))
        session.cache.sync()
        assert not any(session.cache._families().values())
        assert session.cache.stats.schema_invalidations == 1
        assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
            reference_dag(optimizer.catalog, queries)
        )

    def test_manual_invalidate(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        session.build_dag(scaleup_queries(1))
        assert session.cache.entry_count() > 0
        session.invalidate("psp1")
        assert not any(_fragment_families(session.cache).values())
        session.build_dag(scaleup_queries(1))
        session.invalidate()
        assert not any(session.cache._families().values())

    def test_invalidate_clears_fragments_and_drops_results_reading_the_table(self):
        """``invalidate(table)`` empties the fragment families, drops the
        executed results and the plans that read *table* and keeps the
        others; the rebuild equals the reference."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, result_cache=True)
        cache = session.cache
        touching = scaleup_queries(1)                 # psp1..psp6
        disjoint = list(component_query(10))          # psp10..psp14
        executor = Executor(generate_psp_data(rows_per_table=60), catalog,
                            result_cache=session.result_cache)
        for queries in (touching, disjoint):
            executor.run(session.optimize(queries, Algorithm.GREEDY).plan)
        dag_touching = session.build_dag(touching)
        dag_disjoint = session.build_dag(disjoint)
        reading = [key for key, entry in cache.results.items() if "psp1" in entry.deps]
        kept = [key for key in cache.results if key not in reading]
        assert reading and kept
        fragments = sum(map(len, _fragment_families(cache).values()))
        assert fragments
        session.invalidate("psp1")
        assert list(cache.results) == kept
        assert not any(_fragment_families(cache).values())
        assert cache.stats.evicted_entries == len(reading) + fragments
        assert session.build_dag(disjoint) is dag_disjoint
        assert session.build_dag(touching) is not dag_touching
        rebuilt = DagBuilder(catalog, session=cache).build(touching)
        assert dag_fingerprint(rebuilt) == dag_fingerprint(reference_dag(catalog, touching))

    def test_direct_fragment_invalidation_also_drops_plans(self):
        """Invalidating through the public ``session.cache`` attribute (not
        the façade's own ``invalidate``) must not leave stale plans behind."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        queries = scaleup_queries(1)
        first = session.build_dag(queries)
        session.cache.invalidate("psp1")   # bypasses OptimizerSession.invalidate
        assert session.build_dag(queries) is not first

    def test_facade_invalidate_keeps_unrelated_plans(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        touching = scaleup_queries(1)                 # psp1..psp6
        disjoint = list(component_query(10))          # psp10..psp14
        session.build_dag(touching)
        dag_disjoint = session.build_dag(disjoint)
        session.invalidate("psp1")
        assert session.build_dag(disjoint) is dag_disjoint


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class TestPlanCache:
    def test_exact_repeat_returns_same_dag_object(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        queries = scaleup_queries(1)
        first = session.build_dag(queries)
        second = session.build_dag(queries)
        assert first is second
        assert session.plan_hits == 1

    def test_plan_cache_respects_batch_identity(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        base = scaleup_queries(1)
        renamed = [Query(f"{q.name}!", q.expression) for q in base]
        assert session.build_dag(base) is not session.build_dag(renamed)

    def test_stats_change_evicts_dependent_plans_only(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        touching = scaleup_queries(1)            # psp1..psp6
        disjoint = [q for q in component_query(10)]  # psp10..psp14
        dag_touching = session.build_dag(touching)
        dag_disjoint = session.build_dag(disjoint)
        catalog.update_statistics("psp1", row_count=23_456)
        assert session.build_dag(disjoint) is dag_disjoint
        assert session.build_dag(touching) is not dag_touching

    def test_cached_optimize_result_is_reused(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        queries = scaleup_queries(1)
        first = session.optimize(queries, Algorithm.GREEDY)
        second = session.optimize(queries, Algorithm.GREEDY)
        assert first is second
        other = session.optimize(queries, Algorithm.VOLCANO_SH)
        assert other is not first

    def test_given_dag_is_searched_and_cached_only_when_held(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        queries = scaleup_queries(1)
        foreign = MQOptimizer(catalog).build_dag(queries)
        searched = session.optimize(queries, Algorithm.GREEDY, dag=foreign)
        assert searched.plan.dag is foreign
        assert (session.plan_hits, session.plan_misses) == (0, 0)  # uncached
        held = session.build_dag(queries)
        first = session.optimize(queries, Algorithm.GREEDY, dag=held)
        assert first.plan.dag is held and first.cost == searched.cost
        assert session.optimize(queries, Algorithm.GREEDY) is first


# ---------------------------------------------------------------------------
# Builder guard rails
# ---------------------------------------------------------------------------

class TestBuilderSessionGuards:
    def test_session_must_match_catalog_and_cost_model(self):
        catalog = psp_catalog()
        cache = SessionCache(catalog)
        with pytest.raises(ValueError):
            DagBuilder(psp_catalog(), session=cache)
        from repro.cost.model import CostModel

        with pytest.raises(ValueError):
            DagBuilder(catalog, cost_model=CostModel(), session=cache)


# ---------------------------------------------------------------------------
# Content addressing (PR 7)
# ---------------------------------------------------------------------------

class TestContentAddressing:
    def test_builds_and_logs_share_interned_keys(self):
        """Every scan and join key a warm build makes, and every key a block
        log holds, is the session's interned object: the session keeps one
        copy of each key, however many builds and logs name it."""
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        cache = session.cache
        session.build_dag(scaleup_queries(2))
        for queries in (scaleup_queries(2), [q for c in range(3, 9) for q in component_query(c)]):
            keys = [key for key in session.build_dag(queries).arena.eq_key
                    if key[0] in ("scan", "join")]
            assert keys
            assert all(key is cache.key_of(cache.key_id(key)) for key in keys)
        records = [record for logs in cache.block_logs.values()
                   for log in logs for record in log.records]
        assert records
        assert all(record[0] is cache.key_of(record[1]) for record in records)

    def test_equal_content_properties_share_one_interned_id(self):
        """Distinct objects with equal content intern to the same id — the
        property that makes cache keys survive pickling, LRU eviction, and
        recomputation in other processes."""
        cache = SessionCache(psp_catalog())
        stats = {col("t", "x"): ColumnStats(5.0, 8, 1.0, 9.0)}
        a = LogicalProperties(10.0, dict(stats))
        b = LogicalProperties(10.0, dict(stats))
        assert a is not b
        assert cache.props_id(a) == cache.props_id(b)
        changed = LogicalProperties(10.0, {col("t", "x"): ColumnStats(5.0, 8, 1.0, 9.5)})
        assert cache.props_id(changed) != cache.props_id(a)

    def test_content_key_is_bit_and_order_strict(self):
        """The key must be exactly as strict as the byte-identity oracle:
        ``-0.0`` vs ``0.0`` and column insertion order both change the bytes
        a DAG serializes to, so they must change the key."""
        assert LogicalProperties(0.0).content_key() != LogicalProperties(-0.0).content_key()
        x, y = col("t", "x"), col("t", "y")
        sx, sy = ColumnStats(2.0), ColumnStats(3.0)
        xy = LogicalProperties(1.0, {x: sx, y: sy})
        yx = LogicalProperties(1.0, {y: sy, x: sx})
        assert xy.content_key() != yx.content_key()

    def test_stats_digests_track_content_not_identity(self):
        """Independently constructed equal catalogs share digests; a
        statistics update moves exactly the updated relation's digest."""
        a, b = psp_catalog(), psp_catalog()
        assert a.stats_digests() == b.stats_digests()
        before = a.stats_digests()
        a.update_statistics("psp2", row_count=999)
        after = a.stats_digests()
        assert after["psp2"] != before["psp2"]
        del before["psp2"], after["psp2"]
        assert after == before


class TestBlockLogFallback:
    """Builds where a block's log does not fit must take the per-node path
    and still equal the builder oracle."""

    #: Overlapping PSP windows ``(first component, width, constants seed)``;
    #: the sixth batch meets sub-set nodes that carry other properties than
    #: when its blocks' logs were recorded (the same columns in another
    #: order, from a block that lists the members in another order).
    STREAM = [(12, 2, 43), (5, 2, 42), (6, 2, 43), (4, 2, 43), (8, 3, 42), (7, 2, 43)]

    @staticmethod
    def _count(monkeypatch):
        """Per-node expansions, and block logs that fit or are stale."""
        counts = {"per_node": 0, "replayed": 0, "stale": 0}
        expand = DagBuilder._expand_per_node
        resolve = block_logs._resolve

        def counted_expand(self, *args):
            counts["per_node"] += 1
            return expand(self, *args)

        def counted_resolve(*args):
            ids = resolve(*args)
            counts["stale" if ids is None else "replayed"] += 1
            return ids

        monkeypatch.setattr(DagBuilder, "_expand_per_node", counted_expand)
        monkeypatch.setattr(block_logs, "_resolve", counted_resolve)
        return counts

    def test_fault_free_write_free_stream_quarantines_nothing(self, monkeypatch):
        """Without faults nothing is damaged: logs that do not fit a build
        are stale, a miss, never a quarantine."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        counts = self._count(monkeypatch)
        for start, width, seed in self.STREAM:
            queries = [
                query
                for component in range(start, start + width)
                for query in component_query(component, seed=seed)
            ]
            served = session.optimize(queries, Algorithm.GREEDY)
            one_shot = MQOptimizer(catalog).optimize(queries, Algorithm.GREEDY)
            assert served.cost == one_shot.cost
        # Block logs do fall back on this stream, so the zero below is not
        # vacuous.
        assert counts["stale"] > 0, counts
        assert session.cache_stats().recipe_quarantines == 0

    def test_alias_order_variant_falls_back_and_matches_reference(self, monkeypatch):
        """Weak joins list their members in name order, queries in chain
        order: a block meets sub-set nodes another block made with the
        columns in another order.  Its log is stale then, the build falls
        back, and every batch of the
        stream still equals its reference; a repeat of the stream replays
        logs where they fit."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        counts = self._count(monkeypatch)
        for sweep in range(2):
            for start, width, seed in self.STREAM:
                queries = [
                    query
                    for component in range(start, start + width)
                    for query in component_query(component, seed=seed)
                ]
                assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                    reference_dag(optimizer.catalog, queries)
                ), (sweep, start, width, seed)
        assert counts["stale"] > 0, counts
        assert counts["replayed"] > 0, counts
        assert session.cache_stats().recipe_quarantines == 0

    def test_a_block_keeps_a_log_for_each_kind_of_build(self, monkeypatch):
        """``backward`` lists psp1..psp3 in the other order from ``forward``.
        Alone, it makes that sub-set's node itself; after ``forward``, it
        meets the node ``forward`` made, with its columns in another order,
        so its first log is stale and the per-node path records a second,
        which borrows the node.  From then on each kind of build replays
        one of the two logs, and every build equals its reference."""

        def link(a, b):
            return eq(col(f"psp{a}", "sp"), col(f"psp{b}", "p"))

        def scan(i):
            relation = Relation(f"psp{i}")
            return Select(relation, ge(col("psp1", "num"), 317)) if i == 1 else relation

        forward = Query("forward", Join(Join(scan(1), scan(2), link(1, 2)), scan(3), link(2, 3)))
        backward = Query("backward", Join(
            Join(Join(scan(3), scan(2), link(2, 3)), scan(1), link(1, 2)), scan(4), link(1, 4)
        ))
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        counts = self._count(monkeypatch)
        per_node = []
        for batch in ([backward], [forward, backward], [backward], [forward, backward]):
            before = counts["per_node"]
            served = session.build_dag(batch)
            per_node.append(counts["per_node"] - before)
            reference = reference_dag(catalog, batch)
            assert dag_fingerprint(served) == dag_fingerprint(reference)
            # The fingerprint sorts each node's columns; the properties must
            # also list them in the same order.
            assert [props.content_key() for props in served.arena.eq_props] == [
                props.content_key() for props in reference.arena.eq_props
            ]
        logs, = [entry for signature, entry in session.cache.block_logs.items()
                 if signature[0] == ("psp3", "psp2", "psp1", "psp4")]
        assert len(logs) == 2
        borrowed = [sum(record[6] is None for record in log.records) for log in logs]
        assert borrowed[0] > 0 and borrowed[1] == 0, borrowed
        # The second build expands ``forward`` per node and falls back for
        # ``backward``; the last two replay both blocks.
        assert per_node == [1, 2, 0, 0]

    def test_statistics_write_falls_back_and_matches_reference(self, monkeypatch):
        """After a statistics write, the blocks reading the changed relation
        fall back to the per-node path (their leaves carry other properties,
        so no log has their signature), the others replay, and the rebuild
        equals a reference built against the changed catalog."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        before = dag_fingerprint(session.build_dag(queries))
        counts = self._count(monkeypatch)
        catalog.update_statistics("psp3", row_count=31_000)
        after = dag_fingerprint(session.build_dag(queries))
        assert after == dag_fingerprint(reference_dag(optimizer.catalog, queries))
        assert after != before
        assert counts["per_node"] > 0 and counts["replayed"] > 0, counts
        assert counts["stale"] == 0, counts


    def test_restore_and_repeated_write_replay_logs_with_reference_columns(
        self, monkeypatch
    ):
        """Block logs outlive statistics writes: once a write is undone the
        pre-write logs serve every block, and a repeat of the write replays
        the logs the first one recorded.  No block expands per node, no log
        is stale, and each node's properties list their columns in the
        builder oracle's order, which the fingerprint alone does not
        check."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        rows = catalog.table("psp3").row_count

        def build():
            """Serve the batch; return its per-node expansions."""
            before = counts["per_node"]
            served = session.build_dag(queries)
            per_node = counts["per_node"] - before
            reference = reference_dag(catalog, queries)
            assert dag_fingerprint(served) == dag_fingerprint(reference)
            assert [props.content_key() for props in served.arena.eq_props] == [
                props.content_key() for props in reference.arena.eq_props
            ]
            return per_node

        counts = self._count(monkeypatch)
        assert build() > 0
        catalog.update_statistics("psp3", row_count=31_000)
        assert build() > 0
        stale = counts["stale"]
        for row_count in (rows, 31_000):
            catalog.update_statistics("psp3", row_count=row_count)
            assert build() == 0, row_count
        assert counts["stale"] == stale, counts
        assert counts["replayed"] > 0, counts


# ---------------------------------------------------------------------------
# Bounded caches (PR 7)
# ---------------------------------------------------------------------------

class TestBoundedCaches:
    def test_lru_semantics_and_eviction_counter(self):
        cache = BoundedCache(3)
        for key in "abc":
            cache[key] = key.upper()
        assert cache.get("a") == "A"      # refreshes recency of 'a'
        cache["d"] = "D"                  # evicts 'b', the oldest
        assert "b" not in cache and "a" in cache
        assert cache.evictions == 1
        assert cache.setdefault("e", "E") == "E"   # evicts 'c'
        assert "c" not in cache
        assert cache.evictions == 2
        assert list(cache) == ["a", "d", "e"]

    @pytest.mark.parametrize("maxsize", [3, None])
    def test_peek_reads_without_refreshing_recency(self, maxsize):
        cache = BoundedCache(maxsize)
        for key in "abc":
            cache[key] = key.upper()
        assert cache.peek("a") == "A"
        assert cache.peek("z") is None
        assert cache.peek("z", "default") == "default"
        assert list(cache) == ["a", "b", "c"]
        if maxsize is not None:
            cache["d"] = "D"              # still evicts 'a', the oldest
            assert list(cache) == ["b", "c", "d"]

    def test_peek_runs_the_fault_hook_and_quarantines_poison(self):
        cache = BoundedCache(4)
        cache["a"], cache["b"] = 1, 2
        dict.__setitem__(cache, "a", CorruptedEntry(1))
        hooked = []
        cache.fault_hook = lambda table, key: hooked.append(key)
        assert cache.peek("a", "miss") == "miss"
        assert cache.peek("b") == 2
        assert cache.peek("z") is None
        assert hooked == ["a", "b", "z"]
        assert list(cache) == ["b"] and cache.quarantined == 1

    def test_unbounded_by_default(self):
        cache = BoundedCache(None)
        for index in range(10_000):
            cache[index] = index
        assert len(cache) == 10_000 and cache.evictions == 0

    def test_pickle_preserves_bound_order_and_counter(self):
        cache = BoundedCache(2)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3   # 'a' evicted
        clone = pickle.loads(pickle.dumps(cache))
        assert isinstance(clone, BoundedCache)
        assert clone.maxsize == 2 and clone.evictions == 1
        assert list(clone.items()) == [("b", 2), ("c", 3)]
        clone["d"] = 4
        assert "b" not in clone and clone.evictions == 2

    @pytest.mark.parametrize("maxsize", [0, -1])
    def test_non_positive_bounds_are_rejected(self, maxsize):
        with pytest.raises(ValueError, match=repr(maxsize)):
            BoundedCache(maxsize)

    def test_zero_scale_profile_and_zero_plan_bound_are_rejected(self):
        catalog = psp_catalog()
        with pytest.raises(ValueError, match="0"):
            OptimizerSession(catalog, limits=SessionCacheLimits.bounded(scale=0))
        with pytest.raises(ValueError, match="0"):
            OptimizerSession(catalog, max_plans=0)

    def test_entries_counts_every_family(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        session.build_dag(scaleup_queries(1))
        sizes = session.cache.family_sizes()
        assert sizes["block_logs"] > 0
        assert session.cache_stats().entries == sum(sizes.values())

    def test_byte_identity_holds_under_tight_bounds(self):
        """Correctness never depends on residency: with capacities far below
        the working set, rebuilds still match the builder oracle, and
        no family ever exceeds its cap."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        limits = SessionCacheLimits(scans=16, results=8, block_logs=8, subsumption_logs=4)
        session = OptimizerSession(catalog, cache_plans=False, limits=limits)
        batches = [
            scaleup_queries(2),
            [q for c in range(3, 9) for q in component_query(c)],
            scaleup_queries(2),
        ]
        for index, queries in enumerate(batches):
            assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
                reference_dag(optimizer.catalog, queries)
            ), index
        stats = session.cache_stats()
        assert stats.lru_evictions > 0
        for family, size in session.cache.family_sizes().items():
            cap = getattr(limits, family)
            assert cap is not None and size <= cap, family

    def test_interner_guard_resets_and_stays_correct(self):
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        limits = SessionCacheLimits(max_interned=50)
        session = OptimizerSession(catalog, cache_plans=False, limits=limits)
        queries = scaleup_queries(2)
        session.build_dag(queries)
        assert session.cache.interned_count() > 50
        # The next sync point notices the guard, resets, and the rebuild
        # (now cold again) still matches the reference.
        assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
            reference_dag(optimizer.catalog, queries)
        )
        assert session.cache_stats().interner_resets >= 1


# ---------------------------------------------------------------------------
# Cross-process snapshots (PR 7)
# ---------------------------------------------------------------------------

class TestCrossProcessSnapshot:
    def test_from_snapshot_round_trip_is_warm(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        expected = dag_fingerprint(session.build_dag(queries))
        restored = OptimizerSession.from_snapshot(
            session.snapshot_state(), cache_plans=False
        )
        assert restored.cache.entry_count() == session.cache.entry_count()
        assert dag_fingerprint(restored.build_dag(queries)) == expected
        stats = restored.cache_stats()
        assert stats.hits > 0 and stats.misses == 0  # fully warm restore

    def test_from_snapshot_refuses_limits(self):
        """The restored cache keeps the limits it was snapshotted with, so a
        ``limits`` option could only be silently dropped; it is refused."""
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        snapshot = session.snapshot_state()
        with pytest.raises(TypeError, match="snapshot's own"):
            OptimizerSession.from_snapshot(
                snapshot, limits=SessionCacheLimits.bounded()
            )

    def test_snapshot_restores_in_a_subprocess(self, tmp_path):
        """The whole point of content addressing: a warm cache pickled here
        is byte-identically warm in a *different interpreter* (different
        object ids, different hash seed), with hit accounting to prove the
        restored entries were actually served."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        parent_sha = hashlib.sha256(
            dag_fingerprint(session.build_dag(queries)).encode()
        ).hexdigest()
        snapshot_path = tmp_path / "session.pkl"
        snapshot_path.write_bytes(session.snapshot_state())
        script = textwrap.dedent(
            f"""\
            import hashlib, sys
            sys.path.insert(0, "src")
            sys.path.insert(0, ".")
            from repro import OptimizerSession
            from repro.workloads.scaleup import scaleup_queries
            from tests.generators import dag_fingerprint

            with open({str(snapshot_path)!r}, "rb") as handle:
                session = OptimizerSession.from_snapshot(
                    handle.read(), cache_plans=False
                )
            fingerprint = dag_fingerprint(session.build_dag(scaleup_queries(2)))
            stats = session.cache_stats()
            print(hashlib.sha256(fingerprint.encode()).hexdigest())
            print(stats.hits > 0 and stats.misses == 0)
            print(session.cache.entry_count())
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED="9999"),
            cwd=REPO_ROOT,
            check=True,
        )
        child_sha, warm, entries = result.stdout.split()
        assert child_sha == parent_sha
        assert warm == "True"
        assert int(entries) == session.cache.entry_count()

    def test_restored_result_cache_serves_correct_rows_under_faults(self, tmp_path):
        """A bounded session warmed here, results family included, serves
        overlapping windows in another interpreter (another hash seed) under
        seeded fault injection: every window's cost equals a one-shot
        optimization and its rows equal a cache-less execution of the
        one-shot plan, the first window is served from the restored results,
        and every family stays under its cap.  The ``results`` cap is lowered
        so that the child's stores reach it; the other families stay far
        below theirs on six windows."""
        limits = dataclasses.replace(SessionCacheLimits.bounded(), results=32)
        parent = OptimizerSession(psp_catalog(), cache_plans=False,
                                  limits=limits, result_cache=True)
        parent.build_dag(scaleup_queries(5))
        database = generate_psp_data(rows_per_table=120)
        Executor(database, parent.catalog, result_cache=parent.result_cache).run(
            parent.optimize(scaleup_queries(2), "greedy").plan
        )
        assert len(parent.cache.results) > 0
        snapshot_path = tmp_path / "session.pkl"
        snapshot_path.write_bytes(parent.snapshot_state())
        script = textwrap.dedent(
            f"""\
            import json, sys
            sys.path.insert(0, "src")
            sys.path.insert(0, ".")
            from repro import MQOptimizer, OptimizerSession
            from repro.execution import Executor, generate_psp_data
            from repro.service import FaultInjector
            from repro.workloads.scaleup import component_query
            from tests.generators import rows_digest

            with open({str(snapshot_path)!r}, "rb") as handle:
                session = OptimizerSession.from_snapshot(
                    handle.read(), cache_plans=True, max_plans=32,
                    result_cache=True,
                )
            injector = FaultInjector(seed=1337, rate=0.05).attach(session)
            database = generate_psp_data(rows_per_table=120)
            executor = Executor(database, session.catalog,
                                result_cache=session.result_cache)
            cold = Executor(database, session.catalog)
            report = {{"windows": [], "first_serves": None}}
            for i in range(6):
                start = (i * 7) % 17 + 1
                width = min(2 + i % 3, 19 - start)
                queries = [query for c in range(start, start + width)
                           for query in component_query(c)]
                result = session.optimize(queries, "greedy")
                rows = rows_digest(executor.run(result.plan).per_query_rows)
                reference = MQOptimizer(session.catalog).optimize(queries, "greedy")
                report["windows"].append([
                    start, width, result.cost == reference.cost,
                    rows == rows_digest(cold.run(reference.plan).per_query_rows),
                ])
                if report["first_serves"] is None:
                    report["first_serves"] = (
                        session.result_cache.counters()["injected_serves"]
                    )
            report["injected_faults"] = injector.injected_faults
            report["injected_serves"] = session.result_cache.counters()["injected_serves"]
            report["sizes"] = session.cache.family_sizes()
            print(json.dumps(report))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED="9999"),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert [window[2:] for window in report["windows"]] == [[True, True]] * 6, (
            report["windows"]
        )
        # Window (1, 2) is a prefix of the warm CQ2: the restored results
        # family serves it before the child has stored anything of its own.
        assert report["first_serves"] > 0
        assert report["injected_serves"] > 0
        assert report["injected_faults"] > 0
        for family, size in report["sizes"].items():
            assert size <= getattr(limits, family), (family, size)
        assert report["sizes"]["results"] == limits.results


# ---------------------------------------------------------------------------
# Background cache warming (PR 7)
# ---------------------------------------------------------------------------

class TestCacheWarmer:
    def test_warms_fragments_before_foreground_requests(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        warmer = CacheWarmer(session)
        try:
            warmer.enqueue(scaleup_queries(2))
            warmer.flush()
            assert warmer.warmed == 1 and warmer.errors == 0
            misses_before = session.cache_stats().misses
            session.build_dag(scaleup_queries(2))
            assert session.cache_stats().misses == misses_before  # fully warm
        finally:
            warmer.close()

    def test_close_drains_and_errors_are_counted(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        warmer = CacheWarmer(session)
        warmer.enqueue([Query("bad", Relation("no_such_table"))])
        warmer.enqueue(scaleup_queries(1))
        warmer.close()
        assert warmer.warmed == 1
        assert warmer.errors == 1
        assert warmer.pending() == 0


# ---------------------------------------------------------------------------
# Standard-library only
# ---------------------------------------------------------------------------

class TestStandardLibraryOnly:
    def test_optimize_serve_and_execute_never_import_numpy(self):
        """A cold one-shot batch, a warm session and a result-cache execution
        run in a fresh interpreter without pulling NumPy into the process."""
        script = textwrap.dedent(
            """\
            import sys
            sys.path.insert(0, "src")
            from repro import MQOptimizer, OptimizerSession
            from repro.catalog import psp_catalog
            from repro.execution import Executor, generate_psp_data
            from repro.workloads.scaleup import component_query, scaleup_queries

            catalog = psp_catalog()
            MQOptimizer(catalog).optimize(scaleup_queries(2), "greedy")
            session = OptimizerSession(catalog, cache_plans=False)
            session.build_dag(scaleup_queries(2))
            session.optimize(scaleup_queries(2), "greedy")
            small = psp_catalog(relation_count=6)
            database = generate_psp_data(relation_count=6, rows_per_table=50)
            cached = OptimizerSession(small, cache_plans=False, result_cache=True)
            executor = Executor(database, small, result_cache=cached.result_cache)
            for _ in range(2):
                executor.run(cached.optimize(component_query(1), "greedy").plan)
            assert len(cached.cache.results) > 0
            print("numpy" in sys.modules)
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            check=True,
        )
        assert result.stdout.split() == ["False"]
