"""Catalog-lifetime session cache: byte-identity and invalidation.

The :class:`~repro.service.session.OptimizerSession` subsystem reuses scan
choices, join costs, derived properties, and whole partition-enumeration
recipes across DAG builds.  Like every fast path in this repo, it is locked
to the memo-free reference builder (``DagBuilder(..., memoize=False)``,
built by ``tests.generators.reference_dag``) via
:func:`tests.generators.dag_fingerprint`:

* cold build == reference, warm rebuild == reference (same batch);
* shifted overlapping batches on a *shared* session == their own reference
  (this is where identity-keying earns its keep: the same canonical key can
  carry differently-ordered float folds in different batches);
* post-invalidation rebuilds == a reference built against the *mutated*
  catalog — and != the pre-mutation DAG, which is exactly the check that a
  stale-cache bug (serving pre-mutation properties) would trip.

Invalidation granularity is tested directly against the cache tables:
statistics mutations evict only entries depending on the mutated relation,
schema changes clear everything.
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
from repro.algebra import Relation, col
from repro.catalog import psp_catalog, tpcd_catalog
from repro.catalog.catalog import CatalogError
from repro.catalog.schema import make_table
from repro.cost.estimation import ColumnStats, LogicalProperties
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
# Byte-identity of session-backed builds against the reference builder
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

def _deps_of_cache_entries(cache: SessionCache):
    """All relation-dependency sets currently referenced by cache entries."""
    for table in cache._catalog_dependent_caches():
        for entry in table.values():
            yield cache.deps_of(entry[-1])


class TestInvalidation:
    def test_stats_mutation_evicts_only_affected_relations(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        queries = scaleup_queries(2)
        session.build_dag(queries)
        cache = session.cache
        before = cache.entry_count()
        touching = sum(1 for deps in _deps_of_cache_entries(cache) if "psp1" in deps)
        surviving = sum(1 for deps in _deps_of_cache_entries(cache) if "psp1" not in deps)
        assert touching > 0 and surviving > 0
        catalog.update_statistics("psp1", row_count=12_345)
        cache.sync()
        assert all("psp1" not in deps for deps in _deps_of_cache_entries(cache))
        assert cache.stats.evicted_entries == touching
        assert cache.entry_count() < before
        # Entries not touching psp1 survived.
        assert sum(1 for _ in _deps_of_cache_entries(cache)) == surviving

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
        assert all(
            not cache for cache in session.cache._catalog_dependent_caches()
        )
        assert session.cache.stats.schema_invalidations == 1
        assert dag_fingerprint(session.build_dag(queries)) == dag_fingerprint(
            reference_dag(optimizer.catalog, queries)
        )

    def test_manual_invalidate(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        session.build_dag(scaleup_queries(1))
        session.invalidate("psp1")
        assert all("psp1" not in deps for deps in _deps_of_cache_entries(session.cache))
        session.invalidate()
        assert all(not c for c in session.cache._catalog_dependent_caches())

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

    def test_pruning_and_non_pruning_builders_can_share_a_session(self):
        """The prune tag distinguishes a pruning-disabled build (tag None)
        from a pruning build where a table has no referenced columns."""
        catalog = psp_catalog()
        cache = SessionCache(catalog)
        queries = list(component_query(1))
        for prune in (False, True, False, True):
            builder = DagBuilder(
                catalog, session=cache, prune_unreferenced_columns=prune
            )
            built = dag_fingerprint(builder.build(list(queries)))
            reference = DagBuilder(
                catalog, memoize=False, prune_unreferenced_columns=prune
            )
            assert built == dag_fingerprint(reference.build(list(queries))), prune


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
    def test_reference_builder_rejects_session(self):
        catalog = psp_catalog()
        cache = SessionCache(catalog)
        with pytest.raises(ValueError):
            DagBuilder(catalog, memoize=False, session=cache)

    def test_session_must_match_catalog_and_cost_model(self):
        catalog = psp_catalog()
        cache = SessionCache(catalog)
        with pytest.raises(ValueError):
            DagBuilder(psp_catalog(), session=cache)
        from repro.cost.model import CostModel

        with pytest.raises(ValueError):
            DagBuilder(catalog, cost_model=CostModel(), session=cache)

    def test_session_deps_cover_referenced_tables(self):
        catalog = psp_catalog()
        cache = SessionCache(catalog)
        builder = DagBuilder(catalog, session=cache)
        builder.build(list(component_query(3)))  # psp3..psp7
        assert builder.session_deps() == frozenset(
            f"psp{i}" for i in range(3, 8)
        )


# ---------------------------------------------------------------------------
# Content addressing (PR 7)
# ---------------------------------------------------------------------------

class TestContentAddressing:
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


class TestRecipeValidation:
    #: Overlapping PSP windows ``(first component, width, constants seed)``;
    #: the sixth batch meets recipes whose child join nodes carry other
    #: properties than when they were recorded (the same columns in another
    #: order, from a block that lists the members in another order).
    STREAM = [(12, 2, 43), (5, 2, 42), (6, 2, 43), (4, 2, 43), (8, 3, 42), (7, 2, 43)]

    def test_fault_free_write_free_stream_quarantines_nothing(self):
        """Without faults nothing is damaged: recipes that fail validation
        there are stale (a child changed), counted apart from quarantines."""
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        for start, width, seed in self.STREAM:
            queries = [
                query
                for component in range(start, start + width)
                for query in component_query(component, seed=seed)
            ]
            served = session.optimize(queries, Algorithm.GREEDY)
            one_shot = MQOptimizer(catalog).optimize(queries, Algorithm.GREEDY)
            assert served.cost == one_shot.cost
        stats = session.cache_stats()
        # The stream does refuse recipes, so the zero below is not vacuous.
        assert stats.recipe_stale > 0
        assert stats.recipe_quarantines == 0


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
        assert sizes["block_keys"] > 0  # not only the catalog-dependent ones
        assert session.cache_stats().entries == sum(sizes.values())

    def test_byte_identity_holds_under_tight_bounds(self):
        """Correctness never depends on residency: with capacities far below
        the working set, rebuilds still match the memo-free reference, and
        no family ever exceeds its cap."""
        catalog = psp_catalog()
        optimizer = MQOptimizer(catalog)
        limits = SessionCacheLimits(
            base_props=8, scans=16, join_props=48, join_recipes=24,
            results=8, block_keys=16,
        )
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
