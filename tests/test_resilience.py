"""Deadline budgets, the degradation ladder, and snapshot integrity.

The resilience contract (``docs/RESILIENCE.md``) makes three promises this
module enforces directly:

* a budgeted ``optimize`` call **never returns empty-handed** — on deadline
  expiry it falls down an explicit ladder (anytime greedy → Volcano-SH →
  no-sharing Volcano) and every rung's result is *byte-identical* to running
  that rung's algorithm directly on the same DAG;
* with a generous budget (or none) results are bit-identical to the
  unbudgeted code path — the budget machinery adds observability, never
  nondeterminism;
* session snapshots are sealed (versioned header + sha256): truncations, bit
  flips, and foreign payloads raise :class:`SnapshotError` instead of
  restoring garbage, and ``from_snapshot_or_cold`` turns that into a cold
  start rather than a crash.

The anytime-greedy rung gets the strongest test: a fake clock interrupts the
monotonicity-heap loop mid-search and the result must coincide exactly with
some ``max_materializations``-capped run — the committed prefix *is* a
complete greedy answer.
"""

import pickle
import struct

import pytest

from repro.api import Algorithm, MQOptimizer
from repro.catalog import psp_catalog
from repro.dag.builder import DagBuilder, Query
from repro.optimizer import GreedyOptions
from repro.optimizer.greedy import optimize_greedy
from repro.optimizer.report import BudgetExceeded, DegradationLevel
from repro.optimizer.volcano import optimize_volcano
from repro.optimizer.volcano_ru import optimize_volcano_ru
from repro.optimizer.volcano_sh import optimize_volcano_sh
from repro.service import (
    CacheWarmer,
    OptimizeBudget,
    OptimizerSession,
    SnapshotError,
)
from repro.service.resilience import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    open_snapshot,
    run_ladder,
    seal_snapshot,
)
from repro.workloads.scaleup import scaleup_queries

from tests.generators import degenerate_batches, random_query_workload


def _plan_signature(result):
    """Everything that identifies a served plan, for byte-identity checks."""
    return (
        result.cost,
        sorted(result.plan.materialized),
        result.plan.choice_op,
    )


def _build(queries):
    return DagBuilder(psp_catalog()).build(list(queries))


GENEROUS = OptimizeBudget(deadline_ms=60_000.0)
EXPIRED_WITH_GRACE = OptimizeBudget(deadline_ms=0.0, grace_ms=60_000.0)
EXPIRED_NO_GRACE = OptimizeBudget(deadline_ms=0.0, grace_ms=0.0)

DEGENERATE = degenerate_batches()


class TestOptimizeBudget:
    def test_rejects_negative_deadline(self):
        with pytest.raises(ValueError):
            OptimizeBudget(deadline_ms=-1.0)

    def test_rejects_negative_grace(self):
        with pytest.raises(ValueError):
            OptimizeBudget(deadline_ms=10.0, grace_ms=-0.5)

    def test_grace_defaults_to_half_the_deadline(self):
        assert OptimizeBudget(deadline_ms=100.0).resolved_grace_ms == 50.0
        assert OptimizeBudget(deadline_ms=100.0, grace_ms=7.0).resolved_grace_ms == 7.0

    def test_absolute_deadlines(self):
        budget = OptimizeBudget(deadline_ms=100.0, grace_ms=20.0)
        assert budget.deadline_from(5.0) == 5.0 + 0.1
        assert budget.grace_deadline_from(5.0) == 5.0 + 0.12


class TestLadderFullLevel:
    """A generous budget serves the requested algorithm, byte-identical."""

    @pytest.mark.parametrize(
        "algorithm,reference",
        [
            (Algorithm.VOLCANO, optimize_volcano),
            (Algorithm.VOLCANO_SH, optimize_volcano_sh),
            (Algorithm.VOLCANO_RU, optimize_volcano_ru),
            (Algorithm.GREEDY, optimize_greedy),
        ],
    )
    def test_full_matches_unbudgeted(self, algorithm, reference):
        import time

        dag = _build(scaleup_queries(3))
        expected = reference(dag)
        result = run_ladder(dag, algorithm, GENEROUS, time.perf_counter())
        report = result.degradation
        assert report is not None
        assert report.level is DegradationLevel.FULL
        assert not report.degraded
        assert report.requested == algorithm.value
        assert report.served == expected.algorithm
        assert _plan_signature(result) == _plan_signature(expected)

    def test_unsupported_algorithm_rejected_even_when_expired(self):
        import time

        dag = _build(scaleup_queries(2))
        with pytest.raises(ValueError, match="unsupported algorithm"):
            run_ladder(dag, Algorithm.EXHAUSTIVE, EXPIRED_NO_GRACE, time.perf_counter())


def _assert_falls_to_volcano_sh(queries):
    import time

    dag = _build(queries)
    expected = optimize_volcano_sh(dag)
    for algorithm in (Algorithm.GREEDY, Algorithm.VOLCANO_RU):
        result = run_ladder(dag, algorithm, EXPIRED_WITH_GRACE, time.perf_counter())
        report = result.degradation
        assert report.level is DegradationLevel.VOLCANO_SH
        assert report.degraded and report.expired
        assert report.served == "Volcano-SH"
        assert _plan_signature(result) == _plan_signature(expected)


def _assert_falls_to_no_sharing_floor(queries):
    import time

    dag = _build(queries)
    expected = optimize_volcano(dag)
    for algorithm in (Algorithm.GREEDY, Algorithm.VOLCANO_SH, Algorithm.VOLCANO_RU):
        result = run_ladder(dag, algorithm, EXPIRED_NO_GRACE, time.perf_counter())
        report = result.degradation
        assert report.level is DegradationLevel.NO_SHARING
        assert report.served == "Volcano"
        assert _plan_signature(result) == _plan_signature(expected)


class TestLadderDegradedRungs:
    def test_expired_within_grace_falls_to_volcano_sh(self):
        _assert_falls_to_volcano_sh(scaleup_queries(3))

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_batch_expired_within_grace_falls_to_volcano_sh(self, name):
        _assert_falls_to_volcano_sh(DEGENERATE[name])

    def test_expired_sh_request_within_grace_stays_full(self):
        # Volcano-SH *is* the grace rung: serving it to an expired SH request
        # is not a degradation.
        import time

        dag = _build(scaleup_queries(2))
        result = run_ladder(
            dag, Algorithm.VOLCANO_SH, EXPIRED_WITH_GRACE, time.perf_counter()
        )
        assert result.degradation.level is DegradationLevel.FULL

    def test_grace_exhausted_falls_to_no_sharing_floor(self):
        _assert_falls_to_no_sharing_floor(scaleup_queries(3))

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_batch_grace_exhausted_falls_to_no_sharing_floor(self, name):
        _assert_falls_to_no_sharing_floor(DEGENERATE[name])

    def test_volcano_request_is_always_full(self):
        # The floor is what was asked for: nothing to degrade through.
        import time

        dag = _build(scaleup_queries(2))
        result = run_ladder(dag, Algorithm.VOLCANO, EXPIRED_NO_GRACE, time.perf_counter())
        assert result.degradation.level is DegradationLevel.FULL

    def test_level_ordering_and_labels(self):
        assert DegradationLevel.FULL < DegradationLevel.ANYTIME_GREEDY
        assert DegradationLevel.ANYTIME_GREEDY < DegradationLevel.VOLCANO_SH
        assert DegradationLevel.VOLCANO_SH < DegradationLevel.NO_SHARING
        assert DegradationLevel.ANYTIME_GREEDY.label == "anytime-greedy"


class TestAnytimeGreedy:
    def test_volcano_ru_raises_budget_exceeded_on_expiry(self):
        dag = _build(scaleup_queries(3))
        with pytest.raises(BudgetExceeded):
            optimize_volcano_ru(dag, deadline=0.0)

    def test_interrupted_greedy_equals_some_capped_run(self, monkeypatch):
        """The anytime property, under a controlled clock.

        A fake ``perf_counter`` in the greedy module advances one tick per
        read: tick 0 is the run's start time, then one per deadline check
        inside the monotonicity-heap loop, expiring mid-search.  The
        interrupted result must be byte-identical to a deadline-free run
        capped at *some* materialization count — the committed prefix is a
        complete answer, not a torn state.
        """
        import types

        import repro.optimizer.greedy as greedy

        dag = _build(scaleup_queries(4))
        full = optimize_greedy(dag)
        assert full.materialized_count > 1, "workload too small to interrupt"

        ticks = iter(range(10**9))

        def fake_clock():
            return float(next(ticks))

        monkeypatch.setattr(greedy, "time", types.SimpleNamespace(perf_counter=fake_clock))
        # Expire after 80 heap pops: enough to commit some materializations
        # (5 of CQ4's 8), not enough to finish.
        interrupted = optimize_greedy(dag, deadline=81.0)
        monkeypatch.undo()

        assert interrupted.counters.get("deadline_expired") == 1
        assert 0 < interrupted.materialized_count < full.materialized_count

        matches = []
        for cap in range(full.materialized_count + 1):
            capped = optimize_greedy(dag, GreedyOptions(max_materializations=cap))
            if _plan_signature(capped) == _plan_signature(interrupted):
                matches.append(cap)
        assert matches, (
            "interrupted greedy result matches no max_materializations-capped "
            "run — the anytime invariant is broken"
        )

    def test_no_deadline_is_bit_identical(self):
        dag = _build(scaleup_queries(3))
        a = optimize_greedy(dag)
        b = optimize_greedy(dag, deadline=None)
        assert _plan_signature(a) == _plan_signature(b)
        assert a.counters == b.counters


class TestSessionBudgetedOptimize:
    def test_generous_budget_matches_unbudgeted(self):
        queries = scaleup_queries(3)
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        plain = session.optimize(queries, "greedy")
        budgeted = session.optimize(queries, "greedy", budget=GENEROUS)
        assert plain.degradation is None
        assert budgeted.degradation.level is DegradationLevel.FULL
        assert _plan_signature(plain) == _plan_signature(budgeted)

    def test_degraded_results_do_not_enter_the_plan_cache(self):
        queries = scaleup_queries(2)
        session = OptimizerSession(psp_catalog(), cache_plans=True)
        degraded = session.optimize(queries, "greedy", budget=EXPIRED_NO_GRACE)
        assert degraded.degradation.level is DegradationLevel.NO_SHARING
        followup = session.optimize(queries, "greedy")
        assert followup.degradation is None
        assert followup.algorithm == "Greedy"  # not the cached degraded plan

    def test_cached_full_results_serve_budgeted_calls(self):
        queries = scaleup_queries(2)
        session = OptimizerSession(psp_catalog(), cache_plans=True)
        full = session.optimize(queries, "greedy")
        served = session.optimize(queries, "greedy", budget=EXPIRED_NO_GRACE)
        assert served.plan is full.plan  # instant and of maximal quality
        assert served.degradation.level is DegradationLevel.FULL
        assert served.degradation.budget_ms == 0.0
        assert full.degradation is None
        assert session.optimize(queries, "greedy") is full

    def test_cached_budgeted_results_serve_unbudgeted_calls(self):
        queries = scaleup_queries(2)
        session = OptimizerSession(psp_catalog(), cache_plans=True)
        budgeted = session.optimize(queries, "greedy", budget=GENEROUS)
        assert budgeted.degradation.level is DegradationLevel.FULL
        served = session.optimize(queries, "greedy")
        assert served.plan is budgeted.plan
        assert served.degradation is None  # no stale report from the budgeted call
        again = session.optimize(queries, "greedy", budget=EXPIRED_NO_GRACE)
        assert again.plan is budgeted.plan
        assert again.degradation is not budgeted.degradation
        assert again.degradation.level is DegradationLevel.FULL
        assert again.degradation.budget_ms == 0.0

    def test_budgeted_large_random_workload_stays_valid(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=False)
        for seed in (11, 12):
            queries = random_query_workload(seed, max_queries=6)
            result = session.optimize(
                queries, "greedy", budget=OptimizeBudget(deadline_ms=50.0)
            )
            report = result.degradation
            assert report is not None
            assert report.level in DegradationLevel
            assert report.elapsed_ms >= 0.0
            assert result.cost > 0.0
            assert result.plan.explain()  # the plan is walkable end-to-end


class TestSnapshotIntegrity:
    def test_seal_open_round_trip(self):
        payload = b"arbitrary session bytes"
        assert open_snapshot(seal_snapshot(payload)) == payload

    def test_truncated_snapshot_rejected(self):
        session = OptimizerSession(psp_catalog())
        session.build_dag(scaleup_queries(1))
        data = session.snapshot_state()
        for cut in (0, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(SnapshotError):
                OptimizerSession.from_snapshot(data[:cut])

    def test_flipped_bit_rejected(self):
        session = OptimizerSession(psp_catalog())
        session.build_dag(scaleup_queries(1))
        data = bytearray(session.snapshot_state())
        data[len(data) // 2] ^= 0x10
        with pytest.raises(SnapshotError, match="checksum"):
            OptimizerSession.from_snapshot(bytes(data))

    def test_foreign_payload_raises_snapshot_error_and_type_error(self):
        # SnapshotError subclasses TypeError: the historical foreign-payload
        # contract (tests/test_arena.py) and the new typed error are the same
        # exception.
        blob = pickle.dumps({"not": "a session"})
        with pytest.raises(SnapshotError):
            OptimizerSession.from_snapshot(blob)
        with pytest.raises(TypeError):
            OptimizerSession.from_snapshot(blob)

    def test_older_format_version_rejected(self):
        """A snapshot of an earlier format (version 1 caches held no block
        logs, version 2 caches held per-node join properties and recipes,
        version 3 caches held no subsumption logs, version 4 caches held a
        ``base_props`` family and a relation-dependency id in every entry)
        is refused, and the cold fallback serves instead."""
        assert SNAPSHOT_VERSION == 5
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        queries = scaleup_queries(1)
        session.build_dag(queries)
        data = session.snapshot_state()
        offset = len(SNAPSHOT_MAGIC)
        for version in (1, 2, 3, 4):
            older = data[:offset] + struct.pack(">H", version) + data[offset + 2:]
            with pytest.raises(SnapshotError, match=f"version {version}"):
                OptimizerSession.from_snapshot(older)
            recovered = OptimizerSession.from_snapshot_or_cold(older, catalog)
            assert isinstance(recovered.restore_error, SnapshotError)
            assert recovered.cache.entry_count() == 0
            assert recovered.optimize(queries, "greedy").cost == (
                MQOptimizer(catalog).optimize(queries, "greedy").cost
            )

    def test_unpicklable_sealed_payload_rejected(self):
        with pytest.raises(SnapshotError, match="unpickle"):
            OptimizerSession.from_snapshot(seal_snapshot(b"\x80garbage"))

    def test_from_snapshot_or_cold_falls_back(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        session.build_dag(scaleup_queries(1))
        damaged = session.snapshot_state()[:-3]
        recovered = OptimizerSession.from_snapshot_or_cold(damaged, catalog)
        assert isinstance(recovered.restore_error, SnapshotError)
        # Cold but correct: same answer as a fresh one-shot optimizer.
        queries = scaleup_queries(1)
        expected = MQOptimizer(catalog).optimize(queries, "greedy")
        assert recovered.optimize(queries, "greedy").cost == expected.cost

    def test_from_snapshot_or_cold_clean_restore(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog)
        session.build_dag(scaleup_queries(1))
        restored = OptimizerSession.from_snapshot_or_cold(
            session.snapshot_state(), catalog
        )
        assert restored.restore_error is None
        assert restored.cache_stats().entries > 0


class TestCacheWarmerRetries:
    def test_transient_failure_retries_then_warms(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        real_build = session.build_dag
        calls = {"n": 0}

        def flaky(queries):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("catalog mid-update")
            return real_build(queries)

        session.build_dag = flaky
        warmer = CacheWarmer(session, attempts=3, backoff_s=0.0)
        try:
            warmer.enqueue(scaleup_queries(1))
            warmer.flush()
        finally:
            warmer.close()
        assert warmer.warmed == 1
        assert warmer.errors == 0
        assert warmer.retries == 2
        assert isinstance(warmer.last_error, RuntimeError)

    def test_persistent_failure_does_not_kill_the_drain_thread(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        real_build = session.build_dag

        def poisoned(queries):
            if any(query.name == "bad" for query in queries):
                raise RuntimeError("permanently broken batch")
            return real_build(queries)

        session.build_dag = poisoned
        warmer = CacheWarmer(session, attempts=2, backoff_s=0.0)
        try:
            good = scaleup_queries(1)
            warmer.enqueue([Query("bad", good[0].expression)])
            warmer.flush()
            assert warmer.errors == 1
            assert warmer.retries == 1  # attempts - 1 extra tries
            # The thread survived: a later good batch still warms.
            warmer.enqueue(scaleup_queries(1))
            warmer.flush()
        finally:
            warmer.close()
        assert warmer.warmed == 1
        assert warmer.errors == 1

    def test_constructor_validation(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        with pytest.raises(ValueError):
            CacheWarmer(session, attempts=0)
        with pytest.raises(ValueError):
            CacheWarmer(session, backoff_s=-1.0)
