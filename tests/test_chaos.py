"""Chaos suite: injected faults must never change a served plan.

The fault model (``docs/RESILIENCE.md``) says every cache in the service
layer is a *byte-identical shortcut*: any entry may vanish or turn to poison
at any moment and the only observable consequence is recomputation.  This
module enforces that with a differential oracle — workloads are served
through a session while a seeded :class:`~repro.service.faults.FaultInjector`
drops and corrupts entries mid-build, and every produced DAG must fingerprint
identically to the builder oracle's cold build
(:mod:`tests.oracles.builder`), per cache family and across all of them at
once.

Determinism of the chaos itself is tested too (a failure that cannot replay
cannot be debugged): identical seeds produce identical fault schedules, and
the hash-seed matrix in ``tests/test_build_determinism.py`` extends the same
check across ``PYTHONHASHSEED`` values.

The snapshot drill lives at the end: a corrupted snapshot must be rejected,
not restored wrong.  A snapshot restored in another interpreter and served
under seeded faults is checked in ``tests/test_session_cache.py``
(``TestCrossProcessSnapshot``).
"""

import pytest

from repro.api import MQOptimizer
from repro.catalog import psp_catalog
from repro.service import (
    FaultInjector,
    OptimizerSession,
    SnapshotError,
)
from repro.workloads.scaleup import scaleup_queries

from tests.generators import dag_fingerprint, random_query_workload, reference_dag


ALL_FAMILIES = (
    "scans",
    "results",
    "block_logs",
    "subsumption_logs",
)


def _workloads():
    batches = [scaleup_queries(i) for i in (1, 2, 3)]
    batches += [random_query_workload(seed) for seed in (3, 7)]
    return batches


def _cold_fingerprints(catalog, batches):
    return [
        dag_fingerprint(reference_dag(catalog, queries))
        for queries in batches
    ]


class TestDeterministicSchedules:
    def _run(self, seed):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        injector = FaultInjector(seed, rate=0.25)
        with injector.attach(session):
            for queries in _workloads():
                session.build_dag(queries)
        return injector

    def test_same_seed_same_schedule(self):
        a, b = self._run(42), self._run(42)
        assert a.schedule == b.schedule
        assert a.schedule_digest() == b.schedule_digest()
        assert a.injected_faults == b.injected_faults > 0

    def test_different_seed_different_schedule(self):
        a, b = self._run(42), self._run(43)
        assert a.schedule_digest() != b.schedule_digest()

    def test_corrupt_snapshot_is_deterministic(self):
        session = OptimizerSession(psp_catalog())
        session.build_dag(scaleup_queries(1))
        data = session.snapshot_state()
        one = FaultInjector(9).corrupt_snapshot(data)
        two = FaultInjector(9).corrupt_snapshot(data)
        assert one == two != data


class TestFaultInjectorContract:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FaultInjector(1, rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(1, mode="meteor")
        session = OptimizerSession(psp_catalog())
        with pytest.raises(ValueError, match="unknown cache families"):
            FaultInjector(1, families=["no_such_family"]).attach(session)

    def test_refuses_double_attach(self):
        session = OptimizerSession(psp_catalog())
        first = FaultInjector(1).attach(session)
        try:
            with pytest.raises(ValueError, match="already has a fault hook"):
                FaultInjector(2).attach(session)
        finally:
            first.detach()
        # After detach the slot is free again.
        FaultInjector(3).attach(session).detach()

    def test_corrupt_snapshot_rejects_unknown_mode_and_empty_data(self):
        injector = FaultInjector(1)
        with pytest.raises(ValueError):
            injector.corrupt_snapshot(b"x", mode="shred")
        with pytest.raises(ValueError):
            injector.corrupt_snapshot(b"")


class TestByteIdentityUnderFaults:
    """Faulted warm builds == the builder oracle's cold builds, exactly."""

    @pytest.mark.parametrize("mode", ["drop", "corrupt", "mixed"])
    def test_all_families_mixed_workloads(self, mode):
        catalog = psp_catalog()
        batches = _workloads()
        cold = _cold_fingerprints(catalog, batches)
        session = OptimizerSession(catalog, cache_plans=False)
        injector = FaultInjector(seed=101, rate=0.3, mode=mode)
        with injector.attach(session):
            # Two serving rounds: the first populates (and faults) the cache,
            # the second rebuilds through the damaged warm state.
            for _round in range(2):
                for queries, expected in zip(batches, cold):
                    assert dag_fingerprint(session.build_dag(queries)) == expected
        assert injector.injected_faults > 0, "chaos run injected nothing"

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_each_family_at_full_fault_rate(self, family):
        # rate=1.0 on one family: every read of it faults — the family is
        # effectively unusable, and the plans must not care.
        catalog = psp_catalog()
        batches = [scaleup_queries(2), random_query_workload(5)]
        cold = _cold_fingerprints(catalog, batches)
        session = OptimizerSession(catalog, cache_plans=False)
        injector = FaultInjector(seed=7, rate=1.0, families=[family], mode="mixed")
        with injector.attach(session):
            for _round in range(2):
                for queries, expected in zip(batches, cold):
                    assert dag_fingerprint(session.build_dag(queries)) == expected

    def test_optimize_costs_match_one_shot_reference(self):
        catalog = psp_catalog()
        session = OptimizerSession(catalog, cache_plans=True)
        reference = MQOptimizer(catalog)
        injector = FaultInjector(seed=23, rate=0.3)
        with injector.attach(session):
            for queries in _workloads():
                for algorithm in ("greedy", "volcano-ru"):
                    warm = session.optimize(queries, algorithm)
                    cold = reference.optimize(queries, algorithm)
                    assert warm.cost == cold.cost
                    assert sorted(warm.plan.materialized) == sorted(
                        cold.plan.materialized
                    )
        assert injector.injected_faults > 0

    def test_quarantine_counters_account_for_poison(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        injector = FaultInjector(seed=3, rate=0.5, mode="corrupt")
        with injector.attach(session):
            session.build_dag(scaleup_queries(2))
            session.build_dag(scaleup_queries(2))
        stats = session.cache_stats()
        assert injector.injected_corruptions > 0
        assert stats.quarantined > 0
        assert stats.quarantined <= injector.injected_corruptions


class TestResultCacheChaos:
    """rate-1.0 faults on the ``results`` family (PR 10): the cross-batch
    result cache becomes unusable, and execution must not care — rows *and*
    work accounting byte-identical to a never-cached run, because a dropped
    or corrupted entry is strictly a miss (corruption additionally counts a
    quarantine), never a wrong row."""

    def _setup(self):
        from repro.execution import generate_psp_data
        from repro.workloads.scaleup import component_query

        catalog = psp_catalog(relation_count=6)
        database = generate_psp_data(relation_count=6, rows_per_table=100)
        batches = [component_query(1), component_query(2), component_query(1)]
        return catalog, database, batches

    @pytest.mark.parametrize("mode", ["drop", "corrupt"])
    def test_unusable_results_family_serves_seed_bytes(self, mode):
        from repro.execution import Executor
        from tests.test_result_cache import work_digest

        catalog, database, batches = self._setup()
        expected = [
            work_digest(
                Executor(database, catalog).run(
                    MQOptimizer(catalog).optimize(queries, "greedy").plan
                )
            )
            for queries in batches
        ]
        session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
        executor = Executor(database, catalog,
                            result_cache=session.result_cache)
        injector = FaultInjector(seed=11, rate=1.0, families=["results"],
                                 mode=mode)
        with injector.attach(session):
            for queries, digest in zip(batches, expected):
                produced = executor.run(session.optimize(queries, "greedy").plan)
                assert work_digest(produced) == digest
        cache = session.result_cache
        # Nothing was ever served or injected: every probe was faulted away.
        assert cache.exec_serves == 0
        assert cache.injected_serves == 0
        assert cache.exact_injections == 0
        assert cache.covering_injections == 0
        if mode == "drop":
            assert injector.injected_drops > 0
        else:
            assert injector.injected_corruptions > 0
            assert session.cache_stats().quarantined > 0


class TestBlockLogQuarantine:
    """A malformed block log is refused before it touches the DAG, counted
    as a quarantine, and replaced by the log of the per-node expansion."""

    @staticmethod
    def _damage(logs, index):
        """One of seven kinds of damage to a block's logs, by *index*."""
        log = logs[0]
        first = log.records[0]
        kind = index % 7
        if kind == 0:
            return (("bogus",),)
        if kind == 1:
            log = log._replace(operators=("nested loops",) + log.operators[1:])
        elif kind == 2:
            log = log._replace(costs=(int(log.costs[0]),) + log.costs[1:])
        elif kind == 3:
            log = log._replace(lefts=(len(log.lefts) + len(log.records) + 99,) + log.lefts[1:])
        elif kind == 4:
            log = log._replace(records=(first[:-1],) + log.records[1:])
        elif kind == 5:
            log = log._replace(records=(first[:2] + (str(first[2]),) + first[3:],)
                               + log.records[1:])
        else:
            log = tuple(log)
        return (log,)

    def test_malformed_log_is_quarantined_and_rebuilt(self):
        catalog = psp_catalog()
        queries = scaleup_queries(2)
        expected = dag_fingerprint(reference_dag(catalog, queries))
        session = OptimizerSession(catalog, cache_plans=False)
        session.build_dag(queries)
        logs = session.cache.block_logs
        assert len(logs) >= 5
        for index, key in enumerate(list(logs)):
            variants = dict.__getitem__(logs, key)
            dict.__setitem__(logs, key, self._damage(variants, index))
        damaged = len(logs)
        # Without group logs the rebuild reads every block log: a group log
        # skips the weak joins whose node the build has expanded already.
        session.cache.subsumption_logs.clear()
        assert dag_fingerprint(session.build_dag(queries)) == expected
        stats = session.cache_stats()
        assert stats.recipe_quarantines == damaged
        assert len(logs) == damaged
        # The rebuild replaced every damaged log: a third build replays them.
        assert dag_fingerprint(session.build_dag(queries)) == expected
        assert session.cache_stats().recipe_quarantines == damaged
        assert session.cache_stats().misses == stats.misses


class TestGroupLogQuarantine:
    """A malformed group log (``subsumption_logs``) is refused before it
    touches the DAG, counted as a quarantine of its family, not of block
    logs, and replaced by the log of the group's derivation."""

    @staticmethod
    def _damage(log, index):
        """One of eleven kinds of damage to a group's entry, by *index*."""
        kind = index % 11
        if kind == 0:
            return ("bogus",)
        if log is None or kind == 1:
            return tuple(log) if log is not None else "skip"
        rows, costs = log.prices[0]
        damaged = {
            2: {"selects": log.selects[:-1]},
            3: {"selects": ("σ",) + log.selects[1:]},
            4: {"join_predicates": ("psp1.sp = psp2.p",) + log.join_predicates[1:]},
            5: {"leaf_kids": (str(log.leaf_kids[0]),) + log.leaf_kids[1:]},
            6: {"weak_kid": float(log.weak_kid)},
            7: {"prices": ()},
            8: {"prices": ((rows, (int(costs[0]),) + costs[1:]),)},
            9: {"scans": ((log.scans[0][0], 1, log.scans[0][2]),) + log.scans[1:]},
            10: {"scans": (log.scans[0][:2] + (list(log.scans[0][2]),),) + log.scans[1:]},
        }[kind]
        return log._replace(**damaged)

    def test_malformed_group_log_is_quarantined_and_rebuilt(self):
        catalog = psp_catalog()
        queries = scaleup_queries(2)
        expected = dag_fingerprint(reference_dag(catalog, queries))
        session = OptimizerSession(catalog, cache_plans=False)
        session.build_dag(queries)
        logs = session.cache.subsumption_logs
        assert len(logs) >= 11
        for index, key in enumerate(list(logs)):
            log = dict.__getitem__(logs, key)
            dict.__setitem__(logs, key, self._damage(log, index))
        damaged = len(logs)
        assert dag_fingerprint(session.build_dag(queries)) == expected
        stats = session.cache_stats()
        assert logs.quarantined == stats.quarantined == damaged
        assert stats.recipe_quarantines == 0
        assert len(logs) == damaged
        # The rebuild replaced every damaged log: a third build replays them.
        assert dag_fingerprint(session.build_dag(queries)) == expected
        assert session.cache_stats().quarantined == damaged
        assert session.cache_stats().misses == stats.misses


class TestServiceWorkerFailure:
    """What a service worker is handed across the process boundary."""

    def test_corrupted_snapshot_never_restores_wrong(self):
        session = OptimizerSession(psp_catalog())
        session.build_dag(scaleup_queries(1))
        data = session.snapshot_state()
        for mode in ("truncate", "bitflip"):
            damaged = FaultInjector(seed=11).corrupt_snapshot(data, mode=mode)
            with pytest.raises(SnapshotError):
                OptimizerSession.from_snapshot(damaged)
