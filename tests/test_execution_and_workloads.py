"""Tests for the execution engine, the data generators and the workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Algorithm, MQOptimizer
from repro.algebra import AggregateFunction, col, eq, gt, lt
from repro.catalog import psp_catalog, tpcd_catalog
from repro.cost.model import CostModel
from repro.execution import Executor, generate_psp_data, generate_tpcd_data
from repro.execution.operators import (
    ExecutionError,
    ExecutionStats,
    RowSet,
    aggregate_rows,
    filter_rows,
    join_rows,
    scan_rows,
)
from repro.workloads import batch, nested, scaleup, tpcd_queries as tq

MODEL = CostModel()


def _stats():
    return ExecutionStats()


def _rows(columns, rows):
    return RowSet(tuple(columns), tuple(tuple(row) for row in rows))


class TestOperators:
    def test_scan_applies_filter_and_qualifies_columns(self):
        table = [{"a": i, "v": i * 10} for i in range(10)]
        rows = scan_rows(table, "r", lt(col("r", "v"), 50), _stats(), MODEL, 16)
        assert len(rows.rows) == 5
        assert rows.columns == (col("r", "a"), col("r", "v"))
        assert col("r", "a") in rows.as_dicts()[0]

    def test_scan_rejects_rows_that_disagree_on_column_order(self):
        table = [{"a": 1, "v": 10}, {"v": 20, "a": 2}]
        with pytest.raises(ExecutionError):
            scan_rows(table, "r", None, _stats(), MODEL, 16)

    def test_filter_rows(self):
        rows = _rows([col("r", "a")], [(i,) for i in range(10)])
        assert len(filter_rows(rows, gt(col("r", "a"), 6), _stats(), MODEL).rows) == 3

    def test_hash_join_matches_nested_loop_reference(self):
        left = _rows([col("r", "a"), col("r", "x")], [(i % 5, i) for i in range(20)])
        right = _rows([col("s", "a"), col("s", "y")], [(i % 7, i) for i in range(20)])
        predicate = [eq(col("r", "a"), col("s", "a"))]
        joined = join_rows(left, right, predicate, _stats(), MODEL)
        reference = [l + r for l in left.rows for r in right.rows if l[0] == r[0]]
        assert joined.columns == left.columns + right.columns
        assert len(joined.rows) == len(reference)
        assert sorted(joined.rows) == sorted(reference)

    def test_join_with_residual_predicate(self):
        left = _rows([col("r", "a"), col("r", "x")], [(i, i) for i in range(10)])
        right = _rows([col("s", "a"), col("s", "y")], [(i, i * 2) for i in range(10)])
        predicate = [eq(col("r", "a"), col("s", "a")), gt(col("s", "y"), 10)]
        joined = join_rows(left, right, predicate, _stats(), MODEL)
        assert joined.rows
        assert all(row[col("s", "y")] > 10 for row in joined.as_dicts())

    def test_empty_join_input(self):
        left = _rows([col("r", "a")], [])
        assert join_rows(left, _rows([col("s", "a")], [(1,)]), [], _stats(), MODEL).rows == ()

    def test_aggregate_sum_and_count(self):
        rows = _rows([col("r", "g"), col("r", "v")], [(i % 2, i) for i in range(10)])
        out = aggregate_rows(
            rows,
            (col("r", "g"),),
            (AggregateFunction("sum", col("r", "v"), "total"), AggregateFunction("count", None, "n")),
            "agg",
            _stats(),
            MODEL,
        )
        assert len(out.rows) == 2
        by_group = {row[col("agg", "g")]: row for row in out.as_dicts()}
        assert by_group[0][col("agg", "total")] == 0 + 2 + 4 + 6 + 8
        assert by_group[1][col("agg", "n")] == 5

    def test_global_aggregate_min_max(self):
        rows = _rows([col("r", "v")], [(i,) for i in range(5)])
        out = aggregate_rows(
            rows,
            (),
            (AggregateFunction("min", col("r", "v"), "lo"), AggregateFunction("max", col("r", "v"), "hi")),
            "agg",
            _stats(),
            MODEL,
        )
        row = out.as_dicts()[0]
        assert row[col("agg", "lo")] == 0 and row[col("agg", "hi")] == 4

    @settings(max_examples=30, deadline=None)
    @given(
        left_keys=st.lists(st.integers(0, 5), min_size=0, max_size=30),
        right_keys=st.lists(st.integers(0, 5), min_size=0, max_size=30),
    )
    def test_join_cardinality_property(self, left_keys, right_keys):
        left = _rows([col("l", "k"), col("l", "i")], [(k, i) for i, k in enumerate(left_keys)])
        right = _rows([col("r", "k"), col("r", "j")], [(k, j) for j, k in enumerate(right_keys)])
        joined = join_rows(left, right, [eq(col("l", "k"), col("r", "k"))], _stats(), MODEL)
        expected = sum(left_keys.count(k) * right_keys.count(k) for k in set(left_keys))  # repro-lint: ok(D002) integer counts: the sum is order-independent
        assert len(joined.rows) == expected


class TestDataGenerators:
    def test_tpcd_data_is_deterministic_and_consistent(self):
        db1 = generate_tpcd_data(0.002, seed=3)
        db2 = generate_tpcd_data(0.002, seed=3)
        assert len(db1["lineitem"]) == len(db2["lineitem"])
        order_keys = {o["o_orderkey"] for o in db1["orders"]}
        assert all(l["l_orderkey"] in order_keys for l in db1["lineitem"][:100])

    def test_tpcd_data_scales(self):
        small = generate_tpcd_data(0.001)
        bigger = generate_tpcd_data(0.002)
        assert len(bigger["orders"]) > len(small["orders"])

    def test_psp_data_shape(self):
        db = generate_psp_data(relation_count=3, rows_per_table=100)
        assert set(db) == {"psp1", "psp2", "psp3"}
        assert all(set(row) == {"p", "sp", "num"} for row in db["psp1"])


class TestExecutor:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = tpcd_catalog(0.002)
        database = generate_tpcd_data(0.002)
        return MQOptimizer(catalog), Executor(database, catalog)

    @pytest.mark.parametrize("workload", ["Q2-D", "Q11", "Q15"])
    def test_mqo_and_no_mqo_plans_agree_on_results(self, setup, workload):
        optimizer, executor = setup
        queries = tq.standalone_workloads()[workload]
        dag = optimizer.build_dag(queries)
        volcano = executor.run(optimizer.optimize(queries, Algorithm.VOLCANO, dag=dag).plan)
        greedy = executor.run(optimizer.optimize(queries, Algorithm.GREEDY, dag=dag).plan)
        assert len(volcano.rows) == len(greedy.rows)
        assert len(volcano.per_query_rows) == len(greedy.per_query_rows) == len(queries)

    def test_mqo_plan_reuses_materialized_results(self, setup):
        optimizer, executor = setup
        queries = [tq.q11()]
        greedy = optimizer.optimize(queries, Algorithm.GREEDY)
        result = executor.run(greedy.plan)
        assert result.stats.reuses >= 1
        assert result.stats.rows_materialized > 0

    def test_executed_work_accounting_positive(self, setup):
        optimizer, executor = setup
        result = executor.run(optimizer.optimize([tq.q3()], Algorithm.VOLCANO).plan)
        assert result.stats.rows_scanned > 0
        assert result.simulated_seconds > 0

    def test_scaleup_queries_execute(self):
        catalog = psp_catalog(relation_count=6)
        database = generate_psp_data(relation_count=6, rows_per_table=500)
        optimizer = MQOptimizer(catalog)
        executor = Executor(database, catalog)
        queries = scaleup.component_query(1)
        result = executor.run(optimizer.optimize(queries, Algorithm.GREEDY).plan)
        assert len(result.per_query_rows) == 2


class TestWorkloads:
    def test_standalone_workloads_cover_figure6(self):
        assert set(tq.standalone_workloads()) == {"Q2", "Q2-D", "Q11", "Q15"}

    def test_batched_sizes(self):
        for i in range(1, 6):
            assert len(batch.batched_queries(i)) == 2 * i
        with pytest.raises(ValueError):
            batch.batched_queries(6)

    def test_batched_names_unique(self):
        names = [q.name for q in batch.batched_queries(5)]
        assert len(names) == len(set(names))

    def test_scaleup_dimensions_match_paper(self):
        # CQ_i uses 4i+2 relations and has 32i-16 join predicates and 8i-4 selections.
        for i in (1, 3, 5):
            queries = scaleup.scaleup_queries(i)
            assert len(queries) == 2 * (4 * i - 2)
            relations = {
                rel
                for q in queries
                for rel in q.expression.relations()
            }
            assert len(relations) == scaleup.relations_required(i) == 4 * i + 2

    def test_scaleup_pair_has_different_constants(self):
        a, b = scaleup.component_query(3)
        assert a.expression != b.expression

    def test_no_overlap_batch_has_disjoint_relations(self, tpcd):
        from repro.algebra.expressions import base_relations

        queries, extended = batch.no_overlap_batch(tpcd)
        seen = set()
        for query in queries:
            tables = {rel.table for rel in base_relations(query.expression)}
            assert not (tables & seen)
            seen |= tables
        dag = MQOptimizer(extended).build_dag(queries)
        from repro.optimizer.sharability import sharable_nodes

        assert sharable_nodes(dag) == []

    def test_parameterized_batch(self):
        queries = nested.parameterized_batch(tq.q3, [{"segment": "BUILDING"}, {"segment": "MACHINERY"}])
        assert len(queries) == 2
        assert queries[0].name != queries[1].name

    def test_all_tpcd_queries_build_dags(self, tpcd_optimizer):
        for query in (tq.q2(), tq.q2_modified(), tq.q3(), tq.q5(), tq.q7(), tq.q9(), tq.q10(), tq.q11(), tq.q15()):
            dag = tpcd_optimizer.build_dag([query])
            dag.validate()
            assert dag.num_equivalence_nodes > 3
