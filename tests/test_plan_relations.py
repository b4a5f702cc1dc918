"""The relations a plan-cache entry records.

:class:`OptimizerSession` evicts a cached plan when the statistics of a
relation it reads change, and it takes those relations from the built DAG's
stored-table nodes.  These tests hold that set against an oracle that never
looks at a DAG: the tables named by the ``Relation`` leaves of the batch's
expressions, nested sub-queries included.
"""

import pytest

from repro import Algorithm, OptimizerSession
from repro.algebra import Relation
from repro.catalog import psp_catalog, tpcd_catalog
from repro.execution import Executor, generate_psp_data
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.generators import deep_correlation, degenerate_batches


def named_tables(queries):
    """The tables the ``Relation`` leaves of *queries* name, lowercased."""
    tables = set()
    stack = [query.expression for query in queries]
    while stack:
        expression = stack.pop()
        if isinstance(expression, Relation):
            tables.add(expression.table.lower())
        stack.extend(expression.children())
    return frozenset(tables)


def plan_relations(session, queries):
    """The relations of the plan-cache entry *session* holds for *queries*."""
    return session._plans[OptimizerSession._batch_key(queries)].relations


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_cq_plan_records_the_named_tables(size):
    session = OptimizerSession(psp_catalog())
    queries = scaleup_queries(size)
    session.optimize(queries, Algorithm.GREEDY)
    assert plan_relations(session, queries) == named_tables(queries)


def test_plan_relations_cover_referenced_tables():
    session = OptimizerSession(psp_catalog())
    queries = list(component_query(3))  # psp3..psp7
    session.build_dag(queries)
    assert plan_relations(session, queries) == frozenset(f"psp{i}" for i in range(3, 8))


def test_nested_plan_records_the_invariants_tables():
    session = OptimizerSession(psp_catalog())
    queries = degenerate_batches()["deep-correlation"]
    session.optimize(queries, Algorithm.GREEDY)
    assert plan_relations(session, queries) == named_tables(queries)
    assert named_tables(queries) == frozenset(f"psp{i}" for i in range(1, 5))


def test_tpcd_pair_plan_records_the_named_tables():
    session = OptimizerSession(tpcd_catalog(1.0))
    queries = batched_queries(1)
    assert len(queries) == 2
    session.optimize(queries, Algorithm.GREEDY)
    assert plan_relations(session, queries) == named_tables(queries)


def test_plan_with_injected_cached_reads_records_the_named_tables():
    """A window built over executed results of an overlapping window: its
    scans also derive from cached reads, whose sources name no relation."""
    catalog = psp_catalog(relation_count=6)
    session = OptimizerSession(catalog, result_cache=True)
    executor = Executor(generate_psp_data(relation_count=6, rows_per_table=60), catalog,
                        result_cache=session.result_cache)
    executor.run(session.optimize(component_query(1, seed=42), Algorithm.GREEDY).plan)
    cache = session.result_cache
    before = cache.exact_injections + cache.covering_injections
    queries = component_query(1, seed=43)
    executor.run(session.optimize(queries, Algorithm.GREEDY).plan)
    assert cache.exact_injections + cache.covering_injections > before
    assert plan_relations(session, queries) == named_tables(queries)


def test_write_to_a_relation_only_a_nested_invariant_reads_evicts_the_plan():
    """``psp4`` is read by the innermost invariant of the nested query
    alone; a write to it evicts that plan and keeps a plan not reading it."""
    catalog = psp_catalog()
    session = OptimizerSession(catalog)
    nested = [degenerate_batches()["deep-correlation"][0]]
    assert nested[0].expression == deep_correlation(1, 3)
    other = list(component_query(10))  # psp10..psp14
    dag_nested = session.build_dag(nested)
    dag_other = session.build_dag(other)
    assert session.build_dag(nested) is dag_nested
    catalog.update_statistics("psp4", row_count=4_321)
    assert session.build_dag(other) is dag_other
    assert session.build_dag(nested) is not dag_nested
