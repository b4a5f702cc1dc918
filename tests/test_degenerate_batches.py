"""Degenerate batches through the four searches.

``tests.generators.degenerate_batches`` holds the corners the realistic
workloads never reach: a single query, one expression submitted twice, scan-
and select-only queries, 2- to 4-way cross products, a self-join, two
queries that share no table and correlated sub-queries nested three deep.
Every algorithm
must return a plan whose reported cost is the cost of that plan, and the
paper's cost relations must hold: Volcano-SH and Greedy never lose to
Volcano, the exhaustive optimum (where there are at most 16 candidates)
never loses to Greedy, all four agree where nothing is sharable, a
duplicated query is cheaper once its result is materialized, and the plans
of the nested batch execute to the rows a direct evaluation gives.
"""

from collections import defaultdict

import pytest

from repro import Algorithm, MQOptimizer
from repro.catalog import psp_catalog
from repro.execution import Executor, generate_psp_data
from repro.optimizer.costing import bestcost
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.sharability import sharable_nodes
from tests.generators import degenerate_batches
from tests.oracles.costing import choice_map, plan_total

BATCHES = degenerate_batches()

SEARCHES = (Algorithm.VOLCANO, Algorithm.VOLCANO_SH, Algorithm.VOLCANO_RU, Algorithm.GREEDY)


@pytest.fixture(scope="module")
def optimizer():
    return MQOptimizer(psp_catalog())


def _results(optimizer, queries):
    dag = optimizer.build_dag(queries)
    results = {
        algorithm: optimizer.optimize(queries, algorithm, dag=dag) for algorithm in SEARCHES
    }
    return dag, results


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_costs_are_plan_costs_and_keep_the_paper_order(optimizer, name):
    dag, results = _results(optimizer, BATCHES[name])
    for algorithm, result in results.items():
        choices = choice_map(dag, result.plan.choice_op)
        assert result.cost == plan_total(dag, choices, result.plan.materialized), algorithm
    for algorithm in (Algorithm.VOLCANO, Algorithm.GREEDY):
        result = results[algorithm]
        assert result.cost == bestcost(dag, result.plan.materialized), algorithm
    volcano = results[Algorithm.VOLCANO].cost
    assert results[Algorithm.VOLCANO_SH].cost <= volcano
    assert results[Algorithm.GREEDY].cost <= volcano

    candidates = sharable_nodes(dag)
    if len(candidates) <= 16:
        exhaustive = optimize_exhaustive(dag, candidates)
        assert exhaustive.cost == bestcost(dag, exhaustive.plan.materialized)
        assert exhaustive.cost <= results[Algorithm.GREEDY].cost
    if not candidates:
        # Nothing to share: every search returns the Volcano plan's cost.
        for algorithm, result in results.items():
            assert result.cost == volcano, algorithm
            assert not result.plan.materialized, algorithm


@pytest.mark.parametrize("name", ["duplicate-two-names", "duplicate-one-name"])
def test_duplicate_query_is_materialized_once(optimizer, name):
    dag, results = _results(optimizer, BATCHES[name])
    single = optimizer.optimize(BATCHES["single"], Algorithm.VOLCANO)
    # Both query roots are one node, which plain Volcano computes twice.
    assert dag.query_roots[0] is dag.query_roots[1]
    volcano = results[Algorithm.VOLCANO].cost
    assert volcano == 2 * single.cost
    for algorithm in (Algorithm.VOLCANO_SH, Algorithm.VOLCANO_RU, Algorithm.GREEDY):
        result = results[algorithm]
        assert result.plan.materialized, algorithm
        assert result.cost < volcano, algorithm


def _nested_rows(database, first, depth):
    """``(p, sp, num)`` of the rows :func:`tests.generators.deep_correlation`
    keeps, evaluated directly on *database*."""
    kept = database[f"psp{first + depth}"]
    for level in range(first + depth - 1, first - 1, -1):
        least = defaultdict(list)
        for row in kept:
            least[row["p"]].append(row["num"])
        kept = [row for row in database[f"psp{level}"]
                if least.get(row["sp"]) and row["num"] <= min(least[row["sp"]])]
    return sorted((row["p"], row["sp"], row["num"]) for row in kept)


def test_nested_correlation_plans_execute_to_the_direct_rows(optimizer):
    queries = BATCHES["deep-correlation"]
    database = generate_psp_data(relation_count=6, rows_per_table=300)
    executor = Executor(database, psp_catalog(relation_count=6))
    expected = [_nested_rows(database, 1, 3), _nested_rows(database, 2, 2)]
    assert all(expected)
    _, results = _results(optimizer, queries)
    for algorithm, result in results.items():
        executed = executor.run(result.plan).per_query_rows
        assert [
            sorted((row[f"psp{first}.p"], row[f"psp{first}.sp"], row[f"psp{first}.num"])
                   for row in ({str(ref): value for ref, value in row.items()} for row in rows))
            for first, rows in zip((1, 2), executed)
        ] == expected, algorithm
