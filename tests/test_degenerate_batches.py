"""Degenerate batches through the four searches.

``tests.generators.degenerate_batches`` holds the corners the realistic
workloads never reach: a single query, one expression submitted twice, scan-
and select-only queries, 2- to 4-way cross products, a self-join and two
queries that share no table.  Every algorithm
must return a plan whose reported cost is the cost of that plan, and the
paper's cost relations must hold: Volcano-SH and Greedy never lose to
Volcano, the exhaustive optimum (where there are at most 16 candidates)
never loses to Greedy, all four agree where nothing is sharable, and a
duplicated query is cheaper once its result is materialized.
"""

import pytest

from repro import Algorithm, MQOptimizer
from repro.catalog import psp_catalog
from repro.optimizer.costing import bestcost
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.sharability import sharable_nodes
from repro.optimizer.volcano_sh import plan_node_costs
from tests.generators import degenerate_batches

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


def _plan_cost(dag, plan):
    """The cost of *plan* through its own chosen operations (Section 3.1's
    total: root cost plus computing and materializing each node of M)."""
    costs = plan_node_costs(dag, plan.choices, plan.materialized)
    total = costs[dag.root.id]
    for node_id in sorted(plan.materialized):
        total += costs[node_id] + dag.node_by_id(node_id).mat_cost
    return total


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_costs_are_plan_costs_and_keep_the_paper_order(optimizer, name):
    dag, results = _results(optimizer, BATCHES[name])
    for algorithm, result in results.items():
        assert result.cost == _plan_cost(dag, result.plan), algorithm
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
