"""Tests for the optimization algorithms: costing, Volcano, Volcano-SH,
Volcano-RU, Greedy (and its incremental/monotonicity machinery), Exhaustive."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Algorithm, GreedyOptions, MQOptimizer, OptimizerSession, Query
from repro.algebra import Join, Relation, Select, col, eq, lt
from repro.dag import DagBuilder
from repro.optimizer import (
    optimize_exhaustive,
    optimize_greedy,
    optimize_volcano,
    optimize_volcano_ru,
    optimize_volcano_sh,
)
from repro.optimizer.costing import (
    best_operations,
    bestcost,
    compute_node_costs,
    total_cost,
)
from repro.optimizer.exhaustive import ExhaustiveSearchError
from repro.optimizer.greedy import IncrementalCostState
from repro.optimizer.plans import ConsolidatedPlan, PlanError, extract_plan
from repro.optimizer.volcano import consolidated_best_plan
from repro.workloads import tpcd_queries as tq
from repro.workloads.batch import batched_queries
from tests.test_dag import join_rs, join_rst


@pytest.fixture(scope="module")
def shared_dag(medium_catalog):
    """A small two-query DAG with a genuinely shared sub-expression.

    The tables are large enough that materializing the shared ``σ(r) ⋈ s``
    join is worthwhile, so the multi-query algorithms have a real decision to
    make."""
    builder = DagBuilder(medium_catalog)
    q1 = Query("q1", join_rst(20))
    q2 = Query("q2", Join(join_rs(20), Relation("p"), eq(col("s", "c"), col("p", "d"))))
    return builder.build([q1, q2])


class TestCosting:
    def test_costs_are_finite_and_nonnegative(self, shared_dag):
        costs = compute_node_costs(shared_dag)
        for node in shared_dag.equivalence_nodes():
            assert costs[node.id] >= 0.0
            assert costs[node.id] != float("inf")

    def test_base_tables_cost_zero(self, shared_dag):
        costs = compute_node_costs(shared_dag)
        for node in shared_dag.equivalence_nodes():
            if node.is_base:
                assert costs[node.id] == 0.0

    def test_materializing_a_node_never_raises_other_costs(self, shared_dag):
        baseline = compute_node_costs(shared_dag)
        candidate = next(
            n for n in shared_dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2
        )
        with_mat = compute_node_costs(shared_dag, {candidate.id})
        for node in shared_dag.equivalence_nodes():
            assert with_mat[node.id] <= baseline[node.id] + 1e-9

    def test_total_cost_includes_materialization(self, shared_dag):
        candidate = next(n for n in shared_dag.equivalence_nodes() if not n.is_base and n.parents)
        costs = compute_node_costs(shared_dag, {candidate.id})
        with_mat = total_cost(shared_dag, costs, {candidate.id})
        without = total_cost(shared_dag, costs, set())
        assert with_mat == pytest.approx(without + costs[candidate.id] + candidate.mat_cost)

    def test_best_operations_pick_minimum(self, shared_dag):
        costs = compute_node_costs(shared_dag)
        choices = best_operations(shared_dag, costs)
        for node in shared_dag.equivalence_nodes():
            if node.is_base or not node.operations:
                continue
            chosen = choices[node.id]
            chosen_cost = chosen.local_cost + sum(
                m * costs[c.id] for c, m in zip(chosen.children, chosen.child_multipliers)
            )
            assert chosen_cost == pytest.approx(costs[node.id])


class TestIncrementalCostUpdate:
    def test_toggle_matches_from_scratch(self, shared_dag):
        state = IncrementalCostState(shared_dag)
        candidates = [n for n in shared_dag.equivalence_nodes() if not n.is_base and n.parents][:5]
        materialized = set()
        for node in candidates:
            state.toggle_id(node.id, add=True)
            materialized.add(node.id)
            expected = compute_node_costs(shared_dag, materialized)
            for eq_node in shared_dag.equivalence_nodes():
                assert state.costs[eq_node.id] == pytest.approx(expected[eq_node.id])

    def test_undo_restores_state(self, shared_dag):
        state = IncrementalCostState(shared_dag)
        before_costs = dict(state.costs)
        node = next(n for n in shared_dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2)
        log = state.toggle_id(node.id, add=True)
        state.undo(node.id, log, added=True)
        assert state.costs == before_costs
        assert state.materialized == set()

    def test_cost_with_equals_bestcost(self, shared_dag):
        state = IncrementalCostState(shared_dag)
        node = next(n for n in shared_dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2)
        expected_costs = compute_node_costs(shared_dag, {node.id})
        expected = total_cost(shared_dag, expected_costs, {node.id})
        assert state.cost_with_id(node.id) == pytest.approx(expected)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_toggle_sequences_stay_consistent(self, data, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst(100))])
        state = IncrementalCostState(dag)
        candidates = [n for n in dag.equivalence_nodes() if not n.is_base and n.parents]
        materialized = set()
        for _ in range(data.draw(st.integers(1, 6))):
            node = data.draw(st.sampled_from(candidates))
            add = node.id not in materialized
            state.toggle_id(node.id, add=add)
            materialized ^= {node.id}
            expected = compute_node_costs(dag, materialized)
            assert state.costs[dag.root.id] == pytest.approx(expected[dag.root.id])
            assert state.total() == pytest.approx(total_cost(dag, expected, materialized))


class TestAlgorithms:
    def test_volcano_materializes_nothing(self, shared_dag):
        result = optimize_volcano(shared_dag)
        assert result.materialized_count == 0
        assert result.cost > 0

    def test_heuristics_never_worse_than_volcano(self, shared_dag):
        volcano = optimize_volcano(shared_dag)
        for optimize in (optimize_volcano_sh, optimize_volcano_ru, optimize_greedy):
            result = optimize(shared_dag)
            assert result.cost <= volcano.cost * 1.0001

    def test_greedy_finds_the_shared_join(self, shared_dag):
        result = optimize_greedy(shared_dag)
        assert result.materialized_count >= 1
        assert result.sharable_nodes >= 1

    def test_greedy_matches_exhaustive_on_small_dag(self, shared_dag):
        greedy = optimize_greedy(shared_dag)
        exhaustive = optimize_exhaustive(shared_dag)
        assert greedy.cost <= exhaustive.cost * 1.10
        assert exhaustive.cost <= greedy.cost * 1.0001

    def test_exhaustive_refuses_large_candidate_sets(self, tpcd_optimizer):
        queries = [tq.q3(), tq.q5(), tq.q3(segment="MACHINERY"), tq.q5(region="EUROPE")]
        dag = tpcd_optimizer.build_dag(queries)
        with pytest.raises(ExhaustiveSearchError):
            optimize_exhaustive(dag, max_candidates=1)

    def test_greedy_without_monotonicity_same_cost(self, shared_dag):
        with_mono = optimize_greedy(shared_dag, GreedyOptions(use_monotonicity=True))
        without_mono = optimize_greedy(shared_dag, GreedyOptions(use_monotonicity=False))
        assert with_mono.cost == pytest.approx(without_mono.cost, rel=1e-6)

    def test_greedy_without_incremental_same_cost(self, shared_dag):
        fast = optimize_greedy(shared_dag)
        slow = optimize_greedy(shared_dag, GreedyOptions(use_incremental=False))
        assert fast.cost == pytest.approx(slow.cost, rel=1e-6)

    def test_greedy_counters_populated(self, shared_dag):
        result = optimize_greedy(shared_dag)
        assert result.counters["bestcost_calls"] >= result.materialized_count
        assert result.counters["cost_propagations"] > 0

    def test_volcano_ru_reverse_order_considered(self, shared_dag):
        result = optimize_volcano_ru(shared_dag)
        assert result.counters["orders_tried"] == 2
        single = optimize_volcano_ru(shared_dag, try_reverse=False)
        assert result.cost <= single.cost * 1.0001

    def test_volcano_sh_never_worse_than_volcano_on_workloads(self, tpcd_optimizer):
        for queries in (tq.q2_decorrelated(), [tq.q11()], [tq.q15()]):
            dag = tpcd_optimizer.build_dag(queries)
            assert optimize_volcano_sh(dag).cost <= optimize_volcano(dag).cost * 1.0001

    def test_volcano_sh_rejects_plan_missing_a_reachable_choice(self, shared_dag):
        """A malformed consolidated plan raises instead of being silently priced.

        Volcano-SH used to fall back to an argmin over all alternatives for a
        reachable non-base node without a chosen operation, pricing the node
        differently from the plan that claimed to contain it.  That branch is
        now a checked invariant (``PlanError``), so hand-edited or truncated
        plans fail loudly."""
        plan = consolidated_best_plan(shared_dag)
        victim = next(
            node.id
            for node in plan.reachable()
            if not node.is_base and node.id != shared_dag.root.id
        )
        broken = ConsolidatedPlan(shared_dag, dict(plan.choices), set(plan.materialized))
        del broken.choices[victim]
        with pytest.raises(PlanError, match="reachable non-base node"):
            optimize_volcano_sh(shared_dag, broken)


class TestPlans:
    def test_extracted_plan_contains_materialize_and_reuse(self, shared_dag):
        result = optimize_greedy(shared_dag)
        tree = extract_plan(result.plan)
        rendered = tree.describe()
        assert "materialize(" in rendered
        assert "reuse(" in rendered

    def test_explain_mentions_materialized_nodes(self, shared_dag):
        result = optimize_greedy(shared_dag)
        text = result.plan.explain()
        assert "[materialized]" in text

    def test_parent_counts_on_shared_plan(self, shared_dag):
        result = optimize_greedy(shared_dag)
        counts = result.plan.parent_counts()
        assert any(count >= 2 for count in counts.values())

    def test_volcano_plan_has_no_reuse(self, shared_dag):
        result = optimize_volcano(shared_dag)
        assert "reuse(" not in extract_plan(result.plan).describe()

    def test_result_summary_format(self, shared_dag):
        summary = optimize_greedy(shared_dag).summary()
        assert "Greedy" in summary and "cost=" in summary


class TestPaperWorkloadShapes:
    """Integration: the qualitative results of the paper's Figure 6 hold."""

    @pytest.fixture(scope="class")
    def standalone(self, tpcd_optimizer):
        return {
            name: tpcd_optimizer.optimize_all(queries)
            for name, queries in tq.standalone_workloads().items()
        }

    def test_ordering_volcano_worst(self, standalone):
        for results in standalone.values():
            volcano = results["Volcano"].cost
            for name in ("Volcano-SH", "Volcano-RU", "Greedy"):
                assert results[name].cost <= volcano * 1.0001

    def test_sharing_workloads_improve_substantially(self, standalone):
        for name in ("Q2-D", "Q11", "Q15"):
            assert standalone[name]["Greedy"].cost < 0.8 * standalone[name]["Volcano"].cost

    def test_greedy_materializes_something_on_sharing_workloads(self, standalone):
        for name in ("Q2-D", "Q11", "Q15"):
            assert standalone[name]["Greedy"].materialized_count >= 1

    def test_correlated_q2_benefits_from_mqo(self, standalone):
        assert standalone["Q2"]["Greedy"].cost < standalone["Q2"]["Volcano"].cost

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
    def test_batched_workloads_keep_the_order_exactly(self, tpcd_optimizer, index):
        """Figure 8's batches BQ1..BQ5: the heuristics never lose to Volcano
        (no slack), greedy's cost is the cost of its materialized set, and a
        session's warm rebuild of the batch finds the same greedy cost."""
        queries = batched_queries(index)
        results = tpcd_optimizer.optimize_all(queries)
        volcano = results["Volcano"].cost
        for name in ("Volcano-SH", "Volcano-RU", "Greedy"):
            assert results[name].cost <= volcano, name
        greedy = results["Greedy"]
        assert greedy.cost == bestcost(greedy.plan.dag, greedy.plan.materialized)
        session = OptimizerSession(tpcd_optimizer.catalog, cache_plans=False)
        session.build_dag(queries)
        assert session.optimize(queries, "greedy").cost == greedy.cost


class TestApi:
    def test_algorithm_parse(self):
        assert Algorithm.parse("greedy") is Algorithm.GREEDY
        assert Algorithm.parse("Volcano-SH") is Algorithm.VOLCANO_SH
        assert Algorithm.parse("volcano_ru") is Algorithm.VOLCANO_RU
        assert Algorithm.parse(Algorithm.VOLCANO) is Algorithm.VOLCANO
        with pytest.raises(ValueError):
            Algorithm.parse("magic")

    def test_optimize_all_shares_one_dag(self, tiny_catalog):
        optimizer = MQOptimizer(tiny_catalog)
        queries = [Query("q1", join_rst()), Query("q2", join_rst())]
        results = optimizer.optimize_all(queries)
        sizes = {r.dag_equivalence_nodes for r in results.values()}
        assert len(sizes) == 1

    def test_one_shot_optimize_helper(self, tiny_catalog):
        from repro import optimize

        result = optimize([Query("q", join_rst())], tiny_catalog, "volcano")
        assert result.algorithm == "Volcano"
