"""Tests for the optimization algorithms: costing, Volcano, Volcano-SH,
Volcano-RU, Greedy (and its incremental/monotonicity machinery), Exhaustive."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro import Algorithm, GreedyOptions, MQOptimizer, OptimizerSession, Query
from repro.dag import DagBuilder
from repro.optimizer import (
    IncrementalCostState,
    get_engine,
    optimize_exhaustive,
    optimize_greedy,
    optimize_volcano,
    optimize_volcano_ru,
    optimize_volcano_sh,
)
from repro.optimizer.costing import bestcost
from repro.optimizer.exhaustive import ExhaustiveSearchError
from repro.optimizer.plans import ConsolidatedPlan, PlanError, extract_plan
from repro.optimizer.sharability import sharing_degrees
from repro.optimizer.volcano import consolidated_best_plan
from repro.workloads import tpcd_queries as tq
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries
from tests.test_dag import join_rst
from tests.test_properties import tracked_reachable


class TestCosting:
    def test_costs_are_finite_and_nonnegative(self, shared_dag):
        costs = get_engine(shared_dag).compute_costs()
        for node in shared_dag.equivalence_nodes():
            assert costs[node.id] >= 0.0
            assert costs[node.id] != float("inf")

    def test_base_tables_cost_zero(self, shared_dag):
        costs = get_engine(shared_dag).compute_costs()
        for node in shared_dag.equivalence_nodes():
            if node.is_base:
                assert costs[node.id] == 0.0

    def test_materializing_a_node_never_raises_other_costs(self, shared_dag):
        engine = get_engine(shared_dag)
        baseline = engine.compute_costs()
        candidate = next(
            n for n in shared_dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2
        )
        with_mat = engine.compute_costs({candidate.id})
        for node in shared_dag.equivalence_nodes():
            assert with_mat[node.id] <= baseline[node.id] + 1e-9

    def test_total_cost_includes_materialization(self, shared_dag):
        candidate = next(n for n in shared_dag.equivalence_nodes() if not n.is_base and n.parents)
        engine = get_engine(shared_dag)
        costs = engine.compute_costs({candidate.id})
        with_mat = engine.total(costs, {candidate.id})
        without = engine.total(costs, set())
        assert with_mat == without + (costs[candidate.id] + candidate.mat_cost)

    def test_consolidated_plan_picks_minimum(self, shared_dag):
        costs = get_engine(shared_dag).compute_costs()
        plan = consolidated_best_plan(shared_dag)
        for node in shared_dag.equivalence_nodes():
            if node.is_base or not node.operations:
                continue
            chosen = plan.operation_for(node)
            # Accumulated left to right from the local cost, as the sweep does.
            chosen_cost = chosen.local_cost
            for child, multiplier in zip(chosen.children, chosen.child_multipliers):
                chosen_cost += multiplier * costs[child.id]
            assert chosen_cost == costs[node.id]


class TestIncrementalCostUpdate:
    def test_toggle_matches_from_scratch(self, shared_dag):
        state = IncrementalCostState(shared_dag)
        engine = get_engine(shared_dag)
        candidates = [n for n in shared_dag.equivalence_nodes() if not n.is_base and n.parents][:5]
        materialized = set()
        for node in candidates:
            state.materialize_id(node.id)
            materialized.add(node.id)
            # The default cut-off leaves sub-epsilon decreases unpropagated.
            assert state.snapshot_costs() == pytest.approx(engine.compute_costs(materialized))

    def test_cost_with_equals_bestcost(self, shared_dag):
        state = IncrementalCostState(shared_dag)
        node = next(n for n in shared_dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2)
        assert state.cost_with_id(node.id) == pytest.approx(bestcost(shared_dag, {node.id}))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_add_sequences_stay_consistent(self, data, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst(100))])
        state = IncrementalCostState(dag)
        engine = get_engine(dag)
        candidates = [n.id for n in dag.equivalence_nodes() if not n.is_base and n.parents]
        order = data.draw(st.permutations(candidates))
        materialized = set()
        for node_id in order[: data.draw(st.integers(1, 6))]:
            state.materialize_id(node_id)
            materialized.add(node_id)
            expected = engine.compute_costs(materialized)
            assert state.snapshot_costs()[dag.root.id] == pytest.approx(expected[dag.root.id])
            assert state.total() == pytest.approx(engine.total(expected, materialized))


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

    def test_exhaustive_searches_greedys_candidates(self, tpcd_optimizer):
        """Exhaustive enumerates exactly greedy's candidates: the nodes whose
        sharing degree exceeds one."""
        dag = tpcd_optimizer.build_dag([tq.q3(), tq.q3(segment="MACHINERY")])
        degrees = sharing_degrees(dag)
        candidates = sorted(node_id for node_id, degree in degrees.items() if degree > 1.0)
        assert candidates
        greedy = optimize_greedy(dag)
        exhaustive = optimize_exhaustive(dag)
        assert greedy.counters["candidates"] == exhaustive.sharable_nodes == len(candidates)
        assert exhaustive.counters["subsets_examined"] == 2 ** len(candidates)
        assert exhaustive.plan.materialized <= set(candidates)

    def test_greedy_reads_sharing_degrees_through_its_module(self, shared_dag, monkeypatch):
        """Greedy looks ``sharing_degrees`` up in its own module at call time,
        so a wrapper installed on ``repro.optimizer.greedy`` sees every call."""
        from repro.optimizer import greedy

        calls = []

        def counting(dag, *args):
            calls.append(args)
            return sharing_degrees(dag, *args)

        monkeypatch.setattr(greedy, "sharing_degrees", counting)
        result = optimize_greedy(shared_dag, GreedyOptions(use_sharability=True))
        assert calls
        monkeypatch.undo()
        plain = optimize_greedy(shared_dag, GreedyOptions(use_sharability=True))
        assert result.cost == plain.cost
        assert result.plan.materialized == plain.plan.materialized

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
        reachable = get_engine(shared_dag).reachable_flags(plan.choice_op)
        victim = next(
            node.id
            for node in shared_dag.equivalence_nodes()
            if reachable[node.id] and not node.is_base and node.id != shared_dag.root.id
        )
        choice_op = list(plan.choice_op)
        choice_op[victim] = -1
        broken = ConsolidatedPlan(shared_dag, tuple(choice_op), set(plan.materialized))
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

    @pytest.mark.parametrize("algorithm", [
        Algorithm.VOLCANO, Algorithm.VOLCANO_SH, Algorithm.VOLCANO_RU, Algorithm.GREEDY,
    ])
    def test_plan_holds_no_per_node_objects(self, psp_optimizer, algorithm):
        """A plan is its DAG, its materialized set and an operation-id tuple,
        which the collector stops tracking after one pass.  Besides the DAG
        and its arena it reaches the plan, the set and, where the interpreter
        gives the plan one, its ``__dict__``, however large the DAG."""
        queries = scaleup_queries(5)
        dag = psp_optimizer.build_dag(queries)
        plan = psp_optimizer.optimize(queries, algorithm, dag=dag).plan
        assert sum(op_id >= 0 for op_id in plan.choice_op) > 100
        gc.collect()
        assert tracked_reachable([plan], stop=(dag, dag.arena)) <= 4

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

    def test_greedy_loses_to_volcano_sh_on_a_q7_pair(self, tpcd):
        """The known exception to "greedy is the best": a TPC-D Q7 pair
        (PERU and FRANCE swapped, 1993), built as the ``paper-cold``
        benchmark builds its Q7 batches.  Greedy first picks node 18
        (lineitem ⋈ orders ⋈ customer), after which the selections that
        Volcano-SH and Volcano-RU share no longer pay off.  Pinned until the
        ROADMAP item on greedy's plan quality is decided: a change in either
        direction fails here."""
        pair = [
            tq.q7(nation1="PERU", nation2="FRANCE", start_year=1993),
            tq.q7(nation1="FRANCE", nation2="PERU", start_year=1993),
        ]
        queries = [Query(f"{q.name}#{i + 1}", q.expression) for i, q in enumerate(pair)]
        optimizer = MQOptimizer(tpcd)
        dag = optimizer.build_dag(queries)
        results = {
            algorithm: optimizer.optimize(queries, algorithm, dag=dag)
            for algorithm in (
                Algorithm.VOLCANO, Algorithm.VOLCANO_SH, Algorithm.VOLCANO_RU, Algorithm.GREEDY
            )
        }
        pinned = {
            Algorithm.VOLCANO: (1040.7776811984081, set()),
            Algorithm.VOLCANO_SH: (662.4987172733026, {1, 3, 5, 7}),
            Algorithm.VOLCANO_RU: (662.4987172733026, {1, 3, 5, 7}),
            Algorithm.GREEDY: (729.8148451235134, {1, 18}),
        }
        for algorithm, (cost, materialized) in pinned.items():
            result = results[algorithm]
            assert (result.cost, result.plan.materialized) == (cost, materialized), algorithm


class TestApi:
    def test_optimizer_surface_is_id_based(self):
        """The object-and-dict cost surface stays deleted: costs, totals,
        reachability and sharing degrees are read from the engine's dense
        lists and ``sharing_degrees`` only."""
        import repro.dag
        import repro.optimizer
        from repro.dag import Dag, nodes
        from repro.optimizer import costing, engine, greedy, sharability

        removed = {
            repro.optimizer: ("CostTableView", "compute_node_costs", "total_cost"),
            engine: ("CostTableView", "CostTable"),
            costing: ("compute_node_costs", "total_cost"),
            sharability: ("degree_of_sharing", "sharable_nodes"),
            ConsolidatedPlan: ("reachable", "reachable_ids", "cost"),
            IncrementalCostState: ("costs",),
            repro.dag: ("TableOp",),
            nodes: ("TableOp",),
            Dag: ("add_operation_id", "find_id"),
        }
        for owner, names in removed.items():
            for name in names:
                assert not hasattr(owner, name), (owner, name)
        assert "IncrementalCostState" not in greedy.__all__
        assert callable(costing.bestcost) and callable(repro.optimizer.get_engine)

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
