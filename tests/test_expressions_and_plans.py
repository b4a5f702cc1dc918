"""Unit tests for the expression AST, the plan/report helpers and the
nested-query expression type."""

import pytest

from repro import Query
from repro.algebra import (
    Aggregate,
    AggregateFunction,
    Join,
    Project,
    Relation,
    Select,
    col,
    eq,
    lt,
)
from repro.algebra.expressions import base_relations, walk
from repro.algebra.nested import CorrelatedSubqueryFilter
from repro.dag import DagBuilder
from repro.optimizer import bestcost, get_engine, optimize_greedy, optimize_volcano
from repro.optimizer.plans import ConsolidatedPlan, PlanError
from tests.test_dag import join_rs, join_rst


class TestExpressions:
    def test_relation_name_defaults_to_table(self):
        assert Relation("r").name == "r"
        assert Relation("r", "r2").name == "r2"

    def test_relations_of_a_tree(self):
        expr = join_rst()
        assert expr.relations() == frozenset({"r", "s", "t"})

    def test_base_relations_in_tree_order(self):
        tables = [rel.table for rel in base_relations(join_rst())]
        assert tables == ["r", "s", "t"]

    def test_walk_visits_every_node(self):
        nodes = list(walk(join_rst()))
        assert sum(isinstance(n, Join) for n in nodes) == 2
        assert sum(isinstance(n, Select) for n in nodes) == 1
        assert sum(isinstance(n, Relation) for n in nodes) == 3

    def test_rename_relations(self):
        renamed = join_rs().rename({"r": "r9"})
        assert "r9" in renamed.relations()
        assert "r" not in renamed.relations()

    def test_aggregate_rename_rewrites_columns(self):
        agg = Aggregate(
            Relation("r"),
            group_by=(col("r", "b"),),
            aggregates=(AggregateFunction("sum", col("r", "v"), "total"),),
            alias="a1",
        )
        renamed = agg.rename({"r": "x"})
        assert renamed.group_by[0].relation == "x"
        assert renamed.aggregates[0].column.relation == "x"

    def test_project_rename(self):
        project = Project(Relation("r"), (col("r", "a"),)).rename({"r": "z"})
        assert project.columns[0] == col("z", "a")

    def test_invalid_aggregate_function_rejected(self):
        with pytest.raises(ValueError):
            AggregateFunction("median", col("r", "v"), "m")

    @pytest.mark.parametrize(
        "build, owner",
        [
            (lambda: Select(Relation("psp1"), None), "Select"),
            (lambda: Join(Relation("psp1"), Relation("psp2"), None), "Join"),
        ],
        ids=["select", "join"],
    )
    def test_missing_predicate_rejected_at_construction(self, build, owner):
        """A ``None`` predicate used to build and then fail inside the DAG
        builder with an ``AttributeError``; it is a ``TypeError`` naming
        the field at construction."""
        with pytest.raises(TypeError, match=rf"{owner}\.predicate must be a Predicate"):
            build()

    def test_str_representations(self):
        assert "⋈" in str(join_rs())
        assert "σ" in str(Select(Relation("r"), lt(col("r", "v"), 1)))
        assert "γ" in str(
            Aggregate(Relation("r"), (), (AggregateFunction("count", None, "n"),), "a")
        )

    def test_correlated_filter_children_and_rename(self):
        expr = CorrelatedSubqueryFilter(
            outer=join_rs(),
            invariant=Relation("s"),
            correlation=(eq(col("s", "a"), col("r", "a")),),
            aggregate=AggregateFunction("min", col("s", "w"), "mw"),
            outer_column=col("s", "w"),
        )
        assert len(expr.children()) == 2
        renamed = expr.rename({"r": "rr"})
        assert any(c.relation == "rr" for p in renamed.correlation for c in p.columns())
        assert "min" in str(expr)


class TestPlansAndReports:
    @pytest.fixture(scope="class")
    def dag(self, medium_catalog):
        builder = DagBuilder(medium_catalog)
        return builder.build([Query("q1", join_rst(20)), Query("q2", join_rst(20))])

    def test_plan_error_for_missing_choice(self, dag):
        plan = ConsolidatedPlan(dag, (-1,) * dag.num_equivalence_nodes, set())
        with pytest.raises(PlanError):
            plan.operation_for(dag.root)

    def test_reachable_includes_root_and_leaves(self, dag):
        result = optimize_volcano(dag)
        reachable = get_engine(dag).reachable_flags(result.plan.choice_op)
        assert reachable[dag.root.id]
        assert any(reachable[node.id] for node in dag.equivalence_nodes() if node.is_base)

    def test_materialized_labels_match_count(self, dag):
        result = optimize_greedy(dag)
        assert len(result.materialized_labels()) == result.materialized_count

    def test_plan_cost_helper_matches_report(self, dag):
        result = optimize_greedy(dag)
        assert bestcost(dag, result.plan.materialized) == result.cost

    def test_plan_cost_sums_materialized_nodes_in_id_order(self, tpcd_optimizer):
        """Two TPC-D Q3 instances: greedy materializes {3, 12, 17}, a set
        that iterates as [17, 3, 12].  Summed in that order the plan cost
        would differ from ``result.cost`` in the last bit."""
        from repro.workloads import tpcd_queries as tq

        pair = (("BUILDING", 1400), ("HOUSEHOLD", 1152))
        queries = [Query(f"Q3#{i}", tq.q3(segment=s, date=d).expression)
                   for i, (s, d) in enumerate(pair, start=1)]
        dag = tpcd_optimizer.build_dag(queries)
        result = optimize_greedy(dag)
        materialized = result.plan.materialized
        assert materialized == {3, 12, 17}
        assert list(materialized) != sorted(materialized)
        assert bestcost(dag, materialized) == result.cost

    def test_report_records_dag_size(self, dag):
        result = optimize_volcano(dag)
        assert result.dag_equivalence_nodes == dag.num_equivalence_nodes
        assert result.dag_operation_nodes == dag.num_operation_nodes

    def test_identical_queries_fully_shared(self, dag):
        """Two identical queries: greedy shares the whole query result."""
        greedy = optimize_greedy(dag)
        volcano = optimize_volcano(dag)
        assert greedy.cost < volcano.cost
        assert greedy.materialized_count >= 1
