"""Tests for AND-OR DAG construction: expansion, unification, subsumption,
sharability, and structural invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    Aggregate,
    AggregateFunction,
    Join,
    Project,
    Relation,
    Select,
    col,
    eq,
    ge,
    gt,
    lt,
)
from repro.dag import DagBuilder, Query
from repro.dag.nodes import DagError, JoinOp, ScanOp
from repro.optimizer.sharability import sharing_degrees
from tests.oracles.sharability import sharing_degree as oracle_sharing_degree


def join_rs(v_limit=500):
    """σ_{v<limit}(r) ⋈ s on a."""
    return Join(
        Select(Relation("r"), lt(col("r", "v"), v_limit)),
        Relation("s"),
        eq(col("r", "a"), col("s", "a")),
    )


def join_rst(v_limit=500):
    """(σ(r) ⋈ s) ⋈ t."""
    return Join(join_rs(v_limit), Relation("t"), eq(col("s", "c"), col("t", "c")))


class TestBlockExpansion:
    def test_three_relation_chain_has_node_per_connected_subset(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        builder.build([Query("q", join_rst())])
        join_nodes = [
            n for n in builder.dag.equivalence_nodes()
            if isinstance(n.key, tuple) and n.key[0] == "join"
        ]
        # Connected subsets of the chain r-s-t with >= 2 members: {rs}, {st}, {rst}.
        assert len(join_nodes) == 3

    def test_join_operations_cover_both_orders(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(join_rs())
        assert len(root.operations) == 2  # (r ⋈ s) and (s ⋈ r)
        assert all(isinstance(op.operator, JoinOp) for op in root.operations)

    def test_selection_pushed_into_scan(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(Select(Relation("r"), lt(col("r", "v"), 10)))
        assert isinstance(root.operations[0].operator, ScanOp)
        assert root.operations[0].operator.predicate is not None

    def test_bushy_plans_present_for_four_relations(self, tiny_catalog):
        expr = Join(join_rst(), Relation("p"), eq(col("t", "d"), col("p", "d")))
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(expr)
        # Partitions of {r,s,t,p}: {r|stp, rs|tp, rst|p} each in both orders.
        assert len(root.operations) == 6

    def test_cross_product_block_still_builds(self, tiny_catalog):
        expr = Join(Relation("r"), Relation("t"))  # no predicate: cross product
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(expr)
        assert root.rows == pytest.approx(10_000 * 5_000)

    def test_self_join_gets_distinct_canonical_aliases(self, tiny_catalog):
        expr = Join(
            Relation("r", "r1"), Relation("r", "r2"), eq(col("r1", "a"), col("r2", "b"))
        )
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(expr)
        leaf_keys = root.key[1]
        assert len(leaf_keys) == 2  # the two occurrences stay distinct

    def test_too_many_relations_rejected(self, tiny_catalog):
        expr = Relation("r")
        for i in range(15):
            expr = Join(expr, Relation("s", f"s{i}"), eq(col("r", "a"), col(f"s{i}", "a")))
        builder = DagBuilder(tiny_catalog)
        with pytest.raises(ValueError):
            builder.build([Query("big", expr)])


class TestUnification:
    def test_identical_subexpressions_share_nodes(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        q1 = Query("q1", join_rst())
        q2 = Query("q2", Join(join_rs(), Relation("p"), eq(col("s", "c"), col("p", "d"))))
        dag = builder.build([q1, q2])
        rs_nodes = [
            n for n in dag.equivalence_nodes()
            if isinstance(n.key, tuple) and n.key[0] == "join" and len(n.key[1]) == 2
            and any("'r'" in str(k) or "('scan', 'r'" in str(k) for k in n.key[1])
        ]
        shared = [n for n in rs_nodes if len(n.parents) >= 2]
        assert shared, "the r ⋈ s sub-expression should be unified across the two queries"

    def test_different_constants_do_not_unify(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rs(100)), Query("q2", join_rs(200))])
        roots = dag.query_roots
        assert roots[0] is not roots[1]

    def test_identical_queries_share_everything(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst())])
        assert dag.query_roots[0] is dag.query_roots[1]

    def test_aggregate_unification(self, tiny_catalog):
        agg = Aggregate(
            join_rs(),
            group_by=(col("s", "c"),),
            aggregates=(AggregateFunction("sum", col("s", "w"), "total"),),
            alias="v",
        )
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", agg), Query("q2", agg)])
        assert dag.query_roots[0] is dag.query_roots[1]


class TestStructure:
    def test_topological_numbers_respect_edges(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst()), Query("p", join_rs(100))])
        dag.validate()
        for operation in dag.operation_nodes():
            for child in operation.children:
                assert child.topo_number < operation.equivalence.topo_number

    def test_pseudo_root_has_all_query_roots(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst()), Query("p", join_rs(100))])
        assert len(dag.query_roots) == 2
        assert set(dag.root.operations[0].children) == set(dag.query_roots)

    def test_materialization_costs_assigned(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst())])
        for node in dag.equivalence_nodes():
            if not node.is_base and node is not dag.root:
                assert node.mat_cost > 0
                assert node.reuse_cost > 0
                assert node.reuse_cost <= node.mat_cost

    def test_empty_batch_rejected(self, tiny_catalog):
        with pytest.raises(ValueError):
            DagBuilder(tiny_catalog).build([])

    def test_project_node(self, tiny_catalog):
        expr = Project(join_rs(), (col("s", "c"),))
        builder = DagBuilder(tiny_catalog)
        root = builder.build_expression(expr)
        assert root.key[0] == "project"

    def test_validate_detects_missing_root(self, tiny_catalog):
        from repro.dag.nodes import Dag

        with pytest.raises(DagError):
            Dag().validate()


class TestSubsumption:
    def test_implied_selection_gets_derivation(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rs(100)), Query("q2", join_rs(500))])
        stronger = dag.find(("scan", "r", "r", frozenset({lt(col("r", "v"), 100)})))
        assert stronger is not None
        assert any(op.is_subsumption for op in stronger.operations)

    def test_equality_selections_get_disjunction_node(self, tiny_catalog):
        q1 = Query("q1", Join(Select(Relation("r"), eq(col("r", "b"), 1)), Relation("s"),
                              eq(col("r", "a"), col("s", "a"))))
        q2 = Query("q2", Join(Select(Relation("r"), eq(col("r", "b"), 2)), Relation("s"),
                              eq(col("r", "a"), col("s", "a"))))
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([q1, q2])
        disjunction_nodes = [
            n for n in dag.equivalence_nodes() if n.created_by_subsumption and n.key[0] == "scan"
        ]
        assert disjunction_nodes, "a σ(b=1 ∨ b=2) node should have been created"

    def test_aggregate_subsumption_creates_combined_groupby(self, tiny_catalog):
        def agg(group_col, alias):
            return Aggregate(
                join_rs(),
                group_by=(group_col,),
                aggregates=(AggregateFunction("sum", col("s", "w"), "total"),),
                alias=alias,
            )

        q1 = Query("q1", agg(col("s", "c"), "by_c"))
        q2 = Query("q2", agg(col("r", "b"), "by_b"))
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([q1, q2])
        combined = [
            n for n in dag.equivalence_nodes()
            if isinstance(n.key, tuple) and n.key[0] == "agg" and len(n.key[2]) == 2
        ]
        assert combined, "a group-by on both columns should have been added"
        for root in dag.query_roots:
            assert any(op.is_subsumption for op in root.operations) or root.operations

    def test_join_level_subsumption_creates_weak_node(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rs(100)), Query("q2", join_rs(500))])
        weak = [n for n in dag.equivalence_nodes() if n.created_by_subsumption and n.key[0] == "join"]
        assert weak, "a shared weaker join should have been created"

    def test_subsumption_count_reported(self, tiny_catalog):
        from repro.dag.subsumption import apply_subsumption

        builder = DagBuilder(tiny_catalog)
        for expression in (join_rs(100), join_rs(500)):
            builder.build_expression(expression)
        assert apply_subsumption(builder) > 0

    def test_no_subsumption_between_unrelated_predicates(self, tiny_catalog):
        q1 = Query("q1", Select(Relation("r"), lt(col("r", "v"), 100)))
        q2 = Query("q2", Select(Relation("r"), gt(col("r", "b"), 50)))
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([q1, q2])
        for node in dag.equivalence_nodes():
            for op in node.operations:
                if op.is_subsumption:
                    pytest.fail("no subsumption derivation should exist between unrelated predicates")


class TestSharability:
    def test_shared_node_is_sharable(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        q1 = Query("q1", join_rst())
        q2 = Query("q2", Join(join_rs(), Relation("p"), eq(col("s", "c"), col("p", "d"))))
        dag = builder.build([q1, q2])
        shared = [node_id for node_id, degree in sharing_degrees(dag).items() if degree > 1.0]
        assert shared
        assert all(oracle_sharing_degree(dag, node_id) > 1 for node_id in shared)

    def test_single_query_without_self_overlap_has_no_sharable_nodes(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst())])
        assert all(degree <= 1.0 for degree in sharing_degrees(dag).values())

    def test_degree_counts_uses_through_one_plan(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst())])
        root_id = dag.query_roots[0].id
        assert sharing_degrees(dag, [root_id]) == {root_id: 2.0}

    def test_sharing_degrees_covers_candidates(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst())])
        degrees = sharing_degrees(dag)
        assert degrees[dag.query_roots[0].id] == pytest.approx(2.0)


@settings(max_examples=20, deadline=None)
@given(
    limits=st.lists(st.integers(10, 990), min_size=1, max_size=4),
    chain_length=st.integers(1, 3),
)
def test_random_batches_build_valid_dags(limits, chain_length):
    """Property: any batch of chain queries yields a structurally valid DAG."""
    from repro.catalog import psp_catalog

    catalog = psp_catalog(relation_count=chain_length + 1)
    queries = []
    for index, limit in enumerate(limits):
        expr = Select(Relation("psp1"), ge(col("psp1", "num"), limit))
        for j in range(1, chain_length + 1):
            expr = Join(expr, Relation(f"psp{j + 1}"), eq(col(f"psp{j}", "sp"), col(f"psp{j + 1}", "p")))
        queries.append(Query(f"q{index}", expr))
    builder = DagBuilder(catalog)
    dag = builder.build(queries)
    dag.validate()
    assert len(dag.query_roots) == len(queries)
