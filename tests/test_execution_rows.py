"""Golden digests of executed rows: the oracle of the executor's row format.

Every case executes a plan and pins two values: the sha256 of its per-query
rows in the ``rows_digest`` format (column order and row order included,
through the ``ExecutionResult.per_query_rows`` dict view) and its work
accounting (row counts, blocks, reuses and the simulated seconds, floats by
``repr``).  The digests were recorded with dictionary rows and must hold for
any later row representation.

The optimizer-driven cases run PSP windows under all four algorithms, small
TPC-D pairs, the correlated TPC-D Q2 (``NestedApplyOp`` over an
``IndexBuildOp``), an aggregate-subsumption batch and a covering cached read
with a residual.  The hand-built plans pin the degenerate shapes the
optimizer never picks: empty inputs, cross products, a projection that keeps
no column, joins and nested applies whose sides share columns, aggregates
over missing or colliding columns, and predicates that short-circuit past a
missing column.
"""

from typing import List, Tuple

import pytest

from repro import Algorithm, MQOptimizer, Query
from repro.algebra import (
    Aggregate,
    AggregateFunction,
    Join,
    Relation,
    Select,
    TruePredicate,
    and_,
    col,
    eq,
    ge,
    gt,
    lt,
    or_,
)
from repro.catalog import psp_catalog, tpcd_catalog
from repro.cost.estimation import LogicalProperties
from repro.dag.builder import IndexBuildOp
from repro.dag.nodes import (
    AggregateOp,
    CachedReadOp,
    Dag,
    JoinOp,
    NestedApplyOp,
    NoOp,
    ProjectOp,
    ScanOp,
    SelectOp,
)
from repro.execution import Executor, generate_psp_data, generate_tpcd_data
from repro.optimizer.plans import ConsolidatedPlan, extract_plan
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query
from repro.workloads import tpcd_queries as tq
from tests.generators import rows_digest


def work_token(result) -> str:
    stats = result.stats
    return "/".join((
        str(stats.rows_scanned), str(stats.rows_processed),
        str(stats.rows_materialized), str(stats.blocks_read),
        str(stats.blocks_written), str(stats.reuses),
        repr(stats.io_seconds), repr(stats.cpu_seconds),
    ))


def pinned(result) -> Tuple[str, str]:
    return rows_digest(result.per_query_rows), work_token(result)


def plan_operators(plan) -> set:
    """Operator classes of the executable tree of *plan*."""
    found = set()
    stack = [extract_plan(plan)]
    while stack:
        node = stack.pop()
        if node.operation is not None:
            found.add(type(node.operation.operator))
        stack.extend(node.children)
    return found


class ManualPlan:
    """A hand-built executable plan: one equivalence node per operator."""

    def __init__(self) -> None:
        self.dag = Dag()
        #: The chosen operation id per node, ``-1`` for the base tables.
        self.choice_op: List[int] = []
        self.materialized = set()

    def node(self, operator, *children, table=None):
        eq_node = self.dag.equivalence(
            ("manual", len(self.dag)), LogicalProperties(1.0),
            f"n{len(self.dag)}", is_base=table is not None, base_table=table,
        )
        op_id = -1
        if table is None:
            op_id = self.dag.add_operation(eq_node, operator, children, 0.0).id
        self.choice_op.append(op_id)
        return eq_node

    def scan(self, table, alias, predicate=None):
        return self.node(ScanOp(table, alias, predicate), self.node(None, table=table))

    def run(self, executor, *roots):
        root = self.node(NoOp(), *roots)
        self.dag.set_root(root, list(roots))
        plan = ConsolidatedPlan(self.dag, tuple(self.choice_op), set(self.materialized))
        return executor.run(plan)


@pytest.fixture(scope="module")
def psp():
    catalog = psp_catalog(relation_count=8)
    database = generate_psp_data(relation_count=8, rows_per_table=300, seed=7)
    return catalog, database


@pytest.fixture(scope="module")
def psp_small():
    catalog = psp_catalog(relation_count=3)
    database = generate_psp_data(relation_count=3, rows_per_table=30, seed=3)
    return catalog, database


@pytest.fixture(scope="module")
def tpcd():
    return tpcd_catalog(0.002), generate_tpcd_data(0.002)


# ---------------------------------------------------------------------------
# Optimizer-chosen plans
# ---------------------------------------------------------------------------

def psp_window(start: int, constants: int) -> List[Query]:
    return component_query(start, seed=constants) + component_query(
        start + 1, seed=constants
    )


PSP_GOLDEN = {
    ("window-1-42", "VOLCANO"): (
        "fef0e3712b8802431d500bdff8bf10306dfb4819397a508f431931e0ed968c21",
        "6000/11806/0/240/0/0/0.6800000000000004/0.05156120000000003",
    ),
    ("window-1-42", "VOLCANO_SH"): (
        "fef0e3712b8802431d500bdff8bf10306dfb4819397a508f431931e0ed968c21",
        "2400/6058/300/120/8/3/0.3920000000000001/0.027291600000000006",
    ),
    ("window-1-42", "VOLCANO_RU"): (
        "fef0e3712b8802431d500bdff8bf10306dfb4819397a508f431931e0ed968c21",
        "2400/6058/300/120/8/3/0.3920000000000001/0.027291600000000006",
    ),
    ("window-1-42", "GREEDY"): (
        "fef0e3712b8802431d500bdff8bf10306dfb4819397a508f431931e0ed968c21",
        "4500/9064/300/189/9/1/0.5840000000000003/0.042312800000000025",
    ),
    ("window-3-44", "VOLCANO"): (
        "e0da846ca729b8343d0c1311567cf188ac9baf9ad47934089eb5a94d5474b441",
        "6000/11524/0/240/0/0/0.6800000000000004/0.05150480000000003",
    ),
    ("window-3-44", "VOLCANO_SH"): (
        "e0da846ca729b8343d0c1311567cf188ac9baf9ad47934089eb5a94d5474b441",
        "4500/8824/600/190/10/2/0.6100000000000003/0.04266480000000002",
    ),
    ("window-3-44", "VOLCANO_RU"): (
        "3e8c26f16acef5b42c3328e64151b2540b3ade7347d3f1f9338d29373b1649c2",
        "3300/6972/300/150/6/3/0.4740000000000002/0.0332544",
    ),
    ("window-3-44", "GREEDY"): (
        "3e8c26f16acef5b42c3328e64151b2540b3ade7347d3f1f9338d29373b1649c2",
        "2400/5886/300/120/8/3/0.3920000000000001/0.027257200000000013",
    ),
}

WINDOWS = {"window-1-42": (1, 42), "window-3-44": (3, 44)}


@pytest.mark.parametrize("window,algorithm", sorted(PSP_GOLDEN))
def test_psp_window_rows(psp, window, algorithm):
    catalog, database = psp
    queries = psp_window(*WINDOWS[window])
    result = MQOptimizer(catalog).optimize(queries, Algorithm[algorithm])
    assert pinned(Executor(database, catalog).run(result.plan)) == PSP_GOLDEN[
        (window, algorithm)
    ]


TPCD_GOLDEN = {
    ("BQ1", "VOLCANO"): (
        "62bd684023d9755e94225fa695cc35fab6b01d71ff62d2d639402934bb1517a2",
        "30616/17422/0/904/0/0/1.868/0.1904076",
    ),
    ("BQ1", "GREEDY"): (
        "62bd684023d9755e94225fa695cc35fab6b01d71ff62d2d639402934bb1517a2",
        "15308/25861/8306/629/177/3/2.0559999999999996/0.1694338",
    ),
    ("BQ2", "VOLCANO"): (
        "8a7de71a4170553f8849084998e5a2eebc33daec5022261e75abf03d3520bf67",
        "61332/43964/0/1814/0/0/3.8080000000000003/0.3838591999999999",
    ),
    ("BQ2", "GREEDY"): (
        "30ed0c4f58e96551630edb7db90892b387d5ed6d661818c3a0c57b791acf552f",
        "15688/67172/12668/1384/474/4/4.823999999999998/0.3881719999999999",
    ),
}


@pytest.mark.parametrize("batch,algorithm", sorted(TPCD_GOLDEN))
def test_tpcd_pair_rows(tpcd, batch, algorithm):
    catalog, database = tpcd
    queries = batched_queries(int(batch[2:]))
    result = MQOptimizer(catalog).optimize(queries, Algorithm[algorithm])
    assert pinned(Executor(database, catalog).run(result.plan)) == TPCD_GOLDEN[
        (batch, algorithm)
    ]


NESTED_GOLDEN = {
    "VOLCANO": (
        "a951cea824eb5a87ca379ee446d2315f0b368e6de15a5166f7f1681f8a6c6e83",
        "3700/4660/0/113/0/0/0.41200000000000003/0.027994599999999998",
    ),
    "GREEDY": (
        "a951cea824eb5a87ca379ee446d2315f0b368e6de15a5166f7f1681f8a6c6e83",
        "3700/4660/613/113/18/0/0.4200000000000001/0.029794599999999997",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(NESTED_GOLDEN))
def test_correlated_nested_query_rows(tpcd, algorithm):
    catalog, database = tpcd
    result = MQOptimizer(tpcd_catalog(1.0)).optimize([tq.q2()], Algorithm[algorithm])
    operators = plan_operators(result.plan)
    assert NestedApplyOp in operators
    assert (IndexBuildOp in operators) == (algorithm == "GREEDY")
    assert pinned(Executor(database, catalog).run(result.plan)) == NESTED_GOLDEN[
        algorithm
    ]


def aggregate_batch() -> List[Query]:
    """Three group-bys of one join: greedy materializes their combined
    aggregate and re-aggregates every query from it."""
    scan = Select(Relation("psp1"), ge(col("psp1", "num"), 900))
    joined = Join(scan, Relation("psp2"), eq(col("psp1", "sp"), col("psp2", "p")))
    total = AggregateFunction("sum", col("psp2", "num"), "total")
    return [
        Query(name, Aggregate(joined, (column,), (total,)))
        for name, column in (("by-p", col("psp1", "p")),
                             ("by-sp", col("psp1", "sp")),
                             ("by-num", col("psp2", "num")))
    ]


def regrouped(plan) -> bool:
    """True if some chosen aggregate reads another chosen aggregate."""
    op_operator = plan.dag.arena.op_operator
    op_children = plan.dag.arena.op_children
    for node_id in plan.reachable_ids():
        op_id = plan.choice_op[node_id]
        if op_id < 0 or not isinstance(op_operator[op_id], AggregateOp):
            continue
        child_op = plan.choice_op[op_children[op_id][0]]
        if child_op >= 0 and isinstance(op_operator[child_op], AggregateOp):
            return True
    return False


AGGREGATE_GOLDEN = {
    "VOLCANO_SH": (
        "bb3cd8f1584ec70bb9a2944bd89a5dfb991ded7ef97a057840ac1812f3df7b44",
        "600/552/32/26/1/2/0.106/0.005630400000000001",
    ),
    "GREEDY": (
        "bb3cd8f1584ec70bb9a2944bd89a5dfb991ded7ef97a057840ac1812f3df7b44",
        "600/616/32/26/1/2/0.106/0.005643200000000001",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(AGGREGATE_GOLDEN))
def test_aggregate_subsumption_batch_rows(psp, algorithm):
    catalog, database = psp
    result = MQOptimizer(catalog).optimize(aggregate_batch(), Algorithm[algorithm])
    assert regrouped(result.plan) == (algorithm == "GREEDY")
    assert pinned(Executor(database, catalog).run(result.plan)) == AGGREGATE_GOLDEN[
        algorithm
    ]


COVERING_GOLDEN = (
    "8ca55784dd49360d03f973a723d1aaab1608c67673ae833ae24dff6725a7a50b",
    "0/460/0/3/0/0/0.026000000000000002/0.000692",
)


def test_covering_cached_read_with_residual_rows(psp):
    catalog, database = psp

    def chain(threshold):
        scan = Select(Relation("psp1"), ge(col("psp1", "num"), threshold))
        return [Query(f"T{threshold}", Join(
            scan, Relation("psp2"), eq(col("psp1", "sp"), col("psp2", "p"))
        ))]

    session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
    executor = Executor(database, catalog, result_cache=session.result_cache)
    executor.run(session.optimize(chain(700), "greedy").plan)
    plan = session.optimize(chain(850), "greedy").plan
    operators = [plan.dag.arena.op_operator[op_id] for op_id in plan.choice_op if op_id >= 0]
    cached_reads = [operator for operator in operators if isinstance(operator, CachedReadOp)]
    assert any(read.residual is not None for read in cached_reads)
    result = executor.run(plan)
    assert session.result_cache.injected_serves >= 1
    assert pinned(result) == COVERING_GOLDEN


# ---------------------------------------------------------------------------
# Degenerate shapes, hand-built
# ---------------------------------------------------------------------------

def empty_scan(plan):
    return plan.scan("psp1", "e", gt(col("e", "num"), 10 ** 9))


def manual_empty_scan(plan):
    return [empty_scan(plan)]


def manual_empty_join_side(plan):
    left = plan.scan("psp1", "a", lt(col("a", "num"), 400))
    join = JoinOp((eq(col("a", "sp"), col("e", "p")),))
    return [plan.node(join, left, empty_scan(plan)),
            plan.node(join, empty_scan(plan), left)]


def manual_cross_product(plan):
    left = plan.scan("psp1", "a", lt(col("a", "num"), 300))
    right = plan.scan("psp2", "b", ge(col("b", "num"), 800))
    return [
        plan.node(JoinOp(()), left, right),
        plan.node(JoinOp((TruePredicate(),)), right, left),
        plan.node(JoinOp((lt(col("a", "p"), col("b", "sp")),)), left, right),
    ]


def manual_projections(plan):
    scan = plan.scan("psp1", "a", lt(col("a", "num"), 200))
    return [
        plan.node(ProjectOp((col("zz", "nothing"),)), scan),
        plan.node(ProjectOp((col("a", "num"), col("a", "p"))), scan),
        plan.node(ProjectOp((col("a", "sp"), col("zz", "nothing"))), scan),
    ]


def manual_shared_column_joins(plan):
    left = plan.scan("psp1", "x", lt(col("x", "num"), 250))
    right = plan.scan("psp2", "x", lt(col("x", "num"), 250))
    narrow = plan.node(ProjectOp((col("x", "p"),)), plan.scan("psp3", "x"))
    return [
        plan.node(JoinOp((eq(col("x", "p"), col("x", "sp")),
                          gt(col("x", "num"), 50))), left, right),
        plan.node(JoinOp((eq(col("x", "sp"), col("x", "p")),)), left, narrow),
        plan.node(JoinOp(()), narrow, plan.node(
            ProjectOp((col("x", "num"),)), right)),
    ]


def manual_aggregates(plan):
    scan = plan.scan("psp1", "a", lt(col("a", "num"), 500))
    aggregate = plan.node(AggregateOp(
        (col("a", "sp"), col("q", "missing"), col("b", "sp")),
        (
            AggregateFunction("sum", col("a", "num"), "total"),
            AggregateFunction("count", None, "n"),
            AggregateFunction("avg", col("q", "zz"), "nothing"),
            AggregateFunction("count", col("q", "zz"), "none_counted"),
            AggregateFunction("max", col("a", "num"), "sp"),
        ),
        "g",
    ), scan)
    return [
        aggregate,
        plan.node(SelectOp(gt(col("g", "nothing"), 0)), aggregate),
        plan.node(SelectOp(ge(col("g", "total"), 0)), aggregate),
        plan.node(AggregateOp((), (), "h"), scan),
        plan.node(AggregateOp((col("a", "p"),), (), "h"), empty_scan(plan)),
    ]


def manual_short_circuit(plan):
    scan = plan.scan("psp2", "a", lt(col("a", "num"), 600))
    return [
        plan.node(SelectOp(or_(ge(col("a", "num"), 0),
                               eq(col("a", "missing"), 1))), scan),
        plan.node(SelectOp(and_(lt(col("a", "num"), 0),
                                eq(col("a", "missing"), 1))), scan),
        plan.node(SelectOp(eq(col("a", "missing"), 1)), empty_scan(plan)),
        plan.node(SelectOp(TruePredicate()), scan),
    ]


def manual_nested_applies(plan):
    outer = plan.scan("psp1", "o", lt(col("o", "num"), 300))
    inner = plan.scan("psp2", "i", lt(col("i", "num"), 500))
    shared = plan.scan("psp3", "o", lt(col("o", "num"), 500))
    plan.materialized.add(inner.id)
    return [
        plan.node(NestedApplyOp(
            (eq(col("i", "p"), col("o", "sp")), lt(col("i", "num"), col("o", "num"))),
            1.0, aggregate=AggregateFunction("sum", col("i", "num"), "s"),
            outer_column=col("o", "num"), comparison=">",
        ), outer, inner),
        plan.node(NestedApplyOp(
            (lt(col("i", "sp"), col("o", "p")),), 1.0, name="correlated_apply",
            aggregate=AggregateFunction("count", None, "c"),
            outer_column=col("o", "p"), comparison=">=",
        ), outer, inner),
        plan.node(NestedApplyOp(
            (ge(col("o", "num"), 100),), 1.0,
            aggregate=AggregateFunction("max", col("o", "num"), "m"),
            outer_column=col("o", "num"), comparison="<",
        ), outer, shared),
        plan.node(NestedApplyOp(
            (eq(col("i", "p"), col("o", "missing")),), 1.0,
            aggregate=AggregateFunction("count", col("i", "num"), "c"),
            outer_column=col("o", "missing"), comparison="=",
        ), outer, inner),
    ]


MANUAL_CASES = {
    "empty-scan": manual_empty_scan,
    "empty-join-side": manual_empty_join_side,
    "cross-product": manual_cross_product,
    "projections": manual_projections,
    "shared-column-joins": manual_shared_column_joins,
    "aggregates": manual_aggregates,
    "short-circuit": manual_short_circuit,
    "nested-applies": manual_nested_applies,
}

MANUAL_GOLDEN = {
    "aggregates": (
        "d98cc08bc1b0cf41f28c2b23f18aecf7f3d7bf2e9db414a528c23c3bf54d844f",
        "150/90/0/10/0/0/0.07/0.0020480000000000003",
    ),
    "cross-product": (
        "999d90102f5158b13887158bf3370e60f36c10377adb6aec52a047f30a6d1386",
        "180/123/0/12/0/0/0.084/0.0024822000000000004",
    ),
    "empty-join-side": (
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
        "120/14/0/8/0/0/0.056/0.0016267999999999999",
    ),
    "empty-scan": (
        "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
        "30/0/0/2/0/0/0.014/0.000406",
    ),
    "nested-applies": (
        "93934e2f85cc395cecdf17eab8ff533c98d4734ae02375f0121f60021922f9da",
        "180/75/11/14/1/2/0.20600000000000007/0.0054532",
    ),
    "projections": (
        "6448f3378ad974a66d982452ab85f5af08b9b46f2e4300dc121e84c27df4b70c",
        "90/15/0/6/0/0/0.042/0.001221",
    ),
    "shared-column-joins": (
        "b8fc46bc9b17f5a6768c4bdbc1741bf8854ad40e450b435f88a8351f4db6e0c9",
        "180/235/0/12/0/0/0.084/0.0025009999999999993",
    ),
    "short-circuit": (
        "7d22dce14765b60df078323eca3d59ea0faa25e293f55990597d7c5ff8756379",
        "120/51/0/8/0/0/0.056/0.0016342",
    ),
}


@pytest.mark.parametrize("case", sorted(MANUAL_CASES))
def test_degenerate_plan_rows(psp_small, case):
    catalog, database = psp_small
    plan = ManualPlan()
    roots = MANUAL_CASES[case](plan)
    result = plan.run(Executor(database, catalog), *roots)
    assert len(result.per_query_rows) == len(roots)
    assert pinned(result) == MANUAL_GOLDEN[case]


def test_missing_predicate_column_raises_key_error(psp_small):
    catalog, database = psp_small
    plan = ManualPlan()
    scan = plan.scan("psp1", "a")
    root = plan.node(SelectOp(eq(col("a", "missing"), 1)), scan)
    with pytest.raises(KeyError):
        plan.run(Executor(database, catalog), root)
