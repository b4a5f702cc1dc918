"""Join costing: the ``JoinInput`` kernel against the ``Cost``-object formulas.

:func:`repro.cost.algorithms.choose_join` prices each join from two
per-node :class:`~repro.cost.algorithms.JoinInput` records with scalar float
arithmetic.  The oracle below is a verbatim transcription of the previous
``LogicalProperties``-based pricing (block nested loops, merge, index nested
loops over ``Cost`` objects, plus the builder's delivered-order rule); the
only edit is that the oracle returns ``(name, cost)`` instead of an
``AlgorithmChoice`` carrying a delivered order nobody read.  The kernel
returns ``(name, io, cpu)``; every test requires bit-identical names and
costs, and ``io + cpu`` bit-identical to the oracle's ``Cost.total``.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import and_, col, eq, lt
from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Comparison, Predicate
from repro.api import MQOptimizer
from repro.catalog import Catalog, psp_catalog
from repro.catalog.schema import make_table
from repro.cost import algorithms as alg
from repro.cost.estimation import ColumnStats, LogicalProperties
from repro.cost.model import Cost, CostModel
from repro.dag.nodes import JoinOp
from repro.workloads.scaleup import scaleup_queries

MB = 1024 * 1024
#: The Section 6.4 memory sizes; 6 MB is the default model.
MODELS = tuple(CostModel().with_memory(size * MB) for size in (6, 32, 128))


# ---------------------------------------------------------------------------
# Oracle: the previous Cost-object pricing, transcribed verbatim
# ---------------------------------------------------------------------------

def block_nested_loops_join_cost(
    model: CostModel,
    outer: LogicalProperties,
    inner: LogicalProperties,
    output_rows: float,
) -> Cost:
    outer_blocks = model.blocks(outer.rows, outer.tuple_width)
    inner_blocks = model.blocks(inner.rows, inner.tuple_width)
    per_tuple = model.cpu_time_per_tuple
    compare_cpu = Cost(
        0.0,
        outer.rows * inner.rows * per_tuple + output_rows * per_tuple,
    )
    if inner_blocks <= model.memory_blocks - 2:
        return compare_cpu
    return model.nested_loops_spill_cost(outer_blocks, inner_blocks) + compare_cpu


def merge_join_cost(
    model: CostModel,
    left: LogicalProperties,
    right: LogicalProperties,
    output_rows: float,
    left_sorted: bool = False,
    right_sorted: bool = False,
) -> Cost:
    cost: Optional[Cost] = None
    if not left_sorted:
        cost = model.external_sort(model.blocks(left.rows, left.tuple_width), left.rows)
    if not right_sorted:
        right_sort = model.external_sort(model.blocks(right.rows, right.tuple_width), right.rows)
        cost = right_sort if cost is None else cost + right_sort
    scan = model.cpu(0, left.rows + right.rows + output_rows)
    return scan if cost is None else cost + scan


def index_nested_loops_join_cost(
    model: CostModel,
    outer: LogicalProperties,
    inner_table_rows: float,
    inner_tuple_width: float,
    matches_per_probe: float,
    output_rows: float,
    clustered: bool,
) -> Cost:
    probe = model.index_probe_cost(matches_per_probe, inner_tuple_width)
    if not clustered:
        probe = probe + model.random_reads(max(0.0, matches_per_probe - 1.0))
    return probe.scaled(max(1.0, outer.rows)) + model.cpu(0, output_rows)


def _equi_join_columns(predicates: Sequence[Predicate]) -> Sequence[Tuple[ColumnRef, ColumnRef]]:
    if not predicates:
        return ()
    pairs = []
    for predicate in predicates:
        for conjunct in predicate.conjuncts():
            if isinstance(conjunct, Comparison) and conjunct.op == "=" and conjunct.is_column_column():
                pairs.append((conjunct.left, conjunct.right))
    return pairs


def oracle_choose_join(
    model: CostModel,
    catalog: Catalog,
    left: LogicalProperties,
    right: LogicalProperties,
    predicates: Sequence[Predicate],
    output_rows: float,
    left_order: Tuple[ColumnRef, ...] = (),
    right_order: Tuple[ColumnRef, ...] = (),
    right_base_table: Optional[str] = None,
    right_alias: Optional[str] = None,
) -> Tuple[str, Cost]:
    best_cost = block_nested_loops_join_cost(model, left, right, output_rows)
    best_name = "block_nested_loops_join"
    best_total = best_cost.io + best_cost.cpu
    equi_columns = _equi_join_columns(predicates)
    if equi_columns:
        left_cols = {c for pair in equi_columns for c in pair}
        left_sorted = bool(left_order) and left_order[0] in left_cols
        right_sorted = bool(right_order) and right_order[0] in left_cols
        merge = merge_join_cost(model, left, right, output_rows, left_sorted, right_sorted)
        merge_total = merge.io + merge.cpu
        if merge_total < best_total:
            best_cost, best_name, best_total = merge, "merge_join", merge_total
        if right_base_table is not None and right_alias is not None:
            table = catalog.table(right_base_table)
            for left_col, right_col in equi_columns:
                for candidate in (left_col, right_col):
                    if candidate.relation != right_alias:
                        continue
                    index = table.index_on(candidate.column)
                    if index is None:
                        continue
                    matches = right.rows / max(1.0, right.distinct(candidate))
                    inl = index_nested_loops_join_cost(
                        model,
                        left,
                        right.rows,
                        right.tuple_width,
                        matches,
                        output_rows,
                        index.clustered,
                    )
                    inl_total = inl.io + inl.cpu
                    if inl_total < best_total:
                        best_cost, best_total = inl, inl_total
                        best_name = f"index_nested_loops_join({candidate.column})"
    return best_name, best_cost


def oracle_delivered_order(
    catalog: Catalog, base_table: Optional[str], scan_alias: Optional[str]
) -> Tuple[ColumnRef, ...]:
    """The builder's former ``_delivered_order``: clustered order of a scan."""
    if base_table is None or scan_alias is None:
        return ()
    index = catalog.table(base_table).clustered_index()
    return () if index is None else (ColumnRef(scan_alias, index.column),)


# ---------------------------------------------------------------------------
# Fixtures: one outer table and right tables with each index kind
# ---------------------------------------------------------------------------

def _catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_table("lt", 50_000, [("a", 8, 50_000), ("b", 8, 100)], primary_key="a"))
    # The right tables share a schema: (k, v), indexed differently on k.
    spec = [("k", 8, 20_000), ("v", 8, 20_000)]
    catalog.add_table(make_table("rc", 20_000, spec, primary_key="k"))
    catalog.add_table(make_table("rs", 20_000, spec, extra_indexes=("k", "v")))
    catalog.add_table(make_table("rn", 20_000, spec))
    return catalog


CATALOG = _catalog()

#: Right-input kinds: a scan of a table with a clustered, secondary or no
#: index on ``k``, or an intermediate result (no base table at all).
RIGHT_KINDS = ("rc", "rs", "rn", None)

#: Join-predicate shapes between ``l`` (outer) and ``r`` (inner).
PREDICATE_SHAPES = {
    "cross": (),
    "equi": (eq(col("l", "a"), col("r", "k")),),
    "equi_flipped": (eq(col("r", "k"), col("l", "a")),),
    "equi_unsorted_outer": (eq(col("l", "b"), col("r", "k")),),
    "non_equi": (lt(col("l", "a"), col("r", "k")),),
    "equi_and_non_equi": (and_(eq(col("l", "b"), col("r", "v")), lt(col("l", "a"), col("r", "k"))),),
    "two_equi": (eq(col("l", "b"), col("r", "v")), eq(col("l", "a"), col("r", "k"))),
}


def _props(alias: str, names: Tuple[str, str], rows: float, widths: Tuple[int, int],
           distinct: Tuple[float, float]) -> LogicalProperties:
    return LogicalProperties(
        rows,
        {
            ColumnRef(alias, names[0]): ColumnStats(distinct[0], widths[0]),
            ColumnRef(alias, names[1]): ColumnStats(distinct[1], widths[1]),
        },
    )


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _both(model, left_props, right_props, predicates, output_rows,
          left_base: Optional[str], right_base: Optional[str]):
    """``(oracle, kernel)`` results for one join, inputs aliased ``l``/``r``."""
    left_alias = "l" if left_base is not None else None
    right_alias = "r" if right_base is not None else None
    expected = oracle_choose_join(
        model, CATALOG, left_props, right_props, predicates, output_rows,
        left_order=oracle_delivered_order(CATALOG, left_base, left_alias),
        right_order=oracle_delivered_order(CATALOG, right_base, right_alias),
        right_base_table=right_base,
        right_alias=right_alias,
    )
    got = alg.choose_join(
        model, CATALOG,
        alg.JoinInput(model, CATALOG, left_props, left_base, left_alias),
        alg.JoinInput(model, CATALOG, right_props, right_base, right_alias),
        predicates, output_rows,
    )
    return expected, got


def _assert_identical(expected: Tuple[str, Cost], got: Tuple[str, float, float]) -> None:
    name, cost = expected
    assert type(got) is tuple  # no AlgorithmChoice or Cost per call
    got_name, io, cpu = got
    assert got_name == name
    assert _bits(io + cpu) == _bits(cost.total)
    assert (_bits(io), _bits(cpu)) == (_bits(cost.io), _bits(cost.cpu))


rows_st = st.one_of(
    st.floats(min_value=0.0, max_value=5e6, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=5_000_000).map(float),
)
width_st = st.integers(min_value=1, max_value=600)
distinct_st = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestKernelMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        shape=st.sampled_from(sorted(PREDICATE_SHAPES)),
        left_base=st.sampled_from(("lt", None)),
        right_base=st.sampled_from(RIGHT_KINDS),
        left_rows=rows_st,
        right_rows=rows_st,
        output_rows=rows_st,
        left_widths=st.tuples(width_st, width_st),
        right_widths=st.tuples(width_st, width_st),
        left_distinct=st.tuples(distinct_st, distinct_st),
        right_distinct=st.tuples(distinct_st, distinct_st),
    )
    def test_random_inputs(self, model, shape, left_base, right_base, left_rows, right_rows,
                           output_rows, left_widths, right_widths, left_distinct,
                           right_distinct):
        left = _props("l", ("a", "b"), left_rows, left_widths, left_distinct)
        right = _props("r", ("k", "v"), right_rows, right_widths, right_distinct)
        expected, got = _both(model, left, right, PREDICATE_SHAPES[shape], output_rows,
                              left_base, right_base)
        _assert_identical(expected, got)

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        shape=st.sampled_from(("equi", "equi_unsorted_outer", "two_equi")),
        left_base=st.sampled_from(("lt", None)),
        right_base=st.sampled_from(("rc", "rn", None)),
        left_rows=st.floats(min_value=1e4, max_value=5e6),
        right_rows=st.floats(min_value=1e4, max_value=5e6),
        output_rows=st.floats(min_value=1.0, max_value=5e6),
        widths=st.tuples(width_st, width_st),
    )
    def test_random_large_equi_joins(self, model, shape, left_base, right_base, left_rows,
                                     right_rows, output_rows, widths):
        """Large equi-joins, where merge join usually wins: its float folds
        are compared, not just beaten by block nested loops."""
        left = _props("l", ("a", "b"), left_rows, widths, (left_rows, left_rows))
        right = _props("r", ("k", "v"), right_rows, widths, (right_rows, right_rows))
        expected, got = _both(model, left, right, PREDICATE_SHAPES[shape], output_rows,
                              left_base, right_base)
        _assert_identical(expected, got)

    def test_grid_reaches_every_branch(self):
        """A fixed grid over every model, shape and right kind: identical
        results, and the grid reaches both block nested-loops branches,
        presorted merges and every winner (so the property above is not
        vacuous on the branches that matter)."""
        winners = set()
        bnl_branches = set()
        presorted = set()
        for model in MODELS:
            for shape, predicates in PREDICATE_SHAPES.items():
                for left_base in ("lt", None):
                    for right_base in RIGHT_KINDS:
                        for left_rows in (1.0, 300.0, 40_000.0, 2e6):
                            for right_rows in (2.0, 5_000.0, 400_000.0):
                                left = _props("l", ("a", "b"), left_rows, (8, 8), (left_rows, 50.0))
                                right = _props("r", ("k", "v"), right_rows, (40, 80),
                                               (right_rows, right_rows / 3))
                                expected, got = _both(model, left, right, predicates,
                                                      left_rows * 0.5, left_base, right_base)
                                _assert_identical(expected, got)
                                winners.add(got[0])
                                right_input = alg.JoinInput(model, CATALOG, right, right_base,
                                                            "r" if right_base else None)
                                bnl_branches.add(right_input.blocks <= model.memory_blocks - 2)
                                if left_base is not None and shape == "equi":
                                    presorted.add(right_base == "rc")
        assert bnl_branches == {True, False}
        assert presorted == {True, False}
        assert {"block_nested_loops_join", "merge_join", "index_nested_loops_join(k)",
                "index_nested_loops_join(v)"} <= winners


class TestKernelUnits:
    def test_in_memory_block_nested_loops_has_no_io(self):
        model = MODELS[0]
        left = _props("l", ("a", "b"), 1_000.0, (8, 8), (1_000.0, 10.0))
        right = _props("r", ("k", "v"), 500.0, (8, 8), (500.0, 10.0))
        right_input = alg.JoinInput(model, CATALOG, right)
        assert right_input.blocks <= model.memory_blocks - 2
        name, io, cpu = alg.choose_join(model, CATALOG, alg.JoinInput(model, CATALOG, left),
                                        right_input, (), 700.0)
        per_tuple = model.cpu_time_per_tuple
        assert name == "block_nested_loops_join"
        assert io == 0.0
        assert cpu == 1_000.0 * 500.0 * per_tuple + 700.0 * per_tuple

    @pytest.mark.parametrize("model", MODELS, ids=("6MB", "32MB", "128MB"))
    def test_block_nested_loops_memory_boundary(self, model):
        """An inner of ``memory_blocks - 2`` blocks stays in memory; one more
        block spills it."""
        per_block = model.block_size // 16
        left = _props("l", ("a", "b"), 10.0, (8, 8), (10.0, 10.0))
        for blocks, spills in ((model.memory_blocks - 2, False), (model.memory_blocks - 1, True)):
            rows = float(blocks * per_block)
            right = _props("r", ("k", "v"), rows, (8, 8), (rows, rows))
            expected, got = _both(model, left, right, (), 10.0, None, None)
            _assert_identical(expected, got)
            assert alg.JoinInput(model, CATALOG, right).blocks == blocks
            assert (got[1] > 0.0) is spills

    def test_tie_between_index_probes_keeps_the_first(self):
        """Two index nested-loops candidates with equal prices: the one whose
        equi-join pair comes first wins, whichever order the pairs are in."""
        model = MODELS[0]
        left = _props("l", ("a", "b"), 3.0, (8, 8), (3.0, 3.0))
        right = _props("r", ("k", "v"), 5e6, (8, 8), (5e6, 5e6))
        left_input = alg.JoinInput(model, CATALOG, left)
        right_input = alg.JoinInput(model, CATALOG, right, "rs", "r")
        on_k = eq(col("l", "a"), col("r", "k"))
        on_v = eq(col("l", "b"), col("r", "v"))
        name_k, io_k, cpu_k = alg.choose_join(
            model, CATALOG, left_input, right_input, (on_k, on_v), 3.0
        )
        name_v, io_v, cpu_v = alg.choose_join(
            model, CATALOG, left_input, right_input, (on_v, on_k), 3.0
        )
        assert name_k == "index_nested_loops_join(k)"
        assert name_v == "index_nested_loops_join(v)"
        assert io_k + cpu_k == io_v + cpu_v

    def test_tie_between_nested_loops_and_merge_keeps_nested_loops(self):
        """Both inputs presorted on the join column, 2 x 2 rows and no output:
        the merge pass costs exactly the nested-loops comparisons."""
        model = MODELS[0]
        left = _props("l", ("a", "b"), 2.0, (8, 8), (2.0, 2.0))
        right = _props("r", ("k", "v"), 2.0, (8, 8), (2.0, 2.0))
        bnl = block_nested_loops_join_cost(model, left, right, 0.0)
        merge = merge_join_cost(model, left, right, 0.0, left_sorted=True, right_sorted=True)
        assert bnl.total == merge.total
        name, io, cpu = alg.choose_join(
            model, CATALOG,
            alg.JoinInput(model, CATALOG, left, "lt", "l"),
            alg.JoinInput(model, CATALOG, right, "rc", "r"),
            PREDICATE_SHAPES["equi"], 0.0,
        )
        assert name == "block_nested_loops_join"
        assert io + cpu == bnl.total

    def test_join_input_delivered_order(self):
        model = MODELS[0]
        props = _props("r", ("k", "v"), 10.0, (8, 8), (10.0, 10.0))
        assert alg.JoinInput(model, CATALOG, props, "rc", "r").lead == ColumnRef("r", "k")
        assert alg.JoinInput(model, CATALOG, props, "rs", "r").lead is None
        assert alg.JoinInput(model, CATALOG, props, "rn", "r").lead is None
        assert alg.JoinInput(model, CATALOG, props).lead is None


class TestJoinInputWorkCount:
    def test_one_join_input_per_distinct_join_child(self, monkeypatch):
        """A cold CQ5 build constructs one ``JoinInput`` per equivalence node
        that is an input of some join, not one per join operation."""
        constructed = []
        original_init = alg.JoinInput.__init__

        def counting_init(self, model, catalog, props, base_table=None, alias=None):
            constructed.append(1)
            original_init(self, model, catalog, props, base_table, alias)

        monkeypatch.setattr(alg.JoinInput, "__init__", counting_init)
        dag = MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
        arena = dag.arena
        join_ops = [
            op_id for op_id, operator in enumerate(arena.op_operator)
            if isinstance(operator, JoinOp)
        ]
        children = {child for op_id in join_ops for child in arena.op_children[op_id]}
        assert len(constructed) == len(children)
        assert len(constructed) < len(join_ops)


def test_equi_join_pairs_match_the_oracle_extraction():
    for predicates in PREDICATE_SHAPES.values():
        expected = list(_equi_join_columns(predicates))
        got = [pair for predicate in predicates for pair in predicate.equi_join_pairs()]
        assert got == expected
