"""Cost functions for the physical algorithms of the paper's optimizer.

Section 6 lists the implementation algorithms of the testbed optimizer:
*sort-based aggregation, merge join, nested loops join, indexed join, indexed
select and relation scan*.  This module prices each of them with the block
model of :class:`repro.cost.model.CostModel`, given the estimated logical
properties of the inputs, and provides ``choose_*`` helpers that return the
cheapest applicable algorithm for an operation node — that choice is how
physical plan selection enters the AND-OR DAG costing.

Joins are priced from :class:`JoinInput` records rather than from raw
properties: everything a join's price depends on besides its predicates and
output size (rows, blocks, sort cost, delivered order, base table) is fixed
per input equivalence node, so the DAG builder computes each node's record
once and :func:`choose_join` only combines two of them.  It is the one
chooser called per join operation, so it returns plain ``(name, io, cpu)``
floats rather than an :class:`AlgorithmChoice`.

Inputs are assumed to be pipelined (iterator model); whenever an algorithm
needs to revisit its input (the inner of a nested-loops join, the runs of an
external sort) the cost of buffering/spilling is charged to the algorithm
itself, which keeps the paper's additive cost formula
``cost(o) = exec(o) + Σ cost(e_i)`` valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Comparison, Predicate
from repro.catalog.catalog import Catalog
from repro.cost.estimation import LogicalProperties
from repro.cost.model import Cost, CostModel


@dataclass(frozen=True)
class AlgorithmChoice:
    """The algorithm selected for an operation node and its execution cost."""

    name: str
    cost: Cost

    @property
    def total(self) -> float:
        return self.cost.total


# ---------------------------------------------------------------------------
# Scans and selections
# ---------------------------------------------------------------------------

def table_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, output_rows: float
) -> Cost:
    """Full sequential scan of a base table, applying any filter on the fly."""
    blocks = model.blocks(table_rows, tuple_width)
    return model.sequential_read(blocks) + model.cpu(0, table_rows + output_rows)


def clustered_index_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, matching_rows: float
) -> Cost:
    """Range/equality scan through a clustered index.

    Only the fraction of blocks containing matching rows is read (plus the
    index descent, charged as one probe).
    """
    matching_blocks = model.blocks(matching_rows, tuple_width)
    descent = model.random_reads(1, model.index_probe_ios)
    return descent + model.sequential_read(matching_blocks) + model.cpu(0, matching_rows)


def secondary_index_scan_cost(
    model: CostModel, table_rows: float, tuple_width: float, matching_rows: float
) -> Cost:
    """Lookup through a non-clustered index: one random read per matching row."""
    return model.random_reads(max(1.0, matching_rows)) + model.cpu(0, matching_rows)


def filter_cost(model: CostModel, input_rows: float, output_rows: float) -> Cost:
    """A pipelined selection over an intermediate result (CPU only)."""
    return model.cpu(0, input_rows + output_rows)


def project_cost(model: CostModel, input_rows: float) -> Cost:
    """A pipelined projection (CPU only)."""
    return model.cpu(0, input_rows)


def cached_read_cost(
    model: CostModel,
    cached_rows: float,
    cached_blocks: float,
    output_rows: float,
    residual: bool,
) -> Cost:
    """Serving a node from the cross-batch result cache.

    The cached intermediate is read back sequentially from its stored
    blocks; a *covering* hit additionally pays a pipelined compensating
    selection over the cached rows (mirroring :func:`filter_cost`).  This is
    the reuse-cost model for the ``CachedReadOp`` operations injected by
    :func:`repro.dag.subsumption.inject_cached_results` — exactly how the
    paper prices reading a materialized result, which keeps injected
    derivations comparable with every other operation in the DAG's additive
    cost recurrence.
    """
    cost = model.sequential_read(cached_blocks)
    if residual:
        cost = cost + model.cpu(0, cached_rows + output_rows)
    return cost


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

class JoinInput:
    """The per-input values join pricing reads, fixed per equivalence node.

    Each is a pure function of the input's estimated properties, its base
    table and scan alias, the catalog and the cost model, so the DAG builder
    constructs one per input node and reuses it for every join operation the
    node takes part in.

    * ``rows``, ``width`` and ``blocks`` size the input;
    * ``sort`` is the :meth:`~repro.cost.model.CostModel.external_sort` cost
      a merge join pays when the input is not already ordered;
    * ``lead`` is the leading column of the order the input delivers: a scan
      of a base table inherits its clustered-index order, which is what makes
      merge joins on primary-key join columns cheap without explicit sorts.
      Intermediate results conservatively deliver no order (``None``);
    * ``base_table``/``alias`` are set when the input is a plain (optionally
      filtered) base-table scan, which enables index nested-loops joins
      through an index on the join column; ``props`` supplies the distinct
      counts that branch reads.
    """

    __slots__ = ("props", "rows", "width", "blocks", "sort", "lead", "base_table", "alias")

    def __init__(
        self,
        model: CostModel,
        catalog: Catalog,
        props: LogicalProperties,
        base_table: Optional[str] = None,
        alias: Optional[str] = None,
    ) -> None:
        rows = props.rows
        width = props.schema.tuple_width
        blocks = model.blocks(rows, width)
        lead: Optional[ColumnRef] = None
        if base_table is not None and alias is not None:
            index = catalog.table(base_table).clustered_index()
            if index is not None:
                lead = ColumnRef(alias, index.column)
        self.props = props
        self.rows = rows
        self.width = width
        self.blocks = blocks
        self.sort = model.external_sort(blocks, rows)
        self.lead = lead
        self.base_table = base_table
        self.alias = alias


def _sorted_on(lead: Optional[ColumnRef], pairs: Sequence[Tuple[ColumnRef, ColumnRef]]) -> bool:
    """True if an input ordered on *lead* is ordered on some equi-join column."""
    if lead is None:
        return False
    for left_col, right_col in pairs:
        if lead == left_col or lead == right_col:
            return True
    return False


def choose_join(
    model: CostModel,
    catalog: Catalog,
    left: JoinInput,
    right: JoinInput,
    predicates: Sequence[Predicate],
    output_rows: float,
) -> Tuple[str, float, float]:
    """Pick the cheapest join algorithm for one operation node.

    Candidates, in order: block nested loops (always applicable), then merge
    join and index nested loops (only with an equi-join predicate; the latter
    only when *right* is a base-table scan with an index on its join column).
    Ties resolve to the earliest candidate (strict ``<``).

    Returns ``(name, io, cpu)`` of the winner and builds no object: the
    builder prices every partition of a sub-set with it, and stores
    ``io + cpu``, the float :attr:`~repro.cost.model.Cost.total` gives.
    Each candidate is priced as a scalar ``(io, cpu)`` pair with the float
    operations of the cost-model primitives, in their order.  The one step
    dropped is adding a primitive's zero term (the ``0.0`` I/O of a CPU
    cost, the ``0 * cpu_time_per_block`` of ``CostModel.cpu(0, rows)``):
    adding ``+0.0`` to a non-negative float returns it unchanged, so every
    total is bit-identical to pricing with ``Cost`` objects
    (``tests/test_join_costing.py`` checks this against the ``Cost``-based
    formulas).
    """
    per_tuple = model.cpu_time_per_tuple
    # Block nested loops: the inner is buffered; if it does not fit in memory
    # it is spilled to a temporary once and re-read for every memory-full
    # chunk of the outer.  The quadratic comparison CPU is what makes merge
    # or index joins preferable for large inputs (the paper's operator set
    # has no hash join).
    best_cpu = left.rows * right.rows * per_tuple + output_rows * per_tuple
    if right.blocks <= model.memory_blocks - 2:
        best_io = 0.0
    else:
        spill = model.nested_loops_spill_cost(left.blocks, right.blocks)
        best_io = spill.io
        best_cpu = spill.cpu + best_cpu
    best_total = best_io + best_cpu
    best_name = "block_nested_loops_join"
    if len(predicates) == 1:
        pairs = predicates[0].equi_join_pairs()
    else:
        pairs = tuple(pair for predicate in predicates for pair in predicate.equi_join_pairs())
    if not pairs:
        return best_name, best_io, best_cpu
    # Merge join: sort each input not already ordered on a join column, then
    # one merging pass.
    scan_cpu = (left.rows + right.rows + output_rows) * per_tuple
    if _sorted_on(left.lead, pairs):
        if _sorted_on(right.lead, pairs):
            io, cpu = 0.0, scan_cpu
        else:
            io, cpu = right.sort.io, right.sort.cpu + scan_cpu
    else:
        io, cpu = left.sort
        if not _sorted_on(right.lead, pairs):
            io, cpu = io + right.sort.io, cpu + right.sort.cpu
        cpu = cpu + scan_cpu
    total = io + cpu
    if total < best_total:
        best_io, best_cpu, best_total, best_name = io, cpu, total, "merge_join"
    # Index nested loops: one index probe into the base-table inner per outer
    # row; through a non-clustered index every further matching row may live
    # in its own block.
    base_table, alias = right.base_table, right.alias
    if base_table is not None and alias is not None:
        table = catalog.table(base_table)
        for left_col, right_col in pairs:
            for candidate in (left_col, right_col):
                if candidate.relation != alias:
                    continue
                index = table.index_on(candidate.column)
                if index is None:
                    continue
                matches = right.rows / max(1.0, right.props.distinct(candidate))
                io, cpu = model.index_probe_cost(matches, right.width)
                if not index.clustered:
                    extra = max(0.0, matches - 1.0)
                    io = io + extra * (model.seek_time + model.read_time_per_block)
                    cpu = cpu + extra * model.cpu_time_per_block
                scale = max(1.0, left.rows)
                io = io * scale
                cpu = cpu * scale + output_rows * per_tuple
                total = io + cpu
                if total < best_total:
                    best_io, best_cpu, best_total = io, cpu, total
                    best_name = f"index_nested_loops_join({candidate.column})"
    return best_name, best_io, best_cpu


# ---------------------------------------------------------------------------
# Aggregation and sorting
# ---------------------------------------------------------------------------

def sort_aggregate_cost(
    model: CostModel, child: LogicalProperties, output_rows: float, child_sorted: bool = False
) -> Cost:
    """Sort-based group-by aggregation."""
    cost = Cost()
    if not child_sorted:
        cost = cost + model.external_sort(model.blocks(child.rows, child.tuple_width), child.rows)
    return cost + model.cpu(0, child.rows + output_rows)


# ---------------------------------------------------------------------------
# Algorithm choice helpers used by the DAG builder
# ---------------------------------------------------------------------------

def choose_scan(
    model: CostModel,
    catalog: Catalog,
    table_name: str,
    predicate: Optional[Predicate],
    base: LogicalProperties,
    output: LogicalProperties,
) -> AlgorithmChoice:
    """Pick the cheapest access path for scanning ``table_name`` with a filter."""
    table = catalog.table(table_name)
    # Scalar best-tracking with a strict ``<`` in the historical candidate
    # order — ties resolve to the earliest candidate exactly as the previous
    # ``min``-over-a-list did (see ``choose_join``).
    best_cost = table_scan_cost(model, base.rows, base.tuple_width, output.rows)
    best_name = "table_scan"
    best_total = best_cost.io + best_cost.cpu
    if predicate is not None:
        for conjunct in predicate.conjuncts():
            if not isinstance(conjunct, Comparison):
                continue
            normalized = conjunct.normalized()
            if not normalized.is_column_constant():
                continue
            index = table.index_on(normalized.left.column)
            if index is None:
                continue
            if index.clustered:
                cost = clustered_index_scan_cost(model, base.rows, base.tuple_width, output.rows)
            else:
                cost = secondary_index_scan_cost(model, base.rows, base.tuple_width, output.rows)
            total = cost.io + cost.cpu
            if total < best_total:
                best_cost, best_total = cost, total
                best_name = f"index_scan({index.column})"
    return AlgorithmChoice(best_name, best_cost)


def choose_aggregate(
    model: CostModel,
    child: LogicalProperties,
    group_by: Sequence[ColumnRef],
    output_rows: float,
) -> AlgorithmChoice:
    """Pick the aggregation strategy (sort-based, per the paper's operator set);
    without grouping columns there is nothing to sort."""
    cost = sort_aggregate_cost(model, child, output_rows, child_sorted=not group_by)
    return AlgorithmChoice("sort_aggregate", cost)
