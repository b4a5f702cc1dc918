"""Physical operator implementations for the simulated executor.

Every operator consumes and produces a :class:`RowSet`: one ``columns``
schema (a tuple of :class:`~repro.algebra.columns.ColumnRef`, no column
twice) and ``rows``, a tuple of plain tuples of atoms in schema order.  Rows
of atoms are not tracked by the garbage collector, and a row set is
immutable, so the executor and the result cache share row sets without
copying them.  Predicates are compiled once per operator call against the
input schema (:func:`compile_predicate`) into index lookups.

A row set means what its rows as dictionaries keyed by ``ColumnRef``
(:meth:`RowSet.as_dicts`) mean, edge cases included: a column present on
both sides of a join (or of a nested apply's merge) keeps its first position
and takes the second side's value, as ``dict.update`` does; a missing
group-by or aggregate column reads as ``None``, as ``dict.get`` does; and a
projection that keeps no column keeps the whole row.

The executor is correctness- and work-accounting oriented rather than
performance oriented: joins are evaluated as hash joins on their equality
conjuncts (the choice of join algorithm does not change the result, and the
*work accounting* — rows touched, bytes materialized — is derived from the
logical amount of data flowing through the plan, priced with the optimizer's
own cost-model constants).
"""

from __future__ import annotations

import operator as _op
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.algebra.columns import ColumnRef, Constant
from repro.algebra.expressions import AggregateFunction
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Predicate,
    TruePredicate,
)
from repro.cost.model import CostModel

Columns = Tuple[ColumnRef, ...]
Row = Tuple[object, ...]
RowTest = Callable[[Row], object]
RowGetter = Callable[[Row], Row]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed."""


class RowSet(NamedTuple):
    """One schema and the rows under it."""

    columns: Columns
    rows: Tuple[Row, ...]

    def as_dicts(self) -> List[Dict[ColumnRef, object]]:
        """The rows as dictionaries keyed by column, in schema order."""
        columns = self.columns
        return [dict(zip(columns, row)) for row in self.rows]


@dataclass
class ExecutionStats:
    """Work performed while executing a plan."""

    rows_scanned: int = 0
    rows_processed: int = 0
    rows_materialized: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    reuses: int = 0

    @property
    def simulated_seconds(self) -> float:
        """Total simulated elapsed time (the Figure 7 metric)."""
        return self.io_seconds + self.cpu_seconds

    def merge(self, other: "ExecutionStats") -> None:
        self.rows_scanned += other.rows_scanned
        self.rows_processed += other.rows_processed
        self.rows_materialized += other.rows_materialized
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.io_seconds += other.io_seconds
        self.cpu_seconds += other.cpu_seconds
        self.reuses += other.reuses


def row_bytes(row: Row) -> int:
    """Approximate width of a row in bytes (for block accounting)."""
    total = 0
    for value in row:
        if isinstance(value, str):
            total += max(1, len(value))
        else:
            total += 8
    return max(8, total)


def rows_blocks(rows: RowSet, model: CostModel) -> int:
    """Number of blocks a row set occupies."""
    if not rows.rows:
        return 1
    return max(1, (len(rows.rows) * row_bytes(rows.rows[0]) + model.block_size - 1) // model.block_size)


# ---------------------------------------------------------------------------
# Schema helpers and predicate compilation
# ---------------------------------------------------------------------------

def _positions(columns: Columns) -> Dict[ColumnRef, int]:
    return {column: index for index, column in enumerate(columns)}


def _tuple_getter(indices: Sequence[Optional[int]]) -> RowGetter:
    """A function building the tuple of ``row[i]`` for *indices*; a ``None``
    index reads as the value ``None`` (a missing column)."""
    if None in indices:
        return lambda row: tuple(None if i is None else row[i] for i in indices)
    if not indices:
        return lambda row: ()
    if len(indices) == 1:
        only = indices[0]
        return lambda row: (row[only],)
    return _op.itemgetter(*indices)


def _merged_schema(first: Columns, second: Columns) -> Tuple[Columns, Optional[RowGetter]]:
    """Schema of the rows ``first_row + second_row`` merged the way
    ``dict.update`` merged two dictionary rows: a column of both sides keeps
    its first position and takes the second side's value.  The getter maps
    a concatenated row onto that schema; it is ``None`` when the sides share
    no column and the concatenation already is the merged row."""
    if set(first).isdisjoint(second):
        return first + second, None
    slots = _positions(first)
    offset = len(first)
    for index, column in enumerate(second):
        slots[column] = offset + index
    return tuple(slots), _tuple_getter(tuple(slots.values()))


_COMPARE: Dict[str, Callable[[object, object], object]] = {
    "=": _op.eq,
    "!=": _op.ne,
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
}


def _missing_column(column: ColumnRef) -> RowTest:
    """A test that raises ``KeyError`` like a dictionary lookup of *column*."""
    def test(row: Row) -> object:
        raise KeyError(column)
    return test


def _compile_comparison(comparison: Comparison, positions: Dict[ColumnRef, int]) -> RowTest:
    """``left op right`` with ``None`` on either side false, both operands
    read before the test (so a missing column always raises)."""
    compare = _COMPARE[comparison.op]
    left, right = comparison.left, comparison.right
    for operand in (left, right):
        if isinstance(operand, ColumnRef) and operand not in positions:
            return _missing_column(operand)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        i, j = positions[left], positions[right]
        return lambda row: (
            (x := row[i]) is not None and (y := row[j]) is not None and compare(x, y)
        )
    if isinstance(left, ColumnRef):
        assert isinstance(right, Constant)
        i, value = positions[left], right.value
        if value is None:
            return lambda row: False
        return lambda row: (v := row[i]) is not None and compare(v, value)
    assert isinstance(left, Constant)
    if isinstance(right, ColumnRef):
        j, value = positions[right], left.value
        if value is None:
            return lambda row: False
        return lambda row: (v := row[j]) is not None and compare(value, v)
    a, b = left.value, right.value
    if a is None or b is None:
        return lambda row: False
    return lambda row: compare(a, b)


def _all_of(tests: Sequence[RowTest]) -> RowTest:
    if len(tests) == 1:
        return tests[0]
    return lambda row: all(test(row) for test in tests)


def _any_of(tests: Sequence[RowTest]) -> RowTest:
    if len(tests) == 1:
        return tests[0]
    return lambda row: any(test(row) for test in tests)


def _compile(predicate: Predicate, positions: Dict[ColumnRef, int]) -> RowTest:
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate, positions)
    if isinstance(predicate, (Conjunction, Disjunction)):
        tests = [_compile(child, positions) for child in predicate.children]
        return _all_of(tests) if isinstance(predicate, Conjunction) else _any_of(tests)
    if isinstance(predicate, TruePredicate):
        return lambda row: True
    raise TypeError(f"cannot compile predicate {predicate!r}")


def compile_predicate(predicate: Predicate, columns: Columns) -> RowTest:
    """A row test for *predicate* over rows of the *columns* schema.

    The test is truthy exactly when ``predicate.evaluate`` is on the same
    row as a dictionary, with the same short-circuit order; a column the
    schema lacks raises ``KeyError`` when (and only when) it is read.
    """
    return _compile(predicate, _positions(columns))


def compile_conjuncts(predicates: Sequence[Predicate], columns: Columns) -> Optional[RowTest]:
    """The conjunction of *predicates*, in order; ``None`` when empty."""
    if not predicates:
        return None
    positions = _positions(columns)
    return _all_of([_compile(predicate, positions) for predicate in predicates])


def _keep(rows: Iterable[Row], test: Optional[RowTest]) -> Tuple[Row, ...]:
    return tuple(rows) if test is None else tuple(filter(test, rows))


# ---------------------------------------------------------------------------
# Row-level operator implementations
# ---------------------------------------------------------------------------

def scan_rows(
    table_rows: Sequence[Dict[str, object]],
    alias: str,
    predicate: Optional[Predicate],
    stats: ExecutionStats,
    model: CostModel,
    tuple_width: int,
) -> RowSet:
    """Scan a stored table, qualify columns with *alias*, apply the filter.

    The schema is the first stored row's key order; a stored row with other
    keys, or the same keys in another order, raises :class:`ExecutionError`.
    """
    names = tuple(table_rows[0]) if table_rows else ()
    for raw in table_rows:
        if tuple(raw) != names:
            raise ExecutionError(
                f"stored rows of {alias!r} disagree on their columns: "
                f"{list(raw)} after {list(names)}"
            )
    columns = tuple(ColumnRef(alias, name) for name in names)
    values = [tuple(raw.values()) for raw in table_rows]
    test = None if predicate is None else compile_predicate(predicate, columns)
    output = RowSet(columns, _keep(values, test))
    stats.rows_scanned += len(table_rows)
    blocks = max(1, (len(table_rows) * tuple_width + model.block_size - 1) // model.block_size)
    stats.blocks_read += blocks
    cost = model.sequential_read(blocks)
    stats.io_seconds += cost.io
    stats.cpu_seconds += cost.cpu + len(table_rows) * model.cpu_time_per_tuple
    return output


def filter_rows(rows: RowSet, predicate: Predicate, stats: ExecutionStats, model: CostModel) -> RowSet:
    output = RowSet(rows.columns, _keep(rows.rows, compile_predicate(predicate, rows.columns)))
    stats.rows_processed += len(rows.rows)
    stats.cpu_seconds += len(rows.rows) * model.cpu_time_per_tuple
    return output


def project_rows(rows: RowSet, columns: Sequence[ColumnRef], stats: ExecutionStats, model: CostModel) -> RowSet:
    """Keep the projected columns in row order; a projection that keeps no
    column keeps the whole row."""
    kept = set(columns)
    indices = [index for index, column in enumerate(rows.columns) if column in kept]
    if not indices or len(indices) == len(rows.columns):
        output = rows
    else:
        pick = _tuple_getter(indices)
        output = RowSet(
            tuple(rows.columns[index] for index in indices),
            tuple(map(pick, rows.rows)),
        )
    stats.rows_processed += len(rows.rows)
    stats.cpu_seconds += len(rows.rows) * model.cpu_time_per_tuple
    return output


def _split_predicates(
    predicates: Sequence[Predicate], left_columns: set, right_columns: set
) -> Tuple[List[Tuple[ColumnRef, ColumnRef]], List[Predicate]]:
    """Separate equi-join pairs (left column, right column) from residuals."""
    equi: List[Tuple[ColumnRef, ColumnRef]] = []
    residual: List[Predicate] = []
    for predicate in predicates:
        for conjunct in predicate.conjuncts():
            matched = False
            if isinstance(conjunct, Comparison) and conjunct.op == "=" and conjunct.is_column_column():
                left, right = conjunct.left, conjunct.right
                if left in left_columns and right in right_columns:
                    equi.append((left, right))
                    matched = True
                elif right in left_columns and left in right_columns:
                    equi.append((right, left))
                    matched = True
            if not matched:
                residual.append(conjunct)
    return equi, residual


def join_rows(
    left: RowSet,
    right: RowSet,
    predicates: Sequence[Predicate],
    stats: ExecutionStats,
    model: CostModel,
) -> RowSet:
    """Join two row sets (hash join on equality conjuncts, filter the rest).

    Output rows are ``left_row + right_row``, left-major, merged onto one
    schema when the sides share a column (see :func:`_merged_schema`).
    """
    stats.rows_processed += len(left.rows) + len(right.rows)
    stats.cpu_seconds += (len(left.rows) + len(right.rows)) * model.cpu_time_per_tuple
    columns, merge = _merged_schema(left.columns, right.columns)
    if not left.rows or not right.rows:
        return RowSet(columns, ())
    equi, residual = _split_predicates(predicates, set(left.columns), set(right.columns))
    joined: Iterable[Row]
    if equi:
        # One key column is probed as a scalar, several as a tuple: both
        # sides use the same shape, so the matches are the same.
        left_positions, right_positions = _positions(left.columns), _positions(right.columns)
        right_key = _op.itemgetter(*[right_positions[column] for _, column in equi])
        left_key = _op.itemgetter(*[left_positions[column] for column, _ in equi])
        right_index: Dict[object, List[Row]] = defaultdict(list)
        for row in right.rows:
            right_index[right_key(row)].append(row)
        matches = right_index.get
        joined = [row + match for row in left.rows for match in matches(left_key(row), ())]
    else:
        joined = (row + match for row in left.rows for match in right.rows)
        stats.cpu_seconds += len(left.rows) * len(right.rows) * model.cpu_time_per_tuple
    if merge is not None:
        joined = map(merge, joined)
    output = RowSet(columns, _keep(joined, compile_conjuncts(residual, columns)))
    stats.rows_processed += len(output.rows)
    stats.cpu_seconds += len(output.rows) * model.cpu_time_per_tuple
    return output


def _aggregate_value(func: str, values: List[object]) -> object:
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)  # type: ignore[arg-type]
    if func == "min":
        return min(values)  # type: ignore[type-var]
    if func == "max":
        return max(values)  # type: ignore[type-var]
    if func == "avg":
        return sum(values) / len(values)  # type: ignore[arg-type]
    raise ValueError(f"unsupported aggregate function {func!r}")


def _column_values(
    members: Sequence[Row], column: Optional[ColumnRef], positions: Dict[ColumnRef, int]
) -> List[object]:
    """The non-``None`` values of *column* over *members*; none when the
    schema lacks the column."""
    index = positions.get(column) if column is not None else None
    if index is None:
        return []
    return [value for row in members if (value := row[index]) is not None]


def aggregate_rows(
    rows: RowSet,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[AggregateFunction],
    output_alias: str,
    stats: ExecutionStats,
    model: CostModel,
) -> RowSet:
    """Group-by aggregation; output columns are qualified with *output_alias*.

    Output columns are the group-by columns, then one per aggregate; a
    name given twice keeps its first position and its last value.
    """
    positions = _positions(rows.columns)
    group_key = _tuple_getter([positions.get(column) for column in group_by])
    groups: Dict[Row, List[Row]] = defaultdict(list)
    for row in rows.rows:
        groups[group_key(row)].append(row)
    names = [ColumnRef(output_alias, column.column) for column in group_by]
    names.extend(ColumnRef(output_alias, aggregate.alias) for aggregate in aggregates)
    slots = {name: index for index, name in enumerate(names)}
    pick = None if len(slots) == len(names) else _tuple_getter(tuple(slots.values()))
    output: List[Row] = []
    for key, members in groups.items():
        values = list(key)
        for aggregate in aggregates:
            if aggregate.column is None:
                column_values: List[object] = [1.0] * len(members)
            else:
                column_values = _column_values(members, aggregate.column, positions)
            values.append(_aggregate_value(aggregate.func, column_values))
        out_row = tuple(values)
        output.append(out_row if pick is None else pick(out_row))
    stats.rows_processed += len(rows.rows) + len(output)
    stats.cpu_seconds += (len(rows.rows) + len(output)) * model.cpu_time_per_tuple
    return RowSet(tuple(slots), tuple(output))


def nested_apply_rows(
    outer: RowSet,
    invariant: RowSet,
    correlation: Sequence[Predicate],
    aggregate: AggregateFunction,
    outer_column: ColumnRef,
    comparison: str,
    stats: ExecutionStats,
    model: CostModel,
) -> RowSet:
    """Correlated scalar-subquery filter over the outer rows.

    For every outer row the matching invariant rows are found (through an
    in-memory index on the equality correlation columns, mirroring the
    temporary index the optimizer would build), the scalar aggregate computed,
    and the outer row kept iff the comparison holds.  Residual correlation
    predicates see the candidate row merged with the outer row, the outer
    row's values winning on shared columns.
    """
    if not invariant.rows:
        return RowSet(outer.columns, ())
    invariant_columns = set(invariant.columns)
    equality_pairs: List[Tuple[ColumnRef, ColumnRef]] = []  # (inner, outer)
    residual: List[Predicate] = []
    for predicate in correlation:
        if isinstance(predicate, Comparison) and predicate.op == "=" and predicate.is_column_column():
            if predicate.left in invariant_columns:
                equality_pairs.append((predicate.left, predicate.right))  # type: ignore[arg-type]
                continue
            if predicate.right in invariant_columns:
                equality_pairs.append((predicate.right, predicate.left))  # type: ignore[arg-type]
                continue
        residual.append(predicate)

    inner_positions, outer_positions = _positions(invariant.columns), _positions(outer.columns)
    index: Dict[Row, List[Row]] = defaultdict(list)
    outer_key = _tuple_getter([outer_positions.get(outer_ref) for _, outer_ref in equality_pairs])
    if equality_pairs:
        inner_key = _tuple_getter([inner_positions[inner] for inner, _ in equality_pairs])
        for row in invariant.rows:
            index[inner_key(row)].append(row)
    merged_columns, merge = _merged_schema(invariant.columns, outer.columns)
    test = compile_conjuncts(residual, merged_columns)
    outer_index = outer_positions.get(outer_column)
    compare = _COMPARE[comparison]

    output: List[Row] = []
    for row in outer.rows:
        candidates: Sequence[Row]
        if equality_pairs:
            candidates = index.get(outer_key(row), ())
        else:
            candidates = invariant.rows
        if test is not None:
            candidates = [
                candidate for candidate in candidates
                if test(candidate + row if merge is None else merge(candidate + row))
            ]
        if aggregate.column is None:
            values: List[object] = [None] * len(candidates)
        else:
            values = _column_values(candidates, aggregate.column, inner_positions)
        scalar = _aggregate_value(aggregate.func, values)
        if scalar is None:
            continue
        outer_value = None if outer_index is None else row[outer_index]
        if outer_value is None:
            continue
        if compare(outer_value, scalar):
            output.append(row)
    stats.rows_processed += len(outer.rows) + len(invariant.rows)
    stats.cpu_seconds += (len(outer.rows) + len(invariant.rows)) * model.cpu_time_per_tuple
    return RowSet(outer.columns, tuple(output))
