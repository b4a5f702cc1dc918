"""System-R style cardinality and selectivity estimation.

The estimator derives :class:`LogicalProperties` (row count, tuple width and
per-column statistics) for every equivalence node of the DAG, starting from
catalog statistics at the leaves.  The rules are the classic ones:

* ``column = constant``      → 1 / distinct(column)
* ``column op constant``     → fraction of the (low, high) range, else 1/3
* ``column != constant``     → 1 - 1/distinct(column)
* ``column = column`` (join) → 1 / max(distinct(left), distinct(right))
* disjunctions               → 1 - Π (1 - s_i), conjunctions → Π s_i
* group-by                   → min(Π distinct(group columns), rows / 2)

These estimates feed the cost model of :mod:`repro.cost.model`; the paper uses
"standard techniques ... using statistics about relations" without further
detail, so faithfulness here means using the textbook formulas consistently
for all algorithms being compared.

Three engineering properties of this layer matter to everything above it:

* **Schemas plus float tuples.**  :class:`LogicalProperties` is ``(rows,
  schema, distincts)``.  The :class:`Schema` holds what a derivation never
  changes — the ordered column references and each column's width, low and
  high bound — and is *interned*: one object per content, with its tuple
  width, position map and content token computed once.  ``distincts`` is a
  plain tuple of floats, one per schema column.  Re-bounding for a new row
  count is one pass over that tuple, a join concatenates (or, for shared
  columns, gathers) two tuples through a per-schema-pair plan, and
  projections gather through a per-schema keep plan; the plans live in
  bounded process-wide memos.  Nothing on these paths allocates a
  per-column object, and every float fold keeps its historical order.
  :attr:`LogicalProperties.columns` (a read-only ``ColumnStats`` mapping
  built on access) remains for tests and fingerprints only.
* **Immutability.**  Properties and schemas are never mutated, so nodes,
  memos and session caches share them freely; ``with_rows`` returns
  ``self`` when nothing changes and shares the distinct tuple when only the
  row count does.
* **Order-sensitive floats.**  Row estimates are folds of float
  multiplications, which are not associative: the same result reached by a
  different fold order can differ in the last ulp.  Everything that persists
  an estimate across contexts therefore either fixes a canonical order
  (sorted predicate strings, see ``DagBuilder._join_properties``) or keys on
  the exact *content* of the input properties objects —
  :meth:`LogicalProperties.content_key`, a tuple of three byte strings (row
  bits, schema token, packed distinct bits), used by the catalog-lifetime
  session caches of :mod:`repro.service.session` — never on tolerance-style
  float comparison.  The key is bit-strict and column-order-strict, and the
  same in every process, so keys survive a snapshot.  Statistics enter only
  through the catalog, whose statistics digests and schema epoch drive cache
  invalidation.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Predicate,
    TruePredicate,
)
from repro.algebra.expressions import AggregateFunction
from repro.catalog.catalog import Catalog

#: Default selectivity for predicates the estimator cannot analyse.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Default selectivity of an equality against an unknown domain.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
#: Floor for estimated row counts: never below one row.
MIN_ROWS = 1.0

#: IEEE-754 little-endian double packer: the bit pattern distinguishes
#: ``-0.0`` from ``0.0`` and every NaN payload, exactly like the ``repr``
#: based DAG fingerprints used by the differential oracles.
_pack_double = struct.Struct("<d").pack
_pack_length = struct.Struct("<I").pack

#: Content key of a :class:`LogicalProperties` instance: ``(row bits, schema
#: token, distinct bits in column order)``.
PropsContentKey = Tuple[bytes, bytes, bytes]
#: Gather indices of a plan, or ``None`` when the plan keeps the tuple as is.
Gather = Optional[Tuple[int, ...]]


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column of an intermediate result.

    A value for building and inspecting properties by hand
    (:attr:`LogicalProperties.columns`); derivations never allocate one.
    """

    distinct: float
    width: int = 8
    low: Optional[float] = None
    high: Optional[float] = None


def _bound_bits(value: Optional[float]) -> bytes:
    return b"\x00" if value is None else b"\x01" + _pack_double(value)


class Schema:
    """The ordered columns of a result with their width, low and high bound.

    Built only through :func:`intern_schema`, so equal content means the same
    object while the intern table holds it.  ``token`` is the content as
    bytes (names, widths and the IEEE-754 bits of the bounds, length-prefixed
    per column): it identifies the schema in content keys and is the same in
    every process.  A schema pickles as its content and re-interns on load.
    """

    __slots__ = ("refs", "widths", "lows", "highs", "position", "tuple_width",
                 "token", "distinct_format")

    def __init__(
        self,
        refs: Tuple[ColumnRef, ...],
        widths: Tuple[int, ...],
        lows: Tuple[Optional[float], ...],
        highs: Tuple[Optional[float], ...],
        token: bytes,
    ) -> None:
        self.refs = refs
        self.widths = widths
        self.lows = lows
        self.highs = highs
        self.position: Dict[ColumnRef, int] = {ref: i for i, ref in enumerate(refs)}
        #: Estimated width of one tuple in bytes (8 for a column-less result).
        self.tuple_width = max(1, sum(widths)) if refs else 8
        self.token = token
        self.distinct_format = f"<{len(refs)}d"

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        return (intern_schema, (self.refs, self.widths, self.lows, self.highs))

    def __repr__(self) -> str:
        return f"Schema({', '.join(str(ref) for ref in self.refs)})"


#: Bound on the entries of each process-wide memo below; a memo is cleared
#: when an insertion would pass it.  Values are pure functions of their keys
#: and hold no properties, so clearing never disturbs a build in flight.  Two
#: threads may intern equal content twice (or re-intern after a clear); the
#: two schemas are interchangeable, since content keys and plans depend on
#: content alone.
MEMO_LIMIT = 1 << 13
#: token -> :class:`Schema`.
_SCHEMAS: Dict[bytes, Schema] = {}  # repro-lint: ok(M002) content-keyed immutable values; cleared past MEMO_LIMIT
#: (left schema, right schema) -> (joined schema, gather into left + right).
_JOIN_PLANS: Dict[Tuple[Schema, Schema], Tuple[Schema, Gather]] = {}  # repro-lint: ok(M002) pure function of two interned schemas; cleared past MEMO_LIMIT
#: (schema, kept names or refs) -> (kept schema, gather).
_KEEP_PLANS: Dict[Tuple[Schema, Hashable], Tuple[Schema, Gather]] = {}  # repro-lint: ok(M002) pure function of a schema and a key; cleared past MEMO_LIMIT


_memo_lock = threading.Lock()


def _remember(memo: Dict[Any, Any], key: object, value: object) -> None:
    with _memo_lock:
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[key] = value


def intern_schema(
    refs: Sequence[ColumnRef],
    widths: Sequence[int],
    lows: Sequence[Optional[float]],
    highs: Sequence[Optional[float]],
) -> Schema:
    """The one :class:`Schema` of this content."""
    parts = []
    for ref, width, low, high in zip(refs, widths, lows, highs):
        head = repr((ref.relation, ref.column, width)).encode()
        parts += (_pack_length(len(head)), head, _bound_bits(low), _bound_bits(high))
    token = b"".join(parts)
    schema = _SCHEMAS.get(token)
    if schema is None:
        schema = Schema(tuple(refs), tuple(widths), tuple(lows), tuple(highs), token)
        _remember(_SCHEMAS, token, schema)
    return schema


def clear_property_memos() -> None:
    """Empty the schema intern table and the plan memos (tests start cold)."""
    _SCHEMAS.clear()
    _JOIN_PLANS.clear()
    _KEEP_PLANS.clear()


EMPTY_SCHEMA = intern_schema((), (), (), ())

#: One column's ``(distinct, width, low, high)``.
ColumnValues = Tuple[float, int, Optional[float], Optional[float]]


def _from_columns(
    columns: Mapping[ColumnRef, ColumnValues],
) -> Tuple[Schema, Tuple[float, ...]]:
    """Schema and distinct tuple of an ordered ``ref -> values`` mapping."""
    values = list(columns.values())
    schema = intern_schema(
        list(columns), [v[1] for v in values], [v[2] for v in values], [v[3] for v in values]
    )
    return schema, tuple([v[0] for v in values])


def _gathered(distincts: Tuple[float, ...], gather: Gather) -> Tuple[float, ...]:
    if gather is None:
        return distincts
    return tuple([distincts[i] for i in gather])


def _gather_plan(
    refs: Tuple[ColumnRef, ...],
    widths: Tuple[int, ...],
    lows: Tuple[Optional[float], ...],
    highs: Tuple[Optional[float], ...],
    gather: List[int],
) -> Tuple[Schema, Gather]:
    """The schema of the columns at *gather*, and the gather itself (``None``
    when it takes every column in order)."""
    if gather == list(range(len(refs))):
        return intern_schema(refs, widths, lows, highs), None
    return (
        intern_schema([refs[i] for i in gather], [widths[i] for i in gather],
                      [lows[i] for i in gather], [highs[i] for i in gather]),
        tuple(gather),
    )


def _join_plan(left: Schema, right: Schema) -> Tuple[Schema, Gather]:
    """The joined schema of *left* and *right* with ``dict.update``
    semantics: left columns in order, then the new right columns; a shared
    column keeps its left position and takes the right statistics."""
    offset = len(left.refs)
    gather = [offset + right.position[ref] if ref in right.position else i
              for i, ref in enumerate(left.refs)]
    gather += [offset + j for j, ref in enumerate(right.refs) if ref not in left.position]
    plan = _gather_plan(left.refs + right.refs, left.widths + right.widths,
                        left.lows + right.lows, left.highs + right.highs, gather)
    _remember(_JOIN_PLANS, (left, right), plan)
    return plan


def _keep_plan(schema: Schema, key: Hashable) -> Tuple[Schema, Gather]:
    """The columns of *schema* that *key* keeps — a frozenset keeps columns
    by name, a tuple keeps column references — or all of them when that
    would keep none."""
    if isinstance(key, frozenset):
        gather = [i for i, ref in enumerate(schema.refs) if ref.column in key]
    else:
        gather = [i for i, ref in enumerate(schema.refs) if ref in key]
    plan = _gather_plan(schema.refs, schema.widths, schema.lows, schema.highs,
                        gather or list(range(len(schema.refs))))
    _remember(_KEEP_PLANS, (schema, key), plan)
    return plan


class LogicalProperties:
    """Estimated logical properties of an (intermediate) result: the row
    count, the interned :class:`Schema` and one distinct count per schema
    column.

    The second argument may also be an ordered ``ColumnRef -> ColumnStats``
    mapping (properties built by hand); derivations pass a schema and its
    distinct tuple.
    """

    __slots__ = ("rows", "schema", "distincts", "_key")

    def __init__(
        self,
        rows: float,
        schema: Union[Schema, Mapping[ColumnRef, ColumnStats]] = EMPTY_SCHEMA,
        distincts: Tuple[float, ...] = (),
    ) -> None:
        if type(schema) is not Schema:
            schema, distincts = _from_columns(
                {ref: (s.distinct, s.width, s.low, s.high) for ref, s in schema.items()}
            )
        self.rows = rows
        self.schema: Schema = schema
        self.distincts = distincts
        self._key: Optional[PropsContentKey] = None

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        return (LogicalProperties, (self.rows, self.schema, self.distincts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogicalProperties):
            return NotImplemented
        return self.content_key() == other.content_key()

    def __repr__(self) -> str:
        return f"LogicalProperties(rows={self.rows!r}, columns={dict(self.columns)!r})"

    @property
    def tuple_width(self) -> int:
        """Estimated width of one tuple in bytes (fixed per schema)."""
        return self.schema.tuple_width

    @property
    def columns(self) -> Mapping[ColumnRef, ColumnStats]:
        """Read-only ``ref -> ColumnStats`` view in column order, built on
        every access (for tests and fingerprints, not for hot paths)."""
        schema = self.schema
        return MappingProxyType({
            ref: ColumnStats(distinct, width, low, high)
            for ref, distinct, width, low, high in zip(
                schema.refs, self.distincts, schema.widths, schema.lows, schema.highs
            )
        })

    def content_key(self) -> PropsContentKey:
        """Canonical value identity of this instance (content addressing).

        The key captures everything any derived computation can read from
        the instance: the row estimate and the distinct counts as IEEE-754
        **bit patterns** (so ``-0.0``/``0.0`` and NaNs stay distinct,
        matching the ``repr``-level strictness of the DAG fingerprints), and
        the schema token, which fixes the column **order** (width sums and
        selectivity folds iterate it, and float folds are order-sensitive)
        and each column's width and bound bits.  Two instances with equal
        content keys are therefore interchangeable inputs to every pure fold
        — they yield bit-identical results — which is what lets the session
        caches of :mod:`repro.service.session` key on content instead of
        object identity.  Only bytes, so the key is the same in every
        process and under every ``PYTHONHASHSEED``.  Computed once per
        instance.
        """
        key = self._key
        if key is None:
            schema = self.schema
            key = (
                _pack_double(self.rows),
                schema.token,
                struct.pack(schema.distinct_format, *self.distincts),
            )
            self._key = key
        return key

    def distinct(self, ref: ColumnRef) -> float:
        """Distinct values of *ref*, defaulting to the row count if unknown."""
        i = self.schema.position.get(ref)
        if i is None:
            return max(1.0, self.rows)
        return max(1.0, min(self.distincts[i], max(self.rows, 1.0)))

    def with_rows(self, rows: float) -> "LogicalProperties":
        """A copy with the row count replaced and distinct counts re-bounded
        (:func:`_rebound`): the instance itself when neither changes."""
        rows = max(MIN_ROWS, rows)
        distincts = _rebound(self.distincts, rows)
        if distincts is self.distincts and rows == self.rows:
            return self
        return LogicalProperties(rows, self.schema, distincts)


def _rebound(distincts: Tuple[float, ...], rows: float) -> Tuple[float, ...]:
    """*distincts* with each count outside ``[1, rows]`` replaced by
    ``max(1.0, min(distinct, rows))``, or the same tuple when none is.

    The check is one C-level pass each of ``min``, ``max`` and ``sum``:
    ``min``/``max`` skip a NaN that is not first, so the sum (NaN exactly
    when some count is NaN) guards them.
    """
    if distincts and not (
        min(distincts) >= 1.0 and max(distincts) <= rows and (total := sum(distincts)) == total
    ):
        return tuple([d if 1.0 <= d <= rows else max(1.0, min(d, rows)) for d in distincts])
    return distincts


def keep_columns(props: LogicalProperties, key: Hashable) -> LogicalProperties:
    """*props* restricted to the columns *key* keeps (see :func:`_keep_plan`:
    a frozenset of column names or a tuple of column references)."""
    schema = props.schema
    plan = _KEEP_PLANS.get((schema, key))
    if plan is None:
        plan = _keep_plan(schema, key)
    kept, gather = plan
    if gather is None:
        return props
    return LogicalProperties(props.rows, kept, _gathered(props.distincts, gather))


class Estimator:
    """Derives logical properties bottom-up from catalog statistics."""

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # -- leaves ---------------------------------------------------------------
    def base_properties(self, table_name: str, alias: Optional[str] = None) -> LogicalProperties:
        """Properties of a full scan of *table_name*, aliased as *alias*."""
        table = self._catalog.table(table_name)
        alias = alias or table_name
        columns: Dict[ColumnRef, ColumnValues] = {}
        for column in table.columns:
            distinct = column.distinct if column.distinct is not None else table.row_count
            columns[ColumnRef(alias, column.name)] = (
                max(1.0, float(distinct)),
                column.width,
                None if column.low is None else float(column.low),
                None if column.high is None else float(column.high),
            )
        schema, distincts = _from_columns(columns)
        return LogicalProperties(float(max(1, table.row_count)), schema, distincts)

    # -- selections -------------------------------------------------------------
    def comparison_selectivity(self, comparison: Comparison, props: LogicalProperties) -> float:
        """Selectivity of a single comparison against *props*."""
        comparison = comparison.normalized()
        if comparison.is_column_column():
            left = props.distinct(comparison.left)
            right = props.distinct(comparison.right)
            if comparison.op == "=":
                return 1.0 / max(left, right, 1.0)
            if comparison.op == "!=":
                return 1.0 - 1.0 / max(left, right, 1.0)
            return DEFAULT_SELECTIVITY
        if not comparison.is_column_constant():
            return DEFAULT_SELECTIVITY
        value = comparison.right.value
        schema = props.schema
        i = schema.position.get(comparison.left)
        if comparison.op == "=":
            if i is None:
                return DEFAULT_EQUALITY_SELECTIVITY
            return 1.0 / max(1.0, props.distincts[i])
        if comparison.op == "!=":
            if i is None:
                return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
            return 1.0 - 1.0 / max(1.0, props.distincts[i])
        if i is None or not isinstance(value, (int, float)):
            return DEFAULT_SELECTIVITY
        low, high = schema.lows[i], schema.highs[i]
        if low is None or high is None or high <= low:
            return DEFAULT_SELECTIVITY
        fraction = (float(value) - low) / (high - low)
        fraction = min(1.0, max(0.0, fraction))
        if comparison.op in ("<", "<="):
            selectivity = fraction
        else:  # ">", ">="
            selectivity = 1.0 - fraction
        return min(1.0, max(1.0 / max(props.rows, 1.0), selectivity))

    def predicate_selectivity(self, predicate: Optional[Predicate], props: LogicalProperties) -> float:
        """Selectivity of an arbitrary predicate (independence assumed)."""
        if predicate is None or isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, Comparison):
            return self.comparison_selectivity(predicate, props)
        if isinstance(predicate, Conjunction):
            selectivity = 1.0
            for child in predicate.children:
                selectivity *= self.predicate_selectivity(child, props)
            return selectivity
        if isinstance(predicate, Disjunction):
            inverse = 1.0
            for child in predicate.children:
                inverse *= 1.0 - self.predicate_selectivity(child, props)
            return 1.0 - inverse
        return DEFAULT_SELECTIVITY

    def apply_predicate(self, props: LogicalProperties, predicate: Optional[Predicate]) -> LogicalProperties:
        """Properties after filtering *props* with *predicate*."""
        selectivity = self.predicate_selectivity(predicate, props)
        return props.with_rows(props.rows * selectivity)

    # -- joins ---------------------------------------------------------------
    def join(
        self,
        left: LogicalProperties,
        right: LogicalProperties,
        predicates: Sequence[Predicate],
    ) -> LogicalProperties:
        """Properties of joining *left* and *right* on *predicates*.

        The joined columns follow ``dict.update`` order (see
        :func:`_join_plan`); the plan is memoized per schema pair, so a join
        concatenates or gathers two distinct tuples."""
        plan = _JOIN_PLANS.get((left.schema, right.schema))
        if plan is None:
            plan = _join_plan(left.schema, right.schema)
        schema, gather = plan
        rows = max(MIN_ROWS, left.rows * right.rows)
        distincts = _gathered(left.distincts + right.distincts, gather)
        if not predicates:
            # ``rows * 1.0`` is ``rows``: re-bound once, with no cross product.
            return LogicalProperties(rows, schema, _rebound(distincts, rows))
        cross = LogicalProperties(rows, schema, distincts)
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.predicate_selectivity(predicate, cross)
        return cross.with_rows(cross.rows * selectivity)

    # -- aggregation -------------------------------------------------------------
    def aggregate(
        self,
        child: LogicalProperties,
        group_by: Sequence[ColumnRef],
        aggregates: Sequence[AggregateFunction],
        output_alias: str = "agg",
    ) -> LogicalProperties:
        """Properties of a group-by aggregation over *child*.

        Output columns are renamed to ``output_alias.<name>`` so that parent
        expressions can reference them without knowing the child structure.
        """
        if not group_by:
            groups = 1.0
        else:
            groups = 1.0
            for column in group_by:
                groups *= child.distinct(column)
            groups = min(groups, max(1.0, child.rows / 2.0))
        schema = child.schema
        columns: Dict[ColumnRef, ColumnValues] = {}
        for column in group_by:
            i = schema.position.get(column)
            if i is None:
                values: ColumnValues = (child.distinct(column), 8, None, None)
            else:
                values = (child.distincts[i], schema.widths[i], schema.lows[i], schema.highs[i])
            columns[ColumnRef(output_alias, column.column)] = (
                min(values[0], groups), values[1], values[2], values[3]
            )
        for aggregate in aggregates:
            columns[ColumnRef(output_alias, aggregate.alias)] = (max(1.0, groups), 8, None, None)
        output_schema, distincts = _from_columns(columns)
        return LogicalProperties(max(MIN_ROWS, groups), output_schema, distincts)

    # -- projections -------------------------------------------------------------
    def project(self, child: LogicalProperties, columns: Sequence[ColumnRef]) -> LogicalProperties:
        """Properties after projecting *child* onto *columns* (all of
        *child*'s columns if it has none of them)."""
        return keep_columns(child, tuple(columns))
