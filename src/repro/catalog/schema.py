"""Table and column metadata, including the statistics used for costing.

The statistics model is the classic System-R one: per-table row count and
per-column width, distinct-value count, and numeric min/max bounds.  That is
all the paper's cost model needs ("standard techniques were used for
estimating costs, using statistics about relations").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

NumericBound = Union[int, float]


@dataclass(frozen=True)
class Column:
    """A column with its statistics.

    Parameters
    ----------
    name:
        Column name (lower case by convention).
    width:
        Average width in bytes; contributes to tuple width for block counts.
    distinct:
        Estimated number of distinct values.  ``None`` means "unknown", which
        the estimator treats as one distinct value per row.
    low, high:
        Numeric bounds used for range-selectivity estimation (``None`` for
        non-numeric or unknown domains).
    """

    name: str
    width: int = 8
    distinct: Optional[int] = None
    low: Optional[NumericBound] = None
    high: Optional[NumericBound] = None


@dataclass(frozen=True)
class Index:
    """An index on one column of a table.

    ``clustered`` indices imply the table is stored in index order, so range
    scans over the indexed column touch only the matching fraction of blocks
    and the table is delivered sorted on that column.
    """

    table: str
    column: str
    clustered: bool = False

    @property
    def name(self) -> str:
        kind = "cidx" if self.clustered else "idx"
        return f"{kind}_{self.table}_{self.column}"


@dataclass
class Table:
    """A base table: schema, cardinality and indices."""

    name: str
    columns: Tuple[Column, ...]
    row_count: int
    indexes: Tuple[Index, ...] = ()

    def __post_init__(self) -> None:
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        self._stats_digest: Optional[str] = None
        if len(self._by_name) != len(self.columns):
            raise ValueError(f"duplicate column names in table {self.name!r}")

    # -- schema ------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Return the column named *name* (raises ``KeyError`` if absent)."""
        return self._by_name[name]

    def has_column(self, name: str) -> bool:
        """Return ``True`` if the table has a column named *name*."""
        return name in self._by_name

    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def tuple_width(self) -> int:
        """Average tuple width in bytes."""
        return sum(c.width for c in self.columns)

    # -- statistics ----------------------------------------------------------
    def stats_digest(self) -> str:
        """Content digest of everything the optimizer reads from this table.

        Covers the row count, every column's statistics (width, distinct,
        bounds — ``repr``-level, so int/float and sign-of-zero distinctions
        survive), and the index set (index choices feed plan costs too).
        Independent of ``PYTHONHASHSEED`` and of the process that computes
        it: :meth:`repro.service.session.SessionCache.sync` compares these
        digests on every build, which is what catches statistics mutated
        *behind the catalog's back* (no epoch bump) as well as ordinary
        updates.  Memoized per instance — catalog mutations replace the
        :class:`Table` object rather than mutating it, so the memo can never
        go stale.
        """
        digest = self._stats_digest
        if digest is None:
            payload = repr(
                (
                    self.name,
                    self.row_count,
                    tuple(
                        (c.name, c.width, c.distinct, c.low, c.high) for c in self.columns
                    ),
                    tuple((i.table, i.column, i.clustered) for i in self.indexes),
                )
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._stats_digest = digest
        return digest

    def distinct(self, column: str) -> int:
        """Distinct-value count for *column* (defaults to the row count)."""
        col = self.column(column)
        if col.distinct is None:
            return max(1, self.row_count)
        return max(1, min(col.distinct, self.row_count)) if self.row_count else max(1, col.distinct)

    # -- indexes -------------------------------------------------------------
    def index_on(self, column: str) -> Optional[Index]:
        """Return an index on *column*, preferring a clustered one."""
        best: Optional[Index] = None
        for index in self.indexes:
            if index.column != column:
                continue
            if index.clustered:
                return index
            best = best or index
        return best

    def has_index(self, column: str) -> bool:
        return self.index_on(column) is not None

    def clustered_index(self) -> Optional[Index]:
        """Return the clustered index of the table, if any."""
        for index in self.indexes:
            if index.clustered:
                return index
        return None


def make_table(
    name: str,
    row_count: int,
    columns: Sequence[Tuple[str, int, Optional[int]]],
    primary_key: Optional[str] = None,
    numeric_bounds: Optional[Dict[str, Tuple[NumericBound, NumericBound]]] = None,
    extra_indexes: Sequence[str] = (),
) -> Table:
    """Helper to build a :class:`Table` from compact column specs.

    *columns* is a sequence of ``(name, width, distinct)`` triples; *distinct*
    may be ``None``.  ``primary_key`` gets a clustered index, every column in
    *extra_indexes* gets a secondary index.
    """
    bounds = numeric_bounds or {}
    cols = []
    for col_name, width, distinct in columns:
        low, high = bounds.get(col_name, (None, None))
        cols.append(Column(col_name, width, distinct, low, high))
    indexes = []
    if primary_key is not None:
        indexes.append(Index(name, primary_key, clustered=True))
    for column in extra_indexes:
        indexes.append(Index(name, column, clustered=False))
    return Table(name, tuple(cols), row_count, tuple(indexes))
