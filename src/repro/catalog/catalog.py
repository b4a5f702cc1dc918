"""The catalog: a named collection of tables with lookup helpers.

The catalog is also the **invalidation anchor** for every cache that outlives
a single DAG build (:mod:`repro.service.session`):

* :attr:`Catalog.schema_epoch` — a counter bumped only when the set of
  tables, their columns, or their indexes may have changed
  (:meth:`add_table`).  Schema changes invalidate everything downstream,
  because cached plan choices may depend on indexes and column sets that no
  longer exist.
* :meth:`Catalog.stats_digests` — per-relation statistics **content**
  digests.  Caches tag their entries with the relations they depend on and
  evict *only* entries touching a relation whose digest moved (targeted
  invalidation).  Digests, not mutation counters, are compared, so even a
  table object swapped in behind the catalog's back is detected on the next
  build, and cache state can be shared across processes (digests depend only
  on the statistics themselves).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.catalog.schema import Column, Index, Table

NumericBounds = Tuple[Optional[float], Optional[float]]


class CatalogError(KeyError):
    """Raised when a table or column is not found in the catalog."""


class Catalog:
    """A collection of base tables, keyed by (lower-case) table name."""

    def __init__(self, tables: Iterable[Table] = ()) -> None:
        self._tables: Dict[str, Table] = {}
        self._schema_epoch: int = 0
        for table in tables:
            self.add_table(table)

    # -- population ---------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register *table*; replaces any previous table with the same name.

        Adding (or replacing) a table is a **schema** change: it may alter
        columns and indexes, so the schema epoch advances and session caches
        must discard everything derived from this catalog.
        """
        self._tables[table.name.lower()] = table
        self._schema_epoch += 1

    def update_statistics(
        self,
        name: str,
        row_count: Optional[int] = None,
        distinct: Optional[Mapping[str, int]] = None,
        bounds: Optional[Mapping[str, NumericBounds]] = None,
    ) -> Table:
        """Replace statistics of table *name* in place and return the new table.

        Only row counts, distinct-value counts, and numeric (low, high)
        bounds can change here — the column set, widths, and indexes are
        preserved, so this is a **statistics-only** mutation: it moves the
        table's :meth:`stats_digests` entry but not the :attr:`schema_epoch`.
        Session caches react by evicting only the entries that depend on
        *name* (targeted invalidation) instead of starting cold.
        """
        table = self.table(name)
        distinct = distinct or {}
        bounds = bounds or {}
        for column in list(distinct) + list(bounds):
            if not table.has_column(column):
                raise CatalogError(f"table {name!r} has no column {column!r}")
        columns = []
        for column in table.columns:
            low, high = bounds.get(column.name, (column.low, column.high))
            columns.append(
                Column(
                    column.name,
                    column.width,
                    distinct.get(column.name, column.distinct),
                    low,
                    high,
                )
            )
        updated = Table(
            name=table.name,
            columns=tuple(columns),
            row_count=table.row_count if row_count is None else row_count,
            indexes=table.indexes,
        )
        self._tables[table.name.lower()] = updated
        return updated

    # -- versioning -----------------------------------------------------------
    @property
    def schema_epoch(self) -> int:
        """Counter advanced only by schema-level mutations (:meth:`add_table`)."""
        return self._schema_epoch

    def stats_digests(self) -> Dict[str, str]:
        """Per-relation statistics *content* digests (see ``Table.stats_digest``).

        These are derived from the statistics themselves, not from mutation
        counters — so they also move when a table object is swapped in behind
        the catalog's back without going through :meth:`update_statistics`,
        and they are stable across processes.
        The per-table digests are memoized, so taking this snapshot is a dict
        comprehension over cached strings.
        """
        return {name: table.stats_digest() for name, table in self._tables.items()}

    # -- lookup ---------------------------------------------------------------
    def table(self, name: str) -> Table:
        """Return the table called *name* (case-insensitive)."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def column(self, table: str, column: str) -> Column:
        """Return column metadata, raising :class:`CatalogError` if missing."""
        tbl = self.table(table)
        if not tbl.has_column(column):
            raise CatalogError(f"table {table!r} has no column {column!r}")
        return tbl.column(column)

    def tables(self) -> Tuple[Table, ...]:
        return tuple(self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.has_table(name)

    # -- derived ---------------------------------------------------------------
    def index_on(self, table: str, column: str) -> Optional[Index]:
        """Return an index on ``table.column`` if one exists."""
        return self.table(table).index_on(column)

    def renamed_copy(self, suffix: str) -> "Catalog":
        """Return a catalog in which every table also exists under
        ``<name><suffix>`` with identical statistics.

        This supports the Section 6.4 "no sharing" experiment, where the TPC-D
        queries are run over disjoint renamed copies of the relations.
        """
        clone = Catalog(self._tables.values())
        for table in list(self._tables.values()):
            renamed = Table(
                name=f"{table.name}{suffix}",
                columns=table.columns,
                row_count=table.row_count,
                indexes=tuple(
                    Index(f"{table.name}{suffix}", idx.column, idx.clustered)
                    for idx in table.indexes
                ),
            )
            clone.add_table(renamed)
        return clone
