"""The PSP scale-up schema from Section 6.2 of the paper.

The scale-up analysis defines 22 relations ``PSP1 .. PSP22`` with an identical
schema ``(P, SP, NUM)`` — part id, sub-part id and number — whose sizes vary
from 20,000 to 40,000 tuples (assigned randomly) with 25 tuples per block and
no indices on the base relations.
"""

from __future__ import annotations

import random

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, Table

#: Default number of PSP relations (PSP1 .. PSP22), as in the paper.
DEFAULT_RELATION_COUNT = 22

#: The paper states 25 tuples per 4 KB block, i.e. roughly 160 bytes/tuple.
_TUPLE_WIDTH = 160
_COLUMN_WIDTHS = {"p": 54, "sp": 54, "num": 52}


def psp_catalog(
    relation_count: int = DEFAULT_RELATION_COUNT,
    min_rows: int = 20_000,
    max_rows: int = 40_000,
    seed: int = 2000,
) -> Catalog:
    """Build the PSP catalog with deterministic pseudo-random table sizes.

    The row count of each ``PSPi`` is drawn uniformly from
    ``[min_rows, max_rows]`` using *seed*, so the same catalog is produced on
    every run (the paper assigns sizes "randomly" without specifying them).
    """
    if relation_count < 1:
        raise ValueError("relation_count must be at least 1")
    rng = random.Random(seed)
    catalog = Catalog()
    for i in range(1, relation_count + 1):
        rows = rng.randint(min_rows, max_rows)
        # P and SP are identifier columns (part id / sub-part id), so their
        # distinct counts equal the table size and chain joins stay roughly
        # linear in the base-table size rather than exploding.
        columns = (
            Column("p", _COLUMN_WIDTHS["p"], distinct=rows, low=0, high=rows),
            Column("sp", _COLUMN_WIDTHS["sp"], distinct=rows, low=0, high=rows),
            Column("num", _COLUMN_WIDTHS["num"], distinct=1000, low=0, high=1000),
        )
        catalog.add_table(Table(f"psp{i}", columns, rows, indexes=()))
    return catalog
