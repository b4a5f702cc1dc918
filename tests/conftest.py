"""Shared fixtures for the test suite."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro import MQOptimizer, Query
from repro.algebra import Join, Relation, col, eq
from repro.catalog import Catalog, psp_catalog, tpcd_catalog
from repro.catalog.schema import make_table
from repro.dag import DagBuilder
from tests.test_dag import join_rs, join_rst


@pytest.fixture(scope="session")
def tpcd() -> Catalog:
    return tpcd_catalog(1.0)


@pytest.fixture(scope="session")
def psp() -> Catalog:
    return psp_catalog()


@pytest.fixture(scope="session")
def tiny_catalog() -> Catalog:
    """A small generic catalog (tables r, s, t, p) used by unit tests."""
    catalog = Catalog()
    catalog.add_table(
        make_table(
            "r",
            10_000,
            [("a", 8, 10_000), ("b", 8, 100), ("v", 8, 1_000)],
            primary_key="a",
            numeric_bounds={"v": (0, 1_000), "b": (0, 100)},
        )
    )
    catalog.add_table(
        make_table(
            "s",
            20_000,
            [("a", 8, 10_000), ("c", 8, 500), ("w", 8, 1_000)],
            primary_key="a",
            numeric_bounds={"w": (0, 1_000)},
        )
    )
    catalog.add_table(
        make_table(
            "t",
            5_000,
            [("c", 8, 500), ("d", 8, 50)],
            primary_key="c",
        )
    )
    catalog.add_table(
        make_table(
            "p",
            1_000,
            [("d", 8, 50), ("e", 8, 1_000)],
            primary_key="d",
        )
    )
    return catalog


@pytest.fixture(scope="session")
def medium_catalog() -> Catalog:
    """Like ``tiny_catalog`` but with table sizes large enough that sharing
    intermediate results actually pays off (used by the optimizer tests)."""
    catalog = Catalog()
    catalog.add_table(
        make_table(
            "r",
            500_000,
            [("a", 8, 500_000), ("b", 8, 100), ("v", 8, 1_000)],
            primary_key="a",
            numeric_bounds={"v": (0, 1_000), "b": (0, 100)},
        )
    )
    catalog.add_table(
        make_table(
            "s",
            1_000_000,
            [("a", 8, 500_000), ("c", 8, 50_000), ("w", 8, 1_000)],
            primary_key="a",
            numeric_bounds={"w": (0, 1_000)},
        )
    )
    catalog.add_table(
        make_table("t", 250_000, [("c", 8, 50_000), ("d", 8, 5_000)], primary_key="c")
    )
    catalog.add_table(
        make_table("p", 50_000, [("d", 8, 5_000), ("e", 8, 50_000)], primary_key="d")
    )
    return catalog


@pytest.fixture(scope="module")
def shared_dag(medium_catalog):
    """A small two-query DAG with a genuinely shared sub-expression.

    The tables are large enough that materializing the shared ``σ(r) ⋈ s``
    join is worthwhile, so the multi-query algorithms have a real decision to
    make."""
    builder = DagBuilder(medium_catalog)
    q1 = Query("q1", join_rst(20))
    q2 = Query("q2", Join(join_rs(20), Relation("p"), eq(col("s", "c"), col("p", "d"))))
    return builder.build([q1, q2])


@pytest.fixture(scope="session")
def tiny_optimizer(tiny_catalog) -> MQOptimizer:
    return MQOptimizer(tiny_catalog)


@pytest.fixture(scope="session")
def tpcd_optimizer(tpcd) -> MQOptimizer:
    return MQOptimizer(tpcd)


@pytest.fixture(scope="session")
def psp_optimizer(psp) -> MQOptimizer:
    return MQOptimizer(psp)
