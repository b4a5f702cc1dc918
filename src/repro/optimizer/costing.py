"""Volcano-style cost computation over the AND-OR DAG.

This module implements the cost recurrence of Section 3.1 of the paper,
extended for a set ``M`` of materialized equivalence nodes::

    cost(o) = exec(o) + Σ_i multiplier_i * C(e_i)
    C(e)    = cost(e)                         if e ∉ M
            = min(cost(e), reusecost(e))      if e ∈ M
    cost(e) = min { cost(o) | o ∈ children(e) }   (0 for base relations)

and the total cost of the batch given ``M``::

    bestcost(Q, M) = cost(root) + Σ_{m ∈ M} (cost(m) + matcost(m))

The entry points (:func:`compute_node_costs`, :func:`total_cost`,
:func:`bestcost`) delegate to the flat-array
:class:`~repro.optimizer.engine.CostEngine` snapshot of the DAG.
:func:`compute_node_costs` returns the engine's dense cost list wrapped in a
dict-compatible :class:`~repro.optimizer.engine.CostTableView` (node ids are
dense ``0..n-1``), so no per-call ``{id: cost}`` dict is materialized.  The
recurrence spelled out one term at a time over the object graph is the
oracle of the differential suites and lives in ``tests/oracles/costing.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Set

from repro.dag.nodes import Dag
from repro.optimizer.engine import EMPTY_SET, CostTableView, get_engine


def compute_node_costs(dag: Dag, materialized: Optional[Set[int]] = None) -> Mapping[int, float]:
    """Compute ``cost(e)`` for every equivalence node, bottom-up.

    The result is a dict-compatible read-only view of the dense cost table
    (see :class:`~repro.optimizer.engine.CostTableView`).
    """
    # The empty-set table is memoized on the engine; the view is read-only,
    # so sharing the underlying list is safe.
    return CostTableView(get_engine(dag).compute_costs(materialized or EMPTY_SET))


def total_cost(
    dag: Dag, costs: Mapping[int, float], materialized: Optional[Set[int]] = None
) -> float:
    """``bestcost(Q, M)``: plan cost plus computing and materializing ``M``."""
    return get_engine(dag).total(costs, materialized if materialized else EMPTY_SET)


def bestcost(dag: Dag, materialized: Optional[Set[int]] = None) -> float:
    """Convenience wrapper: total cost of the batch given a materialized set."""
    materialized = materialized or EMPTY_SET
    engine = get_engine(dag)
    return engine.total(engine.compute_costs(materialized), materialized)
