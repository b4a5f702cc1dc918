"""Volcano-style cost computation over the AND-OR DAG.

This module implements the cost recurrence of Section 3.1 of the paper,
extended for a set ``M`` of materialized equivalence nodes::

    cost(o) = exec(o) + Σ_i multiplier_i * C(e_i)
    C(e)    = cost(e)                         if e ∉ M
            = min(cost(e), reusecost(e))      if e ∈ M
    cost(e) = min { cost(o) | o ∈ children(e) }   (0 for base relations)

and the total cost of the batch given ``M``::

    bestcost(Q, M) = cost(root) + Σ_{m ∈ M} (cost(m) + matcost(m))

:func:`bestcost` delegates to the flat-array
:class:`~repro.optimizer.engine.CostEngine` snapshot of the DAG, whose
:meth:`~repro.optimizer.engine.CostEngine.compute_costs` and
:meth:`~repro.optimizer.engine.CostEngine.total` are the per-node costs and
the total as dense lists indexed by node id.  The recurrence spelled out one
term at a time over the object graph is the oracle of the differential
suites and lives in ``tests/oracles/costing.py``.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.dag.nodes import Dag
from repro.optimizer.engine import EMPTY_SET, get_engine


def bestcost(dag: Dag, materialized: Optional[Set[int]] = None) -> float:
    """Total cost of the batch given a materialized set."""
    materialized = materialized or EMPTY_SET
    engine = get_engine(dag)
    return engine.total(engine.compute_costs(materialized), materialized)
