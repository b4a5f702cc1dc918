"""The baseline: plain Volcano optimization of the combined DAG.

Each query is optimized independently of the others (no materialization, no
sharing); the consolidated best plan for the pseudo-root is simply the
combination of the individually best plans.  This is the "Volcano" bar in
every figure of the paper's evaluation and the starting point of Volcano-SH.
"""

from __future__ import annotations

import time
from typing import Optional, Set

from repro.dag.nodes import Dag
from repro.optimizer.engine import get_engine
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import OptimizationResult


def consolidated_best_plan(dag: Dag, materialized: Optional[Set[int]] = None) -> ConsolidatedPlan:
    """The consolidated Volcano best plan given a set of materialized nodes:
    the argmin operation ids of one cost sweep."""
    engine = get_engine(dag)
    choice_op = engine.sweep(materialized)[1] if materialized else engine.baseline()[1]
    return ConsolidatedPlan(dag, choice_op, set(materialized or ()))


def optimize_volcano(dag: Dag) -> OptimizationResult:
    """Run plain Volcano optimization (no multi-query sharing)."""
    start = time.perf_counter()
    plan = consolidated_best_plan(dag)
    engine = get_engine(dag)
    cost = engine.total(engine.baseline()[0])
    elapsed = time.perf_counter() - start
    return OptimizationResult(
        algorithm="Volcano",
        plan=plan,
        cost=cost,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
    )
