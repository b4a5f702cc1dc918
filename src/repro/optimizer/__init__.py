"""Multi-query optimization algorithms.

All algorithms operate on the AND-OR DAG built by :class:`repro.dag.DagBuilder`
and return an :class:`~repro.optimizer.report.OptimizationResult` containing
the chosen plan, the set of materialized nodes, the estimated cost, and the
instrumentation counters reported in the paper's performance study.

* :mod:`~repro.optimizer.sharability` — which DAG nodes can be shared at all
  (Section 4.1), the candidates of the searches below.
* :func:`~repro.optimizer.volcano.optimize_volcano` — the baseline (no sharing).
* :func:`~repro.optimizer.volcano_sh.optimize_volcano_sh` — Volcano-SH.
* :func:`~repro.optimizer.volcano_ru.optimize_volcano_ru` — Volcano-RU.
* :func:`~repro.optimizer.greedy.optimize_greedy` — the greedy heuristic with
  sharability, incremental cost update and the monotonicity heuristic.
* :func:`~repro.optimizer.exhaustive.optimize_exhaustive` — exhaustive search
  over materialization sets (tiny DAGs only; correctness oracle).
"""

from repro.optimizer.costing import bestcost
from repro.optimizer.engine import CostEngine, IncrementalCostState, get_engine
from repro.optimizer.plans import ConsolidatedPlan, PlanNode, extract_plan
from repro.optimizer.report import OptimizationResult
from repro.optimizer.volcano import optimize_volcano
from repro.optimizer.volcano_sh import optimize_volcano_sh
from repro.optimizer.volcano_ru import optimize_volcano_ru
from repro.optimizer.greedy import GreedyOptions, optimize_greedy
from repro.optimizer.exhaustive import optimize_exhaustive

__all__ = [
    "bestcost",
    "CostEngine",
    "IncrementalCostState",
    "get_engine",
    "ConsolidatedPlan",
    "PlanNode",
    "extract_plan",
    "OptimizationResult",
    "optimize_volcano",
    "optimize_volcano_sh",
    "optimize_volcano_ru",
    "optimize_greedy",
    "GreedyOptions",
    "optimize_exhaustive",
]
