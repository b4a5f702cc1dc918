"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper's
evaluation (Section 6): it optimizes the corresponding workload with all four
algorithms, prints the same rows/series the paper reports (estimated cost,
optimization time, greedy counters, executed cost), and uses pytest-benchmark
to time the part of the pipeline the figure is about.

Absolute numbers differ from the paper (different machine, simulated
execution substrate); the *shape* — which algorithm wins, by roughly what
factor, and how costs scale — is what the figures are compared on.

The end-to-end checks (cost ordering, snapshot-restored service, result
cache, fault injection) run in the tier-1 suite under ``tests/``; wall-clock
time is measured by ``perfbench/run.py``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro import MQOptimizer, PAPER_ALGORITHMS
from repro.dag.builder import Query
from repro.optimizer.report import OptimizationResult

ALGORITHM_ORDER = ["Volcano", "Volcano-SH", "Volcano-RU", "Greedy"]


def run_workload(
    optimizer: MQOptimizer, queries: Sequence[Query]
) -> Dict[str, OptimizationResult]:
    """Optimize one workload with all four paper algorithms on a shared DAG."""
    return optimizer.optimize_all(queries, PAPER_ALGORITHMS)


def print_cost_table(title: str, rows: Dict[str, Dict[str, OptimizationResult]]) -> None:
    """Print estimated plan costs, one line per workload (paper figure layout)."""
    print(f"\n=== {title}: estimated plan cost (seconds) ===")
    header = f"{'workload':<10s}" + "".join(f"{name:>14s}" for name in ALGORITHM_ORDER)
    print(header)
    for workload, results in rows.items():
        line = f"{workload:<10s}"
        for name in ALGORITHM_ORDER:
            line += f"{results[name].cost:14.1f}"
        print(line)


def print_time_table(title: str, rows: Dict[str, Dict[str, OptimizationResult]]) -> None:
    """Print optimization times, one line per workload."""
    print(f"\n=== {title}: optimization time (milliseconds) ===")
    print(f"{'workload':<10s}" + "".join(f"{name:>14s}" for name in ALGORITHM_ORDER))
    for workload, results in rows.items():
        line = f"{workload:<10s}"
        for name in ALGORITHM_ORDER:
            line += f"{results[name].optimization_time * 1000:14.2f}"
        print(line)


def assert_cost_ordering(results: Dict[str, OptimizationResult], slack: float = 1.001) -> None:
    """Check that Volcano-SH, Volcano-RU and Greedy never lose to Volcano
    (within floating-point slack).

    It does not check that Greedy beats Volcano-SH: it does not on TPC-D Q7
    pairs (``tests/test_optimizers.py::TestPaperWorkloadShapes::
    test_greedy_loses_to_volcano_sh_on_a_q7_pair``)."""
    volcano = results["Volcano"].cost
    assert results["Volcano-SH"].cost <= volcano * slack
    assert results["Volcano-RU"].cost <= volcano * slack
    assert results["Greedy"].cost <= volcano * slack
