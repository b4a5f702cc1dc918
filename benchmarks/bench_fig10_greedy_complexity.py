"""Figure 10 — complexity of the Greedy heuristic on the scale-up workload.

The paper plots, for CQ1..CQ5, the total number of cost propagations across
equivalence nodes and the total number of cost (benefit) recomputations
initiated, and observes that both grow almost linearly with the number of
queries — far below the worst-case O(k^2 e) bound — because the multi-query
DAG is "short and fat".

The counters are invariant under the array-backed cost engine rewrite
(:mod:`repro.optimizer.engine`) *and* under the dense incremental state:
CQ1..CQ5 report 310/1007/1633/2208/2913 cost propagations and
26/65/101/134/172 benefit recomputations before and after both reworks — the
engine changes constant factors, not the algorithm.
The randomized differential suite (``tests/test_differential.py``) pins the
equivalences the counters rely on.
"""

import pytest

from repro import Algorithm
from repro.workloads.scaleup import all_scaleup_workloads

WORKLOADS = all_scaleup_workloads()


@pytest.fixture(scope="module")
def figure10_counters(psp_opt):
    counters = {}
    print("\n=== Figure 10: greedy complexity counters ===")
    print(f"{'workload':<10s}{'queries':>9s}{'propagations':>15s}{'recomputations':>16s}{'sharable':>10s}")
    for name, queries in WORKLOADS.items():
        result = psp_opt.optimize(queries, Algorithm.GREEDY)
        counters[name] = result
        print(
            f"{name:<10s}{len(queries):>9d}{result.counters['cost_propagations']:>15d}"
            f"{result.counters['benefit_recomputations']:>16d}{result.sharable_nodes:>10d}"
        )
    return counters


def test_fig10_counters_grow_roughly_linearly(figure10_counters):
    """Cost propagations and recomputations should scale close to linearly
    with the number of queries (CQ5 has 9x the queries of CQ1)."""
    small = figure10_counters["CQ1"].counters
    large = figure10_counters["CQ5"].counters
    assert large["cost_propagations"] <= small["cost_propagations"] * 9 * 4
    assert large["benefit_recomputations"] <= small["benefit_recomputations"] * 9 * 4


def test_fig10_propagations_per_recomputation_stable(figure10_counters):
    """The number of propagations per recomputation stays roughly constant,
    because the sub-DAG affected by one materialization does not grow with
    the number of queries (the incremental-cost-update payoff)."""
    ratios = [
        r.counters["cost_propagations"] / max(1, r.counters["benefit_recomputations"])
        for r in figure10_counters.values()
    ]
    assert max(ratios) <= max(10.0, 4 * min(ratios))


def test_fig10_sharable_nodes_grow_linearly(figure10_counters):
    assert figure10_counters["CQ5"].sharable_nodes > figure10_counters["CQ1"].sharable_nodes


@pytest.mark.parametrize("workload", ["CQ2", "CQ5"])
def test_fig10_greedy_benchmark(benchmark, psp_opt, workload):
    queries = WORKLOADS[workload]
    dag = psp_opt.build_dag(queries)
    result = benchmark(lambda: psp_opt.optimize(queries, Algorithm.GREEDY, dag=dag))
    assert result.counters["cost_propagations"] > 0
