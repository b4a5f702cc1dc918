"""Figure 9 — cost and optimization time on the scale-up workload CQ1..CQ5.

CQ_i consists of the chain-query pairs SQ1..SQ(4i-2) over the PSP relations.
The paper's observations checked here: the relative benefit of the algorithms
persists (Greedy best, Volcano-RU somewhat better than Volcano-SH on this
workload), and the optimization time of Greedy grows roughly linearly with the
number of queries.

Reference points for the array-backed cost engine
(:mod:`repro.optimizer.engine`): before the engine, greedy optimization took
~4.0/13/21/32/41 ms on CQ1..CQ5 (CPython 3.11, this container); the PR 1
array engine brought that to ~1.2/3.5/7.1/9.6/13 ms, and the dense
incremental state + fused monotonicity probe loop (PR 2) to
~0.7/2.1/3.6/4.8/7 ms — identical plan costs and Figure 10 counters
throughout.  The same PR 2 rework made Volcano-RU incremental: CQ5 dropped
from ~53 ms to ~5 ms.  PR 3 moved the Volcano-SH decision pass onto the same
flat engine arrays and memoized the engine's empty-set cost table, taking
Volcano-RU CQ5 to ~3.4 ms (standalone Volcano-SH CQ5 ~1.9→~0.9 ms) and, with
the incremental unused-materialization pruning, greedy CQ1 to ~0.65 ms.

With the optimizers that fast, *DAG construction* dominated end-to-end wall
time (the Section 6.4 overhead): ~15/44/73/98/140 ms warm on CQ1..CQ5
(~220 ms for CQ5 cold, with profiling overhead).  The PR 4 memoized,
hash-consed builder (join-choice memo, key-determined partition-enumeration
skipping, weak-join memo in subsumption, cached tuple widths / copy-on-write
``with_rows`` / cost-primitive memos) brings the warm build to
~7.5/20/32/47/55 ms — CQ5 ~2.6x warm, ~4x against the cold pre-PR figure —
with byte-identical DAGs (the builder differential oracle in
``tests/test_differential.py``).  ``tests/test_work_counts.py`` guards the
work behind those times in tier-1 — joins priced and blocks expanded per
build, greedy's Figure 10 counters, Volcano-RU's cost propagations — and
``perfbench/run.py`` measures the wall clock.
"""

import pytest

from harness import assert_cost_ordering, print_cost_table, print_time_table, run_workload
from repro import Algorithm
from repro.workloads.scaleup import all_scaleup_workloads

WORKLOADS = all_scaleup_workloads()


@pytest.fixture(scope="module")
def figure9_results(psp_opt):
    results = {name: run_workload(psp_opt, queries) for name, queries in WORKLOADS.items()}
    print_cost_table("Figure 9 (scale-up)", results)
    print_time_table("Figure 9 (scale-up)", results)
    return results


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_fig9_cost_ordering(figure9_results, workload):
    assert_cost_ordering(figure9_results[workload])


def test_fig9_greedy_finds_sharing_at_scale(figure9_results):
    for name in ("CQ3", "CQ4", "CQ5"):
        results = figure9_results[name]
        assert results["Greedy"].cost < results["Volcano"].cost
        assert results["Greedy"].materialized_count >= 1


def test_fig9_volcano_ru_at_least_as_good_as_sh(figure9_results):
    """On the scale-up workload the paper finds Volcano-RU somewhat better
    than Volcano-SH."""
    results = figure9_results["CQ5"]
    assert results["Volcano-RU"].cost <= results["Volcano-SH"].cost * 1.001


def test_fig9_greedy_scales_roughly_linearly(figure9_results):
    """Optimization time grows close to linearly in the number of queries
    (a small super-linear component is expected, as in the paper)."""
    t1 = figure9_results["CQ1"]["Greedy"].optimization_time
    t5 = figure9_results["CQ5"]["Greedy"].optimization_time
    # CQ5 has 9x the queries of CQ1; allow a generous super-linear factor.
    assert t5 <= max(t1, 1e-4) * 9 * 6


@pytest.mark.parametrize("workload", ["CQ1", "CQ3", "CQ5"])
def test_fig9_greedy_optimization_time(benchmark, psp_opt, workload):
    queries = WORKLOADS[workload]
    dag = psp_opt.build_dag(queries)
    benchmark(lambda: psp_opt.optimize(queries, Algorithm.GREEDY, dag=dag))


@pytest.mark.parametrize("workload", ["CQ5"])
def test_fig9_volcano_optimization_time(benchmark, psp_opt, workload):
    queries = WORKLOADS[workload]
    dag = psp_opt.build_dag(queries)
    benchmark(lambda: psp_opt.optimize(queries, Algorithm.VOLCANO, dag=dag))
