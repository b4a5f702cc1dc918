"""Section 6.4 — overheads without sharing, database scale, and memory size.

Three text experiments from the discussion section:

* **No overlap**: the batched TPC-D queries with all relations renamed so the
  workload has no common sub-expressions.  Expected: the sharability pass
  finds nothing, Greedy returns the Volcano plan, and its overhead over plain
  Volcano is modest (the paper measures ~25%, dominated by DAG expansion).
* **Database scale**: the benefit of MQO grows with database size while the
  optimization cost stays the same (BQ5 at scale 1 vs scale 100).
* **Memory size**: relative gains are stable across 6 MB / 32 MB / 128 MB of
  memory per operator.

Build/optimize split on this container (CPython 3.11, warm, after the PR 4
memoized builder): the no-overlap batch builds in ~19 ms (~24 ms before —
the memo machinery costs nothing when there is no overlap to hash-cons) and
BQ5 in ~45 ms (~100 ms before), against greedy search times of a few
milliseconds — construction remains the dominant overhead term, exactly as
Section 6.4 reports.  ``tests/test_work_counts.py`` pins the work of those
builds (joins priced, ``JoinInput`` records built, join blocks expanded on
CQ1..CQ5, BQ5 and the no-overlap batch), so it can only shrink.
"""

import pytest

from repro import Algorithm, MQOptimizer
from repro.catalog import tpcd_catalog
from repro.cost.model import CostModel
from repro.workloads.batch import batched_queries, no_overlap_batch

MEMORY_SIZES_MB = (6, 32, 128)


@pytest.fixture(scope="module")
def no_overlap_setup():
    catalog = tpcd_catalog(1.0)
    queries, extended_catalog = no_overlap_batch(catalog)
    return MQOptimizer(extended_catalog), queries


def test_sec64_no_overlap_greedy_matches_volcano(no_overlap_setup):
    optimizer, queries = no_overlap_setup
    dag = optimizer.build_dag(queries)
    volcano = optimizer.optimize(queries, Algorithm.VOLCANO, dag=dag)
    greedy = optimizer.optimize(queries, Algorithm.GREEDY, dag=dag)
    print(
        f"\n=== Section 6.4 no-overlap batch ===\n"
        f"sharable nodes: {greedy.sharable_nodes}, "
        f"Volcano cost {volcano.cost:.1f}s, Greedy cost {greedy.cost:.1f}s"
    )
    assert greedy.sharable_nodes == 0
    assert greedy.materialized_count == 0
    assert abs(greedy.cost - volcano.cost) < 1e-6 * max(1.0, volcano.cost)


def test_sec64_no_overlap_overhead_benchmarks(benchmark, no_overlap_setup):
    """Greedy on a no-overlap workload: pure overhead (DAG expansion plus the
    sharability pass that immediately finds nothing)."""
    optimizer, queries = no_overlap_setup
    benchmark.pedantic(lambda: optimizer.optimize(queries, Algorithm.GREEDY), rounds=3, iterations=1)


def test_sec64_benefit_grows_with_database_scale():
    """BQ5 at scale 1 vs scale 100: the absolute saving grows with data size,
    while the optimization effort (DAG size, candidates) is unchanged."""
    savings = {}
    print("\n=== Section 6.4 database scale ===")
    for scale in (1.0, 100.0):
        optimizer = MQOptimizer(tpcd_catalog(scale))
        queries = batched_queries(5)
        dag = optimizer.build_dag(queries)
        volcano = optimizer.optimize(queries, Algorithm.VOLCANO, dag=dag)
        greedy = optimizer.optimize(queries, Algorithm.GREEDY, dag=dag)
        savings[scale] = volcano.cost - greedy.cost
        print(
            f"scale {scale:>6.0f}: Volcano {volcano.cost:12.1f}s  Greedy {greedy.cost:12.1f}s  "
            f"saving {savings[scale]:12.1f}s  (DAG: {greedy.dag_equivalence_nodes} nodes)"
        )
    assert savings[100.0] > 10 * savings[1.0]


@pytest.mark.parametrize("memory_mb", MEMORY_SIZES_MB)
def test_sec64_memory_sizes(memory_mb):
    """Relative gains are essentially unchanged across operator memory sizes."""
    model = CostModel(memory_bytes=memory_mb * 1024 * 1024)
    optimizer = MQOptimizer(tpcd_catalog(1.0), cost_model=model)
    queries = batched_queries(3)
    dag = optimizer.build_dag(queries)
    volcano = optimizer.optimize(queries, Algorithm.VOLCANO, dag=dag)
    greedy = optimizer.optimize(queries, Algorithm.GREEDY, dag=dag)
    ratio = greedy.cost / volcano.cost
    print(f"\nmemory {memory_mb:>4d} MB: Volcano {volcano.cost:10.1f}s Greedy {greedy.cost:10.1f}s ratio {ratio:.2f}")
    assert greedy.cost <= volcano.cost * 1.001
    assert ratio < 0.95


def test_sec64_scale100_optimization_time_benchmark(benchmark):
    """Optimization time is independent of the database size (scale 100)."""
    optimizer = MQOptimizer(tpcd_catalog(100.0))
    queries = batched_queries(5)
    dag = optimizer.build_dag(queries)
    benchmark.pedantic(
        lambda: optimizer.optimize(queries, Algorithm.GREEDY, dag=dag), rounds=3, iterations=1
    )
