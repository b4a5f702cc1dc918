"""Warm rebuilds in a long-lived optimizer service (``OptimizerSession``).

Run with ``python examples/warm_service.py``.

The paper motivates multi-query optimization with *recurring* batch
workloads: the same (or overlapping) reporting batches re-optimized against
one catalog, over and over.  A plain :class:`repro.MQOptimizer` rebuilds the
AND-OR DAG from a cold start every time; an
:class:`repro.OptimizerSession` keeps a catalog-lifetime cache across calls:

1. an exact repeat of a batch hits the **plan cache** (the previously built
   DAG and results come back outright);
2. an overlapping-but-different batch rebuilds through the **fragment
   cache** (scan choices, join properties, partition-enumeration
   recipes) several times faster than cold;
3. a statistics change (``Catalog.update_statistics``) invalidates exactly
   the affected relation's entries — the next rebuild recomputes that cone
   and keeps the rest warm, and the resulting DAG is byte-identical to a
   cold build against the new statistics.
"""

import time

from repro import MQOptimizer, OptimizerSession
from repro.catalog import psp_catalog
from repro.workloads.scaleup import component_query, scaleup_queries


def timed_build(label, session, queries):
    start = time.perf_counter()
    session.build_dag(queries)
    elapsed = (time.perf_counter() - start) * 1000.0
    print(f"  {label:<42s}{elapsed:9.2f} ms")
    return elapsed


def main() -> None:
    catalog = psp_catalog()
    session = OptimizerSession(catalog)

    cq5 = scaleup_queries(5)                                   # SQ1..SQ18
    shifted = [q for c in range(5, 19) for q in component_query(c)]  # SQ5..SQ18

    print(f"CQ5: {len(cq5)} chain queries over 22 PSP relations\n")
    print("DAG construction on one long-lived session:")
    cold = timed_build("cold build (empty session)", session, cq5)
    repeat = timed_build("same batch again (plan cache)", session, cq5)
    shifted_ms = timed_build("shifted overlapping batch (fragments)", session, shifted)

    catalog.update_statistics("psp3", row_count=31_000)
    stats_ms = timed_build("rebuild after psp3 stats change", session, cq5)

    print(f"\nspeedups vs cold: repeat {cold / repeat:,.0f}x, "
          f"shifted {cold / shifted_ms:.1f}x, stats-change {cold / stats_ms:.1f}x")

    result = session.optimize(cq5, "greedy")
    print(f"\ngreedy on the rebuilt DAG: {result.summary()}")
    print(f"fragment cache: {session.cache_stats()}")

    # The warm DAGs are byte-identical to what a cold optimizer would build —
    # the differential suite (tests/test_session_cache.py) enforces this; the
    # cheap spot-check here compares the estimated plan cost.
    cold_result = MQOptimizer(catalog).optimize(cq5, "greedy")
    assert cold_result.cost == result.cost
    print("cost identical to a cold MQOptimizer run ✓")


if __name__ == "__main__":
    main()
