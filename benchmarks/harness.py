"""Shared helpers for the benchmark suite, and its command-line legs.

Every benchmark module regenerates one table or figure of the paper's
evaluation (Section 6): it optimizes the corresponding workload with all four
algorithms, prints the same rows/series the paper reports (estimated cost,
optimization time, greedy counters, executed cost), and uses pytest-benchmark
to time the part of the pipeline the figure is about.

Absolute numbers differ from the paper (different machine, simulated
execution substrate); the *shape* — which algorithm wins, by roughly what
factor, and how costs scale — is what EXPERIMENTS.md records.

Run directly, the module is a set of end-to-end checks; each one asserts its
invariants and exits non-zero when one fails:

* ``--smoke`` — one batched TPC-D workload through the four algorithms: the
  cost ordering, greedy's ``cost == bestcost`` and a session warm rebuild
  that matches the cold answer;
* ``--service`` — multi-worker service over a pickled, bounded
  fragment-cache snapshot (byte-identical first answers, family caps), with
  ``--chaos`` under seeded fault injection;
* ``--result-cache`` — the cross-batch result-cache drill (byte-identical
  rows, >= 2x fewer accounted block reads).

``--json PATH`` writes what the legs measured: the smoke leg's estimated
costs, materialized sets and Figure 10 counters per algorithm (keyed by the
workload, e.g. ``BQ2``), plus ``service_throughput`` and ``result_cache``
entries from the other legs.  Performance is not judged here:
``tests/test_work_counts.py`` gates deterministic work counts, and
``perfbench/run.py`` measures wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

# Make ``src`` importable when this file is executed directly
# (``python benchmarks/harness.py --smoke``); under pytest the benchmark
# conftest does the same insertion, which is harmless to repeat.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro import MQOptimizer, PAPER_ALGORITHMS
from repro.catalog import psp_catalog, tpcd_catalog
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
    """Check the qualitative claim of the paper: the heuristics never lose to
    Volcano, and Greedy is the best (within floating-point slack)."""
    volcano = results["Volcano"].cost
    assert results["Volcano-SH"].cost <= volcano * slack
    assert results["Volcano-RU"].cost <= volcano * slack
    assert results["Greedy"].cost <= volcano * slack


def tpcd_optimizer(scale: float = 1.0) -> MQOptimizer:
    return MQOptimizer(tpcd_catalog(scale))


def results_as_json(results: Dict[str, OptimizationResult]) -> Dict[str, dict]:
    """Machine-readable form of one workload's results (for CI artifacts):
    deterministic fields only, so two runs of the same code write the same
    bytes."""
    return {
        name: {
            "cost": result.cost,
            "materialized": sorted(result.plan.materialized),
            "counters": dict(sorted(result.counters.items())),
        }
        for name, result in results.items()
    }


def smoke(batch_index: int = 2, json_path: Optional[str] = None) -> None:
    """Run one small batched workload end-to-end and check the cost ordering.

    Used by CI (``python benchmarks/harness.py --smoke``) so that the
    benchmark entry points cannot silently rot between full benchmark runs:
    it exercises DAG construction, all four paper algorithms, the result
    tables, and the qualitative cost assertion, in a few seconds.
    """
    from repro.optimizer.costing import bestcost
    from repro.workloads.batch import batched_queries

    from repro.service.session import OptimizerSession

    queries = batched_queries(batch_index)
    optimizer = tpcd_optimizer()
    workload = f"BQ{batch_index}"
    results = run_workload(optimizer, queries)
    rows = {workload: results}
    print_cost_table("smoke (batched TPC-D)", rows)
    print_time_table("smoke (batched TPC-D)", rows)
    assert_cost_ordering(results)
    greedy = results["Greedy"]
    # The materialized ids belong to the DAG the result was computed on.
    assert greedy.cost == bestcost(greedy.plan.dag, greedy.plan.materialized)
    # Session warm rebuild of the same batch through the fragment cache; the
    # rebuilt DAG must match what the one-shot optimizer produced.
    session = OptimizerSession(optimizer.catalog, cache_plans=False)
    session.build_dag(queries)
    warm_result = session.optimize(queries, "greedy")
    assert warm_result.cost == greedy.cost
    if json_path:
        with open(json_path, "w") as handle:
            json.dump({workload: {"algorithms": results_as_json(results)}},
                      handle, indent=1, sort_keys=True)
        print(f"smoke results written to {json_path}")
    print(f"\nsmoke ok: {len(queries)} queries, "
          f"greedy cost {greedy.cost:.2f} (session warm rebuild equal), "
          f"{greedy.materialized_count} materializations")


# ---------------------------------------------------------------------------
# Multi-worker service throughput (PR 7: content-addressed, bounded caches)
# ---------------------------------------------------------------------------

#: Bound on the per-worker batch-level plan cache.  The batch stream cycles
#: through more distinct batches than this (see :func:`_service_batch_specs`),
#: so with LRU the plan cache is pure churn and every batch genuinely
#: rebuilds its DAG through the fragment cache — the path under test.
SERVICE_MAX_PLANS = 32


def _service_batch_specs(count: int) -> List[tuple]:
    """Deterministic stream of overlapping component-query windows.

    Each spec is ``(start, width)``: the batch optimizes components
    ``SQ_start .. SQ_{start+width-1}`` of the CQ5 scale-up workload.  Starts
    stride through 1..17 and widths cycle 2/3/4 (clamped to the 18 available
    components), giving 51 distinct batches that repeat for larger *count* —
    heavy fragment overlap between batches, workers, and the warm snapshot,
    with no randomness.
    """
    specs = []
    for i in range(count):
        start = (i * 7) % 17 + 1
        width = 2 + i % 3
        specs.append((start, min(width, 19 - start)))
    return specs


def _service_batch_queries(spec: tuple) -> List[Query]:
    from repro.workloads.scaleup import component_query

    start, width = spec
    return [query for c in range(start, start + width) for query in component_query(c)]


def _service_worker(worker_id: int, snapshot: bytes, specs: List[tuple],
                    results: "object", heartbeats: "object" = None,
                    chaos_seed: Optional[int] = None,
                    kill_after: Optional[int] = None,
                    result_cache: bool = False) -> None:
    """One service worker: restore the snapshot, serve batches, report stats.

    The snapshot bytes are deliberately round-tripped through
    :meth:`OptimizerSession.from_snapshot` even though the fork start method
    would have inherited the parent's cache for free — exercising the pickled
    content-addressed form is the point.  The first batch is also checked for
    exact cost agreement against a fresh one-shot optimizer, so the
    throughput numbers cannot come from a silently wrong cache.

    *heartbeats* is a shared ``multiprocessing.Array``; the worker bumps its
    slot once per served batch so the parent can report how far a crashed
    worker got.  With *chaos_seed* a seeded
    :class:`~repro.service.faults.FaultInjector` drops/corrupts fragment
    cache entries throughout the run and the **last** batch is verified
    against a one-shot optimizer too — faults must degrade hit rate, never
    correctness.  *kill_after* makes the worker SIGKILL itself after serving
    that many batches (the crash path under test in ``tests/test_chaos.py``).
    With *result_cache* the restored snapshot carries the parent's warm
    ``results`` family: the worker executes every batch through a
    :class:`~repro.execution.ResultCache`-backed executor (deterministically
    regenerated data), and the verification batches additionally run the
    one-shot reference plan on a cache-less executor and require the rows to
    be byte-identical.
    """
    from repro.service.session import OptimizerSession

    session = OptimizerSession.from_snapshot(
        snapshot, cache_plans=True, max_plans=SERVICE_MAX_PLANS,
        result_cache=result_cache,
    )
    executor = cold_executor = None
    exec_blocks = 0
    if result_cache:
        from repro.catalog.psp import DEFAULT_RELATION_COUNT
        from repro.execution import Executor, generate_psp_data

        database = generate_psp_data(relation_count=DEFAULT_RELATION_COUNT,
                                     rows_per_table=SERVICE_EXEC_ROWS)
        executor = Executor(database, session.catalog,
                            result_cache=session.result_cache)
        cold_executor = Executor(database, session.catalog)
    injector = None
    if chaos_seed is not None:
        from repro.service.faults import FaultInjector

        injector = FaultInjector(seed=chaos_seed + worker_id, rate=0.05).attach(session)
    latencies: List[float] = []
    verified = False
    served = 0
    for index, spec in enumerate(specs):
        queries = _service_batch_queries(spec)
        start = time.perf_counter()
        result = session.optimize(queries, "greedy")
        latencies.append(time.perf_counter() - start)
        served += 1
        if heartbeats is not None:
            heartbeats[worker_id] = served
        execution = None
        if executor is not None:
            execution = executor.run(result.plan)
            exec_blocks += execution.stats.blocks_read
        verify = not verified or (injector is not None and index == len(specs) - 1)
        if verify:
            reference = MQOptimizer(session.catalog).optimize(queries, "greedy")
            assert result.cost == reference.cost, (
                f"worker {worker_id}: warm cost {result.cost!r} != "
                f"one-shot cost {reference.cost!r}"
            )
            if execution is not None:
                cold = cold_executor.run(reference.plan)
                assert (_rows_digest(execution.per_query_rows)
                        == _rows_digest(cold.per_query_rows)), (
                    f"worker {worker_id}: result-cache rows diverged from "
                    f"the cold execution on batch {index}"
                )
            verified = True
        if kill_after is not None and served >= kill_after:
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
    stats = session.cache_stats()
    results.put({
        "worker": worker_id,
        "latencies": latencies,
        "hits": stats.hits,
        "misses": stats.misses,
        "lru_evictions": stats.lru_evictions,
        "interner_resets": stats.interner_resets,
        "quarantined": stats.quarantined,
        "recipe_quarantines": stats.recipe_quarantines,
        "injected_faults": injector.injected_faults if injector is not None else 0,
        "plan_hits": session.plan_hits,
        "plan_misses": session.plan_misses,
        "family_sizes": session.cache.family_sizes(),
        "verified_first_batch": verified,
        "exec_blocks_read": exec_blocks,
        "result_cache_counters": (
            session.result_cache.counters()
            if session.result_cache is not None else None
        ),
    })


def measure_service_throughput(
    workers: int = 2, batches: int = 1000, scale: int = 1,
    chaos_seed: Optional[int] = None, kill_after: Optional[int] = None,
    worker_timeout_s: float = 120.0, result_cache: bool = False,
) -> Dict[str, object]:
    """Serve *batches* overlapping batches from *workers* processes sharing
    one warm, bounded fragment-cache snapshot; return throughput metrics.

    The parent warms a session with :class:`SessionCacheLimits.bounded`
    bounds, pickles it via :meth:`OptimizerSession.snapshot_state`, and hands
    the bytes to every worker process (fork start method; the bytes travel
    explicitly so the content-addressed pickled form is what gets restored).
    Workers split the batch stream round-robin and time each
    ``optimize(queries, "greedy")`` call; the parent aggregates per-batch
    p50/p99 latency, whole-run qps, fragment hit rate, and LRU eviction
    counts, and asserts that no cache family ever exceeds its configured
    bound.  On a single-core container the workers time-share — qps measures
    the *service configuration*, not parallel speedup.

    Worker death is a **typed failure, not a hang**: results are collected
    with a timeout and a liveness poll against per-worker heartbeat slots, so
    a worker that dies mid-run (OOM kill, segfault, the chaos suite's
    deliberate SIGKILL) surfaces as :class:`ServiceWorkerError` carrying the
    dead workers' exit codes, last heartbeats, and the surviving workers'
    partial metrics.  *kill_after* arms worker 0 (only) to SIGKILL itself
    after serving that many batches — the crash-drill knob.  With *chaos_seed* the run doubles as a fault drill:
    each worker serves under a seeded :class:`FaultInjector`, and the parent
    first proves a corrupted snapshot is *rejected* (``SnapshotError`` →
    ``from_snapshot_or_cold`` fallback) rather than restored wrong.

    With *result_cache* (the ``--service --result-cache`` CI smoke leg) the
    parent additionally executes one warm workload so the pickled snapshot
    carries ``results``-family entries, and every worker executes its batches
    through the restored :class:`~repro.execution.ResultCache` — cross-batch
    *and* cross-process reuse with byte-identity spot checks.
    """
    import multiprocessing
    import queue as queue_module

    from repro.catalog import psp_catalog
    from repro.service.resilience import ServiceWorkerError
    from repro.service.session import OptimizerSession, SessionCacheLimits
    from repro.workloads.scaleup import scaleup_queries

    limits = SessionCacheLimits.bounded(scale)
    parent = OptimizerSession(psp_catalog(), cache_plans=False, limits=limits,
                              result_cache=result_cache)
    parent.build_dag(scaleup_queries(5))  # warm the shared fragment snapshot
    if result_cache:
        # Warm the results family too: workers restore a snapshot that
        # already holds executed intermediates for the early components.
        from repro.catalog.psp import DEFAULT_RELATION_COUNT
        from repro.execution import Executor, generate_psp_data

        database = generate_psp_data(relation_count=DEFAULT_RELATION_COUNT,
                                     rows_per_table=SERVICE_EXEC_ROWS)
        warm_plan = parent.optimize(scaleup_queries(2), "greedy").plan
        Executor(database, parent.catalog,
                 result_cache=parent.result_cache).run(warm_plan)
    snapshot = parent.snapshot_state()

    if chaos_seed is not None:
        # Snapshot-integrity drill: damaged bytes must never restore wrong —
        # the sealed header rejects them and the service falls back cold.
        from repro.service.faults import FaultInjector

        damaged = FaultInjector(seed=chaos_seed).corrupt_snapshot(snapshot)
        recovered = OptimizerSession.from_snapshot_or_cold(damaged, parent.catalog)
        assert recovered.restore_error is not None, (
            "corrupted snapshot was restored without a SnapshotError"
        )

    specs = _service_batch_specs(batches)
    context = multiprocessing.get_context("fork")
    results_queue = context.Queue()
    heartbeats = context.Array("i", workers, lock=False)
    processes = [
        context.Process(
            target=_service_worker,
            args=(worker_id, snapshot, specs[worker_id::workers], results_queue,
                  heartbeats, chaos_seed,
                  kill_after if worker_id == 0 else None, result_cache),
        )
        for worker_id in range(workers)
    ]
    wall_start = time.perf_counter()
    for process in processes:
        process.start()

    # Timeout-based collection with a liveness poll: never block forever on a
    # queue a dead worker will not feed.  After spotting a dead process the
    # queue is drained non-blocking first — its report may have raced in.
    reports: List[Dict[str, object]] = []
    reported: set = set()
    failures: List[Dict[str, object]] = []
    failed: set = set()
    collect_deadline = time.perf_counter() + worker_timeout_s
    while len(reported) + len(failed) < workers:
        try:
            report = results_queue.get(timeout=0.5)
            reports.append(report)
            reported.add(report["worker"])
            continue
        except queue_module.Empty:
            pass
        for worker_id, process in enumerate(processes):
            if worker_id in reported or worker_id in failed:
                continue
            if process.is_alive():
                continue
            while True:
                try:
                    report = results_queue.get_nowait()
                except queue_module.Empty:
                    break
                reports.append(report)
                reported.add(report["worker"])
            if worker_id in reported:
                continue
            process.join()
            failures.append({
                "worker": worker_id,
                "exitcode": process.exitcode,
                "heartbeat": heartbeats[worker_id],
            })
            failed.add(worker_id)
        if time.perf_counter() >= collect_deadline:
            for worker_id, process in enumerate(processes):
                if worker_id not in reported and worker_id not in failed:
                    process.terminate()
                    process.join()
                    failures.append({
                        "worker": worker_id,
                        "exitcode": process.exitcode,
                        "heartbeat": heartbeats[worker_id],
                    })
                    failed.add(worker_id)
    for process in processes:
        process.join()
    wall = time.perf_counter() - wall_start
    for worker_id, process in enumerate(processes):
        if worker_id not in failed and process.exitcode != 0:
            failures.append({
                "worker": worker_id,
                "exitcode": process.exitcode,
                "heartbeat": heartbeats[worker_id],
            })
            failed.add(worker_id)
    if failures:
        partial = {
            "reports": len(reports),
            "batches_served": sum(len(r["latencies"]) for r in reports)
            + sum(f["heartbeat"] for f in failures),
        }
        dead = ", ".join(
            f"worker {f['worker']} (exit {f['exitcode']}, "
            f"{f['heartbeat']} batches served)" for f in failures
        )
        raise ServiceWorkerError(
            f"{len(failures)}/{workers} service workers died: {dead}",
            failures=failures,
            partial=partial,
        )

    latencies = sorted(lat for report in reports for lat in report["latencies"])
    assert len(latencies) == batches
    assert all(report["verified_first_batch"] for report in reports)
    caps = {
        family: getattr(limits, family)
        for family in reports[0]["family_sizes"]
        if getattr(limits, family, None) is not None
    }
    sizes_max = {
        family: max(report["family_sizes"][family] for report in reports)
        for family in reports[0]["family_sizes"]
    }
    for family, cap in caps.items():
        assert sizes_max[family] <= cap, (
            f"bounded family '{family}' exceeded its cap: "
            f"{sizes_max[family]} > {cap}"
        )
    hits = sum(report["hits"] for report in reports)
    misses = sum(report["misses"] for report in reports)
    rc_counters: Optional[Dict[str, int]] = None
    if result_cache:
        rc_counters = {}
        for report in reports:
            for key, value in report["result_cache_counters"].items():
                rc_counters[key] = rc_counters.get(key, 0) + value
    return {
        "workers": workers,
        "batches": batches,
        "limits_scale": scale,
        "snapshot_bytes": len(snapshot),
        "wall_s": wall,
        "qps": batches / wall,
        "p50_ms": latencies[len(latencies) // 2] * 1000.0,
        "p99_ms": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1000.0,
        "fragment_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "hits": hits,
        "misses": misses,
        "lru_evictions": sum(report["lru_evictions"] for report in reports),
        "interner_resets": sum(report["interner_resets"] for report in reports),
        "plan_hits": sum(report["plan_hits"] for report in reports),
        "plan_misses": sum(report["plan_misses"] for report in reports),
        "family_sizes_max": sizes_max,
        "family_caps": caps,
        "chaos": chaos_seed is not None,
        "injected_faults": sum(report["injected_faults"] for report in reports),
        "quarantined": sum(report["quarantined"] for report in reports),
        "recipe_quarantines": sum(report["recipe_quarantines"] for report in reports),
        "result_cache": result_cache,
        "exec_blocks_read": sum(report["exec_blocks_read"] for report in reports),
        "result_cache_counters": rc_counters,
        "worker_failures": [],
    }


def print_service_table(metrics: Dict[str, object]) -> None:
    """One summary block for :func:`measure_service_throughput`."""
    print("\n=== service throughput (multi-worker, bounded caches) ===")
    print(f"workers:            {metrics['workers']}")
    print(f"batches served:     {metrics['batches']}")
    print(f"snapshot size:      {metrics['snapshot_bytes'] / 1024:.0f} KiB")
    print(f"throughput:         {metrics['qps']:.1f} batches/s "
          f"({metrics['wall_s']:.2f} s wall)")
    print(f"latency p50 / p99:  {metrics['p50_ms']:.2f} / {metrics['p99_ms']:.2f} ms")
    print(f"fragment hit rate:  {metrics['fragment_hit_rate']:.1%} "
          f"({metrics['hits']} hits / {metrics['misses']} misses)")
    print(f"LRU evictions:      {metrics['lru_evictions']} "
          f"(interner resets: {metrics['interner_resets']})")
    print(f"plan cache:         {metrics['plan_hits']} hits / "
          f"{metrics['plan_misses']} misses (bound {SERVICE_MAX_PLANS})")
    if metrics.get("chaos"):
        print(f"chaos:              {metrics['injected_faults']} faults injected, "
              f"{metrics['quarantined']} entries quarantined, "
              f"{metrics['recipe_quarantines']} recipes quarantined "
              f"(plans verified byte-identical)")
    if metrics.get("result_cache"):
        counters = metrics["result_cache_counters"]
        print(f"result cache:       {metrics['exec_blocks_read']} executed block "
              f"reads; {counters['injected_serves']} injected / "
              f"{counters['exec_serves']} digest serves, "
              f"{counters['exact_injections']}+{counters['covering_injections']} "
              f"injections (rows verified byte-identical)")
    sizes = metrics["family_sizes_max"]
    caps = metrics["family_caps"]
    over = ", ".join(
        f"{family} {sizes[family]}/{caps[family]}"
        for family in sorted(caps)
        if sizes[family] > 0
    )
    print(f"family fill (max/cap): {over}")


# ---------------------------------------------------------------------------
# Cross-batch result-cache scenario (PR 10)
# ---------------------------------------------------------------------------

#: Rows per PSP relation for the standalone ``--result-cache`` scenario:
#: small enough that the pure-Python executor stays fast, large enough that
#: intermediates span multiple accounted blocks and caching them pays.
RESULT_CACHE_ROWS = 300
#: Rows per PSP relation when ``--service --result-cache`` workers execute
#: every batch (the full 22-relation schema, so smaller tables).
SERVICE_EXEC_ROWS = 120


def _result_cache_batch_specs(count: int) -> List[tuple]:
    """Deterministic overlapping component windows over components 1..6.

    Each spec is ``(start, width)`` like :func:`_service_batch_specs`, but
    confined to the first six scale-up components so the whole stream fits a
    10-relation catalog (component ``i`` reads ``PSP_i .. PSP_{i+4}``).
    Starts cycle 1..5 and widths alternate 1/2 — ten distinct batches with
    heavy scan overlap, repeating for larger *count* (repeats exercise
    warm-fragment reuse plus execution-time digest serves).
    """
    return [((i * 2) % 5 + 1, 1 + i % 2) for i in range(count)]


def _rows_digest(per_query_rows: List[List[dict]]) -> str:
    """sha256 over the exact rows — values, row order, column order — of a
    per-query row list (the byte-identity oracle used across the suite)."""
    import hashlib

    serialized = repr([
        [[(str(col), row[col]) for col in row] for row in rows]
        for rows in per_query_rows
    ])
    return hashlib.sha256(serialized.encode()).hexdigest()


def measure_result_cache(
    batches: int = 12, relation_count: int = 10,
    rows_per_table: int = RESULT_CACHE_ROWS,
) -> Dict[str, object]:
    """Execute overlapping batches with the cross-batch result cache off and
    on; assert byte-identical rows and a >= 2x block-read reduction.

    The OFF pass is the seed pipeline: every batch gets a fresh one-shot
    :class:`MQOptimizer` and a fresh cache-less :class:`Executor` — no state
    crosses batch boundaries.  The ON pass serves the same stream from one
    :class:`OptimizerSession` with ``result_cache=True`` and one executor
    bound to it, so intermediates executed for early batches are injected
    (exactly or by covering subsumption) into later builds and served at
    execution time.  Both passes run over the same generated database;
    per-batch rows must be byte-identical (row and column order included),
    and the aggregated accounted block reads must drop at least 2x — the
    PR's acceptance metric, asserted here so the benchmark itself is a gate.
    """
    from repro.execution import Executor, generate_psp_data
    from repro.service.session import OptimizerSession

    catalog = psp_catalog(relation_count=relation_count)
    database = generate_psp_data(relation_count=relation_count,
                                 rows_per_table=rows_per_table)
    specs = _result_cache_batch_specs(batches)
    workloads = [_service_batch_queries(spec) for spec in specs]

    per_batch: List[Dict[str, object]] = []
    off_digests: List[str] = []
    off_blocks = 0
    off_seconds = 0.0
    for spec, queries in zip(specs, workloads):
        plan = MQOptimizer(catalog).optimize(queries, "greedy").plan
        execution = Executor(database, catalog).run(plan)
        off_digests.append(_rows_digest(execution.per_query_rows))
        off_blocks += execution.stats.blocks_read
        off_seconds += execution.simulated_seconds
        per_batch.append({"spec": list(spec),
                          "off_blocks": execution.stats.blocks_read})

    session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
    executor = Executor(database, catalog, result_cache=session.result_cache)
    on_blocks = 0
    on_seconds = 0.0
    for index, queries in enumerate(workloads):
        plan = session.optimize(queries, "greedy").plan
        execution = executor.run(plan)
        digest = _rows_digest(execution.per_query_rows)
        assert digest == off_digests[index], (
            f"result-cache batch {index} returned different rows than its "
            f"cold execution"
        )
        on_blocks += execution.stats.blocks_read
        on_seconds += execution.simulated_seconds
        per_batch[index]["on_blocks"] = execution.stats.blocks_read

    reduction = (off_blocks / on_blocks) if on_blocks else float("inf")
    assert reduction >= 2.0, (
        f"result cache reduced accounted block reads only {reduction:.2f}x "
        f"({off_blocks} -> {on_blocks}); the acceptance floor is 2x"
    )
    assert session.result_cache is not None
    return {
        "batches": batches,
        "relation_count": relation_count,
        "rows_per_table": rows_per_table,
        "off_blocks_read": off_blocks,
        "on_blocks_read": on_blocks,
        "reduction": reduction,
        "off_simulated_s": off_seconds,
        "on_simulated_s": on_seconds,
        "rows_identical": True,
        "counters": session.result_cache.counters(),
        "per_batch": per_batch,
    }


def print_result_cache_table(metrics: Dict[str, object]) -> None:
    """One summary block for :func:`measure_result_cache`."""
    print("\n=== cross-batch result cache (accounted block reads) ===")
    print(f"batches:            {metrics['batches']} overlapping component "
          f"windows ({metrics['relation_count']} relations, "
          f"{metrics['rows_per_table']} rows each)")
    print(f"blocks read (off):  {metrics['off_blocks_read']}")
    print(f"blocks read (on):   {metrics['on_blocks_read']}")
    print(f"reduction:          {metrics['reduction']:.2f}x (acceptance floor: 2x)")
    print(f"simulated seconds:  {metrics['off_simulated_s']:.3f} -> "
          f"{metrics['on_simulated_s']:.3f}")
    counters = metrics["counters"]
    print(f"injections:         {counters['exact_injections']} exact / "
          f"{counters['covering_injections']} covering "
          f"({counters['adoptions']} adoptions)")
    print(f"serves:             {counters['injected_serves']} injected / "
          f"{counters['exec_serves']} digest-exact "
          f"({counters['stores']} stores, {counters['entries']} entries)")
    print("rows:               byte-identical to the cold execution, every batch")


#: Options that only mean something alongside a leg: (option, leg flag).
_OPTION_NEEDS = (
    ("--batch", "--smoke"),
    ("--service-workers", "--service"),
    ("--service-batches", "--service"),
    ("--chaos", "--service"),
    ("--chaos-seed", "--chaos"),
)


def build_parser() -> argparse.ArgumentParser:
    """The command-line interface of :func:`_main`."""
    parser = argparse.ArgumentParser(description="Benchmark harness entry point",
                                     allow_abbrev=False)
    parser.add_argument("--smoke", action="store_true",
                        help="run one small batched workload end-to-end (used by CI)")
    parser.add_argument("--batch", type=int, default=2, metavar="1..5",
                        help="which BQ_i batch the smoke run uses (default: 2)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write what the legs measured as JSON")
    parser.add_argument("--service", action="store_true",
                        help="measure multi-worker service throughput over a "
                             "shared bounded fragment-cache snapshot "
                             "(p50/p99 latency, qps, hit rate)")
    parser.add_argument("--service-workers", type=int, default=2, metavar="N",
                        help="worker process count for --service (default: 2)")
    parser.add_argument("--service-batches", type=int, default=1000, metavar="N",
                        help="total batches served by --service (default: 1000; "
                             "CI smoke uses 40)")
    parser.add_argument("--result-cache", action="store_true",
                        help="run the cross-batch ResultCache drill: the same "
                             "overlapping batches executed with the cache off "
                             "and on (byte-identical rows enforced, >= 2x "
                             "fewer accounted block reads asserted); with "
                             "--service, workers also execute every batch "
                             "through a snapshot-restored result cache")
    parser.add_argument("--chaos", action="store_true",
                        help="with --service: run the fault drill — seeded "
                             "FaultInjector in every worker, corrupted-"
                             "snapshot rejection check, first+last batch "
                             "verified against a one-shot optimizer")
    parser.add_argument("--chaos-seed", type=int, default=1337, metavar="SEED",
                        help="fault-schedule seed for --chaos (default: 1337)")
    return parser


def _main(argv: List[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every combination is checked before any leg runs: a leg can take
    # minutes, and its output must not precede a usage error.
    if not (args.smoke or args.service or args.result_cache):
        parser.error("nothing to do: pass --smoke, --service or --result-cache "
                     "(the full suite runs via pytest)")
    given = {arg.split("=", 1)[0] for arg in argv if arg.startswith("--")}
    for option, leg in _OPTION_NEEDS:
        if option in given and leg not in given:
            parser.error(f"{option} only makes sense with {leg}")
    if args.smoke:
        smoke(batch_index=args.batch, json_path=args.json)
    if args.result_cache:
        metrics = measure_result_cache()
        print_result_cache_table(metrics)
        if args.json:
            _merge_json(args.json, "result_cache", metrics)
    if args.service:
        metrics = measure_service_throughput(
            workers=args.service_workers, batches=args.service_batches,
            chaos_seed=args.chaos_seed if args.chaos else None,
            result_cache=args.result_cache,
        )
        print_service_table(metrics)
        if args.json:
            _merge_json(args.json, "service_throughput", metrics)
    return 0


def _merge_json(path: str, key: str, value: object) -> None:
    """Store *value* under *key* in the JSON object at *path*, keeping the
    entries earlier legs of the same run wrote there."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (FileNotFoundError, ValueError):
        payload = {}
    payload[key] = value
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"{key} results written to {path}")


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
