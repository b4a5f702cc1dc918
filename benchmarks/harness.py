"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper's
evaluation (Section 6): it optimizes the corresponding workload with all four
algorithms, prints the same rows/series the paper reports (estimated cost,
optimization time, greedy counters, executed cost), and uses pytest-benchmark
to time the part of the pipeline the figure is about.

Absolute numbers differ from the paper (different machine, simulated
execution substrate); the *shape* — which algorithm wins, by roughly what
factor, and how costs scale — is what EXPERIMENTS.md records.

**BENCH_pr<k>.json series.**  ``python benchmarks/harness.py --smoke --json
PATH`` writes a machine-readable snapshot of one smoke run; the repository
root keeps one per PR (``BENCH_pr4.json``, ...) as the performance
trajectory.  Format, one entry per workload::

    {
      "<workload>": {
        "build_ms": <min-of-N DAG construction wall time, milliseconds>,
        "algorithms": {
          "<algorithm>": {
            "cost": <estimated plan cost, seconds>,
            "optimization_time_ms": <wall time of the search, milliseconds>,
            "materialized": [<equivalence node ids>],
            "counters": {<Figure 10 counters>}
          }
        }
      },
      "warm_rebuild": {                      # since PR 5 (OptimizerSession)
        "<scenario>": {
          "cold_ms": <fresh-session build, milliseconds>,
          "warm_ms": <session rebuild, milliseconds>,
          "speedup": <cold_ms / warm_ms>
        }
      }
    }

Times are raw (not calibration-normalized): the trajectory documents what a
given PR measured on its container, while regression *checking* goes through
the normalized ``--perf-gate`` below.  Warm-rebuild *speedups* are ratios —
machine-independent — so the gate checks them against fixed floors
(:data:`WARM_GATE_MIN_SPEEDUP`) with no baseline entry.

**Series policy.**  Every PR that touches performance-relevant code emits
exactly one ``BENCH_pr<k>.json`` at the repository root, produced by this
harness on the PR's container (``--smoke --warm --service --json
BENCH_pr<k>.json``, full service scale; since PR 10 plus ``--result-cache``).  PRs that do not touch perf code
emit none — gaps in the ``pr<k>`` numbering are expected and mean exactly
that, not lost data (there is no ``BENCH_pr6.json``: PR 6 was the linter).
Since PR 7 the snapshot also carries a ``service_throughput`` entry — the
multi-worker service path (pickled fragment-cache snapshot fanned out to
worker processes, bounded caches, overlapping batches)::

    "service_throughput": {
      "workers": <process count>, "batches": <total batches served>,
      "qps": <batches per wall-clock second, all workers>,
      "p50_ms": ..., "p99_ms": ...,   # per-batch service latency
      "fragment_hit_rate": <hits / (hits + misses), aggregated>,
      "lru_evictions": <capacity evictions, aggregated>,
      "family_sizes_max": {<family>: <largest end-state size any worker saw>},
      ...
    }

Since PR 10 ``--result-cache`` adds a ``result_cache`` entry — the
cross-batch semantic result cache drill: the same stream of overlapping
batches is optimized *and executed* twice, once per-batch cold and once
through a single session whose :class:`~repro.execution.result_cache.
ResultCache` carries intermediates across batches.  Rows must be
byte-identical in both modes and accounted block reads must drop at least
2x (the PR's acceptance metric)::

    "result_cache": {
      "off_blocks_read": ..., "on_blocks_read": ..., "reduction": ...,
      "counters": {"exact_injections": ..., "covering_injections": ...,
                   "adoptions": ..., "exec_serves": ..., "injected_serves": ...,
                   ...},
      ...
    }
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

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


def print_time_table(
    title: str,
    rows: Dict[str, Dict[str, OptimizationResult]],
    build_times_ms: Optional[Dict[str, float]] = None,
) -> None:
    """Print optimization times, one line per workload.

    When *build_times_ms* is given (workload -> milliseconds), a ``DAG
    build`` column is appended — construction now being the part of the
    pipeline Section 6.4 identifies as the dominant MQO overhead, the tables
    report it alongside the search times.
    """
    print(f"\n=== {title}: optimization time (milliseconds) ===")
    header = f"{'workload':<10s}" + "".join(f"{name:>14s}" for name in ALGORITHM_ORDER)
    if build_times_ms is not None:
        header += f"{'DAG build':>14s}"
    print(header)
    for workload, results in rows.items():
        line = f"{workload:<10s}"
        for name in ALGORITHM_ORDER:
            line += f"{results[name].optimization_time * 1000:14.2f}"
        if build_times_ms is not None:
            line += f"{build_times_ms[workload]:14.2f}"
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


def psp_optimizer() -> MQOptimizer:
    return MQOptimizer(psp_catalog())


def results_as_json(results: Dict[str, OptimizationResult]) -> Dict[str, dict]:
    """Machine-readable form of one workload's results (for CI artifacts)."""
    return {
        name: {
            "cost": result.cost,
            "optimization_time_ms": result.optimization_time * 1000.0,
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
    optimizer.build_dag(queries)  # warm caches before timing construction
    build_ms = min(_best_of(lambda: optimizer.build_dag(queries), 3)) * 1000.0
    results = run_workload(optimizer, queries)
    rows = {workload: results}
    print_cost_table("smoke (batched TPC-D)", rows)
    print_time_table("smoke (batched TPC-D)", rows, {workload: build_ms})
    assert_cost_ordering(results)
    greedy = results["Greedy"]
    # The materialized ids belong to the DAG the result was computed on.
    assert greedy.cost == bestcost(greedy.plan.dag, greedy.plan.materialized)
    # Session warm rebuild of the same batch through the fragment cache; the
    # rebuilt DAG must match what the one-shot optimizer produced.
    session = OptimizerSession(optimizer.catalog, cache_plans=False)
    session.build_dag(queries)
    warm_ms = min(_best_of(lambda: session.build_dag(queries), 3)) * 1000.0
    warm_result = session.optimize(queries, "greedy")
    assert warm_result.cost == greedy.cost
    if json_path:
        payload = {workload: {"build_ms": build_ms,
                              "warm_build_ms": warm_ms,
                              "algorithms": results_as_json(results)}}
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"smoke results written to {json_path}")
    print(f"\nsmoke ok: {len(queries)} queries, DAG build {build_ms:.2f} ms "
          f"(session warm rebuild {warm_ms:.2f} ms), "
          f"greedy cost {greedy.cost:.2f}, "
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


# ---------------------------------------------------------------------------
# Perf-regression gate (CI)
# ---------------------------------------------------------------------------

#: Figure 9 workloads timed by the gate (the greedy hot path the engine work
#: targets; CQ5 is the toggle-dominated worst case).  Volcano-RU is gated on
#: the same workloads: its dominant terms — the incremental per-order costing
#: and the dense Volcano-SH decision pass it runs twice — are exactly the
#: engine code paths this repo keeps rewriting.
PERF_GATE_WORKLOADS = ("CQ1", "CQ3", "CQ5")
#: DAG construction workloads gated since PR 4 (the memoized, hash-consed
#: builder): the scale-up composites where overlap makes hash-consing pay,
#: the largest TPC-D batch, and the no-overlap batch of Section 6.4 where the
#: memo machinery must not cost anything.
BUILD_GATE_WORKLOADS = ("CQ1", "CQ2", "CQ3", "CQ4", "CQ5", "BQ5", "NO-OVERLAP")
PERF_GATE_TOLERANCE = 1.5
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "perf_baseline.json")


def _calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload, as a machine-speed unit.

    Greedy wall times are only comparable across machines (laptop vs. CI
    runner) after dividing by how fast the interpreter runs comparable
    bytecode, so the gate stores and compares *normalized* times.  The
    calibration loop intentionally lives outside the repro package: if it
    used the optimizer itself, speeding the optimizer up would silently
    loosen the gate.
    """
    data = [float(i % 97) + 0.5 for i in range(5_000)]
    table: Dict[int, float] = {}

    def spin() -> float:
        acc = 0.0
        for _ in range(40):
            for i, value in enumerate(data):
                acc += value * 1.0000001
                if not i & 1023:
                    table[i] = acc
        return acc

    spin()  # warm-up
    return min(_best_of(spin, repeats))


def _best_of(fn, repeats: int) -> List[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _measure_algorithm_times(algorithm, repeats: int = 7) -> Dict[str, float]:
    """Min-of-N optimization seconds for one algorithm on the gate workloads."""
    from repro.workloads.scaleup import all_scaleup_workloads

    optimizer = psp_optimizer()
    workloads = all_scaleup_workloads()
    times: Dict[str, float] = {}
    for name in PERF_GATE_WORKLOADS:
        queries = workloads[name]
        dag = optimizer.build_dag(queries)
        run = lambda: optimizer.optimize(queries, algorithm, dag=dag)
        run()  # warm caches (cost engine snapshot)
        times[name] = min(_best_of(run, repeats))
    return times


def measure_greedy_times(repeats: int = 7) -> Dict[str, float]:
    """Min-of-N greedy optimization seconds for the gate workloads."""
    from repro import Algorithm

    return _measure_algorithm_times(Algorithm.GREEDY, repeats)


def measure_volcano_ru_times(repeats: int = 7) -> Dict[str, float]:
    """Min-of-N Volcano-RU optimization seconds for the gate workloads."""
    from repro import Algorithm

    return _measure_algorithm_times(Algorithm.VOLCANO_RU, repeats)


def measure_build_times(repeats: int = 5) -> Dict[str, float]:
    """Min-of-N ``build_dag`` seconds for the build-gate workloads."""
    from repro import MQOptimizer
    from repro.catalog import tpcd_catalog
    from repro.workloads.batch import batched_queries, no_overlap_batch
    from repro.workloads.scaleup import all_scaleup_workloads

    times: Dict[str, float] = {}
    psp = psp_optimizer()
    scaleup = all_scaleup_workloads()
    tpcd = tpcd_optimizer()
    no_overlap_queries, no_overlap_catalog = no_overlap_batch(tpcd_catalog(1.0))
    cases = [(name, psp, scaleup[name]) for name in scaleup]
    cases.append(("BQ5", tpcd, batched_queries(5)))
    cases.append(("NO-OVERLAP", MQOptimizer(no_overlap_catalog), no_overlap_queries))
    for name, optimizer, queries in cases:
        if name not in BUILD_GATE_WORKLOADS:
            continue
        run = lambda: optimizer.build_dag(queries)
        run()  # warm catalog/property caches
        times[name] = min(_best_of(run, repeats))
    return times


#: Minimum warm/cold build speedups enforced by ``--perf-gate``.  Speedups
#: are ratios of two measurements from the same process, so they transfer
#: across machines without calibration; the floors are set well below the
#: measured values (repeat ~190x via the plan cache, rebuild ~2.8x, shifted
#: ~2.7x, stats change ~2.3x on a shared 2-core Xeon) to absorb scheduling
#: noise.  The ratios shrink whenever cold builds get faster.
WARM_GATE_MIN_SPEEDUP = {
    "CQ5-repeat": 3.0,
    "CQ5-rebuild": 2.0,
    "CQ5-shifted": 1.5,
    "CQ5-stats-change": 1.05,
}


def measure_warm_rebuild(repeats: int = 5) -> Dict[str, Dict[str, float]]:
    """Cold vs. warm DAG-build times for the ``OptimizerSession`` scenarios.

    Four scenarios over the CQ5 scale-up batch (the paper's recurring-batch
    service case), each reported as ``{cold_ms, warm_ms, speedup}`` where
    *cold* is a fresh-session build and *warm* a rebuild on a long-lived
    session:

    * ``CQ5-repeat`` — the same batch re-optimized verbatim; the session's
      batch-level plan cache returns the previously built DAG outright.
    * ``CQ5-rebuild`` — the same batch with the plan cache disabled: the DAG
      is reconstructed from scratch, node by node, through the fragment
      cache (scan choices, join costs, properties, partition recipes); this
      is the path the byte-identity differential suite exercises.
    * ``CQ5-shifted`` — a *different but overlapping* batch (the SQ5..SQ18
      suffix window of CQ5's SQ1..SQ18 components) rebuilt on a session
      primed with CQ5: only fragment-level reuse can help here.
    * ``CQ5-stats-change`` — statistics of one relation (``psp3``) are
      mutated before every rebuild: the session must evict exactly that
      relation's cone and recompute it, keeping the rest warm.
    """
    from repro.catalog import psp_catalog
    from repro.service.session import OptimizerSession
    from repro.workloads.scaleup import component_query, scaleup_queries

    cq5 = scaleup_queries(5)
    shifted = [query for c in range(5, 19) for query in component_query(c)]
    scenarios: Dict[str, Dict[str, float]] = {}

    def record(name: str, cold_s: float, warm_s: float) -> None:
        scenarios[name] = {
            "cold_ms": cold_s * 1000.0,
            "warm_ms": warm_s * 1000.0,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        }

    def timed(fn) -> Callable[[], float]:
        def sample() -> float:
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        return sample

    def cold_build(queries, **session_kwargs) -> Callable[[], float]:
        return timed(lambda: OptimizerSession(psp_catalog(), **session_kwargs).build_dag(queries))

    def measure(name: str, cold: Callable[[], float], warm: Callable[[], float]) -> None:
        # Cold and warm samples alternate, so a swing in host speed lands on
        # both sides of the ratio instead of on whichever side ran during it.
        cold_s, warm_s = [], []
        for _ in range(repeats):
            cold_s.append(cold())
            warm_s.append(warm())
        record(name, min(cold_s), min(warm_s))

    # Same batch, plan cache enabled (the default service configuration).
    session = OptimizerSession(psp_catalog())
    session.build_dag(cq5)
    measure("CQ5-repeat", cold_build(cq5), timed(lambda: session.build_dag(cq5)))

    # Same batch, fragment cache only.
    rebuild_session = OptimizerSession(psp_catalog(), cache_plans=False)
    rebuild_session.build_dag(cq5)
    measure("CQ5-rebuild", cold_build(cq5, cache_plans=False),
            timed(lambda: rebuild_session.build_dag(cq5)))

    # Overlapping-but-different batch on a CQ5-primed session.  The session
    # is re-primed for every sample: after the first shifted build its own
    # fragments would be cached too, and the measurement would degenerate
    # into the same-batch rebuild scenario above.
    def shifted_once() -> float:
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        session.build_dag(cq5)
        start = time.perf_counter()
        session.build_dag(shifted)
        return time.perf_counter() - start

    measure("CQ5-shifted", cold_build(shifted, cache_plans=False), shifted_once)

    # Statistics change between rebuilds: targeted invalidation of one
    # relation's cone, everything else stays warm.
    stats_session = OptimizerSession(psp_catalog(), cache_plans=False)
    stats_session.build_dag(cq5)
    rows = [31_000, 32_000, 33_000]

    def stats_change_rebuild() -> None:
        stats_session.catalog.update_statistics("psp3", row_count=rows[0])
        rows.append(rows.pop(0))
        stats_session.build_dag(cq5)

    measure("CQ5-stats-change", cold_build(cq5, cache_plans=False),
            timed(stats_change_rebuild))
    return scenarios


def print_warm_rebuild_table(scenarios: Dict[str, Dict[str, float]]) -> None:
    """One line per warm-rebuild scenario (see :func:`measure_warm_rebuild`)."""
    print("\n=== warm rebuild (OptimizerSession): DAG build (milliseconds) ===")
    print(f"{'scenario':<18s}{'cold':>12s}{'warm':>12s}{'speedup':>10s}")
    for name, entry in scenarios.items():
        print(f"{name:<18s}{entry['cold_ms']:12.2f}{entry['warm_ms']:12.3f}"
              f"{entry['speedup']:9.1f}x")


#: Gate series: (name, baseline key, measurement fn, gated workloads).
_GATE_SERIES = (
    ("greedy", "greedy_normalized", measure_greedy_times, PERF_GATE_WORKLOADS),
    ("volcano_ru", "volcano_ru_normalized", measure_volcano_ru_times, PERF_GATE_WORKLOADS),
    ("build", "build_normalized", measure_build_times, BUILD_GATE_WORKLOADS),
)


def perf_gate(baseline_path: str, update: bool = False,
              tolerance: float = PERF_GATE_TOLERANCE) -> int:
    """Fail (non-zero) if fig9 greedy, Volcano-RU, or DAG construction times
    regress beyond the tolerance band, or if the ``OptimizerSession``
    warm-rebuild speedups fall below their floors.

    Times are normalized by :func:`_calibrate` so the checked-in baseline
    transfers across machines; the band (default 1.5x) absorbs the remaining
    scheduling noise.  Warm-rebuild speedups are ratios and are checked
    directly against :data:`WARM_GATE_MIN_SPEEDUP`.
    """
    calibration = _calibrate()
    measured = {series: measure() for series, _, measure, _ in _GATE_SERIES}
    normalized = {
        series: {name: t / calibration for name, t in times.items()}
        for series, times in measured.items()
    }
    print(f"calibration: {calibration * 1000:.2f} ms")
    for series, _, _, workloads in _GATE_SERIES:
        for name in workloads:
            print(f"{name}: {series} {measured[series][name] * 1000:.2f} ms "
                  f"(normalized {normalized[series][name]:.3f})")
    warm = measure_warm_rebuild()
    print_warm_rebuild_table(warm)

    if update:
        payload = {"calibration_s": calibration, "tolerance": tolerance}
        for series, key, _, _ in _GATE_SERIES:
            payload[f"{series}_s"] = measured[series]
            payload[key] = normalized[series]
        with open(baseline_path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"baseline written to {baseline_path}")
        return 0

    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"ERROR: no perf baseline at {baseline_path}; "
              "run with --update-baseline first", file=sys.stderr)
        return 2

    failures = []
    for series, key, _, workloads in _GATE_SERIES:
        reference_series = baseline.get(key)
        if reference_series is None:
            print(f"ERROR: baseline at {baseline_path} lacks '{key}'; "
                  "regenerate it with --update-baseline", file=sys.stderr)
            return 2
        for name in workloads:
            reference = reference_series[name]
            limit = reference * tolerance
            if normalized[series][name] > limit:
                failures.append(
                    f"{name}: normalized {series} time "
                    f"{normalized[series][name]:.3f} exceeds baseline "
                    f"{reference:.3f} x {tolerance} = {limit:.3f}"
                )
    for scenario, floor in WARM_GATE_MIN_SPEEDUP.items():
        speedup = warm[scenario]["speedup"]
        if speedup < floor:
            failures.append(
                f"{scenario}: warm-rebuild speedup {speedup:.2f}x "
                f"below the {floor}x floor"
            )
    if failures:
        print("PERF REGRESSION:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("perf gate ok: all workloads within "
          f"{tolerance}x of the normalized baseline")
    return 0


def _main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Benchmark harness entry point")
    parser.add_argument("--smoke", action="store_true",
                        help="run one small batched workload end-to-end (used by CI)")
    parser.add_argument("--batch", type=int, default=2, metavar="1..5",
                        help="which BQ_i batch the smoke run uses (default: 2)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="with --smoke/--warm: also write the results as JSON")
    parser.add_argument("--warm", action="store_true",
                        help="measure the OptimizerSession warm-rebuild "
                             "scenarios (CQ5 repeat/rebuild/shifted/"
                             "stats-change) and print the speedup table")
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
    parser.add_argument("--perf-gate", action="store_true",
                        help="fail if fig9 greedy, Volcano-RU, or DAG build "
                             "times regress beyond the tolerance band vs. the "
                             "checked-in baseline, or warm-rebuild speedups "
                             "drop below their floors")
    parser.add_argument("--baseline", metavar="PATH", default=DEFAULT_BASELINE,
                        help="perf baseline JSON (default: benchmarks/perf_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="with --perf-gate: rewrite the baseline instead of checking")
    args = parser.parse_args(argv)
    if args.perf_gate:
        return perf_gate(args.baseline, update=args.update_baseline)
    if (not args.smoke and not args.warm and not args.service
            and not args.result_cache):
        parser.error("nothing to do: pass --smoke, --warm, --service, "
                     "--result-cache, or --perf-gate (the full suite runs "
                     "via pytest)")
    if args.smoke:
        smoke(batch_index=args.batch, json_path=args.json)
    if args.warm:
        scenarios = measure_warm_rebuild()
        print_warm_rebuild_table(scenarios)
        if args.json:
            # Merge into the smoke payload when both were requested.
            try:
                with open(args.json) as handle:
                    payload = json.load(handle)
            except (FileNotFoundError, ValueError):
                payload = {}
            payload["warm_rebuild"] = scenarios
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"warm-rebuild results written to {args.json}")
    if args.chaos and not args.service:
        parser.error("--chaos only makes sense with --service")
    if args.result_cache:
        metrics = measure_result_cache()
        print_result_cache_table(metrics)
        if args.json:
            try:
                with open(args.json) as handle:
                    payload = json.load(handle)
            except (FileNotFoundError, ValueError):
                payload = {}
            payload["result_cache"] = metrics
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"result-cache results written to {args.json}")
    if args.service:
        metrics = measure_service_throughput(
            workers=args.service_workers, batches=args.service_batches,
            chaos_seed=args.chaos_seed if args.chaos else None,
            result_cache=args.result_cache,
        )
        print_service_table(metrics)
        if args.json:
            try:
                with open(args.json) as handle:
                    payload = json.load(handle)
            except (FileNotFoundError, ValueError):
                payload = {}
            payload["service_throughput"] = metrics
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"service results written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
