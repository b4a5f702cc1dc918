"""Deploying the optimizer as a multi-worker service.

Run with ``python examples/multi_worker_service.py``.

A production deployment of the recurring-batch scenario the paper motivates
MQO with looks less like one long-lived process and more like a small fleet:
N workers answering optimization requests against one catalog, plus
something that keeps their caches warm.  Three PR 7 capabilities make that
shape work:

1. **Content-addressed snapshots** — every session-cache key is derived from
   *values* (canonical equivalence keys, ``LogicalProperties.content_key()``
   bit patterns, per-relation statistics digests), never from ``id()``.  A
   warm cache is therefore a value too: ``OptimizerSession.snapshot_state()``
   pickles it, and ``OptimizerSession.from_snapshot()`` rebuilds a session
   around it in any process.
2. **Bounded families** — ``SessionCacheLimits.bounded()`` puts an LRU cap
   on every cache family, so a worker serving an unbounded stream of
   distinct batches has bounded memory.  Correctness never depends on
   residency: an evicted fragment is recomputed and interns back to the
   same content ids.
3. **Background warming** — a ``CacheWarmer`` thread drains a queue of
   anticipated batches through the session, so the foreground request never
   pays the cold build.

Every warm answer is byte-identical to a cold one-shot optimization — the
workers check one batch each against a fresh ``MQOptimizer`` to prove it.
"""

import multiprocessing
import time

from repro import MQOptimizer, OptimizerSession
from repro.catalog import psp_catalog
from repro.service import CacheWarmer, SessionCacheLimits
from repro.workloads.scaleup import component_query, scaleup_queries


def batch_window(start: int, width: int):
    """One service request: an overlapping window of component queries."""
    return [q for c in range(start, start + width) for q in component_query(c)]


def serve(worker_id: int, snapshot: bytes, windows, results) -> None:
    """A worker process: restore the warm snapshot, answer requests."""
    session = OptimizerSession.from_snapshot(snapshot, max_plans=16)
    latencies = []
    for index, (start, width) in enumerate(windows):
        queries = batch_window(start, width)
        began = time.perf_counter()
        result = session.optimize(queries, "greedy")
        latencies.append((time.perf_counter() - began) * 1000.0)
        if index == 0:
            # Byte-identity check: the warm answer must exactly equal a cold
            # one-shot optimization (no tolerance — same bits, same cost).
            cold = MQOptimizer(session.catalog).optimize(queries, "greedy")
            assert result.cost == cold.cost
    stats = session.cache_stats()
    results.put(
        f"worker {worker_id}: {len(windows)} batches, "
        f"median latency {sorted(latencies)[len(latencies) // 2]:.1f} ms, "
        f"fragment hit rate {stats.hit_rate:.0%}"
    )


def main() -> None:
    # -- parent: warm a bounded session and snapshot it -----------------------
    limits = SessionCacheLimits.bounded()
    parent = OptimizerSession(psp_catalog(), cache_plans=False, limits=limits)

    warmer = CacheWarmer(parent)
    warmer.enqueue(scaleup_queries(5))          # anticipate the CQ5 fragments
    warmer.flush()
    print(f"warmed {warmer.warmed} batch in the background "
          f"({parent.cache.entry_count()} cached fragments)")
    warmer.close()

    snapshot = parent.snapshot_state()
    print(f"snapshot: {len(snapshot) // 1024} KiB, portable to any process\n")

    # -- workers: restore the snapshot, serve overlapping windows -------------
    windows = [((i * 7) % 17 + 1, 2 + i % 3) for i in range(12)]
    context = multiprocessing.get_context()
    results = context.Queue()
    workers = [
        context.Process(target=serve, args=(n, snapshot, windows[n::2], results))
        for n in range(2)
    ]
    for worker in workers:
        worker.start()
    for _ in workers:
        print(results.get())
    for worker in workers:
        worker.join()
        assert worker.exitcode == 0

    sizes = parent.cache.family_sizes()
    print("\nbounded families stay under their caps, e.g. "
          f"join_props {sizes['join_props']}/{limits.join_props}, "
          f"scans {sizes['scans']}/{limits.scans}")
    print("every warm answer checked byte-identical to a cold optimization")


if __name__ == "__main__":
    main()
