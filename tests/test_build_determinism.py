"""DAG construction determinism.

The memoized builder (PR 4) caches join choices, weak-join nodes, and
partition enumerations keyed on equivalence-node identity; nothing in those
caches may depend on object addresses or hash iteration order.  Two guarantees
are locked down here:

* **Consecutive builds** of the same batch (fresh builder each time, as
  ``MQOptimizer.build_dag`` always creates one) produce byte-identical DAGs —
  node keys, properties, operation lists, costs, topological numbers.
* **``PYTHONHASHSEED`` independence**: separate interpreter processes with
  different hash seeds produce identical canonical fingerprints, for the
  memoized builder, the reference builder, session-backed (cold and warm)
  builds, a restored pickled session snapshot (the PR 7 content-addressed
  cache, including its interned-key count and per-relation statistics
  digests), and the execution layer — per-query rows in exact row and column
  order plus work accounting, for a Volcano and a greedy plan.  (PR 2 fixed
  the selectivity-product hash-order leak in ``_join_properties``; PR 4
  fixed the residual-conjunct order of subsumption selections, which this
  test would catch regressing.)  Since PR 10 the matrix also covers the
  cross-batch result cache: its content-address keys, hit/miss/injection/
  serve counters, the fingerprints of DAGs carrying injected cached-read
  nodes, and the rows it serves.

The fingerprints come from :func:`tests.generators.dag_fingerprint`, which
sorts every frozenset by a canonical token so the serialization itself is
hash-order independent.
"""

import os
import subprocess
import sys

from repro import MQOptimizer
from repro.catalog import psp_catalog
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload, reference_dag

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Runs inside a fresh interpreter per hash seed; prints one digest per line.
_SUBPROCESS_SCRIPT = """\
import hashlib, sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
from repro import MQOptimizer, OptimizerSession
from repro.catalog import psp_catalog
from repro.dag.builder import DagBuilder
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload, rows_digest

optimizer = MQOptimizer(psp_catalog())
for seed in (0, 3, 7):
    queries = random_query_workload(seed)
    for memoize in (True, False):
        fingerprint = dag_fingerprint(DagBuilder(optimizer.catalog, memoize=memoize).build(queries))
        print(seed, memoize, hashlib.sha256(fingerprint.encode()).hexdigest())
fingerprint = dag_fingerprint(optimizer.build_dag(scaleup_queries(2)))
print("CQ2", hashlib.sha256(fingerprint.encode()).hexdigest())
# Session-backed cold and warm builds (the catalog-lifetime fragment cache of
# repro.service.session) must be hash-seed independent too.
session = OptimizerSession(optimizer.catalog, cache_plans=False)
for label in ("session-cold", "session-warm"):
    fingerprint = dag_fingerprint(session.build_dag(scaleup_queries(2)))
    print(label, hashlib.sha256(fingerprint.encode()).hexdigest())
# Executor + operator outputs (repro.execution) must be hash-seed independent
# as well: the exact per-query rows, in their exact order, with their exact
# (insertion-ordered) column order, plus the work accounting.
from repro import Algorithm
from repro.catalog import psp_catalog as _psp
from repro.execution import Executor, generate_psp_data
from repro.workloads.scaleup import component_query
exec_catalog = _psp(relation_count=6)
executor = Executor(generate_psp_data(relation_count=6, rows_per_table=300), exec_catalog)
exec_optimizer = MQOptimizer(exec_catalog)
for algorithm in (Algorithm.VOLCANO, Algorithm.GREEDY):
    result = executor.run(exec_optimizer.optimize(component_query(1), algorithm).plan)
    print(
        "exec", algorithm.name,
        rows_digest(result.per_query_rows),
        result.stats.rows_scanned, result.stats.rows_materialized,
        result.stats.reuses, round(result.simulated_seconds, 9),
    )
# Content-addressed session snapshots (PR 7) must be process-portable: a
# pickled warm fragment cache restored in this interpreter rebuilds the same
# bytes, interns the same number of content keys, and the per-relation
# statistics digests it syncs against are themselves hash-seed independent.
donor = OptimizerSession(optimizer.catalog, cache_plans=False)
donor.build_dag(scaleup_queries(2))
restored = OptimizerSession.from_snapshot(donor.snapshot_state(), cache_plans=False)
fingerprint = dag_fingerprint(restored.build_dag(scaleup_queries(2)))
print("snapshot", hashlib.sha256(fingerprint.encode()).hexdigest(),
      restored.cache.interned_count(), restored.cache_stats().hits > 0)
for name, digest in sorted(optimizer.catalog.stats_digests().items()):
    print("digest", name, digest)
# Chaos determinism (PR 9): a seeded FaultInjector must fire the same fault
# schedule — and the faulted builds must produce the same bytes — under any
# hash seed.  The schedule digest covers (family, access index, action)
# tuples; the build fingerprints prove the faults changed nothing served.
from repro.service import FaultInjector
chaos_session = OptimizerSession(optimizer.catalog, cache_plans=False)
injector = FaultInjector(seed=2024, rate=0.3)
with injector.attach(chaos_session):
    for round_index in range(2):
        fingerprint = dag_fingerprint(chaos_session.build_dag(scaleup_queries(2)))
        print("chaos-build", round_index,
              hashlib.sha256(fingerprint.encode()).hexdigest())
print("chaos-schedule", injector.schedule_digest(), injector.injected_faults)
# Fixed input on purpose: this digests the corrupt_snapshot RNG stream, not
# the (process-local) pickle bytes of a real snapshot.
corrupted = injector.corrupt_snapshot(bytes(range(256)))
print("chaos-snapshot", hashlib.sha256(corrupted).hexdigest())
# Cross-batch result cache (PR 10): the content-address cache keys, the
# hit/miss/injection/serve counters, the fingerprints of DAGs carrying
# injected cached-read nodes, and the served rows must all be hash-seed
# independent.  Batch 3 repeats batch 1's component, so it mixes warm-DAG
# reuse with execution-time digest serves.
rc_session = OptimizerSession(exec_catalog, cache_plans=False, result_cache=True)
rc_executor = Executor(
    generate_psp_data(relation_count=6, rows_per_table=300),
    exec_catalog, result_cache=rc_session.result_cache,
)
for batch_index, component in enumerate((1, 2, 1)):
    queries = component_query(component)
    result = rc_executor.run(rc_session.optimize(queries, "greedy").plan)
    print("rc-rows", batch_index,
          rows_digest(result.per_query_rows),
          result.stats.blocks_read)
    fingerprint = dag_fingerprint(rc_session.build_dag(queries))
    print("rc-dag", batch_index, hashlib.sha256(fingerprint.encode()).hexdigest())
rc = rc_session.result_cache
print("rc-counters", rc.hits, rc.misses, rc.stores, rc.exact_injections,
      rc.covering_injections, rc.adoptions, rc.exec_serves, rc.injected_serves)
for digest in sorted(rc_session.cache.results.keys()):
    print("rc-key", digest)
"""


class TestBuildDeterminism:
    def test_consecutive_builds_identical(self):
        optimizer = MQOptimizer(psp_catalog())
        for seed in (0, 1, 5, 9):
            queries = random_query_workload(seed)
            first = dag_fingerprint(optimizer.build_dag(queries))
            second = dag_fingerprint(optimizer.build_dag(queries))
            assert first == second, seed

    def test_consecutive_reference_builds_identical(self):
        optimizer = MQOptimizer(psp_catalog())
        for seed in (0, 5):
            queries = random_query_workload(seed)
            first = dag_fingerprint(reference_dag(optimizer.catalog, queries))
            second = dag_fingerprint(reference_dag(optimizer.catalog, queries))
            assert first == second, seed

    def test_fingerprint_distinguishes_workloads(self):
        """Sanity for the oracle itself: different batches must not collide."""
        optimizer = MQOptimizer(psp_catalog())
        a = dag_fingerprint(optimizer.build_dag(random_query_workload(0)))
        b = dag_fingerprint(optimizer.build_dag(random_query_workload(1)))
        c = dag_fingerprint(optimizer.build_dag(scaleup_queries(1)))
        assert len({a, b, c}) == 3

    def test_builds_identical_across_hashseeds(self):
        outputs = {}
        for hashseed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs[hashseed] = result.stdout
        assert outputs["0"].strip(), "subprocess produced no digests"
        assert len(set(outputs.values())) == 1, outputs
