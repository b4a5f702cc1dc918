"""Arena-backed DAG store: structure, dedup, pickling, and session snapshots.

The struct-of-arrays :class:`repro.dag.arena.DagArena` (PR 8) replaced the
pointer object graph as the DAG's single source of truth.  This suite locks
down the arena-specific contracts the differential oracle in
``test_differential.py`` does not cover directly:

* **column integrity** — the flat parallel columns stay mutually aligned,
  the adjacency lists are the exact inverse of ``op_owner``/``op_children``,
  and the lazily synced cost-kernel tables (``op_entry``/``op_spec``) cover
  every operation with the values the columns pin down;
* **canonical façades** — ``eq_view``/``op_view`` return *the* view object
  for an id (``is``-stable), and every façade property mirrors its column;
* **interned dedup** — ``by_key`` and ``op_signatures`` are exactly the
  inverted primary columns, and no duplicate ``(owner, operator, children)``
  signature survives a build;
* **fingerprint identity vs. the reference builder** — the memoized arena
  builder and the memo-free reference twin agree byte-for-byte on every
  seeded workload family and on randomized batches (fingerprint-only here;
  the full four-algorithm identity check runs in ``test_differential.py``);
* **arena-native pickling** — a built DAG round-trips through ``pickle`` to
  an equal fingerprint and a working optimizer input, and the flat-column
  format is strictly smaller than the historical one-record-per-node
  pointer-graph payload;
* **hash-seed independence** — pickle round-trips performed in interpreters
  with different ``PYTHONHASHSEED`` values restore to one identical
  fingerprint;
* **whole-session snapshots** — ``snapshot_state(include_plans=True)``
  ships the plan cache: the restored session serves a repeated batch from
  its plan cache (no rebuild) with identical cost, materialized set, and
  fingerprint, while the default snapshot still restores fragments only.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload, reference_dag

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# Column / view / dedup integrity
# ---------------------------------------------------------------------------

class TestArenaStructure:
    def test_columns_adjacency_and_kernel_tables_aligned(self, psp_optimizer):
        dag = psp_optimizer.build_dag(scaleup_queries(2))
        arena = dag.arena
        n, m = arena.num_equivalences, arena.num_operations
        assert n > 0 and m > 0
        eq_columns = (
            arena.eq_key,
            arena.eq_label,
            arena.eq_props,
            arena.eq_mat_cost,
            arena.eq_reuse_cost,
            arena.eq_topo,
            arena.eq_is_base,
            arena.eq_base_table,
            arena.eq_scan_alias,
            arena.eq_created_by_subsumption,
            arena.eq_op_ids,
            arena.eq_parent_ops,
        )
        assert all(len(column) == n for column in eq_columns)
        op_columns = (
            arena.op_operator,
            arena.op_children,
            arena.op_multipliers,
            arena.op_owner,
            arena.op_local_cost,
            arena.op_is_subsumption,
        )
        assert all(len(column) == m for column in op_columns)

        # The lazily synced cost-kernel tables cover every operation once
        # synced, with exactly the values the primary columns pin down, and
        # syncing again is a no-op.
        arena.sync_op_tables()
        assert len(arena.op_entry) == len(arena.op_spec) == m
        arena.sync_op_tables()
        assert len(arena.op_entry) == m
        for op_id in range(m):
            local_cost, entry_children = arena.op_entry[op_id]
            assert local_cost == arena.op_local_cost[op_id]
            assert entry_children == tuple(
                zip(arena.op_children[op_id], arena.op_multipliers[op_id])
            )

        # Adjacency is the exact inverse of op_owner / op_children.
        owner_index = [[] for _ in range(n)]
        parent_index = [[] for _ in range(n)]
        for op_id in range(m):
            owner_index[arena.op_owner[op_id]].append(op_id)
            for child_id in arena.op_children[op_id]:
                parent_index[child_id].append(op_id)
        assert [list(ops) for ops in arena.eq_op_ids] == owner_index
        assert [list(ops) for ops in arena.eq_parent_ops] == parent_index

    def test_views_are_canonical_and_mirror_columns(self, psp_optimizer):
        dag = psp_optimizer.build_dag(scaleup_queries(1))
        arena = dag.arena
        for eq_id in range(arena.num_equivalences):
            view = arena.eq_view(eq_id)
            assert view is arena.eq_view(eq_id)
            assert view.id == eq_id
            assert view.key == arena.eq_key[eq_id]
            assert view.properties is arena.eq_props[eq_id]
            assert view.mat_cost == arena.eq_mat_cost[eq_id]
            assert view.reuse_cost == arena.eq_reuse_cost[eq_id]
            assert view.topo_number == arena.eq_topo[eq_id]
            assert view.is_base == arena.eq_is_base[eq_id]
            assert view.base_table == arena.eq_base_table[eq_id]
            assert [op.id for op in view.operations] == list(arena.eq_op_ids[eq_id])
            assert [op.id for op in view.parents] == list(arena.eq_parent_ops[eq_id])
        for op_id in range(arena.num_operations):
            op = arena.op_view(op_id)
            assert op is arena.op_view(op_id)
            assert op.id == op_id
            assert op.equivalence is arena.eq_view(arena.op_owner[op_id])
            assert tuple(child.id for child in op.children) == arena.op_children[op_id]
            assert op.child_multipliers == arena.op_multipliers[op_id]
            assert op.local_cost == arena.op_local_cost[op_id]
            assert op.is_subsumption == arena.op_is_subsumption[op_id]

    def test_interned_dedup_tables_invert_the_columns(self, psp_optimizer):
        dag = psp_optimizer.build_dag(scaleup_queries(2))
        arena = dag.arena
        assert arena.by_key == {key: i for i, key in enumerate(arena.eq_key)}
        signatures = {
            (arena.op_owner[i], arena.op_operator[i], arena.op_children[i]): i
            for i in range(arena.num_operations)
        }
        # No duplicate signature survived the build.  The interned table is a
        # *consistent subset* of the inverted columns: operations appended
        # through the memo-guarded replay path (`append_operation`) skip the
        # probe, so they are absent live — but never contradicted.  (After a
        # pickle round-trip `__setstate__` rebuilds the table in full.)
        assert len(signatures) == arena.num_operations
        assert all(
            signatures[signature] == op_id
            for signature, op_id in arena.op_signatures.items()
        )
        clone = pickle.loads(pickle.dumps(dag, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.arena.op_signatures == signatures


# ---------------------------------------------------------------------------
# Memoized arena builder vs. the memo-free reference twin (fingerprints)
# ---------------------------------------------------------------------------

class TestArenaReferenceFingerprints:
    def test_seeded_workload_families(self, tpcd_optimizer, psp_optimizer):
        from tests.test_differential import _seeded_builder_workloads

        for name, optimizer, queries in _seeded_builder_workloads(
            tpcd_optimizer, psp_optimizer
        ):
            memo = dag_fingerprint(optimizer.build_dag(queries))
            reference = dag_fingerprint(reference_dag(optimizer.catalog, queries))
            assert memo == reference, name

    def test_random_query_batches(self, psp_optimizer):
        for seed in range(40):
            queries = random_query_workload(seed)
            memo = dag_fingerprint(psp_optimizer.build_dag(queries))
            reference = dag_fingerprint(reference_dag(psp_optimizer.catalog, queries))
            assert memo == reference, seed


# ---------------------------------------------------------------------------
# Arena-native pickling
# ---------------------------------------------------------------------------

def _pointer_graph_payload(dag):
    """The historical pickle shape: one record per node, one per operation.

    Before the arena, a DAG pickled as an object graph — every equivalence
    node a dict of attributes holding a list of operation records, each with
    its own attribute dict, *including* the adjacency both directions carried
    as real attributes (each node its ``parents`` list, each operation its
    owning ``equivalence``).  This rebuilds that shape with ids in place of
    object references — a favorable variant of the old format (no class
    records, no per-object ``__reduce__`` framing) — so the size comparison
    below has a faithful baseline.  The arena omits the adjacency entirely:
    it is derived, rebuilt by ``__setstate__``.
    """
    arena = dag.arena
    nodes = {}
    for eq_id in range(arena.num_equivalences):
        nodes[eq_id] = {
            "key": arena.eq_key[eq_id],
            "label": arena.eq_label[eq_id],
            "properties": arena.eq_props[eq_id],
            "materialization_cost": arena.eq_mat_cost[eq_id],
            "reuse_cost": arena.eq_reuse_cost[eq_id],
            "topological_number": arena.eq_topo[eq_id],
            "is_base": arena.eq_is_base[eq_id],
            "base_table": arena.eq_base_table[eq_id],
            "scan_alias": arena.eq_scan_alias[eq_id],
            "created_by_subsumption": arena.eq_created_by_subsumption[eq_id],
            "parents": list(arena.eq_parent_ops[eq_id]),
            "operations": [
                {
                    "equivalence": arena.op_owner[op_id],
                    "operator": arena.op_operator[op_id],
                    "children": list(arena.op_children[op_id]),
                    "multipliers": list(arena.op_multipliers[op_id]),
                    "local_cost": arena.op_local_cost[op_id],
                    "is_subsumption": arena.op_is_subsumption[op_id],
                }
                for op_id in arena.eq_op_ids[eq_id]
            ],
        }
    return {
        "nodes": nodes,
        "root": dag.root.id,
        "query_roots": [node.id for node in dag.query_roots],
        "query_names": list(dag.query_names),
    }


#: Runs inside a fresh interpreter per hash seed; prints one digest per line.
#: Each digest is the fingerprint of a DAG that went through a full pickle
#: round-trip *inside that interpreter*, so both the arena snapshot format
#: and its restoration are exercised under every hash seed.
_PICKLE_SUBPROCESS_SCRIPT = """\
import hashlib, pickle, sys
sys.path.insert(0, "src")
sys.path.insert(0, ".")
from repro import MQOptimizer
from repro.catalog import psp_catalog
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload

optimizer = MQOptimizer(psp_catalog())
for label, queries in (
    ("CQ2", scaleup_queries(2)),
    ("R11", random_query_workload(11)),
    ("R23", random_query_workload(23)),
):
    dag = optimizer.build_dag(queries)
    clone = pickle.loads(pickle.dumps(dag, protocol=pickle.HIGHEST_PROTOCOL))
    fingerprint = dag_fingerprint(clone)
    assert fingerprint == dag_fingerprint(dag), label
    print(label, hashlib.sha256(fingerprint.encode()).hexdigest())
"""


class TestArenaPickle:
    def test_roundtrip_restores_equal_fingerprint_and_optimizes(self, psp_optimizer):
        from repro.optimizer.volcano_sh import optimize_volcano_sh

        dag = psp_optimizer.build_dag(scaleup_queries(3))
        clone = pickle.loads(pickle.dumps(dag, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone is not dag
        assert dag_fingerprint(clone) == dag_fingerprint(dag)
        original = optimize_volcano_sh(dag)
        restored = optimize_volcano_sh(clone)
        assert restored.cost == original.cost
        assert restored.plan.materialized == original.plan.materialized
        assert restored.counters == original.counters

    def test_flat_columns_pickle_smaller_than_pointer_graph(self, psp_optimizer):
        dag = psp_optimizer.build_dag(scaleup_queries(3))
        arena_bytes = len(pickle.dumps(dag, protocol=pickle.HIGHEST_PROTOCOL))
        graph_bytes = len(
            pickle.dumps(
                _pointer_graph_payload(dag), protocol=pickle.HIGHEST_PROTOCOL
            )
        )
        assert arena_bytes < graph_bytes, (arena_bytes, graph_bytes)

    def test_pickle_roundtrip_identical_across_hashseeds(self):
        outputs = {}
        for hashseed in ("0", "1", "99"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", _PICKLE_SUBPROCESS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs[hashseed] = result.stdout
        assert outputs["0"].strip(), "subprocess produced no digests"
        assert len(set(outputs.values())) == 1, outputs


# ---------------------------------------------------------------------------
# Whole-session snapshots (fragments + plan cache)
# ---------------------------------------------------------------------------

class TestSessionPlanSnapshot:
    def test_include_plans_roundtrip_serves_from_plan_cache(self):
        from repro import Algorithm, OptimizerSession
        from repro.catalog import psp_catalog

        donor = OptimizerSession(psp_catalog())
        queries = scaleup_queries(2)
        original = donor.optimize(queries, Algorithm.GREEDY)
        donor_fingerprint = dag_fingerprint(donor.build_dag(queries))

        bare = donor.snapshot_state()
        full = donor.snapshot_state(include_plans=True)
        assert len(full) > len(bare), "plan cache did not travel"

        restored = OptimizerSession.from_snapshot(full)
        assert restored.plan_hits == 0 and restored.plan_misses == 0
        served = restored.optimize(queries, Algorithm.GREEDY)
        # Both layers hit: the cached DAG entry and the cached result.
        assert restored.plan_hits == 2, (restored.plan_hits, restored.plan_misses)
        assert restored.plan_misses == 0
        assert served.cost == original.cost
        assert served.plan.materialized == original.plan.materialized
        assert served.plan.explain() == original.plan.explain()
        assert dag_fingerprint(restored.build_dag(queries)) == donor_fingerprint

        # The default (fragment-only) snapshot restores no plans: the same
        # batch misses the plan cache and is rebuilt through warm fragments.
        fragments_only = OptimizerSession.from_snapshot(bare)
        rebuilt = fragments_only.optimize(queries, Algorithm.GREEDY)
        assert fragments_only.plan_hits == 0
        assert fragments_only.plan_misses == 2
        assert rebuilt.cost == original.cost
        assert dag_fingerprint(fragments_only.build_dag(queries)) == donor_fingerprint

    def test_snapshot_rejects_foreign_payloads(self):
        from repro import OptimizerSession

        with pytest.raises(TypeError):
            OptimizerSession.from_snapshot(pickle.dumps({"not": "a cache"}))
        with pytest.raises(TypeError):
            OptimizerSession.from_snapshot(
                pickle.dumps(("session-state", None, {"not": "a BoundedCache"}))
            )
