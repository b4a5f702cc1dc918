"""Tests for the array-backed cost engine and the correctness fixes that ride
on it: engine-vs-reference cost-table equality, undo-log correctness of the
incremental cost state under random add sequences, the greedy pruning
fixpoint invariant ``result.cost == bestcost(dag, result.plan.materialized)``,
and the multiplier-aware monotonicity bound on correlated workloads."""

import collections
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import GreedyOptions, Query
from repro.dag import DagBuilder
from repro.dag.arena import _op_spec
from repro.optimizer import CostEngine, IncrementalCostState, get_engine
from repro.optimizer.costing import bestcost
from repro.optimizer.engine import argmin_operation
from repro.optimizer.greedy import optimize_greedy
from repro.workloads import tpcd_queries as tq
from repro.workloads.batch import batched_queries
from repro.workloads.nested import parameterized_batch
from repro.workloads.scaleup import scaleup_queries
from tests.generators import degenerate_batches, random_dag, self_join_dag
from tests.oracles import costing as oracle
from tests.oracles.greedy import FullRepricingState
from tests.oracles.sharability import sharing_degree
from tests.test_dag import join_rst


@pytest.fixture(scope="module")
def batch_dag(tpcd_optimizer):
    """The TPC-D batch workload BQ3 (six queries, real sharing)."""
    return tpcd_optimizer.build_dag(batched_queries(3))


class TestEngineSnapshot:
    def test_engine_is_cached_per_dag(self, shared_dag):
        assert get_engine(shared_dag) is get_engine(shared_dag)

    def test_engine_rebuilt_when_dag_grows(self, tiny_catalog):
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst())])
        first = get_engine(dag)
        # Simulate DAG growth: a fresh key must produce a fresh snapshot.
        node = dag.equivalence_nodes()[0]
        dag.add_operation(dag.root, dag.root.operations[0].operator, [node], 1.0)
        assert get_engine(dag) is not first

    def test_snapshot_mirrors_dag(self, shared_dag):
        engine = CostEngine(shared_dag)
        for node in shared_dag.equivalence_nodes():
            assert shared_dag.node_by_id(node.id) is node
            assert engine.topo_number[node.id] == node.topo_number
            assert engine.mat_cost[node.id] == node.mat_cost
            assert engine.reuse_cost[node.id] == node.reuse_cost
            assert engine.is_base[node.id] == node.is_base
            assert engine.op_ids[node.id] == tuple(op.id for op in node.operations)
            specs = engine.op_specs[node.id]
            if node.is_base or not node.operations:
                assert specs is None
            else:
                assert len(specs) == len(node.operations)

    def test_node_by_id_roundtrip(self, shared_dag):
        for node in shared_dag.equivalence_nodes():
            assert shared_dag.node_by_id(node.id) is node

    def test_operation_tables_mirror_dag(self, batch_dag):
        """The dense operation-id-indexed tables (consumed by the Volcano-SH
        decision pass) must mirror the object graph exactly."""
        engine = get_engine(batch_dag)
        arena = engine.arena
        for operation in batch_dag.operation_nodes():
            assert arena.op_view(operation.id) is operation
            assert engine.op_owner[operation.id] == operation.equivalence.id
            assert engine.op_is_subsumption[operation.id] == operation.is_subsumption
            assert arena.op_local_cost[operation.id] == operation.local_cost
            assert arena.op_children[operation.id] == tuple(
                child.id for child in operation.children
            )
            assert arena.op_multipliers[operation.id] == operation.child_multipliers
            # The kernel entry the engine prices with is the arena's, as
            # written at append from the operation's own columns.
            assert arena.op_spec[operation.id] == _op_spec(
                operation.local_cost,
                tuple(child.id for child in operation.children),
                operation.child_multipliers,
            )
            owner = operation.equivalence
            if not owner.is_base:
                index = engine.op_ids[owner.id].index(operation.id)
                assert engine.op_specs[owner.id][index] is arena.op_spec[operation.id]
        for node in batch_dag.equivalence_nodes():
            assert engine.op_ids[node.id] == tuple(op.id for op in node.operations)
            assert engine.parent_op_ids[node.id] == tuple(op.id for op in node.parents)
            assert engine.created_by_subsumption[node.id] == node.created_by_subsumption

    def test_reachable_flags_match_object_walk(self, batch_dag):
        """``CostEngine.reachable_flags`` marks exactly the nodes of the
        object-graph walk of :func:`tests.oracles.costing.reachable`."""
        from repro.optimizer.volcano import consolidated_best_plan

        engine = get_engine(batch_dag)
        for materialized in (set(), {node.id for node in batch_dag.query_roots[:1]}):
            plan = consolidated_best_plan(batch_dag, materialized)
            choices = oracle.choice_map(batch_dag, plan.choice_op)
            expected = {node.id for node in oracle.reachable(choices, [batch_dag.root])}
            flags = engine.reachable_flags(plan.choice_op)
            assert {node_id for node_id, flag in enumerate(flags) if flag} == expected

    def test_baseline_is_the_empty_sweep(self, batch_dag):
        """``baseline()`` is ``sweep(∅)`` bit for bit, ``compute_costs()``
        hands out that same shared list, and a fresh cost state starts from
        an independent copy of it."""
        engine = get_engine(batch_dag)
        costs, choice_op = engine.baseline()
        fresh_costs, fresh_choice = engine.sweep()
        assert _bits(costs) == _bits(fresh_costs)
        assert choice_op == fresh_choice
        assert engine.compute_costs() is costs
        state = IncrementalCostState(batch_dag)
        snapshot = state.snapshot_costs()
        assert _bits(snapshot) == _bits(costs)
        assert snapshot is not costs
        assert state.total() == engine.total(costs) == bestcost(batch_dag, set())

    def test_snapshot_costs_track_materializations(self, batch_dag):
        """With ``epsilon=0.0`` each snapshot equals the from-scratch sweep
        of the current materialized set bit for bit, and an earlier snapshot
        is not changed by later adds."""
        engine = get_engine(batch_dag)
        state = IncrementalCostState(batch_dag, epsilon=0.0)
        before = state.snapshot_costs()
        materialized = set()
        for node in batch_dag.equivalence_nodes():
            if node.is_base or len(node.parents) < 2 or node is batch_dag.root:
                continue
            state.materialize_id(node.id)
            materialized.add(node.id)
            assert _bits(state.snapshot_costs()) == _bits(engine.compute_costs(materialized))
        assert materialized
        assert _bits(before) == _bits(engine.baseline()[0])


class TestEngineVsReference:
    """The engine-backed fast path must agree exactly with the oracle
    recurrence over the object graph (``tests/oracles/costing.py``)."""

    def _materialized_sets(self, dag):
        shareable = [
            n.id for n in dag.equivalence_nodes() if not n.is_base and len(n.parents) >= 2
        ]
        return [set(), set(shareable[:1]), set(shareable[:3]), set(shareable)]

    @pytest.mark.parametrize("batch_index", [1, 2, 3])
    def test_cost_tables_match_on_tpcd_batches(self, tpcd_optimizer, batch_index):
        dag = tpcd_optimizer.build_dag(batched_queries(batch_index))
        engine = get_engine(dag)
        for materialized in self._materialized_sets(dag):
            fast = engine.compute_costs(materialized)
            reference = oracle.node_costs(dag, materialized)
            assert dict(enumerate(fast)) == reference
            assert engine.total(fast, materialized) == oracle.total_cost(
                dag, reference, materialized
            )

    def test_sweep_choices_match(self, batch_dag):
        engine = get_engine(batch_dag)
        for materialized in self._materialized_sets(batch_dag):
            choice_op = engine.sweep(materialized)[1]
            reference = oracle.best_operations(
                batch_dag, oracle.node_costs(batch_dag, materialized), materialized
            )
            assert choice_op == oracle.choice_ids(batch_dag, reference)

    def test_cost_tables_match_on_scaleup(self, psp_optimizer):
        dag = psp_optimizer.build_dag(scaleup_queries(2))
        assert dict(enumerate(get_engine(dag).compute_costs())) == oracle.node_costs(dag)

    def test_base_node_with_operations_still_costs_zero(self, tiny_catalog):
        """``cost(e) = 0`` for base tables even if one is (atypically) given an
        operation — the engine kernels must match the recurrence here."""
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q", join_rst())])
        base, other_base = [n for n in dag.equivalence_nodes() if n.is_base][:2]
        some_op = next(n for n in dag.equivalence_nodes() if n.operations).operations[0]
        dag.add_operation(base, some_op.operator, [other_base], 123.0)
        dag.assign_topological_numbers()
        fast = get_engine(dag).compute_costs()
        assert fast[base.id] == 0.0
        assert dict(enumerate(fast)) == oracle.node_costs(dag)


class TestIncrementalStateUndoLog:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_add_sequences_agree_with_bestcost(self, data, tiny_catalog):
        """Undo-log correctness: every add logs exactly the costs it
        overwrote, and afterwards the incremental state's cost table and
        running total agree with a from-scratch ``bestcost`` computation."""
        builder = DagBuilder(tiny_catalog)
        dag = builder.build([Query("q1", join_rst()), Query("q2", join_rst(100))])
        state = IncrementalCostState(dag)
        candidates = [n.id for n in dag.equivalence_nodes() if not n.is_base and n.parents]
        order = data.draw(st.permutations(candidates))
        materialized = set()
        for node_id in order[: data.draw(st.integers(2, 10))]:
            before = state.snapshot_costs()
            log = state.materialize_id(node_id)
            materialized.add(node_id)
            assert state.materialized == materialized
            overwritten = dict(log)
            assert len(overwritten) == len(log)
            for changed_id, cost in enumerate(state.snapshot_costs()):
                assert before[changed_id] == overwritten.get(changed_id, cost)
            # The default cut-off leaves sub-epsilon decreases unpropagated.
            expected_costs = oracle.node_costs(dag, materialized)
            costs = state.snapshot_costs()
            for eq_node in dag.equivalence_nodes():
                assert costs[eq_node.id] == pytest.approx(expected_costs[eq_node.id])
            assert state.total() == pytest.approx(
                oracle.total_cost(dag, expected_costs, materialized)
            )

    def test_cost_with_leaves_total_exactly_unchanged(self, batch_dag):
        state = IncrementalCostState(batch_dag)
        before = state.total()
        for node in batch_dag.equivalence_nodes():
            if node.is_base or len(node.parents) < 2:
                continue
            state.cost_with_id(node.id)
            assert state.total() == before  # exact, not approx: no drift


@pytest.fixture(scope="module")
def propagation_dags(psp_optimizer, tpcd_optimizer):
    """Random DAGs, CQ1-CQ5, BQ1-BQ5, the degenerate batches and a DAG with
    self-join operations, by label."""
    dags = {f"random-{seed}": random_dag(seed) for seed in range(0, 120, 3)}
    for count in range(1, 6):
        dags[f"CQ{count}"] = psp_optimizer.build_dag(scaleup_queries(count))
        dags[f"BQ{count}"] = tpcd_optimizer.build_dag(batched_queries(count))
    for name, queries in degenerate_batches().items():
        dags[name] = psp_optimizer.build_dag(queries)
    dags["self-join-dag"] = self_join_dag()
    return dags


class TestDecreaseOnlyPropagation:
    """An add toggle prices only the operations that read a changed node, and
    must still land exactly where the oracle's full re-pricing of every
    popped node (:class:`tests.oracles.greedy.FullRepricingState`) does:
    same undo log, costs, total and propagation count after every commit
    and every probe."""

    def test_dags_cover_multipliers_and_twice_read_children(self, propagation_dags):
        """Some operation has a use multiplier other than 1, and some
        operation below the pseudo-root reads one child twice."""
        multipliers, twice_read = set(), False
        for dag in propagation_dags.values():
            arena = dag.arena
            for op_id in range(arena.num_operations):
                multipliers.update(arena.op_multipliers[op_id])
                children = arena.op_children[op_id]
                if arena.op_owner[op_id] != dag.root.id and len(set(children)) < len(children):
                    twice_read = True
        assert multipliers - {1.0} and twice_read

    @pytest.mark.parametrize("epsilon", [1e-9, 0.0], ids=["default-eps", "zero-eps"])
    def test_adds_match_full_repricing(self, propagation_dags, epsilon):
        for label, dag in propagation_dags.items():
            engine = get_engine(dag)
            fast = IncrementalCostState(dag, epsilon=epsilon)
            slow = FullRepricingState(dag, epsilon=epsilon)
            candidates = [
                node_id for node_id in range(engine.num_nodes)
                if not engine.is_base[node_id] and node_id != engine.root_id
            ]
            rng = random.Random(label)
            rng.shuffle(candidates)
            for step, node_id in enumerate(candidates[:40]):
                context = (label, epsilon, step, node_id)
                if rng.random() < 0.6:
                    assert fast.cost_with_id(node_id) == slow.cost_with_id(node_id), context
                else:
                    assert fast.materialize_id(node_id) == slow.materialize_id(
                        node_id
                    ), context
                assert fast._costs == slow.costs, context
                assert fast._effective == slow.effective, context
                assert fast.total() == slow.total(), context
                assert fast.propagations == slow.propagations, context
                if epsilon == 0.0:
                    assert fast._costs == engine.compute_costs(fast.materialized), context

    def test_pseudo_root_priced_once_per_add(self, propagation_dags):
        """One add prices the pseudo-root's many-input operation once, at the
        root's pop, however many query roots changed.  Each query root here
        is read by that operation only, so each is read at most once."""
        several_changed = 0
        for label in ("CQ3", "CQ4", "CQ5"):
            dag = propagation_dags[label]
            engine = get_engine(dag)
            (root_op,) = engine.op_ids[engine.root_id]
            query_roots = engine.arena.op_children[root_op]
            assert len(query_roots) >= 3
            assert all(engine.parent_op_ids[q] == (root_op,) for q in query_roots)
            for node_id in range(engine.num_nodes):
                if engine.is_base[node_id] or node_id == engine.root_id:
                    continue
                state = IncrementalCostState(dag)
                reads = collections.Counter()
                state._effective = _IndexCountingList(state._effective, reads)
                changed = {changed_id for changed_id, _ in state.materialize_id(node_id)}
                several_changed += len(changed & set(query_roots)) >= 2
                assert all(reads[q] <= 1 for q in query_roots), (label, node_id)
        assert several_changed


class _IndexCountingList(list):
    """A cost table that counts its indexed reads per index."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, index):
        self.reads[index] += 1
        return list.__getitem__(self, index)


def _bits(values):
    return [struct.pack("d", value) for value in values]


def _random_cost_dag(seed, general):
    """``random_dag(seed)`` with local costs redrawn from a pool holding
    ``0.0``, ``inf``, tiny and large floats.  With *general*, every unit
    pair's kernel entry is written in the general two-child shape with
    multipliers ``(1.0, 1.0)`` instead."""
    dag = random_dag(seed)
    arena = dag.arena
    rng = random.Random(seed ^ 0x5EED)
    for op_id in range(arena.num_operations):
        local = rng.choice(
            [0.0, 0.0, math.inf, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 200.0),
             rng.uniform(0.0, 200.0), rng.uniform(1e6, 1e9)]
        )
        children = arena.op_children[op_id]
        arena.op_local_cost[op_id] = local
        arena.op_spec[op_id] = _op_spec(local, children, arena.op_multipliers[op_id])
        if general and len(arena.op_spec[op_id]) == len(_op_spec(0.0, (0, 1), (1.0, 1.0))):
            arena.op_spec[op_id] = (children[0], 1.0, children[1], 1.0, local)
    return dag


class TestUnitPairShape:
    """The unit-pair kernel entry ``(left, right, local)`` prices bit for
    bit what the general two-child entry with multipliers ``(1.0, 1.0)``
    does, under random costs including ``0.0`` and ``inf``."""

    def test_argmin_operation_prices_bitwise_equal(self):
        rng = random.Random(0xB175)
        pool = [0.0, -0.0, math.inf, 5e-324, 1e-300, 1e300]
        for _ in range(2000):
            effective = [
                rng.choice(pool) if rng.random() < 0.3 else rng.uniform(0.0, 1e4)
                for _ in range(4)
            ]
            left, right = rng.randrange(4), rng.randrange(4)
            local = rng.choice(pool) if rng.random() < 0.3 else rng.uniform(0.0, 1e4)
            unit = _op_spec(local, (left, right), (1.0, 1.0))
            assert len(unit) == 3
            general = (left, 1.0, right, 1.0, local)
            got, expected = argmin_operation((unit,), effective), argmin_operation(
                (general,), effective
            )
            assert got[0] == expected[0]
            assert _bits([got[1]]) == _bits([expected[1]]), (effective, left, right, local)

    def test_materialize_id_prices_bitwise_equal(self):
        with_unit_pairs = 0
        for seed in range(0, 60, 2):
            unit_dag = _random_cost_dag(seed, general=False)
            general_dag = _random_cost_dag(seed, general=True)
            with_unit_pairs += unit_dag.arena.op_spec != general_dag.arena.op_spec
            unit = IncrementalCostState(unit_dag, epsilon=0.0)
            general = IncrementalCostState(general_dag, epsilon=0.0)
            assert _bits(unit._costs) == _bits(general._costs), seed
            engine = unit.engine
            candidates = [
                node_id for node_id in range(engine.num_nodes)
                if not engine.is_base[node_id] and node_id != engine.root_id
            ]
            rng = random.Random(seed)
            rng.shuffle(candidates)
            for node_id in candidates[:20]:
                context = (seed, node_id)
                if rng.random() < 0.5:
                    assert _bits([unit.cost_with_id(node_id)]) == _bits(
                        [general.cost_with_id(node_id)]
                    ), context
                else:
                    assert unit.materialize_id(node_id) == general.materialize_id(
                        node_id
                    ), context
                assert _bits(unit._costs) == _bits(general._costs), context
                assert _bits(unit._effective) == _bits(general._effective), context
                assert _bits([unit.total()]) == _bits([general.total()]), context
        assert with_unit_pairs >= 20


class TestGreedyPruningInvariant:
    """The pruned greedy result must be self-consistent: the reported cost is
    exactly ``bestcost`` of the reported materialized set."""

    def _assert_invariant(self, dag, options=None):
        result = optimize_greedy(dag, options)
        assert result.cost == bestcost(dag, result.plan.materialized)
        # Every surviving materialization is actually used by the final plan.
        choice_op = result.plan.choice_op
        reachable = get_engine(dag).reachable_flags(choice_op)
        op_children = dag.arena.op_children
        used = {
            child_id
            for node_id, op_id in enumerate(choice_op)
            if reachable[node_id] and op_id >= 0
            for child_id in op_children[op_id]
        }
        assert result.plan.materialized <= used

    def test_on_tpcd_batches(self, tpcd_optimizer):
        for index in (1, 2, 3):
            self._assert_invariant(tpcd_optimizer.build_dag(batched_queries(index)))

    def test_on_scaleup(self, psp_optimizer):
        self._assert_invariant(psp_optimizer.build_dag(scaleup_queries(2)))

    def test_on_standalone_workloads(self, tpcd_optimizer):
        for queries in (tq.q2_decorrelated(), [tq.q11()], [tq.q15()], [tq.q2()]):
            self._assert_invariant(tpcd_optimizer.build_dag(queries))

    def test_under_all_ablation_options(self, tpcd_optimizer):
        dag = tpcd_optimizer.build_dag(batched_queries(2))
        for sharability in (True, False):
            for monotonicity in (True, False):
                for incremental in (True, False):
                    self._assert_invariant(
                        dag,
                        GreedyOptions(
                            use_sharability=sharability,
                            use_monotonicity=monotonicity,
                            use_incremental=incremental,
                        ),
                    )


class TestMonotonicityBoundRegression:
    @pytest.mark.parametrize("params", [[15], [15, 25], [15, 25, 35]])
    def test_bound_accounts_for_use_multipliers(self, tpcd_optimizer, params):
        """With sharability disabled the initial heap bounds must still be
        genuine upper bounds.  The old ``len(node.parents)`` fallback
        undercounts nested-query use multipliers, which made the heap
        terminate early on these correlated parameterized batches (e.g. cost
        271.06 instead of 225.75 on the two-parameter batch); with exact
        multiplier-aware degrees the heap matches the full-recompute loop."""
        queries = parameterized_batch(tq.q2_modified, params)
        dag = tpcd_optimizer.build_dag(queries)
        full = optimize_greedy(
            dag, GreedyOptions(use_sharability=False, use_monotonicity=False)
        )
        mono = optimize_greedy(
            dag, GreedyOptions(use_sharability=False, use_monotonicity=True)
        )
        assert mono.cost == pytest.approx(full.cost, rel=1e-9)

    def test_bound_matches_sharability_path_on_transitive_sharing(self, tpcd_optimizer):
        """A single correlated query: the invariant sub-expression's direct
        use count is 1 (one parent), but it is invoked once per outer binding
        through its ancestors — only a transitive (true) degree ranks it like
        the sharability-enabled heap does.  Local fallbacks produced a
        different (arbitrarily diverging) materialization order.  Note the
        monotonicity heuristic itself is approximate on this workload — both
        paths report 198.26 vs 172.37 for full recompute, because benefits
        rise after the first materialization, which the heap forgoes by
        design — so the regression assertion is agreement between the two
        heap paths, not with the full-recompute loop."""
        dag = tpcd_optimizer.build_dag([tq.q2()])
        with_sharability = optimize_greedy(dag)
        without = optimize_greedy(dag, GreedyOptions(use_sharability=False))
        assert without.cost == pytest.approx(with_sharability.cost, rel=1e-9)
        assert without.plan.materialized == with_sharability.plan.materialized

    def test_correlated_batch_matches_sharability_path(self, tpcd_optimizer):
        queries = parameterized_batch(tq.q2_modified, [15])
        dag = tpcd_optimizer.build_dag(queries)
        with_sharability = optimize_greedy(dag)
        without = optimize_greedy(dag, GreedyOptions(use_sharability=False))
        assert without.cost <= with_sharability.cost * 1.0001


class TestBatchedSharingDegrees:
    def test_batched_degrees_match_per_target_recurrence(self, batch_dag):
        """The one-sweep batched computation must equal the paper's one-target
        -at-a-time recurrence (:mod:`tests.oracles.sharability`)."""
        from repro.optimizer.sharability import _may_be_shared, sharing_degrees

        degrees = sharing_degrees(batch_dag)
        for node in batch_dag.equivalence_nodes():
            if (
                node.is_base
                or node is batch_dag.root
                or not _may_be_shared(batch_dag.arena, node.id)
            ):
                continue
            assert degrees[node.id] == pytest.approx(sharing_degree(batch_dag, node.id))
