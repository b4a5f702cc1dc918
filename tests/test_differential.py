"""Randomized cross-algorithm differential oracle suite.

Every optimizer in this package has at least one equivalent-by-construction
twin: the array engine vs. the reference object-graph recurrence, the dense
incremental cost state vs. from-scratch recomputation, incremental Volcano-RU
vs. its per-query re-costing reference, the dense Volcano-SH decision pass
vs. its object-graph reference, the incremental greedy pruning fixpoint vs.
its from-scratch rounds, the batched sharability sweep vs. the paper's
one-target-at-a-time recurrence.  This suite pits them against each other on ~200 seeded random
AND-OR DAGs (see :mod:`tests.generators`, including the subsumption-augmented
variant that exercises the Volcano-SH swap/undo machinery) and additionally
checks the qualitative algorithm ordering of the paper:

* incremental Volcano-RU returns *exactly* (same total, same materialized
  set, same operation choices) what the from-scratch reference returns, on
  every query order;
* ``exhaustive ≤ greedy ≤ Volcano-SH ≤ Volcano`` (costs), with the handful
  of seeds where the greedy heuristic is genuinely suboptimal pinned as
  known — a behavioral change in either direction fails the suite;
* the engine cost kernels equal the reference recurrence on random
  materialization sets, and the dense incremental state tracks from-scratch
  costs through random toggle/undo/probe sequences;
* the memoized, hash-consed DAG builder produces DAGs byte-identical to the
  reference (memo-free) builder — equivalence keys, properties, operation
  sets, costs, topological numbers — on every seeded workload family and on
  randomized query batches, and all four paper algorithms return identical
  results (cost, materialized set, counters, plan explain) on both.

All seeds are fixed, so the suite is deterministic; a failure message always
names the seed that reproduces it.
"""

import math
import random

import pytest

from repro.optimizer.costing import (
    best_operations_reference,
    child_cost,
    compute_node_costs,
    compute_node_costs_reference,
    equivalence_cost,
    total_cost_reference,
)
from repro.optimizer.engine import IncrementalCostState, argmin_operation, get_engine
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.greedy import (
    GreedyOptions,
    _prune_unused,
    _prune_unused_reference,
    optimize_greedy,
)
from repro.optimizer.sharability import _batched_degrees, sharable_nodes
from repro.optimizer.volcano import consolidated_best_plan, optimize_volcano
from repro.optimizer.volcano_ru import _run_order, _run_order_reference
from repro.optimizer.volcano_sh import (
    _subsumption_alternative,
    _volcano_sh_reference,
    optimize_volcano_sh,
    plan_node_costs,
    volcano_sh_pass,
)
from tests.generators import (
    dag_fingerprint,
    degenerate_batches,
    random_dag,
    random_materialization_sets,
    random_query_workload,
    random_subsumption_dag,
    reference_dag,
    self_join_dag,
    subsumption_undo_dag,
)

SEEDS = range(200)

#: Seeds (of SEEDS) where the greedy heuristic provably misses the exhaustive
#: optimum: benefits there are non-monotone (two nodes are only jointly
#: profitable, or materializing one unlocks a better candidate later), which
#: single-step greedy cannot see.  Pinned so a quality *regression* on any
#: other seed — and an unreported *improvement* here — both fail loudly.
GREEDY_SUBOPTIMAL_SEEDS = {25, 78, 158, 175}

#: The one generated DAG where that same non-monotonicity makes greedy lose
#: to Volcano-SH (which inherits a jointly-profitable set from the Volcano
#: plan structure instead of building it node by node).
GREEDY_ABOVE_SH_SEEDS = {78}


def _op_ids(dag, choices):
    """A reference choice map as the dense operation-id list that
    ``_run_order`` returns (``-1`` where the plan chose nothing).  Views are
    canonical per operation id, so comparing ids is comparing identities."""
    ids = [-1] * dag.num_equivalence_nodes
    for node_id, operation in choices.items():
        ids[node_id] = operation.id
    return ids


def _orders(dag):
    forward = list(range(len(dag.query_roots)))
    orders = [forward]
    if len(forward) > 1:
        orders.append(list(reversed(forward)))
    return orders


class TestIncrementalVolcanoRUExact:
    def test_matches_from_scratch_reference_on_every_order(self):
        """The tentpole differential: the incremental per-query costing must
        reproduce the from-scratch pass *exactly* — total, materialized set,
        and per-node operation choices, not just the cost."""
        for seed in SEEDS:
            dag = random_dag(seed)
            for order in _orders(dag):
                incremental = _run_order(dag, order)
                reference = _run_order_reference(dag, order)
                assert incremental[0] == reference[0], (seed, order)
                assert incremental[1] == reference[1], (seed, order)
                assert incremental[2] == _op_ids(dag, reference[2]), (seed, order)


class TestAlgorithmOrdering:
    def test_greedy_vs_sh_vs_volcano(self):
        """Paper ordering: Volcano-SH never loses to Volcano (it falls back),
        greedy never loses to Volcano (each materialization step strictly
        lowers bestcost), and greedy beats Volcano-SH except on the pinned
        non-monotone seeds."""
        for seed in SEEDS:
            dag = random_dag(seed)
            volcano = optimize_volcano(dag).cost
            sh = optimize_volcano_sh(dag).cost
            greedy = optimize_greedy(dag).cost
            assert sh <= volcano + 1e-9, seed
            assert greedy <= volcano + 1e-9, seed
            if seed in GREEDY_ABOVE_SH_SEEDS:
                assert greedy > sh + 1e-9, (
                    f"seed {seed} no longer exhibits greedy > Volcano-SH; "
                    "update GREEDY_ABOVE_SH_SEEDS"
                )
            else:
                assert greedy <= sh + 1e-9, (seed, greedy, sh)

    def test_greedy_vs_exhaustive_optimum(self):
        """Greedy equals the exhaustive optimum over the sharable candidates
        on every generated DAG except the pinned non-monotone ones (where it
        must still never beat the optimum)."""
        for seed in SEEDS:
            dag = random_dag(seed)
            candidates = sharable_nodes(dag)
            if len(candidates) > 14:  # pragma: no cover - generator keeps DAGs small
                continue
            exhaustive = optimize_exhaustive(dag, candidates).cost
            greedy = optimize_greedy(dag).cost
            assert exhaustive <= greedy + 1e-9, seed
            if seed in GREEDY_SUBOPTIMAL_SEEDS:
                assert greedy > exhaustive + 1e-9, (
                    f"seed {seed} no longer exhibits a greedy/exhaustive gap; "
                    "update GREEDY_SUBOPTIMAL_SEEDS"
                )
            else:
                assert greedy == pytest.approx(exhaustive, abs=1e-9), seed

    def test_greedy_ablations_agree_on_final_invariant(self):
        """Every ablation combination still satisfies
        ``result.cost == bestcost(dag, result.plan.materialized)``."""
        from repro.optimizer.costing import bestcost

        for seed in range(0, 60, 3):
            dag = random_dag(seed)
            for sharability in (True, False):
                for monotonicity in (True, False):
                    result = optimize_greedy(
                        dag,
                        GreedyOptions(
                            use_sharability=sharability, use_monotonicity=monotonicity
                        ),
                    )
                    assert result.cost == bestcost(dag, result.plan.materialized), (
                        seed,
                        sharability,
                        monotonicity,
                    )


class TestEngineKernelsVsReference:
    def test_cost_tables_match_on_random_materialization_sets(self):
        for seed in range(0, 100, 2):
            dag = random_dag(seed)
            rng = random.Random(seed ^ 0xA5A5)
            for materialized in random_materialization_sets(dag, rng):
                fast = compute_node_costs(dag, materialized)
                reference = compute_node_costs_reference(dag, materialized)
                assert fast == reference, (seed, sorted(materialized))

    def test_incremental_state_tracks_reference_through_toggle_undo(self):
        for seed in range(40):
            dag = random_dag(seed)
            state = IncrementalCostState(dag)
            rng = random.Random(seed ^ 0x5A5A)
            candidates = [
                node
                for node in dag.equivalence_nodes()
                if not node.is_base and node is not dag.root
            ]
            materialized = set()
            undo_stack = []
            for _ in range(rng.randint(3, 8)):
                if undo_stack and rng.random() < 0.4:
                    node, log, added = undo_stack.pop()
                    state.undo(node.id, log, added)
                    materialized ^= {node.id}
                else:
                    node = rng.choice(candidates)
                    add = node.id not in materialized
                    log = state.toggle_id(node.id, add=add)
                    undo_stack.append((node, log, add))
                    materialized ^= {node.id}
                expected = compute_node_costs_reference(dag, materialized)
                for eq_node in dag.equivalence_nodes():
                    assert state.costs[eq_node.id] == pytest.approx(
                        expected[eq_node.id]
                    ), (seed, eq_node.id)
                assert state.total() == pytest.approx(
                    total_cost_reference(dag, expected, materialized)
                ), seed

    def test_cost_with_id_equals_from_scratch_bestcost(self):
        for seed in range(0, 60, 4):
            dag = random_dag(seed)
            state = IncrementalCostState(dag)
            candidates = [
                node.id
                for node in dag.equivalence_nodes()
                if not node.is_base and node is not dag.root
            ]
            before_costs = dict(state.costs)
            before_total = state.total()
            totals = [state.cost_with_id(node_id) for node_id in candidates]
            # Probes are side-effect free (exact restore, no drift) ...
            assert state.total() == before_total, seed
            assert dict(state.costs) == before_costs, seed
            # ... and each one equals the from-scratch bestcost.
            for node_id, total in zip(candidates, totals):
                expected_costs = compute_node_costs_reference(dag, {node_id})
                expected = total_cost_reference(dag, expected_costs, {node_id})
                assert total == pytest.approx(expected), (seed, node_id)


class TestArgminOperation:
    """The contract of ``argmin_operation``, the one argmin body behind the
    cost sweep, the choice pass, the greedy pruning, Volcano-RU's plan walk
    and the Volcano-SH fallback."""

    def test_matches_reference_argmin_and_cost(self):
        arities = set()
        for seed in range(60):
            dag = random_dag(seed)
            engine = get_engine(dag)
            nodes = {node.id: node for node in dag.equivalence_nodes()}
            rng = random.Random(seed ^ 0x3C3C)
            for materialized in random_materialization_sets(dag, rng):
                costs = compute_node_costs_reference(dag, materialized)
                effective = [
                    child_cost(nodes[node_id], costs, materialized)
                    for node_id in range(engine.num_nodes)
                ]
                expected = best_operations_reference(dag, costs, materialized)
                for node_id, operations in enumerate(engine.op_specs):
                    if operations is None:
                        continue
                    arities.update(len(entry) for entry in operations)
                    index, cost = argmin_operation(operations, effective)
                    where = (seed, sorted(materialized), node_id)
                    assert engine.op_ids[node_id][index] == expected[node_id].id, where
                    assert cost == equivalence_cost(nodes[node_id], costs, materialized), where
        # Two children, one child, and the n-ary form (the pseudo-root over
        # three or more queries, and three-child operations) all ran.
        assert arities == {2, 3, 5}

    def test_every_alternative_infinite(self):
        for seed in range(20):
            engine = get_engine(random_dag(seed))
            effective = [math.inf] * engine.num_nodes
            for operations in engine.op_specs:
                if operations is not None:
                    assert argmin_operation(operations, effective) == (-1, math.inf)

    def test_first_operation_wins_ties(self):
        assert argmin_operation(((0, 1.0, 5.0), (1, 1.0, 5.0)), [1.0, 1.0]) == (0, 6.0)
        for seed in range(20):
            dag = random_dag(seed)
            engine = get_engine(dag)
            effective = list(compute_node_costs(dag).values())
            for operations in engine.op_specs:
                if operations is not None:
                    assert argmin_operation(operations + operations, effective) == (
                        argmin_operation(operations, effective)
                    )


def _assert_sh_pass_matches(dag, plan=None):
    """Dense Volcano-SH must equal the object-graph reference byte-for-byte:
    the materialized set, every operation choice (by identity), and the
    exact float total."""
    plan = plan or consolidated_best_plan(dag)
    dense_mat, dense_choices, dense_total = volcano_sh_pass(dag, plan)
    ref_mat, ref_choices, ref_total = _volcano_sh_reference(dag, plan)
    assert dense_mat == ref_mat
    assert dense_choices == ref_choices
    assert all(dense_choices[k] is ref_choices[k] for k in ref_choices)
    assert dense_total == ref_total
    return ref_mat, ref_choices, ref_total


class TestDenseVolcanoSH:
    def test_matches_reference_on_random_dags(self):
        for seed in SEEDS:
            try:
                _assert_sh_pass_matches(random_dag(seed))
            except AssertionError:
                raise AssertionError(f"dense Volcano-SH diverged on seed {seed}")

    def test_matches_reference_on_subsumption_dags(self):
        """The swap pre-pass, the created-by-subsumption pay-for-itself test,
        and the final undo only run on DAGs with subsumption derivations;
        the augmented generator exercises all of them (across these seeds
        some swaps are kept, some undone, and some sources materialize)."""
        for seed in range(100):
            try:
                _assert_sh_pass_matches(random_subsumption_dag(seed))
            except AssertionError:
                raise AssertionError(
                    f"dense Volcano-SH diverged on subsumption seed {seed}"
                )

    def test_matches_reference_on_seeded_workloads(self, tpcd_optimizer, psp_optimizer):
        """Byte-identical decisions on every tier-1 workload family: the TPC-D
        batches (fig8), the PSP scale-up composites (fig9), the stand-alone
        TPC-D queries (fig6), and a correlated parameterized batch."""
        from repro.workloads import tpcd_queries as tq
        from repro.workloads.batch import batched_queries
        from repro.workloads.nested import parameterized_batch
        from repro.workloads.scaleup import all_scaleup_workloads

        dags = [tpcd_optimizer.build_dag(batched_queries(i)) for i in range(1, 6)]
        dags += [
            psp_optimizer.build_dag(queries)
            for queries in all_scaleup_workloads().values()
        ]
        dags += [
            tpcd_optimizer.build_dag(queries)
            for queries in tq.standalone_workloads().values()
        ]
        dags.append(
            tpcd_optimizer.build_dag(parameterized_batch(tq.q2_modified, [15, 25]))
        )
        for dag in dags:
            _assert_sh_pass_matches(dag)

    def test_ru_orders_match_on_subsumption_dags(self):
        """End-to-end Volcano-RU (incremental costing + dense SH pass) versus
        the fully object-graph reference chain, on DAGs where the SH pass has
        real subsumption decisions to make."""
        for seed in range(0, 100, 4):
            dag = random_subsumption_dag(seed)
            for order in _orders(dag):
                incremental = _run_order(dag, order)
                reference = _run_order_reference(dag, order)
                assert incremental[0] == reference[0], (seed, order)
                assert incremental[1] == reference[1], (seed, order)
                assert incremental[2] == _op_ids(dag, reference[2]), (seed, order)

    def test_swap_undone_when_source_not_materialized(self):
        """Pinned undo scenario (see ``tests.generators.subsumption_undo_dag``):
        the pre-pass provably swaps the consumer onto the subsumption
        derivation, the source fails its pay-for-itself test, and the final
        undo must leave the plan exactly where Volcano put it."""
        dag = subsumption_undo_dag()
        plan = consolidated_best_plan(dag)
        consumer = dag.find(("X",))
        source = dag.find(("S",))
        regular = plan.choices[consumer.id]
        assert not regular.is_subsumption

        # The swap precondition of the pre-pass holds...
        reachable_ids = {node.id for node in plan.reachable()}
        alternative = _subsumption_alternative(consumer, reachable_ids)
        assert alternative is not None and alternative.children[0] is source
        via_materialized = alternative.local_cost + source.reuse_cost
        baseline = plan_node_costs(dag, plan.choices, set())
        assert via_materialized <= baseline[consumer.id]

        materialized, choices, total = _assert_sh_pass_matches(dag, plan)
        # ... the source is not worth materializing, so the swap is undone.
        assert source.id not in materialized
        assert materialized == set()
        assert choices[consumer.id] is regular
        assert choices == plan.choices
        assert total == baseline[dag.root.id]

    def test_swap_undone_on_pinned_workload(self, tpcd_optimizer):
        """Same undo scenario on a real workload: in the TPC-D batch BQ2 the
        two-year orders scan (node 18) gets swapped onto a subsumption select
        over the three-year scan, whose source does not materialize."""
        from repro.workloads.batch import batched_queries

        dag = tpcd_optimizer.build_dag(batched_queries(2))
        plan = consolidated_best_plan(dag)
        node = dag.node_by_id(18)
        original = plan.choices[node.id]
        assert not original.is_subsumption

        reachable_ids = {n.id for n in plan.reachable()}
        alternative = _subsumption_alternative(node, reachable_ids)
        assert alternative is not None
        source_ids = [child.id for child in alternative.children]
        via_materialized = alternative.local_cost + sum(
            multiplier * child.reuse_cost
            for child, multiplier in zip(alternative.children, alternative.child_multipliers)
        )
        baseline = plan_node_costs(dag, plan.choices, set())
        assert via_materialized <= baseline[node.id]

        materialized, choices, _total = _assert_sh_pass_matches(dag, plan)
        assert not any(source_id in materialized for source_id in source_ids)
        assert choices[node.id] is original
        # The undo is selective: other swaps (whose sources did materialize)
        # survive in the same plan.
        assert any(choices[k] is not plan.choices[k] for k in plan.choices)


class TestIncrementalGreedyPruning:
    def _assert_prune_matches(self, dag, materialized):
        incremental = _prune_unused(dag, set(materialized))
        reference = _prune_unused_reference(dag, set(materialized))
        assert incremental[0] == reference[0], sorted(materialized)
        assert incremental[1] == reference[1], sorted(materialized)
        assert incremental[2] == reference[2], sorted(materialized)

    def test_matches_reference_on_random_sets(self):
        """The incremental fixpoint (epsilon=0 toggles + dense choice/refcount
        maintenance) must reproduce the from-scratch rounds exactly: same
        surviving set, same argmin choices, same float total."""
        for seed in range(0, 200, 2):
            dag = random_dag(seed)
            rng = random.Random(seed ^ 0x3C3C)
            for materialized in random_materialization_sets(dag, rng, count=4):
                try:
                    self._assert_prune_matches(dag, materialized)
                except AssertionError:
                    raise AssertionError(f"pruning diverged on seed {seed}")

    def test_matches_reference_on_subsumption_dags(self):
        for seed in range(0, 100, 5):
            dag = random_subsumption_dag(seed)
            rng = random.Random(seed ^ 0xC3C3)
            for materialized in random_materialization_sets(dag, rng, count=3):
                self._assert_prune_matches(dag, materialized)

    def test_matches_reference_on_workload_batches(self, tpcd_optimizer):
        from repro.workloads.batch import batched_queries

        for index in (1, 2, 3):
            dag = tpcd_optimizer.build_dag(batched_queries(index))
            rng = random.Random(index)
            for materialized in random_materialization_sets(dag, rng, count=3):
                self._assert_prune_matches(dag, materialized)


def _seeded_builder_workloads(tpcd_optimizer, psp_optimizer):
    """(name, optimizer, queries) for every seeded workload family the suite
    locks down: TPC-D batches BQ1..BQ5 (fig8), scale-up composites CQ1..CQ5
    (fig9), the stand-alone queries (fig6), the correlated parameterized
    batch, and the no-overlap batch of Section 6.4."""
    from repro import MQOptimizer
    from repro.catalog import tpcd_catalog
    from repro.workloads import tpcd_queries as tq
    from repro.workloads.batch import all_batched_workloads, no_overlap_batch
    from repro.workloads.nested import parameterized_batch
    from repro.workloads.scaleup import all_scaleup_workloads

    entries = []
    for name, queries in all_batched_workloads().items():
        entries.append((name, tpcd_optimizer, queries))
    for name, queries in all_scaleup_workloads().items():
        entries.append((name, psp_optimizer, queries))
    for name, queries in tq.standalone_workloads().items():
        entries.append((name, tpcd_optimizer, queries))
    entries.append(
        ("Q2-param", tpcd_optimizer, parameterized_batch(tq.q2_modified, [15, 25]))
    )
    no_overlap, extended = no_overlap_batch(tpcd_catalog(1.0))
    entries.append(("no-overlap", MQOptimizer(extended), no_overlap))
    return entries


def _assert_algorithms_identical(memo_dag, ref_dag, context):
    """All four paper algorithms must return byte-identical results on the
    memoized and the reference DAG: exact float cost, materialized set,
    Figure 10 counters, and the rendered plan."""
    from repro.optimizer import optimize_greedy as greedy
    from repro.optimizer.volcano import optimize_volcano as volcano
    from repro.optimizer.volcano_ru import optimize_volcano_ru as volcano_ru
    from repro.optimizer.volcano_sh import optimize_volcano_sh as volcano_sh

    for optimize in (volcano, volcano_sh, volcano_ru, greedy):
        fast = optimize(memo_dag)
        reference = optimize(ref_dag)
        label = (context, optimize.__name__)
        assert fast.cost == reference.cost, label
        assert fast.plan.materialized == reference.plan.materialized, label
        assert fast.counters == reference.counters, label
        assert fast.plan.explain() == reference.plan.explain(), label


class TestBuilderMemoOracle:
    """The memoized, hash-consed builder vs. the reference (memo-free) one."""

    def test_matches_reference_on_seeded_workloads(self, tpcd_optimizer, psp_optimizer):
        for name, optimizer, queries in _seeded_builder_workloads(
            tpcd_optimizer, psp_optimizer
        ):
            memo_dag = optimizer.build_dag(queries)
            ref_dag = reference_dag(optimizer.catalog, queries)
            assert dag_fingerprint(memo_dag) == dag_fingerprint(ref_dag), name
            _assert_algorithms_identical(memo_dag, ref_dag, name)

    def test_matches_reference_on_random_query_batches(self, psp_optimizer):
        """Randomized batches stress the paths the seeded workloads do not:
        disconnected blocks (cross-product edges, where hash-consing must
        stand down), repeated tables, spanning disjunction predicates, and
        overlapping selections feeding every subsumption rule."""
        for seed in range(40):
            queries = random_query_workload(seed)
            memo_dag = psp_optimizer.build_dag(queries)
            ref_dag = reference_dag(psp_optimizer.catalog, queries)
            assert dag_fingerprint(memo_dag) == dag_fingerprint(ref_dag), seed
            _assert_algorithms_identical(memo_dag, ref_dag, seed)

    def test_matches_reference_with_out_of_block_predicates(self, psp_optimizer):
        """A block predicate over an alias outside the block (a correlation
        column) has an in-block mask of one alias (``psp2.num = outer.y``)
        or none (``outer.z < 5``).  A single-leaf side of a partition
        applies no join predicate, so the one-alias predicate connects
        every partition that splits its alias off alone; alone and next to
        an overlapping plain batch, in both orders."""
        from repro.algebra import Join, Relation, Select, and_, col, eq, lt
        from repro.dag.builder import Query

        a, b, c = Relation("psp1", "a"), Relation("psp2", "b"), Relation("psp3", "c")
        chain = Join(
            Join(a, b, eq(col("a", "sp"), col("b", "p"))),
            c,
            eq(col("b", "sp"), col("c", "p")),
        )
        outer = [
            Query(
                "outer",
                Select(chain, and_(eq(col("b", "num"), col("outer", "y")), lt(col("outer", "z"), 5))),
            )
        ]
        plain = [
            Query("plain3", chain),
            Query("plain2", Join(a, b, eq(col("a", "sp"), col("b", "p")))),
        ]
        for name, queries in (
            ("outer", outer),
            ("outer+plain", outer + plain),
            ("plain+outer", plain + outer),
        ):
            memo_dag = psp_optimizer.build_dag(queries)
            ref_dag = reference_dag(psp_optimizer.catalog, queries)
            assert dag_fingerprint(memo_dag) == dag_fingerprint(ref_dag), name
            _assert_algorithms_identical(memo_dag, ref_dag, name)

    def test_matches_reference_on_random_batches_with_outer_predicates(self, psp_optimizer):
        for seed in range(40):
            queries = random_query_workload(seed, outer_predicates=True)
            memo_dag = psp_optimizer.build_dag(queries)
            ref_dag = reference_dag(psp_optimizer.catalog, queries)
            assert dag_fingerprint(memo_dag) == dag_fingerprint(ref_dag), seed
            _assert_algorithms_identical(memo_dag, ref_dag, seed)

    def test_memo_builder_is_default_and_flag_reaches_builder(self, psp_optimizer):
        from repro.dag.builder import DagBuilder

        assert DagBuilder(psp_optimizer.catalog).memoize
        reference = DagBuilder(psp_optimizer.catalog, memoize=False)
        assert reference._join_op_memo is None
        assert reference._expanded_joins is None


def _dict_path_below_root(dag, targets):
    """Whether an operation below the pseudo-root sums degree vectors that
    are not disjoint all-ones vectors: a child holding a target is read
    with a multiplier other than 1, or two such children share a target."""
    arena = dag.arena
    below = {}
    for node in sorted(dag.equivalence_nodes(), key=lambda n: n.topo_number):
        held = {node.id} if node.id in targets else set()
        for op_id in arena.eq_op_ids[node.id]:
            seen = set()
            for child_id, multiplier in zip(arena.op_children[op_id],
                                            arena.op_multipliers[op_id]):
                child_targets = below[child_id]
                if child_targets and node is not dag.root and (
                    multiplier != 1.0 or seen & child_targets
                ):
                    return True
                seen |= child_targets
            held |= seen
        below[node.id] = held
    return False


class TestSharingSweepPaths:
    def test_degrees_match_single_target_recurrence(self, psp_optimizer):
        """The batched sweep must equal the paper's one-target-at-a-time
        recurrence (re-implemented here as the oracle)."""

        def oracle_degree(dag, target):
            memo = {}
            for node in sorted(dag.equivalence_nodes(), key=lambda n: n.topo_number):
                if node.id == target:
                    memo[node.id] = 1.0
                    continue
                best = 0.0
                for operation in node.operations:
                    total = 0.0
                    for child, multiplier in zip(
                        operation.children, operation.child_multipliers
                    ):
                        total += multiplier * memo.get(child.id, 0.0)
                    best = max(best, total)
                memo[node.id] = best
            return memo.get(dag.root.id, 0.0)

        dags = {f"random-{seed}": random_dag(seed) for seed in range(0, 40, 4)}
        for name, queries in degenerate_batches().items():
            dags[name] = psp_optimizer.build_dag(queries)
        dags["self-join-dag"] = self_join_dag()
        below_root = set()
        for label, dag in dags.items():
            get_engine(dag)  # numbers the DAG, as the sweeps do internally
            targets = {
                node.id
                for node in dag.equivalence_nodes()
                if not node.is_base and node is not dag.root
            }
            if _dict_path_below_root(dag, targets):
                below_root.add(label)
            sparse = _batched_degrees(dag, targets)
            for target in targets:
                assert sparse[target] == oracle_degree(dag, target), (label, target)
        # Degrees of 1 are bitmask bits; these DAGs also reach the dict
        # path (multipliers, overlapping children) below the pseudo-root.
        assert {"deep-correlation", "self-join-dag"} <= below_root, below_root
