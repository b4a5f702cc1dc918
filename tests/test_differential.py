"""Randomized cross-algorithm differential oracle suite.

Every search in this package is checked against an oracle in
``tests/oracles/`` that transcribes the paper over the object graph and
shares no code with the cost engine: the engine's cost sweep (costs and
argmin choices) and Volcano's plan vs. the Section 3.1 recurrence, the dense
incremental cost state vs. from-scratch recomputation, incremental
Volcano-RU vs. per-query re-costing, the dense Volcano-SH decision pass vs.
the paper's pass, greedy's sweep-driven pruning fixpoint vs. rounds of the
recurrence over the object-graph plan walk, the batched sharability sweep
vs. the paper's one-target-at-a-time recurrence.  This suite pits them
against each other on ~200 seeded random
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
  costs through random add/probe sequences;
* the memoized, hash-consed DAG builder produces DAGs byte-identical to the
  builder oracle's (``tests/oracles/builder.py``, the join-space expansion
  by set algebra) — equivalence keys, properties, operation sets, costs,
  topological numbers — on every seeded workload family and on randomized
  query batches, and all four paper algorithms return identical results
  (cost, materialized set, counters, plan explain) on both.

All seeds are fixed, so the suite is deterministic; a failure message always
names the seed that reproduces it.
"""

import collections
import math
import random

import pytest

from repro.cost.estimation import LogicalProperties
from repro.dag.arena import _op_spec
from repro.dag.nodes import Dag
from repro.optimizer.engine import IncrementalCostState, argmin_operation, get_engine
from repro.optimizer.exhaustive import ExhaustiveSearchError, optimize_exhaustive
from repro.optimizer.greedy import GreedyOptions, _prune_unused, optimize_greedy
from repro.optimizer.plans import PlanError, extract_plan
from repro.optimizer.sharability import _batched_degrees
from repro.optimizer.volcano import consolidated_best_plan, optimize_volcano
from repro.optimizer.volcano_ru import _run_order, optimize_volcano_ru
from repro.optimizer.volcano_sh import optimize_volcano_sh
from tests.oracles import costing as oracle
from tests.oracles.greedy import prune_unused
from tests.oracles.sharability import sharing_degree
from tests.oracles.volcano_ru import run_order
from tests.oracles.volcano_sh import subsumption_alternative, volcano_sh
from tests.generators import (
    _GenOp,
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


def _assert_ru_orders_match(dag, seed):
    """Each query order of incremental Volcano-RU equals the oracle's
    from-scratch pass *exactly*: total, materialized set and per-node
    operation choices."""
    forward = list(range(len(dag.query_roots)))
    for order in (forward, forward[::-1]) if len(forward) > 1 else (forward,):
        incremental = _run_order(dag, order)
        reference = run_order(dag, order)
        assert incremental[0] == reference[0], (seed, order)
        assert incremental[1] == reference[1], (seed, order)
        assert incremental[2] == oracle.choice_ids(dag, reference[2]), (seed, order)


class TestIncrementalVolcanoRUExact:
    def test_matches_from_scratch_reference_on_every_order(self):
        for seed in SEEDS:
            _assert_ru_orders_match(random_dag(seed), seed)


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
            try:
                exhaustive = optimize_exhaustive(dag, max_candidates=14).cost
            except ExhaustiveSearchError:  # pragma: no cover - generator keeps DAGs small
                continue
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
                fast = get_engine(dag).compute_costs(materialized)
                reference = oracle.node_costs(dag, materialized)
                assert dict(enumerate(fast)) == reference, (seed, sorted(materialized))

    def test_incremental_state_tracks_reference_through_adds(self):
        for seed in range(40):
            dag = random_dag(seed)
            state = IncrementalCostState(dag)
            rng = random.Random(seed ^ 0x5A5A)
            candidates = [
                node
                for node in dag.equivalence_nodes()
                if not node.is_base and node is not dag.root
            ]
            rng.shuffle(candidates)
            materialized = set()
            for node in candidates[: rng.randint(3, 8)]:
                state.materialize_id(node.id)
                materialized.add(node.id)
                expected = oracle.node_costs(dag, materialized)
                # The default cut-off leaves sub-epsilon decreases unpropagated.
                costs = state.snapshot_costs()
                for eq_node in dag.equivalence_nodes():
                    assert costs[eq_node.id] == pytest.approx(
                        expected[eq_node.id]
                    ), (seed, eq_node.id)
                assert state.total() == pytest.approx(
                    oracle.total_cost(dag, expected, materialized)
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
            before_costs = state.snapshot_costs()
            before_total = state.total()
            totals = [state.cost_with_id(node_id) for node_id in candidates]
            # Probes are side-effect free (exact restore, no drift) ...
            assert state.total() == before_total, seed
            assert state.snapshot_costs() == before_costs, seed
            # ... and each one equals the from-scratch bestcost.
            for node_id, total in zip(candidates, totals):
                expected_costs = oracle.node_costs(dag, {node_id})
                expected = oracle.total_cost(dag, expected_costs, {node_id})
                assert total == pytest.approx(expected), (seed, node_id)


class TestArgminOperation:
    """The contract of ``argmin_operation``, the one argmin body behind the
    cost sweep and Volcano-RU's plan walk."""

    def test_matches_reference_argmin_and_cost(self):
        arities = set()
        for seed in range(60):
            dag = random_dag(seed)
            engine = get_engine(dag)
            nodes = {node.id: node for node in dag.equivalence_nodes()}
            rng = random.Random(seed ^ 0x3C3C)
            for materialized in random_materialization_sets(dag, rng):
                costs = oracle.node_costs(dag, materialized)
                effective = [
                    oracle.child_cost(nodes[node_id], costs, materialized)
                    for node_id in range(engine.num_nodes)
                ]
                expected = oracle.best_operations(dag, costs, materialized)
                for node_id, operations in enumerate(engine.op_specs):
                    if operations is None:
                        continue
                    arities.update(len(entry) for entry in operations)
                    index, cost = argmin_operation(operations, effective)
                    where = (seed, sorted(materialized), node_id)
                    assert engine.op_ids[node_id][index] == expected[node_id].id, where
                    assert cost == oracle.equivalence_cost(nodes[node_id], costs, materialized), where
        # The unit pair, another pair, one child, and the n-ary form (the
        # pseudo-root over three or more queries, and three-child
        # operations) all ran.
        assert arities == {
            len(_op_spec(0.0, children, multipliers))
            for children, multipliers in (
                ((0, 1), (1.0, 1.0)),
                ((0, 1), (1.0, 2.0)),
                ((0,), (1.0,)),
                ((0, 1, 2), (1.0, 1.0, 1.0)),
            )
        }

    def test_every_alternative_infinite(self):
        for seed in range(20):
            engine = get_engine(random_dag(seed))
            effective = [math.inf] * engine.num_nodes
            for operations in engine.op_specs:
                if operations is not None:
                    assert argmin_operation(operations, effective) == (-1, math.inf)

    def test_first_operation_wins_ties(self):
        tied = (_op_spec(5.0, (0,), (1.0,)), _op_spec(5.0, (1,), (1.0,)))
        assert argmin_operation(tied, [1.0, 1.0]) == (0, 6.0)
        for seed in range(20):
            dag = random_dag(seed)
            engine = get_engine(dag)
            effective = engine.compute_costs()
            for operations in engine.op_specs:
                if operations is not None:
                    assert argmin_operation(operations + operations, effective) == (
                        argmin_operation(operations, effective)
                    )


def _two_table_dag(build_middle):
    """A DAG ``root -> (X, Y)`` over base tables b0 and b1, where
    ``build_middle(dag, b0, b1, y)`` adds X's operations; Y reads b0."""
    dag = Dag()
    b0, b1 = (
        dag.equivalence(
            ("base", index), LogicalProperties(rows=100.0), label=f"b{index}",
            is_base=True, base_table=f"b{index}",
        )
        for index in (0, 1)
    )
    y = dag.equivalence(("Y",), LogicalProperties(rows=10.0), label="Y")
    dag.add_operation(y, _GenOp("scan-b0"), [b0], 7.0, (1.0,))
    x = dag.equivalence(("X",), LogicalProperties(rows=10.0), label="X")
    build_middle(dag, x, b0, b1, y)
    root = dag.equivalence(("root",), LogicalProperties(rows=1.0), label="root")
    dag.add_operation(root, _GenOp("no-op"), [x, y], 0.0, (1.0, 1.0))
    dag.set_root(root, [x, y])
    dag.validate()
    return dag, x


class TestCostSweepVsReference:
    """``CostEngine.sweep`` against the oracle recurrence: its costs equal
    ``oracle.node_costs`` and its operation ids the choices of
    ``oracle.best_operations``, compared with ``==``; Volcano's plan and
    cost (the memoized empty-set sweep) equal the oracle's too."""

    def _assert_sweep_matches(self, dag, materialized):
        costs, choice_op = get_engine(dag).sweep(materialized)
        reference = oracle.node_costs(dag, materialized)
        assert costs == [reference[node_id] for node_id in range(len(costs))]
        choices = oracle.best_operations(dag, reference, materialized)
        assert choice_op == oracle.choice_ids(dag, choices)
        if not materialized:
            _assert_volcano_matches(dag)
        return choice_op

    def test_matches_reference_on_random_dags(self):
        for seed in range(0, 200, 2):
            dag = random_dag(seed)
            rng = random.Random(seed ^ 0x6B6B)
            for materialized in random_materialization_sets(dag, rng):
                self._assert_sweep_matches(dag, materialized)

    def test_matches_reference_on_subsumption_dags(self):
        for seed in range(0, 100, 2):
            dag = random_subsumption_dag(seed)
            rng = random.Random(seed ^ 0xB6B6)
            for materialized in random_materialization_sets(dag, rng):
                self._assert_sweep_matches(dag, materialized)

    def test_node_whose_alternatives_are_all_infinite(self):
        def build(dag, x, b0, b1, y):
            dag.add_operation(x, _GenOp("inf-a"), [b0], math.inf, (1.0,))
            dag.add_operation(x, _GenOp("inf-b"), [b1, y], math.inf, (1.0, 1.0))

        dag, x = _two_table_dag(build)
        choice_op = self._assert_sweep_matches(dag, set())
        assert choice_op[x.id] == choice_op[dag.root.id] == -1
        assert optimize_volcano(dag).plan.choice_op[x.id] == -1
        # Reading X at its finite reuse cost makes the root finite again.
        choice_op = self._assert_sweep_matches(dag, {x.id})
        assert choice_op[x.id] == -1
        assert choice_op[dag.root.id] == dag.root.operations[0].id

    def test_first_operation_wins_ties(self):
        def build(dag, x, b0, b1, y):
            dag.add_operation(x, _GenOp("first"), [b0], 3.0, (1.0,))
            dag.add_operation(x, _GenOp("second"), [b1], 3.0, (1.0,))
            dag.add_operation(x, _GenOp("third"), [y], 3.0, (0.0,))

        dag, x = _two_table_dag(build)
        for materialized in (set(), {x.id}):
            choice_op = self._assert_sweep_matches(dag, materialized)
            assert choice_op[x.id] == x.operations[0].id


class TestPlanThroughAllInfiniteNode:
    """A plan whose reachable cone holds a node with only infinite
    alternatives has no executable form: every algorithm refuses it with
    the same typed error, Volcano-SH and Volcano-RU when they price the
    plan, Volcano and greedy when it is extracted."""

    def test_every_algorithm_raises_plan_error(self):
        def build(dag, x, b0, b1, y):
            dag.add_operation(x, _GenOp("inf"), [b0], math.inf, (1.0,))

        dag, x = _two_table_dag(build)
        for optimize in (
            optimize_volcano, optimize_volcano_sh, optimize_volcano_ru, optimize_greedy,
        ):
            with pytest.raises(PlanError):
                extract_plan(optimize(dag).plan)
        assert optimize_volcano(dag).plan.choice_op[x.id] == -1


def _assert_volcano_matches(dag):
    """Volcano's plan is the oracle's consolidated plan and its cost the
    oracle's ``bestcost`` with nothing materialized."""
    result = optimize_volcano(dag)
    assert result.plan.choice_op == oracle.choice_ids(dag, oracle.consolidated_choices(dag))
    assert result.cost == oracle.total_cost(dag, oracle.node_costs(dag))


def _assert_sh_matches(dag):
    """Volcano-SH must equal the oracle exactly — the materialized set, every
    operation choice (by identity), and the float total — from its default
    start and from a supplied Volcano plan."""
    expected = materialized, choices, total = volcano_sh(dag, oracle.consolidated_choices(dag))
    for result in (optimize_volcano_sh(dag), optimize_volcano_sh(dag, consolidated_best_plan(dag))):
        assert result.plan.materialized == materialized
        assert result.plan.choice_op == oracle.choice_ids(dag, choices)
        assert result.cost == total
    return expected


class TestDenseVolcanoSH:
    def test_matches_reference_on_random_dags(self):
        for seed in SEEDS:
            try:
                _assert_sh_matches(random_dag(seed))
            except AssertionError:
                raise AssertionError(f"dense Volcano-SH diverged on seed {seed}")

    def test_matches_reference_on_subsumption_dags(self):
        """The swap pre-pass, the created-by-subsumption pay-for-itself test,
        and the final undo only run on DAGs with subsumption derivations;
        the augmented generator exercises all of them (across these seeds
        some swaps are kept, some undone, and some sources materialize)."""
        for seed in range(100):
            try:
                _assert_sh_matches(random_subsumption_dag(seed))
            except AssertionError:
                raise AssertionError(
                    f"dense Volcano-SH diverged on subsumption seed {seed}"
                )

    def test_matches_reference_on_seeded_workloads(self, tpcd_optimizer, psp_optimizer):
        """Identical decisions on every tier-1 workload family: the TPC-D
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
            _assert_volcano_matches(dag)
            _assert_sh_matches(dag)

    def test_ru_orders_match_on_subsumption_dags(self):
        """End-to-end Volcano-RU (incremental costing + dense SH pass) versus
        the object-graph oracle chain, on DAGs where the SH pass has real
        subsumption decisions to make."""
        for seed in range(0, 100, 4):
            _assert_ru_orders_match(random_subsumption_dag(seed), seed)

    def test_swap_undone_when_source_not_materialized(self):
        """Pinned undo scenario (see ``tests.generators.subsumption_undo_dag``):
        the pre-pass provably swaps the consumer onto the subsumption
        derivation, the source fails its pay-for-itself test, and the final
        undo must leave the plan exactly where Volcano put it."""
        dag = subsumption_undo_dag()
        consumer = dag.find(("X",))
        source = dag.find(("S",))
        plan, alternative, baseline = _swap_precondition(dag, consumer)
        assert alternative.children[0] is source

        materialized, choices, total = _assert_sh_matches(dag)
        # The source is not worth materializing, so the swap is undone.
        assert materialized == set()
        assert choices[consumer.id] is plan[consumer.id]
        assert choices == plan
        assert total == baseline[dag.root.id]

    def test_swap_undone_on_pinned_workload(self, tpcd_optimizer):
        """Same undo scenario on a real workload: in the TPC-D batch BQ2 the
        two-year orders scan (node 18) gets swapped onto a subsumption select
        over the three-year scan, whose source does not materialize."""
        from repro.workloads.batch import batched_queries

        dag = tpcd_optimizer.build_dag(batched_queries(2))
        node = dag.node_by_id(18)
        plan, alternative, _baseline = _swap_precondition(dag, node)

        materialized, choices, _total = _assert_sh_matches(dag)
        assert not any(child.id in materialized for child in alternative.children)
        assert choices[node.id] is plan[node.id]
        # The undo is selective: other swaps (whose sources did materialize)
        # survive in the same plan.
        assert any(choices[k] is not plan[k] for k in plan)


def _swap_precondition(dag, node):
    """The oracle's Volcano plan, the subsumption derivation of *node* the
    pre-pass swaps in (its source is in the plan, and reading the source
    materialized is no dearer than the plan's regular derivation) and the
    plan's costs."""
    plan = oracle.consolidated_choices(dag)
    assert not plan[node.id].is_subsumption
    reachable_ids = {n.id for n in oracle.reachable(plan, [dag.root])}
    alternative = subsumption_alternative(node, reachable_ids)
    assert alternative is not None
    via_materialized = alternative.local_cost + sum(
        multiplier * child.reuse_cost
        for child, multiplier in zip(alternative.children, alternative.child_multipliers)
    )
    baseline = oracle.plan_costs(dag, plan, set())
    assert via_materialized <= baseline[node.id]
    return plan, alternative, baseline


class TestGreedyPruningVsReferenceRounds:
    """``_prune_unused`` (one engine sweep plus an id-space walk per round)
    against the oracle's rounds (:func:`tests.oracles.greedy.prune_unused`):
    same surviving set, same argmin choices, same float total."""

    def _assert_prune_matches(self, dag, materialized):
        pruned = _prune_unused(dag, set(materialized))
        reference = prune_unused(dag, set(materialized))
        assert pruned[0] == reference[0], sorted(materialized)
        assert pruned[1] == oracle.choice_ids(dag, reference[1]), sorted(materialized)
        assert pruned[2] == reference[2], sorted(materialized)
        return reference[3]

    def test_matches_reference_on_random_sets(self):
        """Some cases need a second sweep: dropping an unused node changes
        the choices, which orphans another materialized node."""
        rounds = collections.Counter()
        for seed in range(0, 200, 2):
            dag = random_dag(seed)
            rng = random.Random(seed ^ 0x3C3C)
            for materialized in random_materialization_sets(dag, rng, count=4):
                try:
                    rounds[self._assert_prune_matches(dag, materialized)] += 1
                except AssertionError:
                    raise AssertionError(f"pruning diverged on seed {seed}")
        assert rounds[2] > 0, rounds

    def test_matches_reference_on_subsumption_dags(self):
        rounds = collections.Counter()
        for seed in range(0, 100, 5):
            dag = random_subsumption_dag(seed)
            rng = random.Random(seed ^ 0xC3C3)
            for materialized in random_materialization_sets(dag, rng, count=3):
                rounds[self._assert_prune_matches(dag, materialized)] += 1
        assert rounds[2] > 0, rounds

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
    production and the oracle's DAG: exact float cost, materialized set,
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


def _assert_builds_match(optimizer, queries, context):
    """Production's DAG of *queries* fingerprints as the oracle's, and every
    algorithm returns the same result on both."""
    memo_dag = optimizer.build_dag(queries)
    ref_dag = reference_dag(optimizer.catalog, queries)
    assert dag_fingerprint(memo_dag) == dag_fingerprint(ref_dag), context
    _assert_algorithms_identical(memo_dag, ref_dag, context)


class TestBuilderVsOracle:
    """The memoized, hash-consed builder vs. the set-algebra oracle."""

    def test_matches_reference_on_seeded_workloads(self, tpcd_optimizer, psp_optimizer):
        for name, optimizer, queries in _seeded_builder_workloads(
            tpcd_optimizer, psp_optimizer
        ):
            _assert_builds_match(optimizer, queries, name)

    def test_matches_reference_on_random_query_batches(self, psp_optimizer):
        """Randomized batches stress the paths the seeded workloads do not:
        disconnected blocks (cross-product edges, where hash-consing must
        stand down), repeated tables, spanning disjunction predicates, and
        overlapping selections feeding every subsumption rule."""
        for seed in range(40):
            queries = random_query_workload(seed)
            _assert_builds_match(psp_optimizer, queries, seed)

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
            _assert_builds_match(psp_optimizer, queries, name)

    def test_matches_reference_on_random_batches_with_outer_predicates(self, psp_optimizer):
        for seed in range(40):
            queries = random_query_workload(seed, outer_predicates=True)
            _assert_builds_match(psp_optimizer, queries, seed)

    def test_non_canonical_subset_of_an_expanded_node(self, psp_optimizer):
        """A sub-set expanded canonically by one block is re-enumerated when
        a later block's adjacency adds an edge inside it.  The chain
        ``a - b - c`` expands ``{a, b, c}`` canonically; the three-alias
        disjunction of the spanning query adds an ``a - c`` edge inside it,
        so that block re-derives the node and adds ``b | ac`` and ``ac | b``.
        """
        from repro.algebra import Join, Relation, Select, col, eq, or_
        from repro.dag.builder import Query

        a, b, c = Relation("psp1", "a"), Relation("psp2", "b"), Relation("psp3", "c")
        x = Relation("psp4", "x")
        chain = Join(
            Join(a, b, eq(col("a", "sp"), col("b", "p"))),
            c,
            eq(col("b", "sp"), col("c", "p")),
        )
        spanning = Select(
            Join(chain, x, eq(col("c", "sp"), col("x", "p"))),
            or_(eq(col("a", "num"), col("x", "num")), eq(col("c", "num"), col("x", "num"))),
        )
        plain = Query("plain", chain)
        wide = Query("spanning", spanning)
        for name, queries in (
            ("plain+spanning", [plain, wide]),
            ("spanning+plain", [wide, plain]),
        ):
            _assert_builds_match(psp_optimizer, queries, name)


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
        recurrence (:mod:`tests.oracles.sharability`)."""
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
                assert sparse[target] == sharing_degree(dag, target), (label, target)
        # Degrees of 1 are bitmask bits; these DAGs also reach the dict
        # path (multipliers, overlapping children) below the pseudo-root.
        assert {"deep-correlation", "self-join-dag"} <= below_root, below_root
