"""The greedy multi-query optimization heuristic (Section 4 of the paper).

The greedy algorithm iteratively picks the equivalence node whose
materialization gives the largest reduction in the total cost
``bestcost(Q, X)`` and adds it to the materialized set ``X``, stopping when no
node has positive benefit.  What makes it practical — and what this module
reproduces in full — are the paper's three implementation optimizations:

1. **Sharability** (Section 4.1): only nodes whose degree of sharing in the
   DAG exceeds one are candidates.  All degrees are computed in one batched
   sweep (:func:`repro.optimizer.sharability.sharing_degrees`).
2. **Incremental cost update** (Section 4.2, Figure 5): the cost state is
   maintained across ``bestcost`` calls; toggling one node's materialization
   propagates cost changes upwards in topological order through a heap, so
   each benefit computation touches only the ancestors of the candidate.  The
   running total ``bestcost(Q, X)`` is itself maintained incrementally under
   toggle/undo, so a benefit probe costs O(affected ancestors), not
   O(affected ancestors + |X|).
3. **The monotonicity heuristic** (Section 4.3): candidates live in a heap
   ordered by an upper bound on their benefit (initially
   ``cost(x) × degree_of_sharing(x)``); only the top candidate's benefit is
   recomputed, and it is materialized if it stays on top.  Even when
   sharability detection is disabled the initial bounds use exact
   multiplier-aware degrees of sharing from the batched sweep —
   ``len(node.parents)``, the old fallback, undercounts nested-query use
   multipliers and transitive sharing and is not an upper bound on
   correlated workloads, so the heap could terminate early.

The incremental cost state itself
(:class:`~repro.optimizer.engine.IncrementalCostState`, re-exported here for
backwards compatibility) lives in :mod:`repro.optimizer.engine` on flat
id-indexed arrays; benefit probes go through its fused
``cost_with_id``/``probe_many`` kernels.  The full-recompute ablation loop
batches the benefit probes of all remaining candidates per round through
``probe_many`` — between two materializations the state is fixed, so the
probes are independent and order-insensitive.  Each optimization can be
disabled independently (:class:`GreedyOptions`), which is how the Section 6.3
ablation benchmarks are produced.  The counters reported in Figure 10 — cost
propagations across equivalence nodes and benefit recomputations — are
collected in the returned :class:`~repro.optimizer.report.OptimizationResult`
and are invariant under the dense-state rewrite.

The final unused-materialization pruning fixpoint (:func:`_prune_unused`) is
itself incremental: a fresh exact (``epsilon=0``) cost state drops unused
nodes via toggles, and argmin choices plus plan reference counts are
maintained densely so each round after the first touches only the changed
cone.  Its propagations are deliberately **not** counted in the Figure 10
counters (the reference pruning recomputed from scratch and counted
nothing); the from-scratch rounds are kept as
:func:`_prune_unused_reference` and the differential suite asserts exact
agreement.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.nodes import Dag, OperationNode
from repro.optimizer.costing import best_operations, compute_node_costs, total_cost
from repro.optimizer.engine import (
    _EPSILON,
    IncrementalCostState,
    argmin_operation,
    get_engine,
)
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import OptimizationResult
from repro.optimizer.sharability import sharing_degrees

__all__ = ["GreedyOptions", "IncrementalCostState", "optimize_greedy"]


@dataclass(frozen=True)
class GreedyOptions:
    """Switches for the three greedy implementation optimizations."""

    use_sharability: bool = True
    use_monotonicity: bool = True
    use_incremental: bool = True
    #: Safety bound on the number of materialized nodes (never hit in practice).
    max_materializations: int = 10_000


def _candidate_nodes(
    dag: Dag, options: GreedyOptions
) -> Tuple[List[int], Optional[Dict[int, float]]]:
    """The greedy candidate node ids, plus sharing degrees when sharability
    is on.

    Degrees are computed once, in a single batched sweep, and reused both for
    candidate selection (degree > 1) and for the monotonicity heap's initial
    upper bounds.
    """
    # Ids in ascending order, read from the engine's columns: the search
    # builds no node views, so a candidate costs one int.
    engine = get_engine(dag)
    is_base = engine.is_base
    root_id = engine.root_id
    node_ids = [
        node_id
        for node_id in range(engine.num_nodes)
        if not is_base[node_id] and node_id != root_id
    ]
    if options.use_sharability:
        degrees = sharing_degrees(dag)
        return [node_id for node_id in node_ids if degrees.get(node_id, 0.0) > 1.0], degrees
    return node_ids, None


def optimize_greedy(
    dag: Dag,
    options: Optional[GreedyOptions] = None,
    deadline: Optional[float] = None,
) -> OptimizationResult:
    """Run the greedy heuristic on the DAG.

    *deadline* is an absolute ``time.perf_counter()`` value; when given, the
    greedy loops check it at materialization-decision boundaries and stop
    early with the best-so-far materialized set (the anytime property of the
    heuristic: every prefix of the materialization sequence is a valid,
    monotonically improving plan).  An interrupted run sets
    ``counters["deadline_expired"] = 1`` and is byte-identical to a completed
    run with ``max_materializations`` capped at the count reached — probes
    after the last commit never mutate state.  With ``deadline=None`` (the
    default) no clock is read inside the loops and behavior is bit-identical
    to pre-deadline code.
    """
    options = options or GreedyOptions()
    start = time.perf_counter()
    counters = {
        "benefit_recomputations": 0,
        "cost_propagations": 0,
        "bestcost_calls": 0,
        "candidates": 0,
    }

    state = IncrementalCostState(dag)
    baseline_costs = state.snapshot_costs()
    candidates, degrees = _candidate_nodes(dag, options)
    counters["candidates"] = len(candidates)

    materialized: Set[int] = set()
    if candidates:
        if options.use_monotonicity:
            materialized = _greedy_monotonic(
                dag, state, candidates, baseline_costs, degrees, options, counters, deadline
            )
        else:
            materialized = _greedy_full_recompute(
                dag, state, candidates, options, counters, deadline
            )

    counters["cost_propagations"] = state.propagations

    materialized, choices, cost = _prune_unused(dag, materialized)
    plan = ConsolidatedPlan(dag, choices, set(materialized))
    elapsed = time.perf_counter() - start

    return OptimizationResult(
        algorithm="Greedy",
        plan=plan,
        cost=cost,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        sharable_nodes=len(candidates),
        counters=counters,
    )


def _benefit(
    dag: Dag,
    state: IncrementalCostState,
    node_id: int,
    current_total: float,
    options: GreedyOptions,
    counters: Dict[str, int],
) -> float:
    counters["benefit_recomputations"] += 1
    counters["bestcost_calls"] += 1
    if options.use_incremental:
        return current_total - state.cost_with_id(node_id)
    trial = set(state.materialized)
    trial.add(node_id)
    costs = compute_node_costs(dag, trial)
    state.propagations += len(costs)
    return current_total - total_cost(dag, costs, trial)


def _greedy_monotonic(
    dag: Dag,
    state: IncrementalCostState,
    candidates: Sequence[int],
    baseline_costs: Sequence[float],
    degrees: Optional[Dict[int, float]],
    options: GreedyOptions,
    counters: Dict[str, int],
    deadline: Optional[float] = None,
) -> Set[int]:
    """Greedy loop with the benefit upper-bound heap (monotonicity heuristic)."""
    if degrees is None:
        # Sharability detection is off, but the heap still needs genuine upper
        # bounds: local surrogates (``len(node.parents)``, or even the
        # multiplier-weighted direct use count) undercount transitive sharing
        # through shared ancestors and nested-query invocations, letting the
        # heap terminate before a profitable candidate surfaces.  The batched
        # sweep makes the exact degrees cheap, so use them for the bounds
        # (the candidate *set* stays unfiltered — that is what the
        # sharability ablation disables).
        degrees = sharing_degrees(dag, candidates)
    heap: List[Tuple[float, int]] = []
    for node_id in candidates:
        degree = degrees.get(node_id, 1.0)
        upper_bound = baseline_costs[node_id] * max(degree, 1.0)
        heapq.heappush(heap, (-upper_bound, node_id))

    if options.use_incremental:
        # The fused probe-chain loop on the dense state (see
        # IncrementalCostState.run_monotonic_heap): bit-identical decisions
        # and counters, one call frame for the whole loop.
        return state.run_monotonic_heap(
            heap, counters, options.max_materializations, deadline
        )

    materialized: Set[int] = set()
    current_total = state.total()
    while heap and len(materialized) < options.max_materializations:
        if deadline is not None and time.perf_counter() >= deadline:
            counters["deadline_expired"] = 1
            break
        negative_bound, node_id = heapq.heappop(heap)
        if node_id in materialized:
            continue
        benefit = _benefit(dag, state, node_id, current_total, options, counters)
        next_bound = -heap[0][0] if heap else float("-inf")
        if heap and benefit < next_bound - _EPSILON:
            # Not necessarily the best any more: reinsert with the fresh value.
            heapq.heappush(heap, (-benefit, node_id))
            continue
        if benefit <= _EPSILON:
            break
        state.toggle_id(node_id, add=True)
        materialized.add(node_id)
        current_total = state.total()
    return materialized


def _greedy_full_recompute(
    dag: Dag,
    state: IncrementalCostState,
    candidates: Sequence[int],
    options: GreedyOptions,
    counters: Dict[str, int],
    deadline: Optional[float] = None,
) -> Set[int]:
    """Greedy loop without the monotonicity heuristic: every remaining
    candidate's benefit is recomputed in every iteration (Figure 4, literally).

    With the incremental cost state enabled the per-round probes go through
    :meth:`~repro.optimizer.engine.IncrementalCostState.probe_many` as one
    batch: within a round the state is fixed, so the candidates' benefits
    are mutually independent and the probe order is immaterial (each probe
    is still an individual exact-restore toggle — see the method's
    docstring for why independent probes cannot share stacked toggles).
    """
    materialized: Set[int] = set()
    remaining: List[int] = list(candidates)
    current_total = state.total()
    while remaining and len(materialized) < options.max_materializations:
        if deadline is not None and time.perf_counter() >= deadline:
            counters["deadline_expired"] = 1
            break
        best_node_id = None
        best_benefit = 0.0
        if options.use_incremental:
            counters["benefit_recomputations"] += len(remaining)
            counters["bestcost_calls"] += len(remaining)
            totals = state.probe_many(remaining)
            for node_id, trial_total in zip(remaining, totals):
                benefit = current_total - trial_total
                if benefit > best_benefit + _EPSILON:
                    best_benefit = benefit
                    best_node_id = node_id
        else:
            for node_id in remaining:
                benefit = _benefit(dag, state, node_id, current_total, options, counters)
                if benefit > best_benefit + _EPSILON:
                    best_benefit = benefit
                    best_node_id = node_id
        if best_node_id is None:
            break
        state.toggle_id(best_node_id, add=True)
        materialized.add(best_node_id)
        remaining.remove(best_node_id)
        current_total = state.total()
    return materialized


# ---------------------------------------------------------------------------
# Unused-materialization pruning (fixpoint)
# ---------------------------------------------------------------------------

def _prune_unused(
    dag: Dag, materialized: Set[int]
) -> Tuple[Set[int], Dict[int, Optional[OperationNode]], float]:
    """Drop materializations that ended up unused in the final plan.

    Dropping one can orphan another that was only used to build it, and the
    operation choices must be recomputed for the pruned set (an op chosen
    because it reused a now-dropped node may no longer be the argmin), so the
    pruning iterates to fixpoint.  Pruning an unused node never raises the
    root's cost — no chosen operation referenced it — so each round's total
    is no worse.

    The fixpoint runs incrementally on one exact (``epsilon=0``)
    :class:`~repro.optimizer.engine.IncrementalCostState` — the same
    machinery Volcano-RU uses to *add* reuse candidates, here driven in
    reverse to drop them:

    * the cost table under the current set is the state's dense array; each
      drop is one :meth:`~IncrementalCostState.toggle_id` that touches only
      the dropped node's ancestors;
    * argmin operation choices are maintained in a flat per-node index array
      and recomputed only for nodes whose inputs (a child's effective cost or
      materialization flag) changed;
    * plan reference counts (how many reachable chosen operations reference
      each node) are maintained densely, with reachability cascades applied
      when a choice flips, so the unused test is an O(1) counter read.

    Each round after the first is therefore O(changed) instead of a full
    ``compute_node_costs`` + ``best_operations`` recompute.  The from-scratch
    formulation is retained as :func:`_prune_unused_reference` and the
    differential suite asserts exact agreement (sets, choices, and cost)
    between the two.
    """
    engine = get_engine(dag)
    num_nodes = engine.num_nodes
    root_id = engine.root_id
    is_base = engine.is_base
    op_specs = engine.op_specs
    op_ids = engine.op_ids
    op_children = engine.arena.op_children
    parent_ids = engine.parent_ids

    # epsilon=0.0 keeps the cost table bit-identical to a from-scratch
    # ``compute_node_costs`` after every toggle (see Volcano-RU), which is
    # what makes the incremental rounds interchangeable with the reference.
    state = IncrementalCostState(dag, epsilon=0.0)
    for node_id in sorted(materialized):
        state.toggle_id(node_id, add=True)
    materialized = set(state.materialized)
    costs = state._costs
    effective = state._effective

    # Argmin choice per node, as an index into ``op_specs[node_id]`` (-1 when
    # every alternative is infinite, mirroring ``best_operations``).
    choice_index: List[int] = [-1] * num_nodes
    for node_id, operations in enumerate(op_specs):
        if operations is not None:
            choice_index[node_id] = argmin_operation(operations, effective)

    # Reference counts: how many (reachable chosen operation, child slot)
    # pairs reference each node.  A node is reachable iff it is the root or
    # its count is positive; counts cascade through choice flips below.
    ref: List[int] = [0] * num_nodes
    stack = [root_id]
    seen = bytearray(num_nodes)
    seen[root_id] = 1
    while stack:
        node_id = stack.pop()
        if is_base[node_id]:
            continue
        index = choice_index[node_id]
        if index < 0:
            continue
        for child_id in op_children[op_ids[node_id][index]]:
            ref[child_id] += 1
            if not seen[child_id]:
                seen[child_id] = 1
                stack.append(child_id)

    def adjust(children: Tuple[int, ...], delta: int) -> None:
        """Add *delta* references to the children, cascading reachability."""
        pending = list(children)
        while pending:
            node_id = pending.pop()
            ref[node_id] += delta
            # Crossing zero flips reachability: the node's own chosen
            # references appear (or disappear) along with it.
            if ref[node_id] == (1 if delta > 0 else 0) and not is_base[node_id]:
                index = choice_index[node_id]
                if index >= 0:
                    pending.extend(op_children[op_ids[node_id][index]])

    while True:
        unused = [node_id for node_id in materialized if not ref[node_id]]  # repro-lint: ok(D001) consumed order-insensitively: re-sorted below and set-differenced
        if not unused:
            break
        changed: Set[int] = set()
        for node_id in sorted(unused):
            changed.add(node_id)
            for changed_id, _old_cost in state.toggle_id(node_id, add=False):
                changed.add(changed_id)
        materialized.difference_update(unused)
        dirty: Set[int] = set()
        for node_id in changed:
            dirty.update(parent_ids[node_id])
        for node_id in sorted(dirty):
            operations = op_specs[node_id]
            if operations is None:
                continue
            new_index = argmin_operation(operations, effective)
            old_index = choice_index[node_id]
            if new_index == old_index:
                continue
            choice_index[node_id] = new_index
            if node_id == root_id or ref[node_id] > 0:
                if new_index >= 0:
                    adjust(op_children[op_ids[node_id][new_index]], 1)
                if old_index >= 0:
                    adjust(op_children[op_ids[node_id][old_index]], -1)

    # Views only for the chosen operations: the plan's choices hold them.
    op_view = engine.arena.op_view
    choices: Dict[int, Optional[OperationNode]] = {}
    for node_id, operations in enumerate(op_specs):
        if operations is None:
            continue
        index = choice_index[node_id]
        choices[node_id] = op_view(op_ids[node_id][index]) if index >= 0 else None
    return materialized, choices, engine.total(costs, materialized)


def _prune_unused_reference(
    dag: Dag, materialized: Set[int]
) -> Tuple[Set[int], Dict[int, Optional[OperationNode]], float]:
    """The from-scratch pruning fixpoint (one full ``compute_node_costs`` +
    ``best_operations`` round per iteration), kept as the oracle for
    :func:`_prune_unused`."""
    materialized = set(materialized)
    while True:
        final_costs = compute_node_costs(dag, materialized)
        choices = best_operations(dag, final_costs, materialized)
        plan = ConsolidatedPlan(dag, choices, set(materialized))
        used: Set[int] = set()
        for node in plan.reachable():
            operation = choices.get(node.id)
            if operation is None:
                continue
            for child in operation.children:
                if child.id in materialized:
                    used.add(child.id)
        if used == materialized:
            break
        materialized = used
    return materialized, choices, total_cost(dag, final_costs, materialized)
