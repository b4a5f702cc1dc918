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
   each add and its exact restore, so a benefit probe costs O(affected
   ancestors), not O(affected ancestors + |X|).
3. **The monotonicity heuristic** (Section 4.3): candidates live in a heap
   ordered by an upper bound on their benefit (initially ``cost(x)`` times
   the degree of sharing ``E[root][x]``); only the top candidate's benefit
   is recomputed, and it is materialized if it stays on top.  Even when
   sharability detection is disabled the initial bounds use exact
   multiplier-aware degrees of sharing from the batched sweep —
   ``len(node.parents)``, the old fallback, undercounts nested-query use
   multipliers and transitive sharing and is not an upper bound on
   correlated workloads, so the heap could terminate early.

The incremental cost state itself
(:class:`~repro.optimizer.engine.IncrementalCostState`) lives in
:mod:`repro.optimizer.engine` on flat id-indexed arrays, and the monotonicity
heap's initial bounds read the engine's memoized empty-set costs
(:meth:`~repro.optimizer.engine.CostEngine.baseline`) without copying them.
Both greedy loops probe benefits through :func:`_benefit`, which takes the
state's exact-restore ``cost_with_id`` probe or, with the incremental update
disabled, a from-scratch recomputation.  Each optimization can be disabled
independently (:class:`GreedyOptions`), which is how the Section 6.3
ablation benchmarks are produced.  The counters reported in Figure 10 — cost
propagations across equivalence nodes and benefit recomputations — are
collected in the returned :class:`~repro.optimizer.report.OptimizationResult`.

The final unused-materialization pruning fixpoint (:func:`_prune_unused`)
runs from scratch: each round is one :meth:`CostEngine.sweep
<repro.optimizer.engine.CostEngine.sweep>`, which yields the costs and the
argmin operation ids together, and a walk of the chosen operations from the
root; the last sweep's id tuple is the plan's ``choice_op``, so the search
builds no view.  It counts nothing in the Figure 10 counters.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.nodes import Dag
from repro.optimizer.costing import bestcost
from repro.optimizer.engine import _EPSILON, IncrementalCostState, get_engine
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import OptimizationResult
from repro.optimizer.sharability import sharing_degrees

__all__ = ["GreedyOptions", "optimize_greedy"]


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
    candidates, degrees = _candidate_nodes(dag, options)
    counters["candidates"] = len(candidates)

    materialized: Set[int] = set()
    if candidates:
        if options.use_monotonicity:
            materialized = _greedy_monotonic(
                dag, state, candidates, degrees, options, counters, deadline
            )
        else:
            materialized = _greedy_full_recompute(
                dag, state, candidates, options, counters, deadline
            )

    counters["cost_propagations"] = state.propagations

    materialized, choice_op, cost = _prune_unused(dag, materialized)
    plan = ConsolidatedPlan(dag, choice_op, set(materialized))
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
    state.propagations += state.engine.num_nodes
    return current_total - bestcost(dag, state.materialized | {node_id})


def _greedy_monotonic(
    dag: Dag,
    state: IncrementalCostState,
    candidates: Sequence[int],
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
    baseline_costs = state.engine.baseline()[0]
    heap: List[Tuple[float, int]] = []
    for node_id in candidates:
        degree = degrees.get(node_id, 1.0)
        upper_bound = baseline_costs[node_id] * max(degree, 1.0)
        heapq.heappush(heap, (-upper_bound, node_id))

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
        state.materialize_id(node_id)
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
        for node_id in remaining:
            benefit = _benefit(dag, state, node_id, current_total, options, counters)
            if benefit > best_benefit + _EPSILON:
                best_benefit = benefit
                best_node_id = node_id
        if best_node_id is None:
            break
        state.materialize_id(best_node_id)
        materialized.add(best_node_id)
        remaining.remove(best_node_id)
        current_total = state.total()
    return materialized


# ---------------------------------------------------------------------------
# Unused-materialization pruning (fixpoint)
# ---------------------------------------------------------------------------

def _prune_unused(
    dag: Dag, materialized: Set[int]
) -> Tuple[Set[int], Tuple[int, ...], float]:
    """Drop materializations that ended up unused in the final plan.

    Dropping one can orphan another that was only used to build it, and the
    operation choices must be recomputed for the pruned set (an op chosen
    because it reused a now-dropped node may no longer be the argmin), so the
    pruning iterates to fixpoint.  Pruning an unused node never raises the
    root's cost — no chosen operation referenced it — so each round's total
    is no worse.

    Each round is one :meth:`~repro.optimizer.engine.CostEngine.sweep` under
    the current set, which yields the costs and the argmin operation choices
    together, then a walk from the root through the chosen operations: the
    materialized nodes it reaches are the ones the plan uses.  The final
    sweep's operation ids are the plan's choices.
    """
    engine = get_engine(dag)
    root_id = engine.root_id
    materialized = set(materialized)
    while True:
        costs, choice_op = engine.sweep(materialized)
        reachable = engine.reachable_flags(choice_op)
        # Every reachable node but the root is a child of a chosen operation.
        used = {
            node_id
            for node_id in materialized
            if reachable[node_id] and node_id != root_id
        }
        if used == materialized:
            break
        materialized = used

    return materialized, choice_op, engine.total(costs, materialized)
