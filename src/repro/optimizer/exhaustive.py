"""Exhaustive search over materialization sets.

The paper uses the exhaustive algorithm only to motivate the heuristics — it
iterates over *every* subset of the (sharable) nodes and picks the subset with
the minimum ``bestcost``, which is doubly exponential when combined with the
plan space and therefore impractical.  We implement it over the candidate set
of sharable nodes so that tests can verify, on tiny DAGs, that the greedy
heuristic finds plans of comparable (often identical) cost.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Sequence, Set

from repro.dag.nodes import Dag, EquivalenceNode
from repro.optimizer.costing import best_operations, compute_node_costs, total_cost
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import OptimizationResult
from repro.optimizer.sharability import sharable_nodes


class ExhaustiveSearchError(RuntimeError):
    """Raised when the candidate set is too large to enumerate."""


def optimize_exhaustive(
    dag: Dag,
    candidates: Optional[Sequence[EquivalenceNode]] = None,
    max_candidates: int = 16,
) -> OptimizationResult:
    """Enumerate all subsets of the candidate nodes and return the best."""
    start = time.perf_counter()
    if candidates is None:
        candidates = sharable_nodes(dag)
    if len(candidates) > max_candidates:
        raise ExhaustiveSearchError(
            f"{len(candidates)} candidate nodes exceed the exhaustive limit of {max_candidates}"
        )

    best_cost = float("inf")
    best_set: Set[int] = set()
    subsets_examined = 0
    candidate_ids = [node.id for node in candidates]
    for size in range(len(candidate_ids) + 1):
        for subset in itertools.combinations(candidate_ids, size):
            subsets_examined += 1
            materialized = set(subset)
            costs = compute_node_costs(dag, materialized)
            cost = total_cost(dag, costs, materialized)
            if cost < best_cost:
                best_cost = cost
                best_set = materialized

    final_costs = compute_node_costs(dag, best_set)
    choices = best_operations(dag, final_costs, best_set)
    plan = ConsolidatedPlan(dag, choices, set(best_set))
    elapsed = time.perf_counter() - start
    return OptimizationResult(
        algorithm="Exhaustive",
        plan=plan,
        cost=best_cost,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        sharable_nodes=len(candidates),
        counters={"subsets_examined": subsets_examined},
    )
