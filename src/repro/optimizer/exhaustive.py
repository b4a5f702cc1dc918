"""Exhaustive search over materialization sets.

The paper uses the exhaustive algorithm only to motivate the heuristics — it
iterates over *every* subset of the (sharable) nodes and picks the subset with
the minimum ``bestcost``, which is doubly exponential when combined with the
plan space and therefore impractical.  We implement it over the candidate set
of sharable nodes so that tests can verify, on tiny DAGs, that the greedy
heuristic finds plans of comparable (often identical) cost.  The candidates
are greedy's: the ids whose degree of sharing
(:func:`~repro.optimizer.sharability.sharing_degrees`) exceeds one, in
ascending order.
"""

from __future__ import annotations

import itertools
import time
from typing import Set

from repro.dag.nodes import Dag
from repro.optimizer.costing import bestcost
from repro.optimizer.report import OptimizationResult
from repro.optimizer.sharability import sharing_degrees
from repro.optimizer.volcano import consolidated_best_plan


class ExhaustiveSearchError(RuntimeError):
    """Raised when the candidate set is too large to enumerate."""


def optimize_exhaustive(dag: Dag, max_candidates: int = 16) -> OptimizationResult:
    """Enumerate all subsets of the sharable nodes and return the best."""
    start = time.perf_counter()
    degrees = sharing_degrees(dag)
    candidate_ids = sorted(node_id for node_id in degrees if degrees[node_id] > 1.0)
    if len(candidate_ids) > max_candidates:
        raise ExhaustiveSearchError(
            f"{len(candidate_ids)} candidate nodes exceed the exhaustive limit of {max_candidates}"
        )

    best_cost = float("inf")
    best_set: Set[int] = set()
    subsets_examined = 0
    for size in range(len(candidate_ids) + 1):
        for subset in itertools.combinations(candidate_ids, size):
            subsets_examined += 1
            materialized = set(subset)
            cost = bestcost(dag, materialized)
            if cost < best_cost:
                best_cost = cost
                best_set = materialized

    plan = consolidated_best_plan(dag, best_set)
    elapsed = time.perf_counter() - start
    return OptimizationResult(
        algorithm="Exhaustive",
        plan=plan,
        cost=best_cost,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        sharable_nodes=len(candidate_ids),
        counters={"subsets_examined": subsets_examined},
    )
