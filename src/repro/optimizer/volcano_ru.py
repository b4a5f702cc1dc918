"""The Volcano-RU heuristic (Section 3.3, Figure 3 of the paper).

Volcano-RU optimizes the queries of the batch in sequence.  After optimizing
query ``Q_i`` it registers the equivalence nodes of ``Q_i``'s best plan as
candidates for reuse (set ``N``): a node is added if it would be worth
materializing *if it were used once more*.  Later queries are optimized with
the nodes of ``N`` assumed materialized, so they can deliberately choose plans
that reuse earlier work (the ``(R ⋈ S) ⋈ T`` choice of Example 1.1).

The combined plan is then handed to Volcano-SH, which makes the final
materialization decisions.  Because the result depends on the query order,
the algorithm is run on the given order and on its reverse, and the cheaper
outcome is returned — exactly the variant evaluated in the paper.

**Incremental per-query costing.**  Written as in the paper, each query
re-costs the whole DAG under the reuse candidates registered so far —
O(queries × DAG) even though each query only adds a handful of them.
:func:`_run_order` instead keeps one
:class:`~repro.optimizer.engine.IncrementalCostState` per order on the shared
:class:`~repro.optimizer.engine.CostEngine` snapshot (both orders reuse the
same snapshot and start from its memoized empty-set sweep):

* the per-query cost table is simply the state's dense cost array, already
  maintained under the reuse candidates registered so far;
* the argmin operation choices are computed lazily, only for the nodes
  actually reachable in the current query's best plan, during the plan walk
  itself (through :func:`~repro.optimizer.engine.argmin_operation`, the
  argmin of the cost sweep);
* after the walk, the query's newly registered reuse candidates are toggled
  into the state, which propagates cost changes to their ancestors only.

Within one query the paper adds candidates to ``N`` mid-scan but costs and
choices were computed before the scan, so deferring the toggles to the end
of the query is equivalent; across queries the toggled state reproduces a
from-scratch costing under ``N`` exactly (the incremental propagation
recomputes the same minima from the same inputs).  The from-scratch
formulation over the object graph is the oracle of the differential suite
(``tests/oracles/volcano_ru.py``), compared with ``==`` on randomized
workloads.

The final materialization decisions come from the dense Volcano-SH pass,
called at id level (:func:`~repro.optimizer.volcano_sh._sh_pass_ids`) as
index loops over the same engine snapshot — the pass executes once per query
order (so twice per optimization).  Each order's plan stays operation ids,
and the pass's tuple for the cheaper order is the returned plan's
``choice_op``: the search builds no view.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.nodes import Dag
from repro.optimizer.engine import IncrementalCostState, argmin_operation, get_engine
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import BudgetExceeded, OptimizationResult
from repro.optimizer.volcano_sh import _sh_pass_ids


def _run_order(
    dag: Dag, order: Sequence[int], deadline: Optional[float] = None
) -> Tuple[float, Set[int], Tuple[int, ...]]:
    """Run one pass of Volcano-RU over the queries in the given order,
    maintaining the per-query cost table incrementally.

    Returns the total cost, the materialized node ids and the chosen
    operation id per node (``-1`` where the plan chose nothing).  A plan
    that reaches a node whose every alternative is infinite raises
    :class:`~repro.optimizer.plans.PlanError` (from the Volcano-SH pass).

    *deadline* (absolute ``perf_counter`` seconds) is checked once per query
    — the pass's natural iteration boundary.  On expiry the pass raises
    :class:`~repro.optimizer.report.BudgetExceeded`: unlike greedy there is
    no best-so-far plan to salvage (reuse candidates registered for a prefix
    of the queries are not a valid combined plan), so the degradation ladder
    discards the pass and falls back.  ``deadline=None`` reads no clock.
    """
    engine = get_engine(dag)
    # epsilon=0.0: every nonzero delta propagates, so the state's cost table
    # stays *bit-identical* to a from-scratch costing under N after each
    # toggle — near-tie argmin choices and the worth-materializing threshold
    # then match the from-scratch formulation exactly.
    state = IncrementalCostState(dag, epsilon=0.0)
    costs = state._costs
    effective = state._effective
    op_specs = engine.op_specs
    op_ids = engine.op_ids
    op_children = engine.arena.op_children
    is_base = engine.is_base
    mat_cost = engine.mat_cost
    reuse_cost = engine.reuse_cost

    reuse_candidates = state.materialized
    use_counts: Dict[int, int] = defaultdict(int)
    # The combined plan: the first query to reach a node fixes its choice.
    combined_ops = [-1] * engine.num_nodes

    for index in order:
        if deadline is not None and time.perf_counter() >= deadline:
            raise BudgetExceeded
        root = dag.query_roots[index]
        # Walk the query's best plan top-down, choosing the argmin operation
        # per node on the fly from the incrementally maintained cost table
        # (``effective`` already folds in reuse of the registered candidates).
        new_candidates: List[int] = []
        stack = [root.id]
        seen: Set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            if is_base[node_id]:
                continue
            operations = op_specs[node_id]
            if operations is None:
                continue
            best_index = argmin_operation(operations, effective)[0]
            # A node whose alternatives are all infinite has no choice (-1,
            # as in the sweep), so a plan through it is refused below.
            op_id = op_ids[node_id][best_index] if best_index >= 0 else -1
            if combined_ops[node_id] < 0:
                combined_ops[node_id] = op_id
            use_counts[node_id] += 1
            count = use_counts[node_id]
            cost = costs[node_id]
            # Worth materializing if it is used just once more?
            if node_id not in reuse_candidates and (
                cost + mat_cost[node_id] + count * reuse_cost[node_id] < (count + 1) * cost
            ):
                new_candidates.append(node_id)
            if op_id >= 0:
                stack.extend(op_children[op_id])
        # Mid-scan registrations cannot influence the scan that made them
        # (costs/choices predate the scan), so toggle them in one batch now.
        for node_id in new_candidates:
            state.materialize_id(node_id)

    root_id = engine.root_id
    combined_ops[root_id] = op_ids[root_id][0]
    materialized, choice_op, total = _sh_pass_ids(engine, combined_ops)
    return total, materialized, choice_op


def optimize_volcano_ru(
    dag: Dag, try_reverse: bool = True, deadline: Optional[float] = None
) -> OptimizationResult:
    """Run Volcano-RU on the DAG (forward and reverse query order).

    With a *deadline*, expiry anywhere — mid-pass or between the two order
    passes — raises :class:`~repro.optimizer.report.BudgetExceeded` (a
    partially explored order set would silently change which plan wins, so a
    budgeted RU is all-or-nothing; the degradation ladder catches it).
    """
    start = time.perf_counter()
    forward = list(range(len(dag.query_roots)))
    orders = [forward]
    if try_reverse and len(forward) > 1:
        orders.append(list(reversed(forward)))

    best: Optional[Tuple[float, Set[int], Tuple[int, ...]]] = None
    for order in orders:
        if deadline is not None and time.perf_counter() >= deadline:
            raise BudgetExceeded
        outcome = _run_order(dag, order, deadline)
        if best is None or outcome[0] < best[0]:
            best = outcome
    total, materialized, choice_op = best
    elapsed = time.perf_counter() - start

    plan = ConsolidatedPlan(dag, choice_op, materialized)
    return OptimizationResult(
        algorithm="Volcano-RU",
        plan=plan,
        cost=total,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        counters={"materialized": len(materialized), "orders_tried": len(orders)},
    )
