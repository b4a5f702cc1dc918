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

**Incremental per-query costing.**  The reference formulation re-runs a full
``compute_node_costs``/``best_operations`` round per query per order —
O(queries × DAG) even though each query only adds a handful of reuse
candidates.  :func:`_run_order` instead keeps one
:class:`~repro.optimizer.engine.IncrementalCostState` per order on the shared
:class:`~repro.optimizer.engine.CostEngine` snapshot (both orders reuse the
same snapshot):

* the per-query cost table is simply the state's dense cost array, already
  maintained under the reuse candidates registered so far;
* the argmin operation choices are computed lazily, only for the nodes
  actually reachable in the current query's best plan, during the plan walk
  itself (through :func:`~repro.optimizer.engine.argmin_operation`, the
  argmin ``CostEngine.best_operations`` uses);
* after the walk, the query's newly registered reuse candidates are toggled
  into the state, which propagates cost changes to their ancestors only.

Within one query the reference adds candidates to ``N`` mid-scan but costs
and choices were computed before the scan, so deferring the toggles to the
end of the query is equivalent; across queries the toggled state reproduces
``compute_node_costs(dag, N)`` exactly (the incremental propagation
recomputes the same minima from the same inputs).  The from-scratch
formulation is kept as :func:`_run_order_reference` and the differential test
suite asserts exact cost equality between the two on randomized workloads.

The final materialization decisions come from the dense Volcano-SH pass,
called at id level (:func:`~repro.optimizer.volcano_sh._sh_pass_ids`) as
index loops over the same engine snapshot — the pass executes once per query
order (so twice per optimization).  Each order's plan stays a list of
operation ids; views are built once, for the cheaper order.  The reference
order pass pairs with the object-graph ``_volcano_sh_reference`` instead,
keeping the oracle side fully independent of the dense code paths.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.nodes import Dag, OperationNode
from repro.optimizer.costing import best_operations, compute_node_costs
from repro.optimizer.engine import IncrementalCostState, argmin_operation, get_engine
from repro.optimizer.plans import ConsolidatedPlan
from repro.optimizer.report import BudgetExceeded, OptimizationResult
from repro.optimizer.volcano_sh import _sh_pass_ids, _volcano_sh_reference


def _run_order(
    dag: Dag, order: Sequence[int], deadline: Optional[float] = None
) -> Tuple[float, Set[int], List[int]]:
    """Run one pass of Volcano-RU over the queries in the given order,
    maintaining the per-query cost table incrementally.

    Returns the total cost, the materialized node ids and the chosen
    operation id per node (``-1`` where the plan chose nothing).

    *deadline* (absolute ``perf_counter`` seconds) is checked once per query
    — the pass's natural iteration boundary.  On expiry the pass raises
    :class:`~repro.optimizer.report.BudgetExceeded`: unlike greedy there is
    no best-so-far plan to salvage (reuse candidates registered for a prefix
    of the queries are not a valid combined plan), so the degradation ladder
    discards the pass and falls back.  ``deadline=None`` reads no clock.
    """
    engine = get_engine(dag)
    # epsilon=0.0: every nonzero delta propagates, so the state's cost table
    # stays *bit-identical* to ``compute_node_costs(dag, N)`` after each
    # toggle — near-tie argmin choices and the worth-materializing threshold
    # then match the from-scratch reference exactly.
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
            # A node whose alternatives are all infinite takes its first one.
            op_id = op_ids[node_id][best_index if best_index >= 0 else 0]
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
            stack.extend(op_children[op_id])
        # Mid-scan registrations cannot influence the scan that made them
        # (costs/choices predate the scan), so toggle them in one batch now.
        for node_id in new_candidates:
            state.toggle_id(node_id, add=True)

    root_id = engine.root_id
    combined_ops[root_id] = op_ids[root_id][0]
    materialized, choice_op, total = _sh_pass_ids(engine, combined_ops)
    return total, materialized, choice_op


def _run_order_reference(
    dag: Dag, order: Sequence[int]
) -> Tuple[float, Set[int], Dict[int, OperationNode]]:
    """The from-scratch reference formulation of one Volcano-RU pass.

    Re-costs the whole DAG per query (one ``compute_node_costs`` /
    ``best_operations`` round each) and hands the combined plan to the
    object-graph :func:`~repro.optimizer.volcano_sh._volcano_sh_reference`
    pass, so the oracle shares **no** dense code path with
    :func:`_run_order`.  The differential suite asserts exact agreement
    between the two.
    """
    reuse_candidates: Set[int] = set()
    use_counts: Dict[int, int] = defaultdict(int)
    combined_choices: Dict[int, OperationNode] = {}

    for index in order:
        root = dag.query_roots[index]
        costs = compute_node_costs(dag, reuse_candidates)
        choices = best_operations(dag, costs, reuse_candidates)
        query_plan = ConsolidatedPlan(dag, choices, set(reuse_candidates))
        for node in query_plan.reachable([root]):
            if node.is_base:
                continue
            combined_choices.setdefault(node.id, choices[node.id])
            use_counts[node.id] += 1
            count = use_counts[node.id]
            cost = costs[node.id]
            # Worth materializing if it is used just once more?
            if cost + node.mat_cost + count * node.reuse_cost < (count + 1) * cost:
                reuse_candidates.add(node.id)

    root_node = dag.root
    combined_choices[root_node.id] = root_node.operations[0]
    combined = ConsolidatedPlan(dag, combined_choices, set())
    materialized, choices, total = _volcano_sh_reference(dag, combined)
    return total, materialized, choices


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

    best: Optional[Tuple[float, Set[int], List[int]]] = None
    for order in orders:
        if deadline is not None and time.perf_counter() >= deadline:
            raise BudgetExceeded
        outcome = _run_order(dag, order, deadline)
        if best is None or outcome[0] < best[0]:
            best = outcome
    total, materialized, choice_op = best
    # Views only for the winning order's choices: the plan holds them.
    op_view = dag.arena.op_view
    choices = {
        node_id: op_view(op_id) for node_id, op_id in enumerate(choice_op) if op_id >= 0
    }
    elapsed = time.perf_counter() - start

    plan = ConsolidatedPlan(dag, choices, materialized)
    return OptimizationResult(
        algorithm="Volcano-RU",
        plan=plan,
        cost=total,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        counters={"materialized": len(materialized), "orders_tried": len(orders)},
    )
