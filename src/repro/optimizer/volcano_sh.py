"""The Volcano-SH heuristic (Section 3.2, Figure 2 of the paper).

Volcano-SH starts from the consolidated best plan produced by plain Volcano
optimization and decides, bottom-up and in a cost-based way, which of the
plan's shared nodes to materialize.  The plan structure (join orders,
algorithms) is *not* changed — only materialization decisions are added —
which is what makes the heuristic almost free compared to Volcano.

Key elements reproduced from the paper:

* the conservative materialization test
  ``matcost(e)/(numuses⁻(e)-1) + reusecost(e) < cost(e)`` using the
  ``numuses⁻`` underestimate (number of references to the node in the
  consolidated plan);
* the pre-pass that swaps applicable subsumption derivations into the plan,
  and the final undo of those whose shared source was not materialized;
* the special test for nodes introduced by subsumption derivations, which are
  only worth materializing if they pay for themselves through the savings
  they offer their parents;
* the final accounting ``cost(root) + Σ_{m∈M} (cost(m) + matcost(m))``.

**Dense decision pass.**  The pass (:func:`_sh_pass_ids`) runs entirely on
the shared :class:`~repro.optimizer.engine.CostEngine` snapshot and works on
plans as one flat id-indexed list of operation ids (``choice_op``):
reachability, the ``numuses⁻`` reference counts, the subsumption-swap
pre-pass, the bottom-up materialization loop, and the final undo/accounting
are all index loops over the arena's ``op_children`` / ``op_multipliers`` /
``op_local_cost`` columns and the engine's ``op_ids`` / ``parent_op_ids``,
with no ``EquivalenceNode`` / ``OperationNode`` attribute access.  The two
plan-pricing loops read a chosen unit pair (every join) straight from its
``op_spec`` kernel entry, ``(left, right, local)``, without the zip.  The
default start is the argmin ids of the engine's memoized empty-set sweep,
the same sweep that prices Volcano's plan, and the pass returns its final
choices as the id tuple the plan holds, so the search builds no view.
Volcano-RU calls :func:`_sh_pass_ids` with its combined plan, once per
query order.

The paper's formulation over the object graph is the oracle of the
differential suite (``tests/oracles/volcano_sh.py``), which asserts
identical materialized sets, operation choices and costs on every seeded
workload and on randomized generator DAGs (including DAGs with subsumption
derivations).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dag.nodes import Dag
from repro.optimizer.engine import INFINITE_COST, CostEngine, get_engine
from repro.optimizer.plans import ConsolidatedPlan, PlanError
from repro.optimizer.report import OptimizationResult


def _plan_costs(
    engine: CostEngine,
    choice_op: Sequence[int],
    materialized: Set[int],
    reachable: bytearray,
) -> List[float]:
    """Per-node cost through the chosen operation, over the plan's
    *reachable* cone.

    Unreachable nodes are skipped outright (their table slots stay ``0.0``
    and the pass never reads them).  The restriction is exact: a reachable
    node's chosen operation only references reachable children (the
    reachability walk descends through chosen operations), so every
    ``effective`` slot the cone sweep reads was written by it.

    A reachable non-base node without a chosen operation raises
    :class:`~repro.optimizer.plans.PlanError`: a consolidated plan covers
    its reachable cone, so the plan is malformed (hand-edited choices, or a
    node whose every alternative is infinite inside the cone).
    """
    reuse_cost = engine.reuse_cost
    is_base = engine.is_base
    arena = engine.arena
    op_local_cost = arena.op_local_cost
    op_children = arena.op_children
    op_multipliers = arena.op_multipliers
    op_spec = arena.op_spec
    costs: List[float] = [0.0] * engine.num_nodes
    # C(e) = min(cost(e), reusecost(e)) for materialized nodes.
    effective: List[float] = costs if not materialized else [0.0] * engine.num_nodes
    distinct = effective is not costs
    for node_id in engine.topo_order:
        if not reachable[node_id]:
            continue
        if is_base[node_id]:
            cost = 0.0
        else:
            op_id = choice_op[node_id]
            if op_id < 0:
                raise PlanError(
                    f"Volcano-SH invariant violated: reachable non-base node {node_id} has "
                    "no chosen operation (a consolidated plan must cover its reachable cone)"
                )
            entry = op_spec[op_id]
            if len(entry) == 3:
                left, right, cost = entry
                cost = cost + effective[left] + effective[right]
            else:
                cost = op_local_cost[op_id]
                for child_id, multiplier in zip(op_children[op_id], op_multipliers[op_id]):
                    cost += multiplier * effective[child_id]
            costs[node_id] = cost
        if distinct:
            if node_id in materialized:
                reuse = reuse_cost[node_id]
                effective[node_id] = reuse if reuse < cost else cost
            else:
                effective[node_id] = cost
    return costs


def _sh_pass_ids(
    engine: CostEngine, plan_ops: Sequence[int]
) -> Tuple[Set[int], Tuple[int, ...], float]:
    """The Volcano-SH pass over a plan given as operation ids.

    *plan_ops* holds the consolidated plan's chosen operation id per node
    (``-1`` where none) and is not modified.  Returns the materialized node
    ids, the final choices as a ``ConsolidatedPlan.choice_op`` tuple (equal
    to *plan_ops* when the pass falls back to the plain plan), and the total
    cost.
    """
    num_nodes = engine.num_nodes
    is_base = engine.is_base
    mat_cost = engine.mat_cost
    reuse_cost = engine.reuse_cost
    op_local_cost = engine.arena.op_local_cost
    op_children = engine.arena.op_children
    op_multipliers = engine.arena.op_multipliers
    op_spec = engine.arena.op_spec
    op_ids = engine.op_ids
    op_is_subsumption = engine.op_is_subsumption
    op_owner = engine.op_owner
    parent_op_ids = engine.parent_op_ids
    created_by_subsumption = engine.created_by_subsumption

    choice_op = list(plan_ops)
    reachable = engine.reachable_flags(choice_op)
    baseline_costs = _plan_costs(engine, choice_op, set(), reachable)

    # Pre-pass: swap applicable subsumption derivations into the plan.  A swap
    # is only made if, assuming its source does get materialized, the node is
    # no more expensive to obtain than through its original derivation —
    # otherwise the swap could only hurt and would be undone anyway.
    swapped: Dict[int, int] = {}
    for node_id in range(num_nodes):
        if not reachable[node_id] or is_base[node_id]:
            continue
        current = choice_op[node_id]
        if current < 0 or op_is_subsumption[current]:
            continue
        # First subsumption derivation whose source is already in the plan.
        alternative = -1
        for op_id in op_ids[node_id]:
            if not op_is_subsumption[op_id]:
                continue
            for child_id in op_children[op_id]:
                if not reachable[child_id] and not is_base[child_id]:
                    break
            else:
                alternative = op_id
                break
        if alternative < 0:
            continue
        via_materialized = op_local_cost[alternative] + sum(
            multiplier * reuse_cost[child_id]
            for child_id, multiplier in zip(op_children[alternative], op_multipliers[alternative])
        )
        if via_materialized <= baseline_costs[node_id]:
            swapped[node_id] = current
            choice_op[node_id] = alternative

    if swapped:
        reachable = engine.reachable_flags(choice_op)
    # numuses⁻: references to each node within the reachable plan (use
    # multipliers of nested-query invocations count as genuine uses).
    numuses: List[int] = [0] * num_nodes
    for node_id in range(num_nodes):
        if not reachable[node_id] or is_base[node_id]:
            continue
        op_id = choice_op[node_id]
        if op_id < 0:
            continue
        for child_id, multiplier in zip(op_children[op_id], op_multipliers[op_id]):
            numuses[child_id] += max(1, int(round(multiplier)))

    # Fallback cost table (min over alternatives, nothing materialized) for
    # children that are not part of the plan, e.g. when pricing the regular
    # alternative of a node whose plan derivation is a subsumption derivation:
    # the engine's memoized empty-set sweep.
    fallback_costs = engine.baseline()[0]

    materialized: Set[int] = set()
    mat_flags = bytearray(num_nodes)
    costs: List[float] = [0.0] * num_nodes
    has_cost = bytearray(num_nodes)
    for node_id in engine.topo_order:
        if not reachable[node_id]:
            continue
        if is_base[node_id]:
            has_cost[node_id] = 1
            continue
        # Every reachable node has a choice: the baseline ``_plan_costs``
        # checked the cone, and swaps and undos reach no node outside it.
        op_id = choice_op[node_id]
        entry = op_spec[op_id]
        if len(entry) == 3:
            left, right, cost = entry
            left_cost = costs[left]
            if mat_flags[left]:
                reuse = reuse_cost[left]
                if reuse < left_cost:
                    left_cost = reuse
            right_cost = costs[right]
            if mat_flags[right]:
                reuse = reuse_cost[right]
                if reuse < right_cost:
                    right_cost = reuse
            cost = cost + left_cost + right_cost
        else:
            cost = op_local_cost[op_id]
            for child_id, multiplier in zip(op_children[op_id], op_multipliers[op_id]):
                child_cost = costs[child_id]
                if mat_flags[child_id]:
                    reuse = reuse_cost[child_id]
                    if reuse < child_cost:
                        child_cost = reuse
                cost += multiplier * child_cost
        costs[node_id] = cost
        has_cost[node_id] = 1

        uses = numuses[node_id]
        if uses <= 1:
            continue
        if not created_by_subsumption[node_id]:
            if mat_cost[node_id] / (uses - 1) + reuse_cost[node_id] < cost:
                materialized.add(node_id)
                mat_flags[node_id] = 1
        else:
            # Nodes introduced by subsumption derivations must pay for
            # themselves through the savings they offer their parents.
            lhs = cost + mat_cost[node_id] + reuse_cost[node_id] * (uses - 1)
            savings = 0.0
            for parent_op_id in parent_op_ids[node_id]:
                parent_id = op_owner[parent_op_id]
                if choice_op[parent_id] != parent_op_id:
                    continue
                # Cheapest regular (non-subsumption) alternative of the parent.
                original = INFINITE_COST
                for op_id in op_ids[parent_id]:
                    if op_is_subsumption[op_id]:
                        continue
                    candidate = op_local_cost[op_id]
                    for child_id, multiplier in zip(op_children[op_id], op_multipliers[op_id]):
                        child_cost = (
                            costs[child_id]
                            if has_cost[child_id]
                            else fallback_costs[child_id]
                        )
                        if mat_flags[child_id]:
                            reuse = reuse_cost[child_id]
                            if reuse < child_cost:
                                child_cost = reuse
                        candidate += multiplier * child_cost
                    if candidate < original:
                        original = candidate
                via_node = op_local_cost[parent_op_id]
                for child_id, multiplier in zip(
                    op_children[parent_op_id], op_multipliers[parent_op_id]
                ):
                    if child_id == node_id:
                        child_cost = reuse_cost[node_id]
                    else:
                        child_cost = costs[child_id] if has_cost[child_id] else 0.0
                    via_node += multiplier * child_cost
                if original < INFINITE_COST:
                    savings += max(0.0, original - via_node)
            if lhs < savings:
                materialized.add(node_id)
                mat_flags[node_id] = 1

    # Undo subsumption derivations whose shared source was not materialized.
    undone = False
    for node_id, original in swapped.items():
        chosen = choice_op[node_id]
        if op_is_subsumption[chosen] and not all(
            mat_flags[child_id] or is_base[child_id] for child_id in op_children[chosen]
        ):
            choice_op[node_id] = original
            undone = True

    if undone:
        reachable = engine.reachable_flags(choice_op)
    materialized = {node_id for node_id in materialized if reachable[node_id]}
    total = engine.total(_plan_costs(engine, choice_op, materialized, reachable), materialized)

    # Volcano-SH only adds sharing on top of the Volcano plan; if the
    # heuristic decisions (made with the numuses underestimate) did not pay
    # off, fall back to the plain Volcano plan rather than return a worse one.
    baseline_total = baseline_costs[engine.root_id]
    if total > baseline_total:
        return set(), tuple(plan_ops), baseline_total
    return materialized, tuple(choice_op), total


def optimize_volcano_sh(dag: Dag, plan: Optional[ConsolidatedPlan] = None) -> OptimizationResult:
    """Run Volcano-SH on the DAG (or on a supplied consolidated plan, whose
    choices the pass starts from)."""
    start = time.perf_counter()
    engine = get_engine(dag)
    plan_ops = engine.baseline()[1] if plan is None else plan.choice_op
    materialized, choice_op, total = _sh_pass_ids(engine, plan_ops)
    elapsed = time.perf_counter() - start
    result_plan = ConsolidatedPlan(dag, choice_op, materialized)
    return OptimizationResult(
        algorithm="Volcano-SH",
        plan=result_plan,
        cost=total,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        counters={"materialized": len(materialized)},
    )
