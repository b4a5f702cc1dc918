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

**Dense decision pass.**  :func:`volcano_sh_pass` runs entirely on the shared
:class:`~repro.optimizer.engine.CostEngine` snapshot: the consolidated plan's
choices are copied once into one flat id-indexed array of operation ids
(``choice_op``), and reachability, the ``numuses⁻`` reference counts, the
subsumption-swap pre-pass, the bottom-up materialization loop, and the final
undo/accounting are all index loops over the arena's ``op_children`` /
``op_multipliers`` / ``op_local_cost`` columns and the engine's
``op_specs`` / ``parent_op_ids`` with no ``EquivalenceNode`` /
``OperationNode`` attribute access on the hot path; the only views the pass
builds are those of the operations it swaps into the plan.  This matters because
Volcano-RU runs the pass once per query order (twice per optimization), and
the pass used to be the largest remaining object-graph walk in its profile.
Volcano-RU calls the id-level core, :func:`_sh_pass_ids`, directly: it takes
and returns choices as operation ids, so no view is built for the plan of an
order that loses.
The previous object-graph formulation is retained verbatim as
:func:`_volcano_sh_reference`; the differential suite asserts byte-identical
materialized sets, operation choices, and costs between the two on every
seeded workload and on randomized generator DAGs (including DAGs with
subsumption derivations).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, NoReturn, Optional, Set, Tuple

from repro.dag.nodes import Dag, EquivalenceNode, OperationNode
from repro.optimizer.costing import INFINITE_COST, compute_node_costs
from repro.optimizer.engine import (
    CostEngine,
    CostTableView,
    argmin_operation,
    get_engine,
)
from repro.optimizer.plans import ConsolidatedPlan, PlanError
from repro.optimizer.report import OptimizationResult
from repro.optimizer.volcano import consolidated_best_plan


def plan_node_costs(
    dag: Dag,
    choices: Dict[int, OperationNode],
    materialized: Set[int],
) -> Mapping[int, float]:
    """Cost of every equivalence node when computed via its *chosen* operation.

    Unlike :func:`repro.optimizer.costing.compute_node_costs` this does not
    minimize over alternatives — Volcano-SH keeps the Volcano plan structure.
    Nodes without a choice (not part of the plan) fall back to the minimum
    over their operations so that subsumption children swapped into the plan
    still get a cost.  The pass runs over the shared
    :class:`~repro.optimizer.engine.CostEngine` snapshot — dense cost and
    effective-cost lists over the arena's operation columns, with one
    materialization-membership test per node instead of one per child read —
    and returns a dict-compatible view of the dense table.
    """
    engine = get_engine(dag)
    return CostTableView(_plan_costs(engine, _choice_ops(engine, choices), materialized))


def _choice_ops(engine: CostEngine, choices: Mapping[int, Optional[OperationNode]]) -> List[int]:
    """The plan's choices as one operation id per node, ``-1`` where none.

    ``best_operations`` stores None when every alternative is infinite; such
    nodes are treated exactly like nodes without a choice.
    """
    choice_op = [-1] * engine.num_nodes
    for node_id, operation in choices.items():
        if operation is not None:
            choice_op[node_id] = operation.id
    return choice_op


def _plan_costs(
    engine: CostEngine,
    choice_op: List[int],
    materialized: Set[int],
    reachable: Optional[bytearray] = None,
) -> List[float]:
    """Dense kernel behind :func:`plan_node_costs`: per-node cost through the
    chosen operation (argmin over ``op_specs`` where no choice exists).

    When *reachable* flags are supplied (the Volcano-SH pass does), the sweep
    is restricted to the plan's reachable cone: unreachable nodes are skipped
    outright (their table slots stay ``0.0`` and the pass never reads them),
    and a reachable non-base node without a chosen operation raises
    :class:`~repro.optimizer.plans.PlanError` instead of silently falling
    back to the argmin — a consolidated plan must cover its reachable cone
    (see :func:`_require_choice`).  The restriction is exact: a reachable
    node's chosen operation only references reachable children (the
    reachability walk descends through chosen operations), so every
    ``effective`` slot the cone sweep reads was written by it.  Without
    *reachable* flags the whole DAG is priced, argmin fallback included —
    that full pricing remains the contract of the public
    :func:`plan_node_costs` (subsumption children swapped into the plan
    still need a cost).
    """
    reuse_cost = engine.reuse_cost
    is_base = engine.is_base
    op_specs = engine.op_specs
    arena = engine.arena
    op_local_cost = arena.op_local_cost
    op_children = arena.op_children
    op_multipliers = arena.op_multipliers
    costs: List[float] = [0.0] * engine.num_nodes
    # C(e) = min(cost(e), reusecost(e)) for materialized nodes.
    effective: List[float] = costs if not materialized else [0.0] * engine.num_nodes
    distinct = effective is not costs
    for node_id in engine.topo_order:
        if reachable is not None and not reachable[node_id]:
            continue
        if is_base[node_id]:
            cost = 0.0
        else:
            op_id = choice_op[node_id]
            if op_id < 0 and reachable is not None and reachable[node_id]:
                _require_choice(engine, node_id)
            if op_id >= 0:
                cost = op_local_cost[op_id]
                for child_id, multiplier in zip(op_children[op_id], op_multipliers[op_id]):
                    cost += multiplier * effective[child_id]
            else:
                operations = op_specs[node_id]
                cost = (
                    INFINITE_COST
                    if operations is None
                    else argmin_operation(operations, effective)[1]
                )
            costs[node_id] = cost
        if distinct:
            if node_id in materialized:
                reuse = reuse_cost[node_id]
                effective[node_id] = reuse if reuse < cost else cost
            else:
                effective[node_id] = cost
    return costs


def _require_choice(engine: CostEngine, node_id: int) -> NoReturn:
    """Raise the reachable-cone invariant violation for *node_id*.

    A consolidated plan assigns a chosen operation to every non-base node
    (:func:`~repro.optimizer.costing.best_operations`), and the reachability
    walk only descends through chosen operations — so a *reachable* non-base
    node without one means the plan is malformed (hand-edited choices,
    or a node whose every alternative costed infinite sitting inside the
    plan cone).  This used to be a silent defensive argmin fallback, which
    would price such a node differently from the plan that claimed to
    contain it; ROADMAP flags the checked invariant as the prerequisite for
    sweeping the decision pass over the reachable cone only.
    """
    raise PlanError(
        f"Volcano-SH invariant violated: reachable non-base node {node_id} has "
        "no chosen operation (a consolidated plan must cover its reachable cone)"
    )


def volcano_sh_pass(
    dag: Dag, plan: ConsolidatedPlan
) -> Tuple[Set[int], Dict[int, OperationNode], float]:
    """Run the Volcano-SH materialization pass over a consolidated plan.

    Returns the set of materialized node ids, the (possibly pre-pass adjusted)
    operation choices, and the resulting total cost.  The decisions run on
    flat :class:`~repro.optimizer.engine.CostEngine` arrays (see the module
    docstring) and are byte-identical to :func:`_volcano_sh_reference`.
    """
    engine = get_engine(dag)
    plan_ops = _choice_ops(engine, plan.choices)
    materialized, choice_op, total = _sh_pass_ids(engine, plan_ops)
    choices = dict(plan.choices)
    op_view = engine.arena.op_view
    for node_id, op_id in enumerate(choice_op):
        if op_id != plan_ops[node_id]:
            choices[node_id] = op_view(op_id)
    return materialized, choices, total


def _sh_pass_ids(
    engine: CostEngine, plan_ops: List[int]
) -> Tuple[Set[int], List[int], float]:
    """Id-level core of :func:`volcano_sh_pass`.

    *plan_ops* holds the consolidated plan's chosen operation id per node
    (``-1`` where none) and is not modified.  Returns the materialized node
    ids, the final choices in the same form, and the total cost.
    """
    num_nodes = engine.num_nodes
    root_id = engine.root_id
    is_base = engine.is_base
    mat_cost = engine.mat_cost
    reuse_cost = engine.reuse_cost
    op_local_cost = engine.arena.op_local_cost
    op_children = engine.arena.op_children
    op_multipliers = engine.arena.op_multipliers
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
    # alternative of a node whose plan derivation is a subsumption derivation.
    # Needed only by the subsumption special test, so computed on first use.
    fallback_costs: Optional[List[float]] = None

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
        op_id = choice_op[node_id]
        if op_id < 0:
            # Checked invariant (formerly a silent argmin fallback): every
            # reachable non-base node must carry a chosen operation.
            _require_choice(engine, node_id)
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
            if fallback_costs is None:
                fallback_costs = engine.baseline_costs()
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
    final_costs = _plan_costs(engine, choice_op, materialized, reachable)
    total = final_costs[root_id]
    for node_id in sorted(materialized):
        total += final_costs[node_id] + mat_cost[node_id]

    # Volcano-SH only adds sharing on top of the Volcano plan; if the
    # heuristic decisions (made with the numuses underestimate) did not pay
    # off, fall back to the plain Volcano plan rather than return a worse one.
    baseline_total = baseline_costs[root_id]
    if total > baseline_total:
        return set(), plan_ops, baseline_total
    return materialized, choice_op, total


# ---------------------------------------------------------------------------
# Reference implementation (object-graph walk), kept as the oracle
# ---------------------------------------------------------------------------

def _subsumption_alternative(
    node: EquivalenceNode, reachable_ids: Set[int]
) -> Optional[OperationNode]:
    """A subsumption derivation of *node* whose source is already in the plan."""
    for operation in node.operations:
        if not operation.is_subsumption:
            continue
        if all(child.id in reachable_ids or child.is_base for child in operation.children):
            return operation
    return None


def _cheapest_regular_operation(
    node: EquivalenceNode,
    costs: Mapping[int, float],
    fallback_costs: Mapping[int, float],
    materialized: Set[int],
) -> float:
    best = INFINITE_COST
    for operation in node.operations:
        if operation.is_subsumption:
            continue
        cost = operation.local_cost
        for child, multiplier in zip(operation.children, operation.child_multipliers):
            child_cost = costs.get(child.id, fallback_costs.get(child.id, INFINITE_COST))
            if child.id in materialized:
                child_cost = min(child_cost, child.reuse_cost)
            cost += multiplier * child_cost
        best = min(best, cost)
    return best


def _volcano_sh_reference(
    dag: Dag, plan: ConsolidatedPlan
) -> Tuple[Set[int], Dict[int, OperationNode], float]:
    """The object-graph formulation of the Volcano-SH pass.

    Kept as the correctness oracle for the dense :func:`volcano_sh_pass`;
    the differential suite asserts byte-identical materialized sets, choices,
    and costs between the two.
    """
    choices = dict(plan.choices)
    reachable = plan.reachable()
    reachable_ids = {node.id for node in reachable}
    baseline_costs = plan_node_costs(dag, plan.choices, set())

    # Pre-pass: swap applicable subsumption derivations into the plan.  A swap
    # is only made if, assuming its source does get materialized, the node is
    # no more expensive to obtain than through its original derivation —
    # otherwise the swap could only hurt and would be undone anyway.
    swapped: Dict[int, OperationNode] = {}
    for node in reachable:
        if node.is_base or node.id not in choices:
            continue
        current = choices[node.id]
        if current.is_subsumption:
            continue
        alternative = _subsumption_alternative(node, reachable_ids)
        if alternative is None:
            continue
        via_materialized = alternative.local_cost + sum(
            multiplier * child.reuse_cost
            for child, multiplier in zip(alternative.children, alternative.child_multipliers)
        )
        if via_materialized <= baseline_costs.get(node.id, INFINITE_COST):
            swapped[node.id] = current
            choices[node.id] = alternative

    working = ConsolidatedPlan(dag, choices, set())
    reachable = working.reachable()
    reachable_ids = {node.id for node in reachable}
    numuses = working.parent_counts()
    # Fallback cost table (min over alternatives, nothing materialized) for
    # children that are not part of the plan, e.g. when pricing the regular
    # alternative of a node whose plan derivation is a subsumption derivation.
    fallback_costs = compute_node_costs(dag)

    materialized: Set[int] = set()
    costs: Dict[int, float] = {}
    for node in sorted(reachable, key=lambda n: n.topo_number):
        if node.is_base:
            costs[node.id] = 0.0
            continue
        operation = choices.get(node.id)
        if operation is None:
            # Not actually part of the plan (defensive); use cheapest op.
            operation = min(
                node.operations,
                key=lambda op: op.local_cost
                + sum(m * costs.get(c.id, 0.0) for c, m in zip(op.children, op.child_multipliers)),
            )
        cost = operation.local_cost
        for child, multiplier in zip(operation.children, operation.child_multipliers):
            child_cost = costs[child.id]
            if child.id in materialized:
                child_cost = min(child_cost, child.reuse_cost)
            cost += multiplier * child_cost
        costs[node.id] = cost

        uses = numuses.get(node.id, 0)
        if uses <= 1:
            continue
        if not node.created_by_subsumption:
            if node.mat_cost / (uses - 1) + node.reuse_cost < cost:
                materialized.add(node.id)
        else:
            # Nodes introduced by subsumption derivations must pay for
            # themselves through the savings they offer their parents.
            lhs = cost + node.mat_cost + node.reuse_cost * (uses - 1)
            savings = 0.0
            for parent_op in node.parents:
                parent = parent_op.equivalence
                if choices.get(parent.id) is not parent_op:
                    continue
                original = _cheapest_regular_operation(parent, costs, fallback_costs, materialized)
                via_node = parent_op.local_cost
                for child, multiplier in zip(parent_op.children, parent_op.child_multipliers):
                    child_cost = node.reuse_cost if child.id == node.id else costs.get(child.id, 0.0)
                    via_node += multiplier * child_cost
                if original < INFINITE_COST:
                    savings += max(0.0, original - via_node)
            if lhs < savings:
                materialized.add(node.id)

    # Undo subsumption derivations whose shared source was not materialized.
    for node_id, original in swapped.items():
        chosen = choices[node_id]
        if chosen.is_subsumption and not all(
            child.id in materialized or child.is_base for child in chosen.children
        ):
            choices[node_id] = original

    final_plan = ConsolidatedPlan(dag, choices, set(materialized))
    reachable_ids = {node.id for node in final_plan.reachable()}
    materialized &= reachable_ids
    final_costs = plan_node_costs(dag, choices, materialized)
    total = final_costs[dag.root.id]
    mat_cost = get_engine(dag).mat_cost
    for node_id in sorted(materialized):
        total += final_costs[node_id] + mat_cost[node_id]

    # Volcano-SH only adds sharing on top of the Volcano plan; if the
    # heuristic decisions (made with the numuses underestimate) did not pay
    # off, fall back to the plain Volcano plan rather than return a worse one.
    baseline_total = baseline_costs[dag.root.id]
    if total > baseline_total:
        return set(), dict(plan.choices), baseline_total
    return materialized, choices, total


def optimize_volcano_sh(dag: Dag, plan: Optional[ConsolidatedPlan] = None) -> OptimizationResult:
    """Run Volcano-SH on the DAG (or on a supplied consolidated plan)."""
    start = time.perf_counter()
    if plan is None:
        plan = consolidated_best_plan(dag)
    materialized, choices, total = volcano_sh_pass(dag, plan)
    elapsed = time.perf_counter() - start
    result_plan = ConsolidatedPlan(dag, choices, materialized)
    return OptimizationResult(
        algorithm="Volcano-SH",
        plan=result_plan,
        cost=total,
        optimization_time=elapsed,
        dag_equivalence_nodes=dag.num_equivalence_nodes,
        dag_operation_nodes=dag.num_operation_nodes,
        counters={"materialized": len(materialized)},
    )
