"""Volcano-SH (Section 3.2, Figure 2 of the paper) over the object graph.

Starting from a consolidated plan (a ``{node id: operation}`` choice map),
the pass swaps applicable subsumption derivations into the plan, decides
bottom-up which shared nodes to materialize with the ``numuses⁻`` test (and
the pay-for-itself test for nodes created by subsumption), undoes the swaps
whose source was not materialized, and falls back to the plain plan when
the decisions did not pay off.
"""

from tests.oracles.costing import (
    INFINITE_COST,
    node_costs,
    operation_cost,
    plan_costs,
    plan_total,
    reachable,
)


def subsumption_alternative(node, reachable_ids):
    """A subsumption derivation of *node* whose source is already in the plan."""
    for operation in node.operations:
        if not operation.is_subsumption:
            continue
        if all(child.id in reachable_ids or child.is_base for child in operation.children):
            return operation
    return None


def cheapest_regular_operation(node, costs, fallback_costs, materialized):
    """The cheapest non-subsumption operation of *node*: children the plan
    priced at their plan cost, others at their cost with nothing
    materialized."""
    known = {**fallback_costs, **costs}
    regular = [op for op in node.operations if not op.is_subsumption]
    return min((operation_cost(op, known, materialized) for op in regular), default=INFINITE_COST)


def volcano_sh(dag, plan_choices):
    """``(materialized ids, choices, total cost)`` of Volcano-SH over the
    plan *plan_choices*."""
    choices = dict(plan_choices)
    plan_nodes = reachable(choices, [dag.root])
    reachable_ids = {node.id for node in plan_nodes}
    baseline_costs = plan_costs(dag, choices, set())

    # Pre-pass: swap applicable subsumption derivations into the plan, if,
    # assuming the source gets materialized, the node costs no more that way.
    swapped = {}
    for node in plan_nodes:
        if node.is_base or node.id not in choices:
            continue
        current = choices[node.id]
        if current.is_subsumption:
            continue
        alternative = subsumption_alternative(node, reachable_ids)
        if alternative is None:
            continue
        via_materialized = alternative.local_cost + sum(
            multiplier * child.reuse_cost
            for child, multiplier in zip(alternative.children, alternative.child_multipliers)
        )
        if via_materialized <= baseline_costs[node.id]:
            swapped[node.id] = current
            choices[node.id] = alternative

    plan_nodes = reachable(choices, [dag.root])
    # numuses⁻: references from the plan's chosen operations (a use
    # multiplier counts as that many uses).
    uses_of = {}
    for node in plan_nodes:
        if not node.is_base:
            operation = choices[node.id]
            for child, multiplier in zip(operation.children, operation.child_multipliers):
                uses_of[child.id] = uses_of.get(child.id, 0) + max(1, int(round(multiplier)))
    # Children outside the plan (the regular alternative of a node whose plan
    # derivation is a subsumption derivation) cost their Volcano cost.
    fallback_costs = node_costs(dag)

    materialized = set()
    costs = {}
    for node in sorted(plan_nodes, key=lambda n: n.topo_number):
        if node.is_base:
            costs[node.id] = 0.0
            continue
        cost = operation_cost(choices[node.id], costs, materialized)
        costs[node.id] = cost

        uses = uses_of.get(node.id, 0)
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
                original = cheapest_regular_operation(parent, costs, fallback_costs, materialized)
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

    materialized &= {node.id for node in reachable(choices, [dag.root])}
    total = plan_total(dag, choices, materialized)

    # Volcano-SH only adds sharing on top of the plan: if the decisions (made
    # with the numuses underestimate) did not pay off, keep the plain plan.
    baseline_total = baseline_costs[dag.root.id]
    if total > baseline_total:
        return set(), dict(plan_choices), baseline_total
    return materialized, choices, total
