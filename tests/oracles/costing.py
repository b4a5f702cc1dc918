"""The cost recurrence of Section 3.1 over the object graph::

    cost(o) = exec(o) + Σ_i multiplier_i * C(e_i)
    C(e)    = cost(e)                         if e ∉ M
            = min(cost(e), reusecost(e))      if e ∈ M
    cost(e) = min { cost(o) | o ∈ children(e) }   (0 for base relations)
    bestcost(Q, M) = cost(root) + Σ_{m ∈ M} (cost(m) + matcost(m))

plus the cost of a consolidated plan through its own chosen operations
(Volcano-SH keeps the plan's structure, so it does not minimize).
"""

import math

INFINITE_COST = math.inf


def child_cost(child, costs, materialized):
    """``C(e)`` of a child equivalence node under the materialized set."""
    base = costs[child.id]
    if child.id in materialized:
        return min(base, child.reuse_cost)
    return base


def operation_cost(operation, costs, materialized):
    """``cost(o)`` of one operation node under the materialized set."""
    total = operation.local_cost
    for child, multiplier in zip(operation.children, operation.child_multipliers):
        total += multiplier * child_cost(child, costs, materialized)
    return total


def cheapest_operation(node, costs, materialized):
    """``(operation, cost)`` of the node's cheapest operation, the first of
    equal ones; ``(None, inf)`` when every alternative is infinite."""
    best_op, best = None, INFINITE_COST
    for operation in node.operations:
        cost = operation_cost(operation, costs, materialized)
        if cost < best:
            best_op, best = operation, cost
    return best_op, best


def equivalence_cost(node, costs, materialized):
    """``cost(e)``: minimum over the node's operations (0 for base tables)."""
    return 0.0 if node.is_base else cheapest_operation(node, costs, materialized)[1]


def node_costs(dag, materialized=frozenset()):
    """``{node id: cost(e)}`` for every node, children first."""
    costs = {}
    for node in sorted(dag.equivalence_nodes(), key=lambda n: n.topo_number):
        costs[node.id] = equivalence_cost(node, costs, materialized)
    return costs


def total_cost(dag, costs, materialized=frozenset()):
    """``bestcost(Q, M)`` given the node costs under ``M``."""
    total = costs[dag.root.id]
    for node_id in sorted(materialized):
        total += costs[node_id] + dag.node_by_id(node_id).mat_cost
    return total


def best_operations(dag, costs, materialized=frozenset()):
    """The argmin operation of every non-base node with operations (the
    first of equal ones), ``None`` where every alternative is infinite."""
    return {
        node.id: cheapest_operation(node, costs, materialized)[0]
        for node in dag.equivalence_nodes()
        if not node.is_base and node.operations
    }


def consolidated_choices(dag, materialized=frozenset()):
    """The choices of the consolidated Volcano best plan under ``M``."""
    return best_operations(dag, node_costs(dag, materialized), materialized)


def reachable(choices, roots):
    """The nodes reachable from *roots* through the chosen operations."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.id in seen:
            continue
        seen[node.id] = node
        operation = None if node.is_base else choices.get(node.id)
        if operation is not None:
            stack.extend(operation.children)
    return list(seen.values())


def plan_costs(dag, choices, materialized):
    """``{node id: cost}`` of every node the plan reaches from the root,
    each through its chosen operation."""
    costs = {}
    for node in sorted(reachable(choices, [dag.root]), key=lambda n: n.topo_number):
        if node.is_base:
            costs[node.id] = 0.0
        else:
            costs[node.id] = operation_cost(choices[node.id], costs, materialized)
    return costs


def plan_total(dag, choices, materialized):
    """The plan's total: its root's cost plus computing and materializing
    each node of ``M``, all through the chosen operations."""
    return total_cost(dag, plan_costs(dag, choices, materialized), materialized)


def choice_ids(dag, choices):
    """An oracle's choice map as a plan's ``choice_op``: the chosen
    operation's id per node, ``-1`` where the map has no entry or ``None``.
    Views are canonical per operation id, so equal ids are the same
    operations."""
    ids = [-1] * dag.num_equivalence_nodes
    for node_id, operation in choices.items():
        if operation is not None:
            ids[node_id] = operation.id
    return tuple(ids)


def choice_map(dag, choice_op):
    """A plan's ``choice_op`` as the oracles' choice map: the chosen
    operation of every node whose id is not ``-1``."""
    op_view = dag.arena.op_view
    return {node_id: op_view(op_id) for node_id, op_id in enumerate(choice_op) if op_id >= 0}
