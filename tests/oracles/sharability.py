"""The degree of sharing of Section 4.1, one target at a time."""


def sharing_degree(dag, target_id):
    """How often the root's plan can use node *target_id*: the target counts
    once, an operation sums its children's degrees times their use
    multipliers, and a node takes its most sharing operation."""
    degrees = {}
    for node in sorted(dag.equivalence_nodes(), key=lambda n: n.topo_number):
        if node.id == target_id:
            degrees[node.id] = 1.0
            continue
        best = 0.0
        for operation in node.operations:
            total = 0.0
            for child, multiplier in zip(operation.children, operation.child_multipliers):
                total += multiplier * degrees.get(child.id, 0.0)
            best = max(best, total)
        degrees[node.id] = best
    return degrees.get(dag.root.id, 0.0)
