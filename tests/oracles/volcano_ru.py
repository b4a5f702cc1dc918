"""One query order of Volcano-RU (Section 3.3, Figure 3 of the paper) over
the object graph.

Each query is optimized from scratch with the reuse candidates registered so
far assumed materialized; a node of its best plan becomes a candidate if it
would be worth materializing were it used once more.  The combined plan (the
first query to reach a node fixes its choice) then goes through Volcano-SH.
"""

from tests.oracles.costing import best_operations, node_costs, reachable
from tests.oracles.volcano_sh import volcano_sh


def run_order(dag, order):
    """``(total cost, materialized ids, choices)`` of Volcano-RU over the
    queries in *order*."""
    reuse_candidates = set()
    use_counts = {}
    combined = {}
    for index in order:
        costs = node_costs(dag, reuse_candidates)
        choices = best_operations(dag, costs, reuse_candidates)
        for node in reachable(choices, [dag.query_roots[index]]):
            if node.is_base:
                continue
            combined.setdefault(node.id, choices[node.id])
            count = use_counts[node.id] = use_counts.get(node.id, 0) + 1
            cost = costs[node.id]
            # Worth materializing if it is used just once more?
            if cost + node.mat_cost + count * node.reuse_cost < (count + 1) * cost:
                reuse_candidates.add(node.id)

    combined[dag.root.id] = dag.root.operations[0]
    materialized, choices, total = volcano_sh(dag, combined)
    return total, materialized, choices
