"""Greedy's machinery (Section 4 of the paper) over the object graph: the
Figure 5 incremental cost update written as a full re-pricing of every
popped node, and the pruning of materializations the final plan leaves
unused."""

import heapq

from tests.oracles.costing import (
    best_operations,
    child_cost,
    equivalence_cost,
    node_costs,
    reachable,
    total_cost,
)


class FullRepricingState:
    """The incremental cost update of Figure 5: adding a node to ``M``
    re-prices *every* operation of each node popped from a topological-order
    heap, starting at the added node, and pushes a node's parents whenever
    its cost changed by more than *epsilon*.

    ``costs`` and ``effective`` (``C(e)``) are lists indexed by node id;
    :meth:`materialize_id` returns the undo log ``[(node id, previous
    cost)]`` in pop order, and ``propagations`` counts the pops.
    """

    def __init__(self, dag, epsilon=1e-9):
        self.dag = dag
        self.epsilon = epsilon
        self.nodes = sorted(dag.equivalence_nodes(), key=lambda node: node.id)
        start = node_costs(dag)
        self.costs = [start[node.id] for node in self.nodes]
        self.materialized = set()
        self.propagations = 0
        self._total = self.costs[dag.root.id]

    @property
    def effective(self):
        return [child_cost(node, self.costs, self.materialized) for node in self.nodes]

    def total(self):
        """``bestcost(Q, M)`` for the current ``M``."""
        return self._total

    def materialize_id(self, node_id):
        """Add *node_id* to ``M`` and propagate; returns the undo log."""
        node = self.nodes[node_id]
        self.materialized.add(node_id)
        self._total += self.costs[node_id] + node.mat_cost
        undo = []
        heap = [(node.topo_number, node_id)]
        pending = {node_id}
        while heap:
            current_id = heapq.heappop(heap)[1]
            pending.discard(current_id)
            current = self.nodes[current_id]
            self.propagations += 1
            old_cost = self.costs[current_id]
            new_cost = equivalence_cost(current, self.costs, self.materialized)
            # A node without operations stays infinite (inf - inf is no change).
            delta = new_cost - old_cost
            changed = delta > self.epsilon or delta < -self.epsilon
            if changed:
                undo.append((current_id, old_cost))
                self.costs[current_id] = new_cost
                if current_id == self.dag.root.id:
                    self._total += delta
                if current_id in self.materialized:
                    self._total += delta
            if changed or current_id == node_id:
                for parent_id in {operation.equivalence.id for operation in current.parents}:
                    if parent_id not in pending:
                        pending.add(parent_id)
                        heapq.heappush(heap, (self.nodes[parent_id].topo_number, parent_id))
        return undo

    def cost_with_id(self, node_id):
        """``bestcost(Q, M ∪ {node_id})``, leaving the state as it was (the
        propagation count aside)."""
        saved = list(self.costs), set(self.materialized), self._total
        self.materialize_id(node_id)
        total = self._total
        self.costs, self.materialized, self._total = saved
        return total


def prune_unused(dag, materialized):
    """Drop the materialized nodes no chosen operation of the final plan
    reads, re-choosing the plan after each round until nothing changes.

    Returns ``(materialized ids, choices, bestcost, rounds)``.
    """
    materialized = set(materialized)
    rounds = 0
    while True:
        rounds += 1
        costs = node_costs(dag, materialized)
        choices = best_operations(dag, costs, materialized)
        used = set()
        for node in reachable(choices, [dag.root]):
            operation = None if node.is_base else choices.get(node.id)
            if operation is not None:
                used.update(child.id for child in operation.children if child.id in materialized)
        if used == materialized:
            return materialized, choices, total_cost(dag, costs, materialized), rounds
        materialized = used
