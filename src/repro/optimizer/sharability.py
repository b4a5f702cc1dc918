"""Sharability detection (Section 4.1 of the paper).

The *degree of sharing* of an equivalence node in an evaluation plan is the
number of times it occurs in the plan tree (the tree obtained by replicating
shared nodes); its degree of sharing in the DAG is the maximum over all plans
represented by the DAG.  A node is **sharable** iff that degree exceeds one —
only sharable nodes can possibly be worth materializing, which is the first of
the three optimizations that make the greedy heuristic practical.

The computation follows the paper's recurrence.  ``E[x][z]`` is the degree of
sharing of ``z`` in the sub-DAG rooted at ``x``::

    E[x][x] = 1
    E[x][z] = sum over children y of x of E[y][z]      if x is an operation node
    E[x][z] = max over children y of x of E[y][z]      if x is an equivalence node

and the degree of sharing of ``z`` in the whole DAG is ``E[root][z]``.  Use
multipliers (nested-query invocation counts) multiply the contribution of the
corresponding child, so an invariant sub-expression of a correlated query is
sharable by virtue of its repeated invocations.

Unlike the paper — which computes the column of ``E`` for one ``z`` at a time
to save space — :func:`sharing_degrees` computes ``E[·][z]`` for **all**
candidate targets in a single sweep over the DAG in topological order
(children before ancestors).  Every node carries the sparse vector ``{z:
E[node][z]}`` restricted to the targets occurring in its sub-DAG, so a node
whose sub-DAG holds no target costs nothing; vectors are shared
copy-on-write, so pass-through nodes cost one reference.  The sweep is pure
Python and standard-library only: a dense-array variant measured within
noise of it at the candidate-set sizes the workloads produce (a median of
about 50 targets per batch), so it was removed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.dag.nodes import Dag, DagArena, EquivalenceNode
from repro.optimizer.engine import get_engine


def _batched_degrees(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """``E[root][z]`` for every ``z`` in *targets*, in one topological sweep.

    Operation nodes sum child vectors scaled by the use multipliers,
    equivalence nodes take the elementwise maximum over their operations.  A
    pass-through node (one contributing child, multiplier 1, not itself a
    target) aliases its child's dict; any mutation (accumulation, maximum,
    target entry) copies first, so aliased vectors are never written.
    """
    if dag.root is None:
        raise ValueError("DAG has no root")
    if not targets:
        return {}
    engine = get_engine(dag)
    vectors: List[Optional[Dict[int, float]]] = [None] * engine.num_nodes
    op_table = engine.op_table
    for node_id in engine.topo_order:
        best: Optional[Dict[int, float]] = None
        best_owned = False
        for _local_cost, children in op_table[node_id]:
            acc: Optional[Dict[int, float]] = None
            acc_owned = False
            for child_id, multiplier in children:
                child_vector = vectors[child_id]
                if not child_vector:
                    continue
                if acc is None:
                    if multiplier == 1.0:
                        acc = child_vector  # borrow; copy only if mutated later
                    else:
                        acc = {z: multiplier * v for z, v in child_vector.items()}
                        acc_owned = True
                else:
                    if not acc_owned:
                        acc = dict(acc)
                        acc_owned = True
                    if multiplier == 1.0:
                        for z, v in child_vector.items():
                            acc[z] = acc.get(z, 0.0) + v
                    else:
                        for z, v in child_vector.items():
                            acc[z] = acc.get(z, 0.0) + multiplier * v
            if not acc:
                continue
            if best is None:
                best = acc
                best_owned = acc_owned
            else:
                if not best_owned:
                    best = dict(best)
                    best_owned = True
                for z, v in acc.items():
                    if v > best.get(z, 0.0):
                        best[z] = v
        if node_id in targets:
            if best is None:
                best = {}
            elif not best_owned:
                best = dict(best)
            best[node_id] = 1.0
        if best is not None:
            vectors[node_id] = best
    root_vector = vectors[engine.root_id] or {}
    return {target: root_vector.get(target, 0.0) for target in targets}


def degree_of_sharing(dag: Dag, target: EquivalenceNode) -> float:
    """Degree of sharing of *target* in the whole DAG (``E[root][target]``)."""
    return _batched_degrees(dag, {target.id})[target.id]


def sharable_nodes(
    dag: Dag, candidates: Optional[Iterable[EquivalenceNode]] = None
) -> List[EquivalenceNode]:
    """Return the equivalence nodes whose degree of sharing exceeds one.

    *candidates* defaults to every non-base equivalence node with at least two
    parent operations (a necessary condition for sharability, used as a cheap
    pre-filter exactly because ``E`` is typically sparse).
    """
    if candidates is None:
        candidates = [
            node
            for node in dag.equivalence_nodes()
            if not node.is_base
            and node is not dag.root
            and _may_be_shared(dag.arena, node.id)
        ]
    else:
        candidates = list(candidates)
    degrees = _batched_degrees(dag, {node.id for node in candidates})
    return [node for node in candidates if degrees[node.id] > 1.0]


def _may_be_shared(arena: DagArena, node_id: int) -> bool:
    """Cheap necessary condition for sharability: two parent operations, or
    one that uses the node with a total multiplier above one.  Read from the
    arena columns, so the pre-filter builds no views."""
    parent_ops = arena.eq_parent_ops[node_id]
    if len(parent_ops) >= 2:
        return True
    for op_id in parent_ops:
        multiplier = 0.0
        for child_id, factor in zip(arena.op_children[op_id], arena.op_multipliers[op_id]):
            if child_id == node_id:
                multiplier += factor
        if multiplier > 1.0:
            return True
    return False


def sharing_degrees(
    dag: Dag, candidates: Optional[Iterable[EquivalenceNode]] = None
) -> Dict[int, float]:
    """Degree of sharing for every candidate node, keyed by node id.

    Without *candidates*, covers every non-base, non-root node, short-cutting
    nodes that fail the :func:`_may_be_shared` pre-filter to degree 1 (or 0 if
    parentless).  With an explicit candidate list the **exact** degree of every
    listed node is computed — no pre-filter short-cut — which is what the
    greedy monotonicity bound needs: even a single-parent node can have a
    large degree through the transitive sharing of its ancestors.
    """
    if candidates is not None:
        return _batched_degrees(dag, {node.id for node in candidates})
    degrees: Dict[int, float] = {}
    targets: Set[int] = set()
    arena = dag.arena
    root_id = -1 if dag.root is None else dag.root.id
    for node_id in range(arena.num_equivalences):
        if arena.eq_is_base[node_id] or node_id == root_id:
            continue
        if not _may_be_shared(arena, node_id):
            degrees[node_id] = 1.0 if arena.eq_parent_ops[node_id] else 0.0
            continue
        targets.add(node_id)
    degrees.update(_batched_degrees(dag, targets))
    return degrees
