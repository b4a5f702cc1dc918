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
(children before ancestors).  The sweep is vectorized over the candidate set:

* every candidate ``z`` is assigned a column index; each node carries a
  **support bitset** (a Python ``int``, bit ``i`` set iff candidate ``i``
  occurs in the node's sub-DAG) used to skip non-contributing children and
  operations in O(1);
* when NumPy is available the per-node vectors ``E[node][·]`` are dense
  ``float64`` rows over the candidate set — operation nodes accumulate
  ``multiplier × child_row`` with vector adds, equivalence nodes combine
  operations with an in-place elementwise maximum;
* without NumPy the sweep falls back to the sparse per-node ``{target:
  degree}`` dicts guided by the same bitsets.

The dense path is byte-identical to the sparse one: rows accumulate child
contributions in the same child order, and inserting the ``+ 0.0`` terms of
non-supporting children does not change IEEE results (degrees are
non-negative, so no ``-0.0`` corner exists).  The sparse per-node dicts used
to approach |candidates| entries near the root, which made the sweep ~25% of
greedy start-up cost on the scale-up workloads; the bitset/NumPy rows cut the
CQ5 sweep by ~2x (see ``benchmarks/bench_fig9_scaleup.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

try:  # NumPy is optional: the sparse fallback is exact, just slower.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the _np=None test path
    _np = None  # type: ignore[assignment]

from repro.dag.nodes import Dag, DagArena, EquivalenceNode

#: Below this many candidates the dense rows cost more to allocate than the
#: sparse dicts they replace; the cutover point is not sensitive in practice.
_DENSE_MIN_TARGETS = 8


def _batched_degrees(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """``E[root][z]`` for every ``z`` in *targets*, in one topological sweep."""
    if dag.root is None:
        raise ValueError("DAG has no root")
    if not targets:
        return {}
    if _np is not None and len(targets) >= _DENSE_MIN_TARGETS:
        return _batched_degrees_dense(dag, targets)
    return _batched_degrees_sparse(dag, targets)


def _batched_degrees_dense(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """Dense sweep: one NumPy ``float64`` row per node over the candidate set,
    one support bitset per node to skip non-contributing sub-DAGs.

    Rows are shared copy-on-write: a pass-through node (one operation, one
    contributing child, use multiplier 1, not itself a target) aliases its
    child's row instead of copying it — on the chain-query DAGs most nodes
    are selects/projections/aggregates of exactly this shape, so only the
    genuine accumulation points (multi-child joins, multi-operation nodes,
    targets) touch a full-width vector.  Aliased rows are never mutated: any
    in-place accumulation, maximum, or target-bit write copies first.
    """
    from repro.optimizer.engine import get_engine

    engine = get_engine(dag)
    column: Dict[int, int] = {target: i for i, target in enumerate(sorted(targets))}
    num_nodes = engine.num_nodes
    rows: List[Optional["_np.ndarray"]] = [None] * num_nodes
    masks: List[int] = [0] * num_nodes
    maximum = _np.maximum
    op_table = engine.op_table
    for node_id in engine.topo_order:
        best = None
        best_owned = False
        best_mask = 0
        for _local_cost, children in op_table[node_id]:
            acc = None
            acc_owned = False
            acc_mask = 0
            for child_id, multiplier in children:
                child_mask = masks[child_id]
                if not child_mask:
                    continue
                child_row = rows[child_id]
                if acc is None:
                    if multiplier == 1.0:
                        acc = child_row  # borrow; copy only if mutated later
                    else:
                        acc = child_row * multiplier
                        acc_owned = True
                    acc_mask = child_mask
                else:
                    scaled = child_row if multiplier == 1.0 else multiplier * child_row
                    if acc_owned:
                        acc += scaled
                    else:
                        # One binary add allocates the owned copy directly —
                        # cheaper than an explicit copy followed by "+=".
                        acc = acc + scaled
                        acc_owned = True
                    acc_mask |= child_mask
            if acc is None:
                continue
            if best is None:
                best = acc
                best_owned = acc_owned
                best_mask = acc_mask
            else:
                if best_owned:
                    maximum(best, acc, out=best)
                else:
                    best = maximum(best, acc)
                    best_owned = True
                best_mask |= acc_mask
        target_column = column.get(node_id)
        if target_column is not None:
            if best is None:
                best = _np.zeros(len(column))
            elif not best_owned:
                best = best.copy()
            best[target_column] = 1.0
            best_mask |= 1 << target_column
        if best is not None:
            rows[node_id] = best
            masks[node_id] = best_mask
    root_row = rows[engine.root_id]
    if root_row is None:
        return {target: 0.0 for target in targets}
    return {target: float(root_row[column[target]]) for target in targets}


def _batched_degrees_sparse(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """Sparse fallback sweep (no NumPy, or a tiny candidate set).

    Every node carries the sparse vector ``{z: E[node][z]}`` restricted to the
    targets occurring in its sub-DAG; operation nodes sum child vectors scaled
    by the use multipliers, equivalence nodes take the elementwise maximum
    over their operations.  Vectors are shared copy-on-write exactly like the
    dense rows: pass-through nodes alias their child's dict, and any mutation
    (accumulation, maximum, target entry) copies first.
    """
    from repro.optimizer.engine import get_engine

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
