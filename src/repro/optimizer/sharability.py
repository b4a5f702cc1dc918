"""Sharability detection (Section 4.1 of the paper).

The *degree of sharing* of an equivalence node in an evaluation plan is the
number of times it occurs in the plan tree (the tree obtained by replicating
shared nodes); its degree of sharing in the DAG is the maximum over all plans
represented by the DAG.  A node is **sharable** iff that degree exceeds one —
only sharable nodes can possibly be worth materializing, which is the first of
the three optimizations that make the greedy heuristic practical.

The module's one entry point is :func:`sharing_degrees`, keyed by node id.
Greedy and the exhaustive search both take their candidates from it: the
ids whose degree exceeds one, in ascending order.

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
copy-on-write, so pass-through nodes cost one reference.

Below the pseudo-root almost every vector has only entries of 1, so such a
vector is an ``int`` bitmask over ``sorted(targets)``.  An operation whose
contributing children are bitmasks read with multiplier 1 and pairwise
disjoint ORs them; an equivalence node's maximum over bitmasks is their OR.
Anything else — a multiplier other than 1 (nested-query invocations), two
children sharing a target — falls back to ``{z: E}`` dicts, which read a
bitmask as ``{z: 1.0}`` and sum in the same child order, so the degrees
are the same floats either way.  In the three ``perfbench`` workloads only
pseudo-root operations fall back: over 300 ``service-mixed`` batches, 258
sweeps walk 51,018 two-input operations and no other takes the dict path.
The sweep takes about half the time of the all-dict sweep it replaced
(CQ5, ``sharing_degrees``: 1.9 ms to 1.0 ms).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.dag.nodes import Dag, DagArena
from repro.optimizer.engine import get_engine


#: One node's sparse column ``{z: E[node][z]}``: an ``int`` bitmask over the
#: sorted targets when every entry is 1, a dict otherwise, ``None`` or ``0``
#: when its sub-DAG holds no target.
Vector = Union[None, int, Dict[int, float]]


def _batched_degrees(dag: Dag, targets: Set[int]) -> Dict[int, float]:
    """``E[root][z]`` for every ``z`` in *targets*, in one topological sweep.

    Operation nodes sum child vectors scaled by the use multipliers,
    equivalence nodes take the elementwise maximum over their operations.
    All-ones vectors are bitmasks (bit ``i`` is ``sorted(targets)[i]``): an
    operation whose contributing children are bitmasks with multiplier 1
    and no common bit ORs them, and an equivalence node whose operations
    all gave bitmasks ORs those.  A unit pair (every join) reads its two
    children from its kernel entry and ORs them inline; every other
    operation, and a unit pair whose masks overlap or hold a dict, goes
    through :func:`_operation_vector`.  Anything else takes the dict path of
    :func:`_add_scaled` and :func:`_max_into`, which expand a bitmask to
    ``{z: 1.0}`` and accumulate in the same child order, so both paths give
    the same floats.
    """
    if dag.root is None:
        raise ValueError("DAG has no root")
    if not targets:
        return {}
    engine = get_engine(dag)
    order = sorted(targets)
    bits = {z: 1 << index for index, z in enumerate(order)}
    vectors: List[Vector] = [None] * engine.num_nodes
    arena = dag.arena
    eq_op_ids = arena.eq_op_ids
    op_spec = arena.op_spec
    for node_id in engine.topo_order:
        best: Vector = 0
        best_owned = False
        for op_id in eq_op_ids[node_id]:
            acc: Vector = None
            entry = op_spec[op_id]
            if len(entry) == 3:
                # A unit pair (every join): two bitmasks with no common bit
                # sum to their OR.
                a = vectors[entry[0]] or 0
                b = vectors[entry[1]] or 0
                if a.__class__ is int and b.__class__ is int and not a & b:
                    acc = a | b
                    acc_owned = False
            if acc is None:
                acc, acc_owned = _operation_vector(arena, op_id, vectors, order)
            if not acc:
                continue
            if best.__class__ is int and acc.__class__ is int:
                best |= acc
            elif not best:
                best = acc
                best_owned = acc_owned
            else:
                if best.__class__ is int:
                    best = dict(_ones(best, order))
                elif not best_owned:
                    best = dict(best)
                best_owned = True
                _max_into(best, acc, order)
        bit = bits.get(node_id)
        if bit is not None:
            if best.__class__ is int:
                best |= bit
            else:
                if not best_owned:
                    best = dict(best)
                best[node_id] = 1.0
        if best:
            vectors[node_id] = best
    root_vector = vectors[engine.root_id] or 0
    if root_vector.__class__ is int:
        return {z: 1.0 if root_vector & bits[z] else 0.0 for z in targets}
    return {z: root_vector.get(z, 0.0) for z in targets}


def _operation_vector(
    arena: DagArena, op_id: int, vectors: List[Vector], order: List[int]
) -> Tuple[Vector, bool]:
    """``E[op][·]``, the child vectors of operation *op_id* summed with
    their use multipliers, and whether the result is a new dict (owned)
    rather than a borrowed child vector."""
    acc: Vector = 0
    acc_owned = False
    for child_id, multiplier in zip(arena.op_children[op_id], arena.op_multipliers[op_id]):
        child_vector = vectors[child_id]
        if not child_vector:
            continue
        if acc.__class__ is int:
            if (
                child_vector.__class__ is int
                and multiplier == 1.0
                and not acc & child_vector
            ):
                acc |= child_vector
                continue
            if not acc and multiplier == 1.0:
                acc = child_vector  # borrow; copy only if mutated later
                continue
            acc = dict(_ones(acc, order))
            acc_owned = True
        elif not acc_owned:
            acc = dict(acc)
            acc_owned = True
        _add_scaled(acc, child_vector, multiplier, order)
    return acc, acc_owned


def _ones(mask: int, order: List[int]) -> Iterator[Tuple[int, float]]:
    """The ``(z, 1.0)`` entries of a bitmask over *order*, lowest bit first."""
    while mask:
        low = mask & -mask
        yield order[low.bit_length() - 1], 1.0
        mask ^= low


def _add_scaled(
    acc: Dict[int, float], vector: Vector, multiplier: float, order: List[int]
) -> None:
    """``acc += multiplier * vector`` in place (*acc* is owned)."""
    if vector.__class__ is int:
        # The pseudo-root's overlapping query vectors land here: walk the
        # set bits without a generator.
        term = multiplier * 1.0
        while vector:
            low = vector & -vector
            z = order[low.bit_length() - 1]
            acc[z] = acc.get(z, 0.0) + term
            vector ^= low
    elif multiplier == 1.0:
        for z, v in vector.items():
            acc[z] = acc.get(z, 0.0) + v
    else:
        for z, v in vector.items():
            acc[z] = acc.get(z, 0.0) + multiplier * v


def _max_into(best: Dict[int, float], vector: Vector, order: List[int]) -> None:
    """``best = max(best, vector)`` elementwise, in place (*best* is owned)."""
    items = _ones(vector, order) if vector.__class__ is int else vector.items()
    for z, v in items:
        if v > best.get(z, 0.0):
            best[z] = v


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
    dag: Dag, candidate_ids: Optional[Iterable[int]] = None
) -> Dict[int, float]:
    """Degree of sharing for every candidate node, keyed by node id.

    Without *candidate_ids*, covers every non-base, non-root node,
    short-cutting nodes that fail the :func:`_may_be_shared` pre-filter to
    degree 1 (or 0 if parentless).  With an explicit list of node ids the
    **exact** degree of every listed node is computed — no pre-filter
    short-cut — which is what the greedy monotonicity bound needs: even a
    single-parent node can have a large degree through the transitive
    sharing of its ancestors.
    """
    if candidate_ids is not None:
        return _batched_degrees(dag, set(candidate_ids))
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
