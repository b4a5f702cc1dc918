"""Block logs: a join block's whole expansion, recorded once and replayed.

A warm session rebuild re-expands join blocks it has expanded before: the
query blocks of an overlapping batch and the weak joins of the subsumption
pass.  The per-node path (:meth:`repro.dag.builder.DagBuilder._expand_per_node`)
then walks every connected sub-set, derives its key, properties and session
ids, and prices its new partitions in one loop before appending them in one
arena run.  A *block log* records the outcome
of that walk for one block, flat, so that the next build appends it in one
pass.

The session's ``block_logs`` family (:mod:`repro.service.session`) keys logs
on the *block signature*: the block's aliases (with its predicates they fix
the block's shape, and they name its nodes), the key ids and properties ids
of its leaves, and its predicates.  A :class:`BlockLog` holds, per sub-set,
what a fresh per-node expansion of the block adds (:data:`BlockLogRecord`)
and, column by column, every partition it appends with its operator and
cost.  Replaying it leaves the arena exactly as the per-node path would.

A log fits a build when every logged node this build already holds carries
the logged properties.  One that does not (a block listing a sub-set's
members in another order made the node first, with its columns in another
order) is *stale* here, and the per-node path runs.  Its log, recorded by
:func:`record`, *borrows* that node: it fits only builds that hold it.  The
family keeps :data:`BLOCK_LOG_VARIANTS` logs per signature, so a block that
meets both kinds of build is served in both.

:func:`expand` is the builder's join-space expansion with a session.
:func:`find` checks a cached entry without side effects and raises
``TypeError``, ``ValueError`` or ``IndexError`` on a malformed one, which only
a damaged cache value is; :func:`append` then cannot fail part-way.
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.algebra.predicates import Predicate
from repro.cost.estimation import LogicalProperties
from repro.dag.nodes import JoinOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.builder import DagBuilder, _BlockShape

#: One sub-set of a :class:`BlockLog`, in :attr:`_BlockShape.plan` order:
#: ``(key, key id, props id, properties, label, canonical, origin, end)``.
#: The origin is the member properties ids, in block order, the node's
#: properties were derived from; ``None`` marks a node borrowed from another
#: block.  The sub-set's partitions run in the log's columns from the
#: previous record's ``end`` (0 for the first) up to its own.
BlockLogRecord = Tuple[
    Hashable, int, int, LogicalProperties, str, bool, Optional[Tuple[int, ...]], int
]


class BlockLog(NamedTuple):
    """A join block's whole expansion.

    ``records`` holds one :data:`BlockLogRecord` per connected sub-set.
    The four columns hold, in order, every partition a fresh per-node
    expansion of the block appends: ``lefts`` and ``rights`` are positions
    in the block, counting its leaves first and then its sub-sets, followed
    by the partition's operator and total cost.  Int and float columns
    hold no object the collector tracks.
    """

    records: Tuple[BlockLogRecord, ...]
    lefts: Tuple[int, ...]
    rights: Tuple[int, ...]
    operators: Tuple[JoinOp, ...]
    costs: Tuple[float, ...]


#: Logs kept per block signature: the ``block_logs`` family stores a tuple
#: of up to this many logs, the latest first.  Two serve a block in builds
#: that borrow a node and in builds that do not, where one would be
#: re-recorded at every switch.
BLOCK_LOG_VARIANTS = 2


def expand(
    builder: "DagBuilder",
    aliases: Sequence[str],
    leaf_nodes: List[int],
    join_predicates: Sequence[Predicate],
) -> int:
    """Expand a join block of a session build; return the full-block node id.

    A log of the block signature that fits this build is appended (a
    hit).  Otherwise (a miss) the builder expands the block per node, and
    its log becomes the latest of the signature's logs.  A malformed entry
    is counted as a quarantine and replaced.
    """
    session = builder._session
    signature = (
        tuple(aliases),
        tuple([builder._node_kid[node] for node in leaf_nodes]),
        tuple([builder._node_pid[node] for node in leaf_nodes]),
        tuple(join_predicates),
    )
    logs = session.block_logs
    entry = logs.get(signature)
    kept: Tuple[BlockLog, ...] = ()
    if entry is not None:
        try:
            found = find(builder, leaf_nodes, entry)
        except (TypeError, ValueError, IndexError):
            session.stats.recipe_quarantines += 1
        else:
            if found is not None:
                session.stats.hits += 1
                return append(builder, *found)
            kept = entry[:BLOCK_LOG_VARIANTS - 1]
    session.stats.misses += 1
    shape, nodes_by_mask = builder._expand_per_node(aliases, leaf_nodes, join_predicates)
    logs[signature] = (record(builder, aliases, shape, leaf_nodes, nodes_by_mask),) + kept
    return nodes_by_mask[(1 << shape.n) - 1]


def find(
    builder: "DagBuilder", leaf_nodes: List[int], entry: Any
) -> Optional[Tuple[List[int], List[int], BlockLog]]:
    """The first log of a ``block_logs`` *entry* that fits this build.

    Returns ``(ids, work, log)``: the node id of every position of the log
    (a sub-set this build lacks gets the id :func:`append` will give it),
    the indices of the records :func:`append` has work for, and the log.
    ``None`` when no log fits.  Side-effect free; a malformed entry raises.
    """
    if entry.__class__ is not tuple:
        raise TypeError("malformed block-log entry")
    for log in entry:
        resolved = _resolve(builder, leaf_nodes, log)
        if resolved is not None:
            return resolved[0], resolved[1], log
    return None


def _resolve(
    builder: "DagBuilder", leaf_nodes: List[int], log: BlockLog
) -> Optional[Tuple[List[int], List[int]]]:
    """The node id of every position of *log* in this build and the
    indices of the records with work to do (a node this build lacks, or one
    a per-node expansion would enumerate: not both canonical and expanded),
    or ``None`` when the log is stale here (see :func:`find`).

    The records are checked one by one, the partition columns in a few
    C-level passes; damage wins over staleness.
    """
    if log.__class__ is not BlockLog:
        raise TypeError("not a block log")
    kid_node = builder._kid_node
    node_pid = builder._node_pid
    expanded = builder._expanded_joins
    ids = list(leaf_nodes)
    work: List[int] = []
    made: Dict[int, int] = {}
    next_id = builder.dag.arena.num_equivalences
    stale = False
    records, lefts, rights, operators, costs = log
    start = 0
    for index, (key, kid, pid, props, label, canonical, origin, end) in enumerate(records):
        if not (
            key.__class__ is tuple
            and props.__class__ is LogicalProperties
            and label.__class__ is str
            and canonical.__class__ is bool
            and kid.__class__ is pid.__class__ is int
            and (origin is None or origin.__class__ is tuple)
            and end.__class__ is int
            and start <= end
        ):
            raise ValueError("malformed block-log record")
        start = end
        node = kid_node.get(kid)
        if node is None:
            node = made.get(kid)
            if node is None:
                stale = stale or origin is None
                node = made[kid] = next_id
                next_id += 1
            work.append(index)
        else:
            if node_pid[node] != pid:
                stale = True
            if not (canonical and node in expanded):
                work.append(index)
        ids.append(node)
    count = len(operators)
    positions = len(ids)
    if not (
        start == len(lefts) == len(rights) == len(costs) == count
        and all(map(isinstance, operators, repeat(JoinOp, count)))
        and all(map(isinstance, costs, repeat(float, count)))
        and all(map(isinstance, lefts, repeat(int, count)))
        and all(map(isinstance, rights, repeat(int, count)))
        and (not count or (
            0 <= min(lefts) and max(lefts) < positions
            and 0 <= min(rights) and max(rights) < positions
        ))
    ):
        raise ValueError("malformed block-log partitions")
    return None if stale else (ids, work)


def append(builder: "DagBuilder", ids: List[int], work: List[int], log: BlockLog) -> int:
    """Append *log*, resolved to *ids* and *work* by :func:`find`, to the
    builder's DAG and return the full-block node id.

    Only the records in *work* are visited: a sub-set whose node this build
    holds canonical and expanded has nothing to add.  First the sub-sets
    this build lacks are added, with their logged keys, properties, labels
    and session ids, so every position of the log names a node before any
    operation goes in.  Then, sub-set by sub-set as the per-node path goes,
    the partitions: all of those of a node just added in one run (it can
    hold no memo triple yet, and :func:`record` drops repeated ones), and
    those of an existing node whose triple is new.  Adding the nodes first
    leaves the arena as the per-node path leaves it: node and operation ids
    are numbered apart, and each keeps its order.
    """
    records, lefts, rights, operators, costs = log
    arena = builder.dag.arena
    offset = len(ids) - len(records)
    first_new = arena.num_equivalences
    if max(ids) >= first_new:
        add_equivalence = arena.add_equivalence
        kid_node = builder._kid_node
        node_kid = builder._node_kid
        node_pid = builder._node_pid
        node_origin = builder._node_origin
        index_join = builder._index_join
        next_id = first_new
        for index in work:
            node = ids[offset + index]
            if node == next_id:
                next_id += 1
                key, kid, pid, props, label, _canonical, origin, _end = records[index]
                add_equivalence(key, props, label)
                kid_node[kid] = node
                node_kid[node] = kid
                node_pid[node] = pid
                node_origin[node] = origin
                index_join(key, node)
    append_join_operations = arena.append_join_operations
    append_operation = arena.append_operation
    memo = builder._join_op_memo
    expanded = builder._expanded_joins
    position = ids.__getitem__
    next_id = first_new
    for index in work:
        record = records[index]
        node = ids[offset + index]
        start = records[index - 1][7] if index else 0
        end = record[7]
        if node == next_id:
            next_id += 1
            left_ids = list(map(position, lefts[start:end]))
            right_ids = list(map(position, rights[start:end]))
            op_ids = append_join_operations(
                node, operators[start:end], list(zip(left_ids, right_ids)), costs[start:end]
            )
            memo.update(zip(zip(repeat(node), left_ids, right_ids), op_ids))
        else:
            for left, right, operator, cost in zip(
                lefts[start:end], rights[start:end], operators[start:end], costs[start:end]
            ):
                left = ids[left]
                right = ids[right]
                triple = (node, left, right)
                if triple not in memo:
                    memo[triple] = append_operation(node, operator, (left, right), cost)
        if record[5]:
            expanded.add(node)
    return ids[-1]


def record(
    builder: "DagBuilder",
    aliases: Sequence[str],
    shape: "_BlockShape",
    leaf_nodes: List[int],
    nodes_by_mask: Dict[int, int],
) -> BlockLog:
    """The log of the per-node expansion of a block the builder just did.

    Walks the plan and reads each partition's operation from the join-op
    memo, which holds every triple of the block by now, whether it was
    priced here or skipped as already expanded.  A
    sub-set whose node this build derived from other member properties is
    borrowed: its origin is ``None``.
    """
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    op_operator = arena.op_operator
    op_local_cost = arena.op_local_cost
    memo = builder._join_op_memo
    node_kid = builder._node_kid
    node_pid = builder._node_pid
    node_origin = builder._node_origin
    leaf_pids = [node_pid[leaf] for leaf in leaf_nodes]
    position_of = {1 << i: i for i in range(shape.n)}
    records: List[BlockLogRecord] = []
    lefts: List[int] = []
    rights: List[int] = []
    operators: List[JoinOp] = []
    costs: List[float] = []
    for position, (mask, members, _, canonical, partitions) in enumerate(shape.plan, shape.n):
        node = nodes_by_mask[mask]
        # The node's own origin tuple is kept, not an equal copy.
        origin = node_origin.get(node)
        if origin != tuple([leaf_pids[i] for i in members]):
            origin = None
        position_of[mask] = position
        seen: Set[Tuple[int, int]] = set()
        for submask, other, _ in partitions:
            pair = (nodes_by_mask[submask], nodes_by_mask[other])
            if pair in seen:
                continue
            seen.add(pair)
            op_id = memo[(node,) + pair]
            lefts.append(position_of[submask])
            rights.append(position_of[other])
            operators.append(op_operator[op_id])  # type: ignore[arg-type]
            costs.append(op_local_cost[op_id])
        records.append((
            eq_key[node], node_kid[node], node_pid[node], eq_props[node],
            "⋈".join([aliases[i] for i in members]), canonical, origin, len(lefts),
        ))
    return BlockLog(tuple(records), tuple(lefts), tuple(rights), tuple(operators), tuple(costs))
