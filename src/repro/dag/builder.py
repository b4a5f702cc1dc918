"""Construction of the multi-query AND-OR DAG from logical expressions.

The builder performs the tasks described in Section 2 of the paper:

1. Each query expression is normalized into *query blocks* (maximal
   select/join regions with selections pushed to the leaves — the optimizer's
   "select push down" rule) and represented in the AND-OR DAG.
2. The join-order space of every block is expanded: one equivalence node per
   connected sub-set of the block's relations, with one join operation node
   per connected binary partition (both input orders).  This yields exactly
   the duplicate-free expanded DAG that transformation-based generation with
   join associativity/commutativity plus the [PGLK97] optimization produces.
3. Equivalent sub-expressions from different queries (or different parts of
   one query) are **unified** through canonical equivalence keys, so the DAG
   of a batch of queries shares every common sub-expression.
4. **Subsumption derivations** are added (see :mod:`repro.dag.subsumption`).
5. Every operation node is priced with the cheapest applicable physical
   algorithm, and every equivalence node receives materialization and reuse
   costs, so that the multi-query optimization algorithms can work purely on
   the DAG.

Correlated nested queries (:class:`repro.algebra.nested.CorrelatedSubqueryFilter`)
are represented with a ``nested_apply`` operation whose invariant input has a
*use multiplier* equal to the estimated number of invocations, plus an
index-augmented variant of the invariant result so that temporary index
selection falls out of the ordinary materialization choice (Section 5).

**Memoized, hash-consed construction.**  Batches with heavy overlap (the
Section 6.2 scale-up chains, the weak-join rebuilds of the subsumption pass)
repeatedly re-derive the same equivalence nodes and re-cost the same join
operations; Section 6.4 of the paper reports exactly this DAG-expansion work
as the dominant MQO overhead.  The builder therefore keeps per-build memo
tables keyed on equivalence-node identity: join operations are costed once
per ``(result, left, right)`` triple, each sub-set's new partitions are
priced in one loop with :func:`~repro.cost.algorithms.choose_join`'s plain
floats and appended in one arena run
(:meth:`~repro.dag.arena.DagArena.append_join_operations`), each node's
join-pricing inputs (:class:`~repro.cost.algorithms.JoinInput`) are cached
per node, and —
the big one — a join equivalence node whose partition enumeration is
provably a pure function of its key (the
canonical-adjacency condition, :meth:`_BlockShape._canonical`) is skipped
entirely when a later block re-derives it.  Beneath the per-build memos,
each block's integer shape (leaf count, adjacency and predicate bitmasks)
is compiled once per *process* into a :class:`_BlockShape` plan: connected
sub-sets, applicable predicates, canonical flags, ordered partitions and the
indices of each partition's connecting predicates, so the expansion loop
does no connectivity sweeps or predicate set algebra for a shape it has
seen.  Every memo caches a value that recomputation would reproduce
bit-for-bit, so the builder produces byte-identical DAGs to its oracle,
``tests/oracles/builder.py``: a subclass that expands every block by set
algebra (brute-force connectivity, predicates applied by key difference),
re-enumerates every sub-set, prices every partition afresh and regroups the
whole DAG for the subsumption pass.  ``tests/test_differential.py``
enforces the identity on every seeded workload family and on randomized
query batches, and ``tests/test_block_shapes.py`` checks the compiled plan
against the oracle's brute-force definitions.

**Catalog-lifetime sessions.**  A builder can additionally be handed a
:class:`repro.service.session.SessionCache` (``session=...``), the cache
that outlives single builds: whole join-block expansions (*block logs*,
replayed in one pass), join groups' subsumption derivations and scan
choices (with the stored table's properties) are then consulted before the
per-build memos, making warm rebuilds of overlapping batches several times
cheaper.  Session entries hold content only: they are keyed on canonical
equivalence keys plus the *content* of the input properties objects
(:meth:`~repro.cost.estimation.LogicalProperties.content_key` — three byte
strings: the row bits, the interned schema's token, which fixes column order,
and the packed distinct bits, so float folds over equal-content inputs are
bit-identical; leaf entries additionally embed the relation's statistics
digest), so the builder tracks no relations per node; see
:mod:`repro.service.session` for invalidation.  Cold, warm,
post-invalidation and cross-process session builds are fingerprint-compared
against the oracle's session-free build (``tests/test_session_cache.py``).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.algebra.columns import ColumnRef
from repro.algebra.expressions import (
    Aggregate,
    AggregateFunction,
    Expression,
    Join,
    Project,
    Relation,
    Select,
)
from repro.algebra.nested import CorrelatedSubqueryFilter
from repro.algebra.predicates import Comparison, Predicate, and_, conjuncts_of
from repro.catalog.catalog import Catalog
from repro.cost import algorithms as alg
from repro.cost.estimation import Estimator, LogicalProperties, keep_columns
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.dag import block_logs
from repro.dag.nodes import (
    AggregateOp,
    Dag,
    EquivalenceNode,
    NestedApplyOp,
    NoOp,
    Operator,
    ProjectOp,
    ScanOp,
    SelectOp,
    join_operator,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.result_cache import ResultCache
    from repro.service.session import SessionCache


@dataclass(frozen=True)
class Query:
    """A named query to be optimized as part of a batch."""

    name: str
    expression: Expression


@dataclass(frozen=True)
class IndexBuildOp(Operator):
    """Derive an index-augmented copy of the child result (temporary index).

    Materializing the equivalence node that carries this operation corresponds
    to materializing the child's result *with* a temporary index on
    ``column`` — the reuse cost of the node is a single index probe instead of
    a full read, which is what makes it attractive for correlated nested-query
    invocations.
    """

    column: ColumnRef
    name: str = "build_index"

    def describe(self) -> str:
        return f"build_index({self.column})"


@dataclass
class _Leaf:
    """One input of a query block before canonicalization."""

    alias: str
    table: Optional[str]
    sub_expression: Optional[Expression]
    predicates: List[Predicate] = field(default_factory=list)


#: One connected sub-set in a :class:`_BlockShape` plan: ``(mask, member
#: indices, applicable predicate indices, canonical, partitions)``; each
#: partition is ``(left mask, right mask, connecting id)``, the id indexing
#: :attr:`_BlockShape.connecting`.
SubsetPlan = Tuple[int, Tuple[int, ...], Tuple[int, ...], bool, Tuple[Tuple[int, int, int], ...]]

ShapeKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class _BlockShape:
    """The compiled join-space enumeration of one block shape.

    A shape is the integer skeleton of a join block: ``n`` leaves, the
    adjacency bitmask of each leaf (artificial cross-product edges
    included) and each block predicate's bitmask of block leaves (0 for a
    predicate over outer aliases only).  Everything the expansion derives
    from it is computed once, at construction, into :attr:`plan`: for every
    connected sub-set of two or more leaves, smallest first (ties in
    numeric order), its member indices, the indices of the predicates it
    applies (mask non-zero and inside the sub-set), whether it is
    canonical (:meth:`_canonical`), and its ordered binary partitions
    (left, right), both sides connected, in the order of the descending
    submask loop.  Each partition carries the id of its connecting
    predicate indices: a predicate of the sub-set connects the two sides
    unless it lies inside a side that is itself a join (a join side has
    applied it already; a single-leaf side applies nothing).

    The plan holds only ints, so one instance serves every block of the
    same shape in every build of the process (:func:`_block_shape`); the
    paper's query families repeat a handful of shapes whatever their
    constants.
    """

    __slots__ = ("n", "adjacency", "pred_masks", "plan", "connecting", "partition_count")

    def __init__(self, n: int, adjacency: Tuple[int, ...], pred_masks: Tuple[int, ...]) -> None:
        self.n = n
        self.adjacency = adjacency
        self.pred_masks = pred_masks
        size = 1 << n
        connected = bytearray(size)
        for mask in range(1, size):
            connected[mask] = _connected(mask, adjacency)
        subsets = [m for m in range(3, size) if m & (m - 1) and connected[m]]
        subsets.sort(key=int.bit_count)
        connecting_ids: Dict[Tuple[int, ...], int] = {}
        plan: List[SubsetPlan] = []
        count = 0
        for mask in subsets:
            applicable = tuple(
                i for i, pmask in enumerate(pred_masks) if pmask and (pmask & mask) == pmask
            )
            in_mask = [(i, pred_masks[i]) for i in applicable]
            partitions = []
            submask = (mask - 1) & mask
            while submask:
                other = mask ^ submask
                if connected[submask] and connected[other]:
                    left_join = submask & (submask - 1)
                    right_join = other & (other - 1)
                    connecting = tuple(
                        i
                        for i, pmask in in_mask
                        if not (left_join and not pmask & other)
                        and not (right_join and not pmask & submask)
                    )
                    cid = connecting_ids.get(connecting)
                    if cid is None:
                        cid = connecting_ids[connecting] = len(connecting_ids)
                    partitions.append((submask, other, cid))
                submask = (submask - 1) & mask
            count += len(partitions)
            members = tuple(i for i in range(n) if mask >> i & 1)
            plan.append(
                (mask, members, applicable, self._canonical(mask, applicable), tuple(partitions))
            )
        #: One :data:`SubsetPlan` per connected sub-set, in enumeration order.
        self.plan: Tuple[SubsetPlan, ...] = tuple(plan)
        #: The distinct connecting predicate-index tuples, by connecting id.
        self.connecting: Tuple[Tuple[int, ...], ...] = tuple(connecting_ids)
        #: Total partitions in :attr:`plan`: the shape's size in the memo.
        self.partition_count = count

    def _canonical(self, mask: int, applicable: Tuple[int, ...]) -> bool:
        """True iff the partition enumeration of *mask* is a pure function of
        its equivalence key: the block adjacency restricted to *mask* must
        equal the adjacency induced by the predicates applicable within
        *mask* (which are part of the key).  Artificial cross-product edges
        and edges contributed by predicates spanning aliases outside *mask*
        break the equality — those sub-sets must be re-enumerated per block.
        """
        app = [0] * self.n
        for i in applicable:
            pmask = self.pred_masks[i]
            bits = pmask
            while bits:
                low = bits & -bits
                app[low.bit_length() - 1] |= pmask & ~low
                bits ^= low
        adjacency = self.adjacency
        bits = mask
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            if adjacency[i] & mask & ~low != app[i]:
                return False
        return True


def _connected(mask: int, adjacency: Tuple[int, ...]) -> bool:
    """Whether *mask* is connected in the join graph *adjacency*."""
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        reachable = 0
        bits = frontier
        while bits:
            low = bits & -bits
            reachable |= adjacency[low.bit_length() - 1]
            bits ^= low
        new = reachable & mask & ~seen
        if not new:
            break
        seen |= new
        frontier = new
    return seen == mask


#: Process-wide :class:`_BlockShape` memo.  A shape is a pure function of
#: its all-int key, so entries never go stale and need no invalidation;
#: builds in other threads that fill the same key compute equal plans, and a
#: build holds its own reference to the shape it expands, so clearing the
#: memo never disturbs one in flight.
_SHAPE_MEMO: Dict[ShapeKey, _BlockShape] = {}  # repro-lint: ok(M002) all-int pure values; bounded by _SHAPE_MEMO_PARTITIONS
#: Bound on the partitions stored across :data:`_SHAPE_MEMO` (about 65
#: bytes each, so a few MiB at most); the memo is cleared when an insertion would pass it, and a
#: shape larger than the whole bound is built per call and never stored.
_SHAPE_MEMO_PARTITIONS = 1 << 16
_shape_memo_partitions = 0
_shape_memo_lock = threading.Lock()


def _block_shape(key: ShapeKey) -> _BlockShape:
    """The :class:`_BlockShape` of *key*, through :data:`_SHAPE_MEMO`."""
    global _shape_memo_partitions
    shape = _SHAPE_MEMO.get(key)
    if shape is None:
        shape = _BlockShape(*key)
        size = shape.partition_count
        if size <= _SHAPE_MEMO_PARTITIONS:
            with _shape_memo_lock:
                if key not in _SHAPE_MEMO:
                    if _shape_memo_partitions + size > _SHAPE_MEMO_PARTITIONS:
                        _SHAPE_MEMO.clear()
                        _shape_memo_partitions = 0
                    _SHAPE_MEMO[key] = shape
                    _shape_memo_partitions += size
    return shape


def _clear_shape_memo() -> None:
    """Empty :data:`_SHAPE_MEMO` (tests start from a cold memo with it)."""
    global _shape_memo_partitions
    with _shape_memo_lock:
        _SHAPE_MEMO.clear()
        _shape_memo_partitions = 0


def _leaf_count(node: EquivalenceNode) -> int:
    """Number of block leaves under a join equivalence node (1 otherwise)."""
    key = node.key
    if isinstance(key, tuple) and key and key[0] == "join":
        return len(key[1])
    return 1


#: The subsumption pass's join-group key: the ``(table, alias)`` identities
#: of a join's scan leaves and its join predicates.
JoinGroup = Tuple[FrozenSet[Tuple[str, str]], FrozenSet[Predicate]]


def join_group(key: Hashable) -> Optional[JoinGroup]:
    """The :data:`JoinGroup` of join key *key*, or ``None`` when a leaf is
    not a scan (such joins take no part in join-level subsumption)."""
    identities = []
    for leaf in key[1]:  # type: ignore[index]
        if not (isinstance(leaf, tuple) and leaf and leaf[0] == "scan"):
            return None
        identities.append((leaf[1], leaf[2]))
    return frozenset(identities), key[2]  # type: ignore[index]


def _referenced_column_names(expressions: Iterable[Expression]) -> FrozenSet[str]:
    """Collect the names of every column referenced anywhere in the batch.

    The names are collected globally (TPC-D column names carry their table
    prefix, so there is no ambiguity); they drive the early-projection pruning
    of estimated intermediate-result widths.
    """
    names: Set[str] = set()
    # An explicit stack rather than a recursive closure: a nested function
    # that calls itself is a reference cycle left behind by every call.
    stack = list(expressions)
    while stack:
        expression = stack.pop()
        if isinstance(expression, (Select, Join)):
            names.update(column.column for column in expression.predicate.columns())
        elif isinstance(expression, Project):
            for column in expression.columns:
                names.add(column.column)
        elif isinstance(expression, Aggregate):
            for column in expression.group_by:
                names.add(column.column)
            for aggregate in expression.aggregates:
                names.add(aggregate.alias)
                if aggregate.column is not None:
                    names.add(aggregate.column.column)
        elif isinstance(expression, CorrelatedSubqueryFilter):
            for predicate in expression.correlation:
                names.update(column.column for column in predicate.columns())
            names.add(expression.outer_column.column)
            names.add(expression.aggregate.alias)
            if expression.aggregate.column is not None:
                names.add(expression.aggregate.column.column)
        stack.extend(expression.children())
    return frozenset(names)


#: Most relations one join block may hold: the join-space expansion
#: enumerates the connected subsets of a block, exponential in its size.
MAX_BLOCK_RELATIONS = 14


class DagBuilder:
    """Builds the combined AND-OR DAG for a batch of queries."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        session: Optional["SessionCache"] = None,
        result_cache: Optional["ResultCache"] = None,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model
        self.estimator = Estimator(catalog)
        #: Early projection: :meth:`build` sets the names of the columns the
        #: batch references, and the estimated properties drop every other
        #: column, so intermediate-result widths (and hence
        #: materialization/reuse costs) reflect what a real optimizer carrying
        #: pushed-down projections would see.
        self._referenced_columns: Optional[FrozenSet[str]] = None
        self.dag = Dag()
        # The memo tables below cache values that are pure functions of
        # equivalence-node identity within one build, so hits return exactly
        # what recomputation would.
        #: ``(result.id, left.id, right.id)`` triple -> id of the join
        #: operation already chosen and added for it (the triple determines
        #: the connecting predicates and hence the ``choose_join`` outcome).
        self._join_op_memo: Dict[Tuple[int, int, int], int] = {}  # repro-lint: ok(M001) keyed on this dag's node ids; dies with the builder, nothing to invalidate
        #: Ids of join equivalence nodes whose partition enumeration is a pure
        #: function of their key and has been performed once already.
        self._expanded_joins: Set[int] = set()  # repro-lint: ok(M001) keyed on this dag's node ids; dies with the builder, nothing to invalidate
        #: Per-node :class:`~repro.cost.algorithms.JoinInput` (rows, blocks,
        #: sort cost, delivered order), built once per node and shared by
        #: every join operation pricing that node as an input.
        self._join_input_memo: Dict[int, alg.JoinInput] = {}  # repro-lint: ok(M001) per-node pure derivation memo; dies with the builder
        #: Catalog-lifetime fragment cache (:mod:`repro.service.session`),
        #: consulted *before* the per-build memos above so warm rebuilds of
        #: overlapping batches skip scan costing and — via block logs —
        #: whole join-block expansions.  ``None`` keeps the builder per-build
        #: only.
        if session is not None:
            if session.catalog is not catalog:
                raise ValueError("session cache is bound to a different catalog")
            if session.cost_model is not cost_model:
                raise ValueError("session cache is bound to a different cost model")
        self._session = session
        #: Cross-batch executed-result store (:mod:`repro.execution.result_cache`).
        #: When attached, :meth:`build` injects cached intermediates as
        #: reuse-cost base derivations after the subsumption pass; ``None``
        #: (the default, and the only cache-off code path) builds exactly as
        #: before.  Bound to the same session so invalidation is unified.
        if result_cache is not None:
            if session is None:
                raise ValueError("a result cache requires a session cache")
            if result_cache.session is not session:
                raise ValueError("result cache is bound to a different session cache")
        self._result_cache = result_cache
        # Per-build session annotations, (re)initialized in :meth:`build`:
        # equivalence-node id -> interned canonical-key id / properties id,
        # interned-key id -> node id, join node id -> origin, and the
        # per-table prune-tag cache.  See :meth:`_register_id`.
        self._node_kid: Dict[int, int] = {}
        self._node_pid: Dict[int, int] = {}
        self._kid_node: Dict[int, int] = {}
        #: Join node id -> the member properties ids its properties were
        #: derived from, in block order (see :func:`block_logs.record`).
        self._node_origin: Dict[int, Tuple[int, ...]] = {}
        self._table_tag_cache: Dict[str, Tuple[FrozenSet[str], int]] = {}
        #: The nodes the subsumption pass groups, indexed as they are created
        #: (:mod:`repro.dag.subsumption`): scan nodes by ``(table, alias)``,
        #: select nodes by child key, and joins over scans only by
        #: :func:`join_group`, each list in id order.
        self._scan_index: Dict[Tuple[str, str], List[int]] = {}  # repro-lint: ok(M001) keyed on this dag's nodes; dies with the builder, nothing to invalidate
        self._select_index: Dict[Hashable, List[int]] = {}  # repro-lint: ok(M001) keyed on this dag's nodes; dies with the builder, nothing to invalidate
        self._join_index: Dict[JoinGroup, List[int]] = {}  # repro-lint: ok(M001) keyed on this dag's nodes; dies with the builder, nothing to invalidate

    # ------------------------------------------------------------------
    # Session-cache plumbing (no-ops unless a SessionCache is attached)
    # ------------------------------------------------------------------
    def _register_id(self, eq_id: int, kid: Optional[int] = None) -> None:
        """Annotate equivalence node *eq_id* with its session ids (key and
        properties).

        Every equivalence node except the pseudo-root passes through here
        exactly once, at creation; the annotations are what lets block logs
        key on stable canonical ids instead of per-build node ids.
        """
        session = self._session
        if eq_id in self._node_kid:
            return
        arena = self.dag.arena
        if kid is None:
            kid = session.key_id(arena.eq_key[eq_id])
        self._node_kid[eq_id] = kid
        self._node_pid[eq_id] = session.props_id(arena.eq_props[eq_id])
        self._kid_node.setdefault(kid, eq_id)

    def _leaf_tag(self, table: str) -> Tuple[FrozenSet[str], int]:
        """Prune tag and statistics-digest id of leaves over *table*.

        The tag — the batch-referenced subset of the table's column names —
        is what scan output properties depend on besides the scan key (early
        projection, :meth:`_prune_columns`), so it is part of the scan-cache
        key.  The digest id pins the statistics *content* the leaf entry was
        computed from, so a leaf key can never alias a pre-mutation
        snapshot.
        """
        cached = self._table_tag_cache.get(table)
        if cached is None:
            referenced = self._referenced_columns
            # A session builder runs only through :meth:`build`, which sets it.
            assert referenced is not None
            names = self.catalog.table(table).column_names()
            tag = frozenset(name for name in names if name in referenced)
            cached = (tag, self._session.table_digest_id(table))
            self._table_tag_cache[table] = cached
        return cached

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self, queries: Sequence[Query]) -> Dag:
        """Build and return the combined DAG of *queries*."""
        if not queries:
            raise ValueError("cannot build a DAG for an empty batch of queries")
        self._referenced_columns = _referenced_column_names(q.expression for q in queries)
        if self._session is not None:
            # One validation point per build: evict fragments invalidated by
            # catalog changes now, then trust every cache hit below.
            self._session.sync()
            self._session.stats.builds += 1
            self._node_kid = {}
            self._node_pid = {}
            self._kid_node = {}
            self._node_origin = {}
            self._table_tag_cache = {}
        roots: List[EquivalenceNode] = []
        for query in queries:
            roots.append(self.build_expression(query.expression))
        # Imported here to avoid a circular import at module load time.
        from repro.dag.subsumption import apply_subsumption

        apply_subsumption(self)
        if self._result_cache is not None:
            from repro.dag.subsumption import inject_cached_results

            inject_cached_results(self)
        pseudo_root = self.dag.equivalence(("pseudo-root",), LogicalProperties(1.0), "pseudo-root")
        self.dag.add_operation(pseudo_root, NoOp(), roots, 0.0)
        self.dag.set_root(pseudo_root, roots)
        self.dag.query_names = [q.name for q in queries]
        self._assign_materialization_costs()
        self.dag.assign_topological_numbers()
        return self.dag

    # ------------------------------------------------------------------
    # Expression dispatch
    # ------------------------------------------------------------------
    def build_expression(self, expression: Expression) -> EquivalenceNode:
        """Build (or reuse) the equivalence node for *expression*."""
        if isinstance(expression, Aggregate):
            child = self.build_expression(expression.child)
            return self._build_aggregate(expression, child)
        if isinstance(expression, Project):
            child = self.build_expression(expression.child)
            return self._build_project(expression, child)
        if isinstance(expression, CorrelatedSubqueryFilter):
            return self._build_correlated(expression)
        if isinstance(expression, (Relation, Select, Join)):
            return self._build_block(expression)
        raise TypeError(f"unsupported expression type: {type(expression).__name__}")

    # ------------------------------------------------------------------
    # Leaves and simple operators
    # ------------------------------------------------------------------
    def scan_equivalence_id(
        self, table: str, alias: str, predicates: Sequence[Predicate]
    ) -> int:
        """Id of the equivalence node scanning *table* with pushed-down
        *predicates*.

        Works in id space and builds no view: the arena holds views weakly,
        so a view made here and dropped by the caller would be rebuilt at
        every repeated lookup of the same scan.  With a session, one
        ``scans`` entry holds the stored table's properties and the scan's:
        a hit makes the stored node (when this build lacks it) and the scan
        node from it, in that order, as a miss does.
        """
        arena = self.dag.arena
        key = ("scan", table, alias, frozenset(predicates))
        existing = arena.by_key.get(key)
        if existing is not None:
            return existing
        session = self._session
        if session is not None:
            tag, digest_id = self._leaf_tag(table)
            kid = session.key_id(key)
            key = session.key_of(kid)
            # The predicate *order* is part of the cache key: ``and_`` folds
            # conjuncts (and the estimator folds selectivities) in call
            # order, and the entry must return exactly what this call would
            # compute.
            cache_key = (kid, tuple(predicates), tag, digest_id)
            entry = session.scans.get(cache_key)
            if entry is not None:
                session.stats.hits += 1
                stored_props, output, label, operator, total = entry
                stored_id = self.stored_table_id(table, alias, stored_props)
                node_id = arena.add_equivalence(
                    key, output, label, base_table=table, scan_alias=alias
                )
                self._index_scan(table, alias, node_id)
                self._register_id(node_id, kid)
                arena.add_operation(node_id, operator, (stored_id,), total)
                return node_id
            session.stats.misses += 1
        stored_id = self.stored_table_id(table, alias)
        predicate = and_(*predicates) if predicates else None
        stored_props = arena.eq_props[stored_id]
        output = self._prune_columns(self.estimator.apply_predicate(stored_props, predicate))
        label = f"scan({alias})" if predicate is None else f"σ[{predicate}]({alias})"
        node_id = arena.add_equivalence(key, output, label, base_table=table, scan_alias=alias)
        self._index_scan(table, alias, node_id)
        choice = alg.choose_scan(
            self.cost_model, self.catalog, table, predicate, stored_props, output
        )
        operator = ScanOp(table, alias, predicate, algorithm=choice.name)
        if session is not None:
            session.scans[cache_key] = (stored_props, output, label, operator, choice.total)
            self._register_id(node_id, kid)
        arena.add_operation(node_id, operator, (stored_id,), choice.total)
        return node_id

    def _index_scan(self, table: str, alias: str, node_id: int) -> None:
        """Add the new scan node *node_id* to the builder's scan index."""
        self._scan_index.setdefault((table, alias), []).append(node_id)

    def _index_join(self, key: Hashable, node_id: int) -> None:
        """Add the new join node *node_id* of *key* to the builder's join
        index (:func:`join_group`)."""
        group = join_group(key)
        if group is not None:
            self._join_index.setdefault(group, []).append(node_id)

    def _scan_groups(self) -> Dict[Tuple[str, str], List[int]]:
        """The subsumption pass's scan groups: scan node ids by ``(table,
        alias)``, each list in id order (the live index, which the pass's
        disjunction scans join)."""
        return self._scan_index

    def _select_groups(self) -> Dict[Hashable, List[int]]:
        """The subsumption pass's select groups: select node ids by child
        key, each list in id order."""
        return self._select_index

    def _join_groups(self) -> List[List[int]]:
        """The subsumption pass's join groups of more than one member, each
        in id order: copies, since the pass's weak joins join the index but
        not the groups of the pass."""
        return [members[:] for members in self._join_index.values() if len(members) > 1]

    def stored_table_id(
        self, table: str, alias: str, props: Optional[LogicalProperties] = None
    ) -> int:
        """Id of the cost-zero leaf equivalence node representing the stored
        table (id space, like :meth:`scan_equivalence_id`); a new node takes
        *props* when given (from a ``scans`` entry), else estimates them."""
        arena = self.dag.arena
        key = ("table", table, alias)
        existing = arena.by_key.get(key)
        if existing is not None:
            return existing
        if props is None:
            props = self.estimator.base_properties(table, alias)
        node_id = arena.add_equivalence(
            key, props, f"table({alias})", is_base=True, base_table=table, scan_alias=alias
        )
        if self._session is not None:
            self._register_id(node_id)
        return node_id

    def _prune_columns(self, props: LogicalProperties) -> LogicalProperties:
        """Keep only columns referenced somewhere in the batch (early projection).

        Scans still read the full-width base table (their cost uses the stored
        table's true width); only the *carried* width of results is reduced,
        which is what pushed-down projections achieve in a real optimizer.
        """
        if self._referenced_columns is None:
            return props
        return keep_columns(props, self._referenced_columns)

    def select_equivalence(
        self,
        child: EquivalenceNode,
        predicates: Sequence[Predicate],
        is_subsumption: bool = False,
    ) -> EquivalenceNode:
        """Equivalence node for a selection over an arbitrary child node."""
        predicate = and_(*predicates)
        key = ("select", child.key, frozenset(predicates))
        existing = self.dag.find(key)
        if existing is not None:
            return existing
        output = self.estimator.apply_predicate(child.properties, predicate)
        total = alg.filter_cost(self.cost_model, child.rows, output.rows).total
        node = self.dag.equivalence(key, output, f"σ[{predicate}]({child.label})")
        self._select_index.setdefault(child.key, []).append(node.id)
        if self._session is not None:
            self._register_id(node.id)
        self.dag.add_operation(
            node, SelectOp(predicate), [child], total, is_subsumption=is_subsumption
        )
        return node

    def _build_project(self, expression: Project, child: EquivalenceNode) -> EquivalenceNode:
        key = ("project", child.key, expression.columns)
        existing = self.dag.find(key)
        if existing is not None:
            return existing
        output = self.estimator.project(child.properties, expression.columns)
        total = alg.project_cost(self.cost_model, child.rows).total
        node = self.dag.equivalence(key, output, f"π({child.label})")
        if self._session is not None:
            self._register_id(node.id)
        self.dag.add_operation(node, ProjectOp(expression.columns), [child], total)
        return node

    def _build_aggregate(self, expression: Aggregate, child: EquivalenceNode) -> EquivalenceNode:
        return self.aggregate_equivalence(
            child, expression.group_by, expression.aggregates, expression.name
        )

    def aggregate_equivalence(
        self,
        child: EquivalenceNode,
        group_by: Tuple[ColumnRef, ...],
        aggregates: Tuple[AggregateFunction, ...],
        output_alias: str,
        is_subsumption: bool = False,
    ) -> EquivalenceNode:
        """Equivalence node for a group-by aggregation over *child*."""
        key = ("agg", child.key, tuple(group_by), tuple(aggregates), output_alias)
        existing = self.dag.find(key)
        if existing is not None:
            return existing
        output = self.estimator.aggregate(child.properties, group_by, aggregates, output_alias)
        total = alg.choose_aggregate(
            self.cost_model, child.properties, group_by, output.rows
        ).total
        group_desc = ", ".join(c.column for c in group_by) or "()"
        node = self.dag.equivalence(key, output, f"γ[{group_desc}]({child.label})")
        if self._session is not None:
            self._register_id(node.id)
        operator = AggregateOp(tuple(group_by), tuple(aggregates), output_alias)
        self.dag.add_operation(
            node, operator, [child], total, is_subsumption=is_subsumption
        )
        return node

    # ------------------------------------------------------------------
    # Correlated nested queries
    # ------------------------------------------------------------------
    def _build_correlated(self, expression: CorrelatedSubqueryFilter) -> EquivalenceNode:
        outer = self.build_expression(expression.outer)
        invariant = self.build_expression(expression.invariant)

        inner_columns = invariant.properties.schema.position
        inner_corr_cols = []
        outer_corr_cols = []
        for predicate in expression.correlation:
            # ``columns()`` is a frozenset; sorted because the collected lists
            # feed the ``invocations``/``matches_per_probe`` float folds below.
            for column in sorted(predicate.columns()):
                if column in inner_columns:
                    inner_corr_cols.append(column)
                else:
                    outer_corr_cols.append(column)

        invocations = 1.0
        for column in outer_corr_cols:
            invocations *= outer.properties.distinct(column)
        invocations = max(1.0, min(invocations, outer.rows))

        matches_per_probe = invariant.rows
        for column in inner_corr_cols:
            matches_per_probe /= max(1.0, invariant.properties.distinct(column))
        matches_per_probe = max(1.0, matches_per_probe)

        # The index-augmented variant of the invariant result: its reuse cost
        # is a single probe, so materializing it makes correlated invocations
        # cheap.  Temporary index selection is thereby an ordinary
        # materialization decision (Section 5 of the paper).
        index_column = inner_corr_cols[0] if inner_corr_cols else None
        apply_children: List[EquivalenceNode] = [outer]
        multipliers: List[float] = [1.0]
        if index_column is not None:
            indexed = self._indexed_equivalence(invariant, index_column, matches_per_probe)
            apply_children.append(indexed)
        else:
            apply_children.append(invariant)
        multipliers.append(invocations)

        output_rows = max(1.0, min(outer.rows, invocations))
        output = LogicalProperties(
            output_rows, outer.properties.schema, outer.properties.distincts
        )
        key = (
            "apply",
            outer.key,
            invariant.key,
            tuple(expression.correlation),
            expression.aggregate,
            expression.outer_column,
            expression.op,
        )
        existing = self.dag.find(key)
        if existing is not None:
            return existing
        node = self.dag.equivalence(key, output, f"apply({outer.label})")
        if self._session is not None:
            # Nested-apply costing is recomputed per build (the nested
            # workloads are small); registration keeps the node usable as a
            # join member.
            self._register_id(node.id)
        per_invocation_cpu = self.cost_model.cpu(0, matches_per_probe).total
        local_cost = invocations * per_invocation_cpu + self.cost_model.cpu(0, outer.rows).total
        operator = NestedApplyOp(
            tuple(expression.correlation),
            invocations,
            aggregate=expression.aggregate,
            outer_column=expression.outer_column,
            comparison=expression.op,
        )
        self.dag.add_operation(node, operator, apply_children, local_cost, multipliers)

        # Alternative derivation: plain correlated evaluation with the
        # correlation predicate pushed into the nested query (the baseline a
        # single-query optimizer would use).  The per-invocation cost touches
        # only the rows matching the correlation value, via base-table indices,
        # and nothing is shared across invocations.  The alternative exists
        # only for equality correlations: with inequality correlations (the
        # modified Q2 of Section 6.1) every invocation matches a large part of
        # the invariant and no cheap pushdown is possible, which is exactly
        # why the paper's Volcano estimate for that query explodes.
        equality_correlation = all(
            isinstance(p, Comparison) and p.op == "=" for p in expression.correlation
        )
        if equality_correlation and inner_corr_cols:
            pushdown_cost = self._correlated_pushdown_cost(invariant, matches_per_probe)
            pushdown_local = invocations * pushdown_cost + self.cost_model.cpu(0, outer.rows).total
            # The invariant stays a child (so executable plans can evaluate the
            # nested query) but with a zero use multiplier: its cost is already
            # folded into the per-invocation pushdown estimate.
            self.dag.add_operation(
                node,
                NestedApplyOp(
                    tuple(expression.correlation),
                    invocations,
                    name="correlated_apply",
                    aggregate=expression.aggregate,
                    outer_column=expression.outer_column,
                    comparison=expression.op,
                ),
                [outer, invariant],
                pushdown_local,
                child_multipliers=[1.0, 0.0],
            )
        return node

    def _correlated_pushdown_cost(
        self, invariant: EquivalenceNode, matches_per_probe: float
    ) -> float:
        """Estimated cost of one correlated invocation of the nested query.

        The correlation value restricts the invariant sub-expression to
        ``matches_per_probe`` rows, fetched through an index probe; each
        matching row then drives index lookups in the remaining relations of
        the nested query.
        """
        leaves = _leaf_count(invariant)
        probe = self.cost_model.index_probe_cost(matches_per_probe, invariant.tuple_width)
        per_row = self.cost_model.index_probe_cost(1.0, invariant.tuple_width)
        return probe.total + matches_per_probe * max(0, leaves - 1) * per_row.total

    def _indexed_equivalence(
        self, child: EquivalenceNode, column: ColumnRef, matches_per_probe: float
    ) -> EquivalenceNode:
        """An index-augmented copy of *child* (see :class:`IndexBuildOp`)."""
        key = ("indexed", child.key, column)
        existing = self.dag.find(key)
        if existing is not None:
            return existing
        node = self.dag.equivalence(key, child.properties, f"indexed[{column}]({child.label})")
        if self._session is not None:
            self._register_id(node.id)
        build_cost = self.cost_model.index_build_cost(child.rows, child.tuple_width)
        self.dag.add_operation(node, IndexBuildOp(column), [child], build_cost.total)
        node.reuse_cost = self.cost_model.index_probe_cost(
            matches_per_probe, child.tuple_width
        ).total
        node.created_by_subsumption = False
        return node

    # ------------------------------------------------------------------
    # Join blocks
    # ------------------------------------------------------------------
    def _build_block(self, expression: Expression) -> EquivalenceNode:
        leaves: List[_Leaf] = []
        join_predicates: List[Predicate] = []
        self._extract(expression, leaves, join_predicates)
        if len(leaves) > MAX_BLOCK_RELATIONS:
            raise ValueError(
                f"query block has {len(leaves)} relations; the join-space expansion "
                f"is limited to {MAX_BLOCK_RELATIONS}"
            )

        mapping = self._canonical_aliases(leaves)
        leaf_ids: Dict[str, int] = {}
        for leaf in leaves:
            canonical = mapping[leaf.alias]
            predicates = [p.rename(mapping) for p in leaf.predicates]
            if leaf.table is not None:
                leaf_ids[canonical] = self.scan_equivalence_id(leaf.table, canonical, predicates)
            else:
                node = self.build_expression(leaf.sub_expression)
                if predicates:
                    node = self.select_equivalence(node, predicates)
                leaf_ids[canonical] = node.id

        renamed_joins = [p.rename(mapping) for p in join_predicates]
        aliases = [mapping[leaf.alias] for leaf in leaves]
        if len(aliases) == 1:
            return self.dag.arena.eq_view(leaf_ids[aliases[0]])
        return self.dag.arena.eq_view(
            self._expand_join_space(aliases, leaf_ids, renamed_joins)
        )

    def _extract(
        self, expression: Expression, leaves: List[_Leaf], join_predicates: List[Predicate]
    ) -> None:
        """Flatten a select/join region into block leaves and join predicates."""
        if isinstance(expression, Relation):
            leaves.append(_Leaf(expression.name, expression.table, None))
            return
        if isinstance(expression, Join):
            self._extract(expression.left, leaves, join_predicates)
            self._extract(expression.right, leaves, join_predicates)
            self._distribute(expression.predicate, leaves, join_predicates)
            return
        if isinstance(expression, Select):
            self._extract(expression.child, leaves, join_predicates)
            self._distribute(expression.predicate, leaves, join_predicates)
            return
        alias = getattr(expression, "name", None) or f"subquery{len(leaves)}"
        leaves.append(_Leaf(alias, None, expression))

    @staticmethod
    def _distribute(
        predicate: Predicate, leaves: List[_Leaf], join_predicates: List[Predicate]
    ) -> None:
        by_alias = {leaf.alias: leaf for leaf in leaves}
        for conjunct in conjuncts_of(predicate):
            relations = conjunct.relations()
            if len(relations) == 1:
                alias = next(iter(relations))
                if alias in by_alias:
                    by_alias[alias].predicates.append(conjunct)
                    continue
            join_predicates.append(conjunct)

    @staticmethod
    def _canonical_aliases(leaves: Sequence[_Leaf]) -> Dict[str, str]:
        """Canonicalize aliases so identical sub-expressions unify across queries.

        A base table referenced once in the block is addressed by its table
        name; further occurrences get a ``#k`` suffix.  Opaque (non-base)
        leaves keep their own alias.
        """
        counts: Dict[str, int] = {}
        for leaf in leaves:
            if leaf.table is not None:
                counts[leaf.table] = counts.get(leaf.table, 0) + 1
        seen: Dict[str, int] = {}
        mapping: Dict[str, str] = {}
        for leaf in leaves:
            if leaf.table is None:
                mapping[leaf.alias] = leaf.alias
                continue
            occurrence = seen.get(leaf.table, 0)
            seen[leaf.table] = occurrence + 1
            if counts[leaf.table] == 1:
                mapping[leaf.alias] = leaf.table
            else:
                mapping[leaf.alias] = leaf.table if occurrence == 0 else f"{leaf.table}#{occurrence + 1}"
        return mapping

    def _expand_join_space(
        self,
        aliases: Sequence[str],
        leaf_ids: Dict[str, int],
        join_predicates: Sequence[Predicate],
    ) -> int:
        """Create one equivalence node per connected sub-set of the block and
        return the id of the full-block node: per node, or with a session
        through its block logs (:func:`repro.dag.block_logs.expand`)."""
        leaf_nodes = [leaf_ids[alias] for alias in aliases]
        if self._session is not None:
            return block_logs.expand(self, aliases, leaf_nodes, join_predicates)
        shape, nodes_by_mask = self._expand_per_node(aliases, leaf_nodes, join_predicates)
        return nodes_by_mask[(1 << shape.n) - 1]

    def _expand_per_node(
        self,
        order: Sequence[str],
        leaf_nodes: List[int],
        join_predicates: Sequence[Predicate],
    ) -> Tuple[_BlockShape, Dict[int, int]]:
        """Expand the block sub-set by sub-set; return its shape and the node
        id of every sub-set by member bitmask.

        Operates entirely in arena-id space (``leaf_nodes`` are the
        equivalence ids of the block leaves in alias order): the expansion
        enumerates thousands of sub-sets and partitions per block, so no
        façade views are materialized here.  Each sub-set is one pass: its
        partitions new to this build are priced in one loop and appended in
        one :meth:`~repro.dag.arena.DagArena.append_join_operations` run,
        with no per-partition method call or cost object.

        Hash-consing: when a sub-set's equivalence node was already fully
        enumerated by an earlier block (36 overlapping chain queries and the
        weak-join rebuilds of the subsumption pass hit this constantly), its
        partition enumeration is skipped outright instead of walking every
        partition only for the join-operation memo to skip it.  The skip is
        exact only when the enumeration is a pure function of the node's key, i.e.
        when the block adjacency restricted to the sub-set equals the
        adjacency induced by the sub-set's own applicable predicates — the
        artificial cross-product edges added below, and edges of predicates
        spanning aliases outside the sub-set, are block-dependent, so sub-sets
        relying on them are always re-enumerated (the join-operation memo
        keeps that correct, merely slower).
        """
        index_of = {alias: i for i, alias in enumerate(order)}
        n = len(order)
        alias_set = set(order)

        # Join graph (adjacency as bitmasks).  Predicates referencing aliases
        # outside the block (e.g. correlation columns) still connect the block
        # aliases they mention.
        adjacency = [0] * n
        pred_masks: List[Tuple[int, Predicate]] = []
        for predicate in join_predicates:
            members = [index_of[a] for a in predicate.relations() if a in alias_set]  # repro-lint: ok(D001) members feed commutative bitmask ORs only
            mask = 0
            for member in members:
                mask |= 1 << member
            pred_masks.append((mask, predicate))
            for a, b in itertools.combinations(members, 2):
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
        # Make the graph connected (cross products where unavoidable).
        component = self._components(n, adjacency)
        representatives = {}
        for i, comp in enumerate(component):
            representatives.setdefault(comp, i)
        reps = sorted(representatives.values())
        for a, b in zip(reps, reps[1:]):
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a

        # Connectivity, applicability, canonicality, partitions and their
        # connecting predicates all depend only on the adjacency and
        # predicate bitmasks: the compiled plan of this shape serves every
        # block with the same shape.
        session = self._session
        shape = _block_shape((n, tuple(adjacency), tuple(pmask for pmask, _ in pred_masks)))
        block_predicates = [predicate for _, predicate in pred_masks]

        arena = self.dag.arena
        eq_props = arena.eq_props
        by_key = arena.by_key
        op_owner = arena.op_owner
        append_join_operations = arena.append_join_operations
        leaf_keys = [arena.eq_key[node] for node in leaf_nodes]
        nodes_by_mask: Dict[int, int] = {1 << i: node for i, node in enumerate(leaf_nodes)}
        memo = self._join_op_memo
        join_inputs = self._join_input_memo
        join_input = self._join_input
        choose_join = alg.choose_join
        cost_model = self.cost_model
        catalog = self.catalog

        expanded = self._expanded_joins
        # Connecting predicates of this block by connecting id, filled on
        # first use.
        connecting_by_id: List[Optional[Tuple[Predicate, ...]]] = [None] * len(shape.connecting)
        # This block's join operators by (connecting id, algorithm name):
        # what :func:`join_operator` returns for them, without re-hashing
        # the predicates per partition.
        operator_of: Dict[Tuple[int, str], Operator] = {}
        # Per-block memo of the raw (pre-selectivity) property fold, keyed by
        # member bitmask — see :meth:`_raw_join_fold`.
        fold_memo: Dict[int, LogicalProperties] = {}
        for mask, members, applicable, canonical, partitions in shape.plan:
            predicates = frozenset(block_predicates[i] for i in applicable)
            key = ("join", frozenset([leaf_keys[i] for i in members]), predicates)
            node_id = by_key.get(key)
            if node_id is None:
                props = self._join_properties(mask, nodes_by_mask, predicates, fold_memo)
                labels = "⋈".join(order[i] for i in members)
                if session is None:
                    node_id = arena.add_equivalence(key, props, labels)
                else:
                    kid = session.key_id(key)
                    node_id = arena.add_equivalence(session.key_of(kid), props, labels)
                    self._register_id(node_id, kid)
                    # The member properties the node's properties were
                    # derived from, in block order (see :func:`block_logs.record`).
                    self._node_origin[node_id] = tuple(
                        [self._node_pid[leaf_nodes[i]] for i in members]
                    )
                self._index_join(arena.eq_key[node_id], node_id)
            elif canonical and node_id in expanded:
                # The node's full, key-determined operation set is already in
                # place (it was marked only after a canonical enumeration);
                # this block's enumeration would re-derive exactly that set.
                nodes_by_mask[mask] = node_id
                continue
            nodes_by_mask[mask] = node_id
            # Price the ordered binary partitions (left, right) new to this
            # build, then append them in one run.  The triple determines the
            # connecting predicates and the ``choose_join`` outcome, so a
            # repeat (the same partition re-derived by an overlapping query)
            # is skipped.  The memo stands in for the arena's
            # duplicate-signature probe (the operator is a function of the
            # triple), and takes each triple with the id the run will give
            # it, so a repeat inside the run is skipped too.
            output_rows = eq_props[node_id].rows
            first_op = len(op_owner)
            operators: List[Operator] = []
            children: List[Tuple[int, int]] = []
            costs: List[float] = []
            for submask, other, cid in partitions:
                left_id = nodes_by_mask[submask]
                right_id = nodes_by_mask[other]
                triple = (node_id, left_id, right_id)
                if triple in memo:
                    continue
                memo[triple] = first_op + len(costs)
                connecting = connecting_by_id[cid]
                if connecting is None:
                    connecting = self._connecting(shape.connecting[cid], block_predicates)
                    connecting_by_id[cid] = connecting
                name, io, cpu = choose_join(
                    cost_model,
                    catalog,
                    join_inputs.get(left_id) or join_input(left_id),
                    join_inputs.get(right_id) or join_input(right_id),
                    connecting,
                    output_rows,
                )
                operator = operator_of.get((cid, name))
                if operator is None:
                    operator = operator_of[cid, name] = join_operator(connecting, name)
                operators.append(operator)
                children.append((left_id, right_id))
                costs.append(io + cpu)
            if costs:
                append_join_operations(node_id, operators, children, costs)
            if canonical:
                expanded.add(node_id)
        return shape, nodes_by_mask

    @staticmethod
    def _components(n: int, adjacency: List[int]) -> List[int]:
        component = [-1] * n
        current = 0
        for start in range(n):
            if component[start] >= 0:
                continue
            stack = [start]
            component[start] = current
            while stack:
                node = stack.pop()
                bits = adjacency[node]
                while bits:
                    low = bits & -bits
                    neighbour = low.bit_length() - 1
                    bits ^= low
                    if component[neighbour] < 0:
                        component[neighbour] = current
                        stack.append(neighbour)
            current += 1
        return component

    def _raw_join_fold(
        self,
        mask: int,
        nodes_by_mask: Dict[int, int],
        fold_memo: Dict[int, LogicalProperties],
    ) -> LogicalProperties:
        """The pre-selectivity property fold over *mask*'s members.

        The historical fold is left-associated over the members in block-alias
        order, so ``fold(mask) = join(fold(mask without its highest member),
        props[highest member])`` — which lets one per-block memo share every
        fold prefix across the (heavily overlapping) sub-sets of the block
        while producing bit-identical estimates.  Prefix masks need not be
        connected sub-sets themselves; the recursion bottoms out at the
        single-alias leaves, which are always present in ``nodes_by_mask``.
        """
        cached = fold_memo.get(mask)
        if cached is not None:
            return cached
        if mask & (mask - 1) == 0:
            props = self.dag.arena.eq_props[nodes_by_mask[mask]]
        else:
            top = 1 << (mask.bit_length() - 1)
            props = self.estimator.join(
                self._raw_join_fold(mask ^ top, nodes_by_mask, fold_memo),
                self.dag.arena.eq_props[nodes_by_mask[top]],
                [],
            )
        fold_memo[mask] = props
        return props

    def _join_properties(
        self,
        mask: int,
        nodes_by_mask: Dict[int, int],
        predicates: FrozenSet[Predicate],
        fold_memo: Dict[int, LogicalProperties],
    ) -> LogicalProperties:
        """Estimate properties of a join sub-set directly from its leaves,
        so the estimate does not depend on which partition created the node."""
        props = self._raw_join_fold(mask, nodes_by_mask, fold_memo)
        if not predicates:
            return props.with_rows(props.rows * 1.0)
        selectivity = 1.0
        # Sorted: ``predicates`` is a frozenset, and float multiplication is
        # not associative — iterating in hash order made the row estimate
        # (and thus near-tie plan choices on the correlated Q2 workloads)
        # vary with PYTHONHASHSEED from run to run.
        for predicate in sorted(predicates, key=str):
            selectivity *= self.estimator.predicate_selectivity(predicate, props)
        return props.with_rows(props.rows * selectivity)

    def _connecting(
        self, indices: Tuple[int, ...], block_predicates: Sequence[Predicate]
    ) -> Tuple[Predicate, ...]:
        """The connecting predicates of a compiled partition: the block
        predicates at *indices*, de-duplicated by value and sorted by
        ``str``."""
        predicates = dict.fromkeys(block_predicates[i] for i in indices)
        # Sorting matters only past one element (the common case is 0 or 1).
        if len(predicates) > 1:
            return tuple(sorted(predicates, key=str))
        return tuple(predicates)

    def _join_input(self, eq_id: int) -> alg.JoinInput:
        """The join-pricing view of equivalence node *eq_id* (see
        :class:`~repro.cost.algorithms.JoinInput`), through the per-node
        memo (which the expansion loop probes inline first)."""
        join_input = self._join_input_memo.get(eq_id)
        if join_input is None:
            arena = self.dag.arena
            join_input = self._join_input_memo[eq_id] = alg.JoinInput(
                self.cost_model,
                self.catalog,
                arena.eq_props[eq_id],
                arena.eq_base_table[eq_id],
                arena.eq_scan_alias[eq_id],
            )
        return join_input

    # ------------------------------------------------------------------
    # Materialization costs
    # ------------------------------------------------------------------
    def _assign_materialization_costs(self) -> None:
        arena = self.dag.arena
        eq_props = arena.eq_props
        eq_mat_cost = arena.eq_mat_cost
        eq_reuse_cost = arena.eq_reuse_cost
        cost_model = self.cost_model
        for eq_id, is_base in enumerate(arena.eq_is_base):
            if is_base:
                continue
            props = eq_props[eq_id]
            rows = props.rows
            width = props.schema.tuple_width
            eq_mat_cost[eq_id] = cost_model.materialization_cost(rows, width).total
            if eq_reuse_cost[eq_id] == 0.0:
                eq_reuse_cost[eq_id] = cost_model.reuse_cost(rows, width).total
