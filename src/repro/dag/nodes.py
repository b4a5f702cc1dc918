"""Nodes and container for the AND-OR DAG.

The container (:class:`Dag`) is shared by every optimization algorithm in
:mod:`repro.optimizer`.  Equivalence nodes carry the estimated logical
properties of their result plus the materialization and reuse costs that the
multi-query algorithms trade off; operation nodes carry the local execution
cost of the operation (the chosen physical algorithm's cost) so that the
paper's additive cost recurrence

    cost(o) = exec(o) + Σ_i multiplier_i * C(e_i)
    cost(e) = min { cost(o) | o ∈ children(e) }        (0 for base tables)

can be evaluated by all algorithms without re-deriving physical details.

Per-child *use multipliers* generalize the recurrence for the nested-query
extension of Section 5: an input that is probed once per invocation of a
correlated sub-query has a multiplier equal to the estimated number of
invocations, which is exactly how the paper multiplies materialization
benefits for invariant sub-expressions.

**Storage.**  Since PR 8 the nodes themselves live in a struct-of-arrays
:class:`~repro.dag.arena.DagArena` owned by the :class:`Dag`:
:class:`EquivalenceNode` and :class:`OperationNode` (defined in
:mod:`repro.dag.arena`, re-exported here) are canonical two-slot *views*
over dense arena ids, so the public object API is unchanged while the
builder, subsumption pass, and cost engine operate on flat id-indexed
columns.  ``Dag.add_operation`` deduplicates repeated derivations with one
interned-signature dict probe instead of the historical per-node scan.
The arena holds its views weakly and the cost engine cached on a ``Dag``
holds the arena, not the ``Dag``, so a built DAG has no reference cycle and
is freed by reference counting (see :mod:`repro.dag.arena`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.optimizer.engine import CostEngine

from repro.algebra import columns as _values
from repro.algebra.columns import ColumnRef
from repro.algebra.expressions import AggregateFunction
from repro.algebra.predicates import Predicate
from repro.cost.estimation import LogicalProperties
from repro.dag.arena import DagArena, DagError, EquivalenceNode, OperationNode

__all__ = [
    "Operator",
    "TableOp",
    "ScanOp",
    "SelectOp",
    "ProjectOp",
    "JoinOp",
    "join_operator",
    "AggregateOp",
    "NestedApplyOp",
    "CachedReadOp",
    "NoOp",
    "OperationNode",
    "EquivalenceNode",
    "DagArena",
    "DagError",
    "Dag",
]


# ---------------------------------------------------------------------------
# Operator payloads
# ---------------------------------------------------------------------------

class Operator:
    """Base class of the logical operator carried by an operation node."""

    name: str = "operator"

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class TableOp(Operator):
    """The stored base table itself (leaf equivalence nodes carry no ops; this
    operator appears only in executable plans, never in the DAG)."""

    table: str
    name: str = "table"

    def describe(self) -> str:
        return f"table({self.table})"


@dataclass(frozen=True)
class ScanOp(Operator):
    """Scan of a base table with an optional pushed-down filter."""

    table: str
    alias: str
    predicate: Optional[Predicate] = None
    algorithm: str = "table_scan"
    name: str = "scan"

    def describe(self) -> str:
        if self.predicate is None:
            return f"scan({self.table})"
        return f"scan({self.table}, σ[{self.predicate}])"


@dataclass(frozen=True)
class SelectOp(Operator):
    """Selection over an intermediate result (including subsumption selects)."""

    predicate: Predicate
    name: str = "select"

    def describe(self) -> str:
        return f"σ[{self.predicate}]"


@dataclass(frozen=True)
class ProjectOp(Operator):
    """Projection onto a set of columns."""

    columns: Tuple[ColumnRef, ...]
    name: str = "project"

    def describe(self) -> str:
        return "π[" + ", ".join(str(c) for c in self.columns) + "]"


@dataclass(frozen=True)
class JoinOp(Operator):
    """Inner join of the two child equivalence nodes.

    The builder makes them through :func:`join_operator`, one object per
    connecting predicates and algorithm.
    """

    predicates: Tuple[Predicate, ...]
    algorithm: str = "block_nested_loops_join"
    name: str = "join"

    def describe(self) -> str:
        preds = " AND ".join(str(p) for p in self.predicates) or "TRUE"
        return f"⋈[{preds}]/{self.algorithm}"


#: ``(predicates, algorithm)`` -> the interned :class:`JoinOp`.  Looked up by
#: value and kept only when the entry holds the very predicate objects asked
#: for, as for :class:`~repro.algebra.predicates.Comparison`.
_JOIN_OPS: Dict[Tuple[Tuple[Predicate, ...], str], JoinOp] = {}  # repro-lint: ok(M002) immutable operators keyed by their own content, checked for predicate identity; cleared past INTERN_LIMIT


def join_operator(predicates: Tuple[Predicate, ...], algorithm: str) -> JoinOp:
    """The one :class:`JoinOp` of *predicates* (these objects) and
    *algorithm*: the join operations of every build, block log and session
    share it."""
    key = (predicates, algorithm)
    operator = _JOIN_OPS.get(key)
    if operator is None or not all(map(is_, operator.predicates, predicates)):
        operator = JoinOp(predicates, algorithm)
        with _values.intern_lock:
            if len(_JOIN_OPS) >= _values.INTERN_LIMIT:
                _JOIN_OPS.clear()
            _JOIN_OPS.pop(key, None)
            _JOIN_OPS[key] = operator
    return operator


@dataclass(frozen=True)
class AggregateOp(Operator):
    """Group-by aggregation of the child equivalence node."""

    group_by: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggregateFunction, ...]
    output_alias: str = "agg"
    name: str = "aggregate"

    def describe(self) -> str:
        group = ", ".join(str(c) for c in self.group_by) or "()"
        return f"γ[{group}]"


@dataclass(frozen=True)
class NestedApplyOp(Operator):
    """Correlated invocation of a nested sub-query.

    The operator joins the outer input (first child) with the result of the
    correlated sub-query; the invariant part of the sub-query is the second
    child, which is probed once per distinct outer binding (its use
    multiplier).  This is the DAG form of the nested-query extension in
    Section 5 of the paper.  ``aggregate``, ``outer_column`` and ``comparison``
    describe the scalar-subquery filter semantics for the executor.
    """

    correlation: Tuple[Predicate, ...]
    invocations: float
    name: str = "nested_apply"
    aggregate: Optional[AggregateFunction] = None
    outer_column: Optional[ColumnRef] = None
    comparison: str = "="

    def describe(self) -> str:
        return f"apply[{self.invocations:.0f} invocations]"


@dataclass(frozen=True)
class CachedReadOp(Operator):
    """Read a previously executed intermediate from the cross-batch result
    cache (:mod:`repro.execution.result_cache`).

    Injected at build time over scan equivalence nodes whose predicates are
    matched exactly — or *covered* — by a cached entry; ``residual`` is the
    compensating selection of a covering hit (``None`` for an exact hit).
    ``digest`` content-addresses the cached entry; ``columns`` and ``rows``
    pin the served data in the operator itself (the entry's column schema
    and its rows, tuples of atoms in schema order), so a plan, once built,
    executes the same bytes even if the store entry is evicted or corrupted
    afterwards.  The pinned data is shared with the entry, not copied, and
    is excluded from equality/hashing/repr — the digest plus residual
    already identify the content.
    """

    digest: str
    table: str
    alias: str
    blocks: int
    row_count: int
    residual: Optional[Predicate] = None
    columns: Tuple[ColumnRef, ...] = field(default=(), compare=False, repr=False)
    rows: Tuple[Tuple[object, ...], ...] = field(
        default=(), compare=False, repr=False
    )
    name: str = "cached-read"

    def describe(self) -> str:
        if self.residual is None:
            return f"cached[{self.digest[:12]}]"
        return f"σ[{self.residual}](cached[{self.digest[:12]}])"


@dataclass(frozen=True)
class NoOp(Operator):
    """The pseudo operation at the root of the combined multi-query DAG."""

    name: str = "no-op"

    def describe(self) -> str:
        return "no-op"


# ---------------------------------------------------------------------------
# DAG container
# ---------------------------------------------------------------------------

class Dag:
    """The AND-OR DAG of a batch of queries.

    The DAG is rooted at a pseudo equivalence node (``root``) whose single
    no-op operation has the root equivalence node of every query as an input
    (Section 2.1 of the paper).

    All node storage lives in ``self.arena`` (see :class:`DagArena`); the
    methods below are the object-level façade.  Hot construction paths (the
    builder's join-space expansion, the subsumption pass) bypass the façade
    and call :meth:`add_operation_id` / the arena directly with dense ids.
    """

    if TYPE_CHECKING:
        # Type-only declaration of the dense cost-engine snapshot installed
        # lazily by :func:`repro.optimizer.engine.get_engine`.
        _cost_engine: Tuple[Tuple[int, int], "CostEngine"]

    def __init__(self) -> None:
        self.arena = DagArena()
        self.root: Optional[EquivalenceNode] = None
        self.query_roots: List[EquivalenceNode] = []
        self.query_names: List[str] = []

    # -- construction -----------------------------------------------------------
    def equivalence(
        self,
        key: Hashable,
        properties: LogicalProperties,
        label: str = "",
        is_base: bool = False,
        base_table: Optional[str] = None,
        scan_alias: Optional[str] = None,
    ) -> EquivalenceNode:
        """Return the equivalence node for *key*, creating it if necessary.

        Key-based lookup is the unification mechanism: two queries (or two
        parts of one query) that produce the same canonical key share a single
        equivalence node.
        """
        arena = self.arena
        existing = arena.by_key.get(key)
        if existing is not None:
            return arena.eq_view(existing)
        return arena.eq_view(
            arena.add_equivalence(
                key,
                properties,
                label,
                is_base=is_base,
                base_table=base_table,
                scan_alias=scan_alias,
            )
        )

    def find(self, key: Hashable) -> Optional[EquivalenceNode]:
        """Return the equivalence node for *key* if it exists."""
        eq_id = self.arena.by_key.get(key)
        return None if eq_id is None else self.arena.eq_view(eq_id)

    def find_id(self, key: Hashable) -> Optional[int]:
        """Return the equivalence node *id* for *key* if it exists."""
        return self.arena.by_key.get(key)

    def add_operation(
        self,
        equivalence: EquivalenceNode,
        operator: Operator,
        children: Sequence[EquivalenceNode],
        local_cost: float,
        child_multipliers: Optional[Sequence[float]] = None,
        is_subsumption: bool = False,
    ) -> OperationNode:
        """Add an operation node under *equivalence*, deduplicating repeats.

        Duplicate derivations (same operator, same children) can arise when
        different queries contribute the same sub-expression; they are
        detected against the arena's interned signature table and returned
        instead of re-added, mirroring the hashing-based duplicate detection
        of the Volcano DAG generator.
        """
        op_id = self.arena.add_operation(
            equivalence.id,
            operator,
            tuple(child.id for child in children),
            local_cost,
            tuple(child_multipliers) if child_multipliers is not None else None,
            is_subsumption,
        )
        return self.arena.op_view(op_id)

    def add_operation_id(
        self,
        eq_id: int,
        operator: Operator,
        child_ids: Tuple[int, ...],
        local_cost: float,
        child_multipliers: Optional[Tuple[float, ...]] = None,
        is_subsumption: bool = False,
    ) -> int:
        """:meth:`add_operation` in id space (the hot-path form)."""
        return self.arena.add_operation(
            eq_id, operator, child_ids, local_cost, child_multipliers, is_subsumption
        )

    def set_root(self, root: EquivalenceNode, query_roots: Sequence[EquivalenceNode]) -> None:
        self.root = root
        self.query_roots = list(query_roots)

    # -- access ---------------------------------------------------------------
    def equivalence_nodes(self) -> Tuple[EquivalenceNode, ...]:
        arena = self.arena
        return tuple(arena.eq_view(eq_id) for eq_id in range(arena.num_equivalences))

    def node_by_id(self, node_id: int) -> EquivalenceNode:
        """The equivalence node with the given id (ids are dense ``0..n-1``)."""
        if 0 <= node_id < self.arena.num_equivalences:
            return self.arena.eq_view(node_id)
        raise DagError(f"unknown equivalence node id {node_id}")

    def operation_nodes(self) -> Tuple[OperationNode, ...]:
        arena = self.arena
        return tuple(arena.op_view(op_id) for op_id in range(arena.num_operations))

    def __len__(self) -> int:
        return self.arena.num_equivalences

    @property
    def num_equivalence_nodes(self) -> int:
        return self.arena.num_equivalences

    @property
    def num_operation_nodes(self) -> int:
        return self.arena.num_operations

    # -- structure maintenance ------------------------------------------------
    def assign_topological_numbers(self) -> None:
        """Number equivalence nodes so every descendant precedes its ancestors.

        The greedy algorithm's incremental cost update (Figure 5 of the paper)
        propagates cost changes in this order using a heap keyed on the
        topological number.
        """
        if self.root is None:
            raise DagError("cannot topologically number a DAG without a root")
        self.arena.assign_topological_numbers(self.root.id)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`DagError` on violation."""
        if self.root is None:
            raise DagError("DAG has no root")
        self.assign_topological_numbers()
        arena = self.arena
        eq_topo = arena.eq_topo
        for op_id in range(arena.num_operations):
            owner_topo = eq_topo[arena.op_owner[op_id]]
            child_ids = arena.op_children[op_id]
            for child_id in child_ids:
                if eq_topo[child_id] >= owner_topo:
                    raise DagError(
                        "topological order violated between "
                        f"{arena.eq_view(arena.op_owner[op_id])!r} and child "
                        f"{arena.eq_view(child_id)!r}"
                    )
            if len(arena.op_multipliers[op_id]) != len(child_ids):
                raise DagError(
                    f"multiplier arity mismatch on {arena.op_view(op_id)!r}"
                )
        for eq_id in range(arena.num_equivalences):
            if not arena.eq_op_ids[eq_id] and not arena.eq_is_base[eq_id]:
                raise DagError(
                    f"non-base equivalence node {arena.eq_view(eq_id)!r} has no operations"
                )

    # -- pickling --------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Drop the lazily attached cost-engine snapshot; it is a derived
        structure rebuilt on demand by :func:`repro.optimizer.engine.get_engine`."""
        state = self.__dict__.copy()
        state.pop("_cost_engine", None)
        return state
