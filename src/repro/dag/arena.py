"""Struct-of-arrays arena storage for the AND-OR DAG.

The object-graph DAG — ``EquivalenceNode``/``OperationNode`` instances wired
by Python references — was the right representation to *explain* the paper,
but by PR 7 it had become the cold-build floor: per-node object construction,
attribute wiring, and ``Dag.add_operation``'s linear duplicate-signature scan
dominated CQ5 builds while the optimize phase ran on :class:`CostEngine`'s
flat arrays.  This module moves the storage itself to the same dense
id-indexed layout for the whole lifecycle:

* :class:`DagArena` owns flat parallel columns — one list per field, indexed
  by dense equivalence id (``eq_*``) or operation id (``op_*``) — plus the
  interned dedup tables (``by_key`` for equivalence unification,
  ``op_signatures`` for duplicate derivations).  ``add_operation`` is a dict
  probe on ``(owner, operator, child_ids)`` instead of an object scan.
* :class:`EquivalenceNode` / :class:`OperationNode` are thin *views*: two
  slots (arena reference + id), every historical attribute a property that
  reads the corresponding column.  Views are lazily materialized and
  canonical while referenced — ``arena.eq_view(i)`` returns the same object
  for the same id while any reference to that object lives; the arena holds
  views weakly — so identity comparisons (``node is dag.root``,
  ``arena.op_view(op.id) is op``) behave exactly as they did with owned
  objects.  Code that never asks for a view never pays for one: the builder,
  subsumption expansion, :class:`repro.optimizer.engine.CostEngine` and the
  four searches read the columns by id, and a search builds an
  :class:`OperationNode` view only for each operation its plan chooses.
* The object graph is acyclic, so reference counting frees a batch's DAG
  the moment its last user reference goes.  A view holds its arena
  strongly; the arena holds its views only through ``weakref.ref``.  The
  ownership chain is ``Dag -> CostEngine -> arena -> (weak) views``: the
  engine holds the arena, never the ``Dag``, and no view.  A view therefore
  keeps its arena alive and still navigates after its ``Dag`` is gone
  (cached plans rely on this).
* Pickling an arena serializes only the primary columns; the derived tables
  (adjacency, signature interns, cost-kernel entries, views) are rebuilt in
  :meth:`DagArena.__setstate__`.  That is what makes
  ``OptimizerSession.snapshot_state`` fan-out cheap: a snapshot is a handful
  of flat lists, not a pointer graph with per-object ``__reduce__`` records.

The per-operation ``op_spec`` column — the one cost-kernel entry per
operation — is written when the operation is appended (in bulk for the join
runs of :meth:`DagArena.append_join_operations`), in exactly the shape
:class:`CostEngine` consumes, so engine construction only groups existing
tuples per node.  Code that needs an operation's children or multipliers
rather than its kernel entry reads
``op_children``/``op_multipliers``/``op_local_cost``.
:meth:`DagArena.assign_topological_numbers` records what it numbered (root
id, node count, operation count) in ``numbered``, so the engine renumbers a
DAG only when one of them changed since the builder numbered it.

Determinism: ids are allocated in append order by construction calls that
are themselves deterministic (the builder sorts every hash-ordered source
before touching the arena), columns are lists, and the dedup dicts are only
ever *probed* — no iteration order leaks into ids, costs, or fingerprints.
"""

from __future__ import annotations

import weakref
from itertools import repeat
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
    from repro.cost.estimation import LogicalProperties
    from repro.dag.nodes import Operator

#: The child multipliers of a two-input operation used once per child.
_UNIT_PAIR = (1.0, 1.0)

#: Interned duplicate-derivation key: ``(owner_eq_id, operator, child_ids)``.
OpSignature = Tuple[int, "Operator", Tuple[int, ...]]


class DagError(RuntimeError):
    """Raised on structural errors while building or validating the DAG."""


def _op_spec(
    local_cost: float, child_ids: Tuple[int, ...], multipliers: Tuple[float, ...]
) -> Tuple[Any, ...]:
    """Arity-specialized kernel entry (see ``CostEngine.op_specs``).

    ``len`` tells the four shapes apart:

    * 3, ``(left, right, local)``: two children whose multipliers are both
      ``1.0`` (every join), priced ``local + e[left] + e[right]``;
    * 4, ``(c1, m1, local, None)``: one child;
    * 5, ``(c1, m1, c2, m2, local)``: two children with any other
      multipliers (nested-query invocations);
    * 2, ``(((child_id, multiplier), ...), local)``: no child, or three and
      more (the pseudo-root's ``NoOp``).

    The unit pair's price is bit-identical to ``local + 1.0 * e[left] +
    1.0 * e[right]``, because ``1.0 * x == x`` in IEEE arithmetic.  The
    left-associated accumulation the kernels perform over these tuples is
    contractual.
    """
    if len(child_ids) == 2:
        if multipliers[0] == multipliers[1] == 1.0:
            return (child_ids[0], child_ids[1], local_cost)
        return (child_ids[0], multipliers[0], child_ids[1], multipliers[1], local_cost)
    if len(child_ids) == 1:
        return (child_ids[0], multipliers[0], local_cost, None)
    return (tuple(zip(child_ids, multipliers)), local_cost)


class DagArena:
    """Dense struct-of-arrays storage for one AND-OR DAG.

    Every ``eq_*`` column is indexed by equivalence-node id, every ``op_*``
    column by operation-node id; ids are dense ``0..n-1`` in creation order.
    The arena is owned by :class:`repro.dag.nodes.Dag`; almost all callers go
    through the ``Dag`` façade, while hot paths (builder, subsumption,
    engine) read and append columns directly.
    """

    __slots__ = (
        # -- equivalence columns ------------------------------------------
        "eq_key",
        "eq_label",
        "eq_props",
        "eq_mat_cost",
        "eq_reuse_cost",
        "eq_topo",
        "eq_is_base",
        "eq_base_table",
        "eq_scan_alias",
        "eq_created_by_subsumption",
        "eq_op_ids",
        "eq_parent_ops",
        # -- operation columns --------------------------------------------
        "op_operator",
        "op_children",
        "op_multipliers",
        "op_owner",
        "op_local_cost",
        "op_is_subsumption",
        "op_spec",
        # -- interned dedup tables ----------------------------------------
        "by_key",
        "op_signatures",
        # -- what the last topological numbering covered --------------------
        "numbered",
        # -- lazy canonical views -----------------------------------------
        "_eq_views",
        "_op_views",
    )

    def __init__(self) -> None:
        self.eq_key: List[Hashable] = []
        self.eq_label: List[str] = []
        self.eq_props: List["LogicalProperties"] = []
        self.eq_mat_cost: List[float] = []
        self.eq_reuse_cost: List[float] = []
        self.eq_topo: List[int] = []
        self.eq_is_base: List[bool] = []
        self.eq_base_table: List[Optional[str]] = []
        self.eq_scan_alias: List[Optional[str]] = []
        self.eq_created_by_subsumption: List[bool] = []
        #: Per equivalence node: its operation ids, in insertion order.
        self.eq_op_ids: List[List[int]] = []
        #: Per equivalence node: parent operation ids, one per child-slot
        #: occurrence (an operation using a child twice appears twice) —
        #: mirrors the historical ``EquivalenceNode.parents`` list.
        self.eq_parent_ops: List[List[int]] = []

        self.op_operator: List["Operator"] = []
        self.op_children: List[Tuple[int, ...]] = []
        self.op_multipliers: List[Tuple[float, ...]] = []
        self.op_owner: List[int] = []
        self.op_local_cost: List[float] = []
        self.op_is_subsumption: List[bool] = []
        #: Per operation: the arity-specialized cost-kernel entry, written
        #: at append (``CostEngine.op_specs`` rows are per-node groupings of
        #: these).
        self.op_spec: List[Tuple[Any, ...]] = []

        # Interned lookup tables; rebuilt from the primary columns on
        # unpickle (see __setstate__, their declared invalidation registry).
        self.by_key: Dict[Hashable, int] = {}
        self.op_signatures: Dict[OpSignature, int] = {}
        #: ``(root_id, num_equivalences, num_operations)`` of the last
        #: :meth:`assign_topological_numbers` call; ``None`` before it.
        self.numbered: Optional[Tuple[int, int, int]] = None

        # Weak, so that views (which hold the arena) form no cycle with it.
        self._eq_views: List[Optional["weakref.ref[EquivalenceNode]"]] = []
        self._op_views: List[Optional["weakref.ref[OperationNode]"]] = []

    # -- sizes --------------------------------------------------------------
    @property
    def num_equivalences(self) -> int:
        return len(self.eq_key)

    @property
    def num_operations(self) -> int:
        return len(self.op_owner)

    # -- construction --------------------------------------------------------
    def add_equivalence(
        self,
        key: Hashable,
        properties: "LogicalProperties",
        label: str = "",
        is_base: bool = False,
        base_table: Optional[str] = None,
        scan_alias: Optional[str] = None,
    ) -> int:
        """Append a new equivalence node and return its dense id.

        Key unification is the *caller's* job (``Dag.equivalence`` probes
        ``by_key`` first); this method always appends.
        """
        eq_id = len(self.eq_key)
        self.eq_key.append(key)
        self.eq_label.append(label or str(key))
        self.eq_props.append(properties)
        self.eq_mat_cost.append(0.0)
        self.eq_reuse_cost.append(0.0)
        self.eq_topo.append(-1)
        self.eq_is_base.append(is_base)
        self.eq_base_table.append(base_table)
        self.eq_scan_alias.append(scan_alias)
        self.eq_created_by_subsumption.append(False)
        self.eq_op_ids.append([])
        self.eq_parent_ops.append([])
        self.by_key[key] = eq_id
        self._eq_views.append(None)
        return eq_id

    def add_operation(
        self,
        eq_id: int,
        operator: "Operator",
        child_ids: Tuple[int, ...],
        local_cost: float,
        multipliers: Optional[Tuple[float, ...]] = None,
        is_subsumption: bool = False,
    ) -> int:
        """Append (or dedup) an operation under *eq_id*; return its dense id.

        Duplicate derivations — same owner, operator, and children — are
        detected with one interned-signature dict probe, replacing the
        historical linear scan of the owner's operations.  The probe's
        semantics are those of the scan: operator payloads are frozen
        dataclasses comparing by value, so an equal-valued operator from a
        different query hits the same entry, while identity-hashed operators
        (the test generator's) never collide.
        """
        signature = (eq_id, operator, child_ids)
        existing = self.op_signatures.get(signature)
        if existing is not None:
            return existing
        op_id = self.append_operation(
            eq_id, operator, child_ids, local_cost, multipliers, is_subsumption
        )
        self.op_signatures[signature] = op_id
        return op_id

    def append_operation(
        self,
        eq_id: int,
        operator: "Operator",
        child_ids: Tuple[int, ...],
        local_cost: float,
        multipliers: Optional[Tuple[float, ...]] = None,
        is_subsumption: bool = False,
    ) -> int:
        """:meth:`add_operation` without the duplicate-signature probe.

        For callers that already guarantee uniqueness of
        ``(eq_id, operator, child_ids)`` through their own memo — the
        builder's join paths hold a ``(owner, left, right)`` triple memo, and
        for join operations the triple *is* the signature (the operator is a
        deterministic function of it).  Skipping the probe avoids re-hashing
        deep operator payloads; the signature is deliberately not registered
        either, which is safe because no later ``add_operation`` call can
        present it (the memo swallows repeats first).
        """
        if not multipliers:
            multipliers = (1.0,) * len(child_ids)
        cost = float(local_cost)
        op_id = len(self.op_owner)
        self.op_operator.append(operator)
        self.op_children.append(child_ids)
        self.op_multipliers.append(multipliers)
        self.op_owner.append(eq_id)
        self.op_local_cost.append(cost)
        self.op_is_subsumption.append(is_subsumption)
        self.op_spec.append(_op_spec(cost, child_ids, multipliers))
        self.eq_op_ids[eq_id].append(op_id)
        eq_parent_ops = self.eq_parent_ops
        for child_id in child_ids:
            eq_parent_ops[child_id].append(op_id)
        self._op_views.append(None)
        return op_id

    def append_join_operations(
        self,
        eq_id: int,
        operators: Sequence["Operator"],
        children: Sequence[Tuple[int, int]],
        costs: Sequence[float],
    ) -> range:
        """:meth:`append_operation` for a run of two-input operations under
        *eq_id*, column by column; returns their ids.

        For the builder, which prices a whole sub-set of a join block (or
        replays it from a block log) with float costs and triples known to
        be new, and appends it at once.  Every operation shares one unit
        multiplier pair, so its kernel entry is the unit pair ``(left, right,
        cost)``.
        """
        start = len(self.op_owner)
        count = len(operators)
        self.op_operator.extend(operators)
        self.op_children.extend(children)
        self.op_multipliers.extend(repeat(_UNIT_PAIR, count))
        self.op_owner.extend(repeat(eq_id, count))
        self.op_local_cost.extend(costs)
        self.op_is_subsumption.extend(repeat(False, count))
        self.op_spec.extend(
            [(left, right, cost) for (left, right), cost in zip(children, costs)]
        )
        op_ids = range(start, start + count)
        self.eq_op_ids[eq_id].extend(op_ids)
        eq_parent_ops = self.eq_parent_ops
        for op_id, (left, right) in zip(op_ids, children):
            eq_parent_ops[left].append(op_id)
            eq_parent_ops[right].append(op_id)
        self._op_views.extend(repeat(None, count))
        return op_ids

    # -- canonical views -----------------------------------------------------
    def eq_view(self, eq_id: int) -> "EquivalenceNode":
        """The canonical :class:`EquivalenceNode` view for *eq_id*.

        Lazily materialized and held weakly: the same object while any
        reference to it lives, so identity comparisons over live views are
        stable.  A view nobody holds is freed and rebuilt on the next call,
        so hot paths work on ids and ask for a view only for a result they
        return.
        """
        ref = self._eq_views[eq_id]
        view = None if ref is None else ref()
        if view is None:
            view = EquivalenceNode(self, eq_id)
            self._eq_views[eq_id] = weakref.ref(view)
        return view

    def op_view(self, op_id: int) -> "OperationNode":
        """The canonical :class:`OperationNode` view for *op_id* (held
        weakly, like :meth:`eq_view`)."""
        ref = self._op_views[op_id]
        view = None if ref is None else ref()
        if view is None:
            view = OperationNode(self, op_id)
            self._op_views[op_id] = weakref.ref(view)
        return view

    # -- structure maintenance ------------------------------------------------
    def assign_topological_numbers(self, root_id: int) -> None:
        """Number equivalence nodes so every descendant precedes its ancestors.

        Exact array twin of the historical object-graph DFS: iterative
        post-order from the root with the same child push order (operations
        in insertion order, children left to right), cycle detection on the
        DFS path, and unreachable nodes numbered after the reachable ones —
        but *only* those still unnumbered, matching the old
        ``topo_number < 0`` guard — so numbering output is byte-identical.
        Numbering an unchanged DAG again is therefore a no-op; ``numbered``
        records the root id and sizes this call covered, so callers can
        skip it.
        """
        num_nodes = len(self.eq_key)
        eq_topo = self.eq_topo
        eq_op_ids = self.eq_op_ids
        op_children = self.op_children
        visited = bytearray(num_nodes)
        on_path = bytearray(num_nodes)
        counter = 0
        # Iterative post-order DFS to avoid recursion limits on deep DAGs.
        stack: List[Tuple[int, bool]] = [(root_id, False)]
        while stack:
            node_id, processed = stack.pop()
            if processed:
                on_path[node_id] = 0
                if not visited[node_id]:
                    visited[node_id] = 1
                    eq_topo[node_id] = counter
                    counter += 1
                continue
            if visited[node_id]:
                continue
            if on_path[node_id]:
                raise DagError(
                    f"cycle detected at equivalence node {self.eq_view(node_id)!r}"
                )
            on_path[node_id] = 1
            stack.append((node_id, True))
            for op_id in eq_op_ids[node_id]:
                for child_id in op_children[op_id]:
                    if not visited[child_id]:
                        stack.append((child_id, False))
        # Nodes unreachable from the root (none in practice) get numbers after
        # the reachable ones so that sorting is still total.
        for node_id in range(num_nodes):
            if eq_topo[node_id] < 0:
                eq_topo[node_id] = counter
                counter += 1
        self.numbered = (root_id, num_nodes, len(self.op_owner))

    # -- pickling --------------------------------------------------------------
    def __getstate__(self) -> Tuple[Any, ...]:
        """Primary columns only; every derived table is rebuilt on restore.

        This is the arena-native snapshot format: a tuple of flat lists of
        ids, floats, flags, keys, and operator payloads.  Adjacency
        (``eq_op_ids``/``eq_parent_ops``), the interned dedup dicts, the
        cost-kernel entries, the numbering record, and the lazy view caches
        are all functions of these columns and are deliberately excluded.
        """
        return (
            self.eq_key,
            self.eq_label,
            self.eq_props,
            self.eq_mat_cost,
            self.eq_reuse_cost,
            self.eq_topo,
            self.eq_is_base,
            self.eq_base_table,
            self.eq_scan_alias,
            self.eq_created_by_subsumption,
            self.op_operator,
            self.op_children,
            self.op_multipliers,
            self.op_owner,
            self.op_local_cost,
            self.op_is_subsumption,
        )

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        """Restore the primary columns and rebuild every derived table.

        Doubles as the arena's invalidation registry (rule M001): the
        interned dedup tables ``by_key`` and ``op_signatures`` and the
        kernel entries ``op_spec`` are reconstructed here from the primary
        columns, which documents exactly what they cache and when they are
        valid.
        """
        (
            self.eq_key,
            self.eq_label,
            self.eq_props,
            self.eq_mat_cost,
            self.eq_reuse_cost,
            self.eq_topo,
            self.eq_is_base,
            self.eq_base_table,
            self.eq_scan_alias,
            self.eq_created_by_subsumption,
            self.op_operator,
            self.op_children,
            self.op_multipliers,
            self.op_owner,
            self.op_local_cost,
            self.op_is_subsumption,
        ) = state
        num_eq = len(self.eq_key)
        num_ops = len(self.op_owner)
        self.by_key = {key: eq_id for eq_id, key in enumerate(self.eq_key)}
        self.eq_op_ids = [[] for _ in range(num_eq)]
        self.eq_parent_ops = [[] for _ in range(num_eq)]
        self.op_signatures = {}
        # The restored ``eq_topo`` is the pickled numbering; the next engine
        # renumbers once (a no-op on an unchanged DAG) and records it.
        self.numbered = None
        self.op_spec = list(
            map(_op_spec, self.op_local_cost, self.op_children, self.op_multipliers)
        )
        for op_id in range(num_ops):
            owner = self.op_owner[op_id]
            child_ids = self.op_children[op_id]
            self.eq_op_ids[owner].append(op_id)
            for child_id in child_ids:
                self.eq_parent_ops[child_id].append(op_id)
            self.op_signatures[(owner, self.op_operator[op_id], child_ids)] = op_id
        self._eq_views = [None] * num_eq
        self._op_views = [None] * num_ops


def _restore_eq_view(arena: DagArena, eq_id: int) -> "EquivalenceNode":
    """Unpickle hook: route restored views through the canonical cache."""
    return arena.eq_view(eq_id)


def _restore_op_view(arena: DagArena, op_id: int) -> "OperationNode":
    """Unpickle hook: route restored views through the canonical cache."""
    return arena.op_view(op_id)


# ---------------------------------------------------------------------------
# Node views
# ---------------------------------------------------------------------------

class OperationNode:
    """An AND node: one way of computing its owning equivalence node.

    A two-slot view over one :class:`DagArena` operation id; every historical
    attribute is a property reading the arena column.  Obtain instances via
    :meth:`DagArena.op_view` (or any ``Dag`` accessor) — views are canonical,
    one live object per id.
    """

    __slots__ = ("_arena", "id", "__weakref__")

    def __init__(self, arena: DagArena, op_id: int) -> None:
        self._arena = arena
        self.id = op_id

    @property
    def operator(self) -> "Operator":
        return self._arena.op_operator[self.id]

    @property
    def children(self) -> Tuple["EquivalenceNode", ...]:
        arena = self._arena
        eq_view = arena.eq_view
        return tuple(eq_view(child_id) for child_id in arena.op_children[self.id])

    @property
    def child_multipliers(self) -> Tuple[float, ...]:
        return self._arena.op_multipliers[self.id]

    @property
    def equivalence(self) -> "EquivalenceNode":
        arena = self._arena
        return arena.eq_view(arena.op_owner[self.id])

    @property
    def local_cost(self) -> float:
        return self._arena.op_local_cost[self.id]

    @property
    def is_subsumption(self) -> bool:
        return self._arena.op_is_subsumption[self.id]

    @property
    def signature(self) -> Tuple[object, ...]:
        """The historical dedup signature ``(operator, child_ids)``."""
        arena = self._arena
        return (arena.op_operator[self.id], arena.op_children[self.id])

    def __reduce__(self) -> Tuple[Any, Tuple[DagArena, int]]:
        return (_restore_op_view, (self._arena, self.id))

    def __repr__(self) -> str:
        arena = self._arena
        kids = ",".join(str(child_id) for child_id in arena.op_children[self.id])
        return f"<Op {self.id} {arena.op_operator[self.id].describe()} children=[{kids}]>"


class EquivalenceNode:
    """An OR node: the set of alternative operations producing one result.

    A two-slot view over one :class:`DagArena` equivalence id; see
    :class:`OperationNode`.  The four post-construction annotations the
    builder and subsumption pass write (``mat_cost``, ``reuse_cost``,
    ``topo_number``, ``created_by_subsumption``) are settable properties;
    everything else is read-only.
    """

    __slots__ = ("_arena", "id", "__weakref__")

    def __init__(self, arena: DagArena, eq_id: int) -> None:
        self._arena = arena
        self.id = eq_id

    @property
    def key(self) -> Hashable:
        return self._arena.eq_key[self.id]

    @property
    def label(self) -> str:
        return self._arena.eq_label[self.id]

    @property
    def properties(self) -> "LogicalProperties":
        return self._arena.eq_props[self.id]

    @property
    def operations(self) -> List[OperationNode]:
        arena = self._arena
        op_view = arena.op_view
        return [op_view(op_id) for op_id in arena.eq_op_ids[self.id]]

    @property
    def parents(self) -> List[OperationNode]:
        arena = self._arena
        op_view = arena.op_view
        return [op_view(op_id) for op_id in arena.eq_parent_ops[self.id]]

    @property
    def mat_cost(self) -> float:
        return self._arena.eq_mat_cost[self.id]

    @mat_cost.setter
    def mat_cost(self, value: float) -> None:
        self._arena.eq_mat_cost[self.id] = value

    @property
    def reuse_cost(self) -> float:
        return self._arena.eq_reuse_cost[self.id]

    @reuse_cost.setter
    def reuse_cost(self, value: float) -> None:
        self._arena.eq_reuse_cost[self.id] = value

    @property
    def topo_number(self) -> int:
        return self._arena.eq_topo[self.id]

    @topo_number.setter
    def topo_number(self, value: int) -> None:
        self._arena.eq_topo[self.id] = value

    @property
    def is_base(self) -> bool:
        return self._arena.eq_is_base[self.id]

    @property
    def base_table(self) -> Optional[str]:
        """Base table name if this node is the stored table or a plain scan of
        it (used by index-nested-loops applicability tests)."""
        return self._arena.eq_base_table[self.id]

    @property
    def scan_alias(self) -> Optional[str]:
        return self._arena.eq_scan_alias[self.id]

    @property
    def created_by_subsumption(self) -> bool:
        return self._arena.eq_created_by_subsumption[self.id]

    @created_by_subsumption.setter
    def created_by_subsumption(self, value: bool) -> None:
        self._arena.eq_created_by_subsumption[self.id] = value

    @property
    def rows(self) -> float:
        return self._arena.eq_props[self.id].rows

    @property
    def tuple_width(self) -> int:
        return self._arena.eq_props[self.id].tuple_width

    def __reduce__(self) -> Tuple[Any, Tuple[DagArena, int]]:
        return (_restore_eq_view, (self._arena, self.id))

    def __repr__(self) -> str:
        arena = self._arena
        return (
            f"<Eq {self.id} {arena.eq_label[self.id]} "
            f"rows={arena.eq_props[self.id].rows:.0f}>"
        )
