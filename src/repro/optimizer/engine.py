"""Array-backed cost engine shared by the optimization hot paths.

The algorithms in this package all evaluate the same cost recurrence
(Section 3.1 of the paper) over the same immutable AND-OR DAG, thousands of
times per optimization run.  Walking the object graph each time —
``sorted(...)`` over the equivalence nodes, attribute chains like
``operation.children[i].reuse_cost``, per-call ``by_id`` dict rebuilds — is
what dominated the greedy hot path before this module existed, not the
arithmetic itself.

:class:`CostEngine` snapshots a built DAG **once** into flat, topo-indexed
tables (equivalence-node ids in the paper's DAGs are dense ``0..n-1``, so
plain lists indexed by id suffice):

* ``topo_order`` — node ids sorted by topological number (children first),
  computed once instead of once per ``compute_node_costs`` call;
* ``op_table`` — per node, ``(local_cost, ((child_id, multiplier), ...))``
  tuples, one flat structure per alternative operation;
* ``parent_ids`` / ``topo_number`` — the upward adjacency used by the
  incremental cost propagation of Figure 5;
* ``mat_cost`` / ``reuse_cost`` / ``is_base`` — per-node scalars.

The cost kernels (:meth:`compute_costs`, :meth:`total`,
:meth:`best_operations`) are written against these tables with no object
traversal in the inner loop.  ``costing.py`` delegates to them for the public
API and wraps the dense result lists in :class:`CostTableView`, a read-only
mapping that behaves like the ``{node_id: cost}`` dicts the API historically
returned.

**Dense incremental state.**  :class:`IncrementalCostState` — the Figure 5
incremental cost update — lives here as well (it used to live in
``greedy.py``; the name is re-exported there).  Its tables are flat
id-indexed lists, not dicts:

* ``_costs`` — ``cost(e)`` per node (exposed dict-style via ``state.costs``);
* ``_effective`` — the memoized ``C(e) = min(cost(e), reusecost(e))`` for
  materialized nodes and plain ``cost(e)`` otherwise, so the propagation
  inner loop is a single indexed read per child with **no** membership test;
* ``_mat_flags`` / ``_pending`` — bytearray flags replacing set membership
  tests in the propagation loop.

Benefit probes are served by :meth:`IncrementalCostState.cost_with_id` (one
toggle + exact-restore pass, no intermediate undo arithmetic), batched over a
fixed state by :meth:`IncrementalCostState.probe_many`, and fully fused —
probe chain, heap decisions, and hot tables bound once — in
:meth:`IncrementalCostState.run_monotonic_heap`.  Probes of
*independent* candidates (disjoint ancestor cones per ``parent_ids``) are
still evaluated sequentially rather than under cumulative toggles: every
candidate with a positive benefit changes the root cost, so any two useful
probes share the root's summation and their float deltas would stop being
byte-identical to the one-at-a-time reference if the toggles were stacked.
The batching therefore fuses per-probe Python overhead (call frames,
attribute lookups, undo-log arithmetic), which is what actually showed up in
profiles, and keeps every cost, plan, and Figure 10 counter bit-for-bit
unchanged.

Engines are cached per DAG via :func:`get_engine`, keyed on the node/operation
counts so a DAG that is (atypically) extended after optimization gets a fresh
snapshot.

Measured effect (see ``benchmarks/bench_fig9_scaleup.py`` and
``bench_fig10_greedy_complexity.py``; CPython 3.11, this container): greedy
optimization of the largest scale-up workload CQ5 (303 equivalence nodes,
1321 operation nodes) dropped from ~41 ms (object graph) to ~13 ms (array
engine, PR 1) to ~7 ms (dense incremental state + fused probe loop, PR 2),
CQ1 from ~1.1 ms to ~0.65 ms; Volcano-RU on CQ5 dropped from ~53 ms to
~5 ms (incremental per-query costing, PR 2) to ~3.4 ms (dense Volcano-SH
decision pass + the memoized :meth:`CostEngine.baseline_costs` table, PR 3)
and on the fig8 batch BQ5 from ~13 ms to ~3 ms — all with byte-identical
plan costs, materialized sets, and counters for all four algorithms on every
tier-1 workload and unchanged Figure 10 counters (CQ5: 2913 propagations,
172 benefit recomputations).

**Reference twins.**  Each dense kernel keeps its original object-graph
formulation alive as the oracle of the differential suite
(``tests/test_differential.py``): the Volcano-SH decision pass is mirrored
by :func:`repro.optimizer.volcano_sh._volcano_sh_reference` (which is also
the pass used by Volcano-RU's from-scratch reference
``_run_order_reference``), the incremental greedy pruning by
:func:`repro.optimizer.greedy._prune_unused_reference`, and the cost
kernels by the recurrence in :mod:`repro.optimizer.costing`.  The builder
side has the same structure: ``DagBuilder(..., memoize=False)`` (reached
from the tests through ``tests.generators.reference_dag``) is the memo-free
construction oracle; see :mod:`repro.dag.builder`.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.dag.nodes import Dag, DagError, EquivalenceNode, OperationNode

INFINITE_COST = math.inf

#: Cost deltas below this magnitude are treated as unchanged by the
#: incremental propagation (guards against float jitter re-propagating).
_EPSILON = 1e-9

#: Shared empty materialized set for the common no-materialization case.
EMPTY_SET: FrozenSet[int] = frozenset()

#: Cost tables are indexed by node id; dicts, dense lists, and views qualify.
CostTable = Union[Dict[int, float], List[float], "CostTableView"]


class CostTableView(Mapping):
    """Read-only dict-style view of a dense id-indexed cost list.

    The public costing API historically returned ``{node_id: cost}`` dicts
    with the dense key set ``0..n-1``.  The engine now keeps costs in flat
    lists; this view preserves the mapping API (indexing, ``in``, ``len``,
    iteration, ``.items()``/``.keys()``/``.values()``, ``.get``, equality
    with plain dicts) without copying the table on every call.  Hot paths
    bypass it and read the underlying list directly.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float]) -> None:
        self._values = values

    def __getitem__(self, node_id: int) -> float:
        # Dict semantics: no negative-index aliasing, KeyError on misses.
        if isinstance(node_id, int) and 0 <= node_id < len(self._values):
            return self._values[node_id]
        raise KeyError(node_id)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._values)))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, node_id: object) -> bool:
        return isinstance(node_id, int) and 0 <= node_id < len(self._values)

    def get(self, node_id: int, default: Optional[float] = None) -> Optional[float]:
        if isinstance(node_id, int) and 0 <= node_id < len(self._values):
            return self._values[node_id]
        return default

    # ``items()``/``keys()``/``values()`` are inherited from the Mapping ABC:
    # they return reusable multi-pass views, matching dict semantics (an
    # iterator-returning override would exhaust after one pass).

    def copy(self) -> Dict[int, float]:
        return dict(enumerate(self._values))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CostTableView):
            return list(self._values) == list(other._values)
        if isinstance(other, Mapping):
            if len(other) != len(self._values):
                return False
            try:
                return all(other[i] == value for i, value in enumerate(self._values))
            except KeyError:
                return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return f"CostTableView({dict(enumerate(self._values))!r})"


class CostEngine:
    """Flat snapshot of one DAG plus the cost kernels evaluated over it."""

    __slots__ = (
        "arena",
        "num_nodes",
        "root_id",
        "topo_order",
        "topo_number",
        "topo_key",
        "is_base",
        "mat_cost",
        "reuse_cost",
        "op_table",
        "op_specs",
        "op_ids",
        "op_entry_by_op_id",
        "op_owner",
        "op_is_subsumption",
        "parent_ids",
        "parent_op_ids",
        "created_by_subsumption",
        "_baseline_costs",
        "_nodes",
        "_op_nodes",
        "_op_node_by_id",
    )

    def __init__(self, dag: Dag) -> None:
        if dag.root is None:
            raise DagError("cannot build a cost engine for a DAG without a root")
        # Renumber unconditionally: the snapshot is built once per DAG shape,
        # and existing numbers may be stale if operations were added after a
        # previous numbering (Dag.add_operation does not invalidate them).
        dag.assign_topological_numbers()

        # The arena already stores the DAG as dense id-indexed columns (ids
        # are dense 0..n-1 by construction), so the snapshot degrades to
        # copying the mutable per-node scalars, aliasing the append-only
        # per-operation columns, and grouping precomputed kernel entries per
        # node — no object-graph traversal.
        # The engine holds the arena, never the Dag: the Dag caches its engine
        # (see get_engine), so a back reference would be a reference cycle.
        arena = dag.arena
        self.arena = arena
        num_nodes = arena.num_equivalences
        self.num_nodes = num_nodes
        self.root_id = dag.root.id
        self.topo_number: List[int] = list(arena.eq_topo)
        self.topo_order: List[int] = sorted(
            range(num_nodes), key=self.topo_number.__getitem__
        )
        #: ``topo_number * num_nodes + id``: a single-int heap key whose
        #: ordering equals the ``(topo_number, id)`` tuple's, decoded with
        #: ``key % num_nodes`` — avoids a tuple allocation and a tuple
        #: comparison per propagation-frontier push/pop.
        self.topo_key: List[int] = [
            number * num_nodes + node_id
            for node_id, number in enumerate(self.topo_number)
        ]
        # Copied (not aliased): the snapshot's annotations stay frozen even
        # if a caller re-annotates the DAG afterwards (see :func:`get_engine`).
        self.is_base: List[bool] = list(arena.eq_is_base)
        self.mat_cost: List[float] = list(arena.eq_mat_cost)
        self.reuse_cost: List[float] = list(arena.eq_reuse_cost)
        is_base = self.is_base
        eq_op_ids = arena.eq_op_ids
        arena.sync_op_tables()
        op_entry = arena.op_entry
        op_spec = arena.op_spec
        #: Per node: one (local_cost, ((child_id, multiplier), ...)) per operation,
        #: in the same order as ``node.operations`` (ties keep the first op).
        self.op_table: List[Tuple[Tuple[float, Tuple[Tuple[int, float], ...]], ...]] = [
            tuple(op_entry[op_id] for op_id in op_ids) for op_ids in eq_op_ids
        ]
        #: Arity-specialized variant of ``op_table`` for the propagation inner
        #: loop: ``None`` for nodes that are never recomputed (base tables,
        #: operation-less nodes); otherwise one entry per operation —
        #: ``(c1, m1, c2, m2, local)`` for the dominant two-child shape,
        #: ``(c1, m1, local)`` for one child, ``(children, local)`` otherwise
        #: — distinguished by ``len``.  A single unpack plus one arithmetic
        #: expression replaces the nested child loop; the left-associated
        #: expression evaluates bit-identically to the sequential
        #: accumulation it replaces.  The per-operation tuples are built once
        #: by the arena (``sync_op_tables`` above); the engine only groups
        #: them per node.
        self.op_specs: List[Optional[Tuple[Tuple[Any, ...], ...]]] = [
            None
            if is_base[node_id] or not op_ids
            else tuple(op_spec[op_id] for op_id in op_ids)
            for node_id, op_ids in enumerate(eq_op_ids)
        ]
        #: Per node: operation-node ids, parallel to ``op_table``/``op_nodes``.
        self.op_ids: List[Tuple[int, ...]] = [tuple(op_ids) for op_ids in eq_op_ids]
        #: Operation-node id -> its flat ``(local_cost, children)`` entry, for
        #: costing a *given* operation (Volcano-SH prices the plan's chosen
        #: operation rather than the argmin).  Operation ids are dense, and
        #: the arena column is append-only with immutable entries, so the
        #: alias is index-stable.
        self.op_entry_by_op_id: List[Tuple[float, Tuple[Tuple[int, float], ...]]] = op_entry
        #: Operation id -> id of the equivalence node the operation computes
        #: (append-only arena column, aliased).
        self.op_owner: List[int] = arena.op_owner
        #: Operation id -> ``is_subsumption`` flag (Volcano-SH pre-pass/undo).
        self.op_is_subsumption: List[bool] = arena.op_is_subsumption
        op_owner = arena.op_owner
        #: Per node: unique ids of parent equivalence nodes (upward adjacency).
        self.parent_ids: List[Tuple[int, ...]] = [
            tuple(sorted({op_owner[op_id] for op_id in parent_ops}))
            for parent_ops in arena.eq_parent_ops
        ]
        #: Per node: ids of the parent *operation* nodes, in ``node.parents``
        #: order (Volcano-SH's special test scans a node's parent operations).
        self.parent_op_ids: List[Tuple[int, ...]] = [
            tuple(parent_ops) for parent_ops in arena.eq_parent_ops
        ]
        #: Per node: whether the node was introduced by a subsumption
        #: derivation (these must pay for themselves, Section 3.2).
        self.created_by_subsumption: List[bool] = list(arena.eq_created_by_subsumption)
        # Lazily memoized ``compute_costs(∅)`` (see :meth:`baseline_costs`).
        self._baseline_costs: Optional[List[float]] = None
        # Lazily materialized facade-object tables (see the properties below).
        self._nodes: Optional[List[EquivalenceNode]] = None
        self._op_nodes: Optional[List[Tuple[OperationNode, ...]]] = None
        self._op_node_by_id: Optional[List[OperationNode]] = None

    # -- facade-object tables (lazy) -------------------------------------------
    @property
    def nodes(self) -> List[EquivalenceNode]:
        """id -> EquivalenceNode (ids are dense, so a list is the id map).

        Materialized on first access: the cost kernels never touch node
        objects, so engines that only ever compute costs skip the facade
        views entirely.  Views are canonical (``nodes[i] is dag.node_by_id(i)``).
        """
        nodes = self._nodes
        if nodes is None:
            eq_view = self.arena.eq_view
            nodes = [eq_view(node_id) for node_id in range(self.num_nodes)]
            self._nodes = nodes
        return nodes

    @property
    def op_nodes(self) -> List[Tuple[OperationNode, ...]]:
        """Parallel to ``op_table``: the OperationNode views, for argmin results."""
        op_nodes = self._op_nodes
        if op_nodes is None:
            op_view = self.arena.op_view
            op_nodes = [
                tuple(op_view(op_id) for op_id in op_ids)
                for op_ids in self.arena.eq_op_ids
            ]
            self._op_nodes = op_nodes
        return op_nodes

    @property
    def op_node_by_id(self) -> List[OperationNode]:
        """Operation id -> OperationNode (for converting flat choices back)."""
        op_node_by_id = self._op_node_by_id
        if op_node_by_id is None:
            op_view = self.arena.op_view
            op_node_by_id = [
                op_view(op_id) for op_id in range(self.arena.num_operations)
            ]
            self._op_node_by_id = op_node_by_id
        return op_node_by_id

    # -- cost kernels ---------------------------------------------------------
    def compute_costs(self, materialized: Set[int] = EMPTY_SET) -> List[float]:
        """``cost(e)`` for every node, bottom-up; the result is indexed by id.

        The inner loop reads the memoized effective child cost
        ``C(e) = min(cost(e), reusecost(e) if e ∈ M)`` from a side table
        maintained with one membership test per *node* instead of one per
        child read; with no materializations the side table aliases the cost
        list outright.
        """
        costs: List[float] = [0.0] * self.num_nodes
        # C(e) per node; identical to ``costs`` when nothing is materialized.
        effective = costs if not materialized else [0.0] * self.num_nodes
        op_specs = self.op_specs
        reuse_cost = self.reuse_cost
        is_base = self.is_base
        distinct = effective is not costs
        for node_id in self.topo_order:
            # Base tables cost 0 even if (atypically) given operations,
            # matching ``equivalence_cost`` in the reference implementation.
            if is_base[node_id]:
                cost = 0.0
            else:
                operations = op_specs[node_id]
                if operations is None:
                    cost = INFINITE_COST
                else:
                    cost = INFINITE_COST
                    for entry in operations:
                        arity = len(entry)
                        if arity == 5:
                            c1, m1, c2, m2, local_cost = entry
                            candidate = (
                                local_cost + m1 * effective[c1] + m2 * effective[c2]
                            )
                        elif arity == 3:
                            c1, m1, local_cost = entry
                            candidate = local_cost + m1 * effective[c1]
                        else:
                            children, candidate = entry
                            for child_id, multiplier in children:
                                candidate += multiplier * effective[child_id]
                        if candidate < cost:
                            cost = candidate
                costs[node_id] = cost
            if distinct:
                if node_id in materialized:
                    reuse = reuse_cost[node_id]
                    effective[node_id] = reuse if reuse < cost else cost
                else:
                    effective[node_id] = cost
        return costs

    def baseline_costs(self) -> List[float]:
        """``compute_costs(∅)``, memoized for the engine's lifetime.

        The empty-set table is requested by every optimization pass (state
        seeds, Volcano baselines, the Volcano-SH fallback table) and the
        snapshot's annotations are frozen (see :func:`get_engine`), so one
        sweep serves them all.  The returned list is shared: callers must
        treat it as read-only and copy (``list(...)``) before mutating.
        """
        if self._baseline_costs is None:
            self._baseline_costs = self.compute_costs()
        return self._baseline_costs

    def reachable_flags(
        self,
        choice_entry: Sequence[Optional[Tuple[float, Tuple[Tuple[int, float], ...]]]],
    ) -> bytearray:
        """Byte flags of the nodes reachable from the root under *choice_entry*.

        *choice_entry* maps node id to the flat operation entry a consolidated
        plan chose for it (``None`` where the plan chose nothing); the walk
        descends from the root through chosen entries only.  This is the
        reachability snapshot the Volcano-SH/RU decision passes sweep over —
        owning it here keeps every structural walk on the engine's dense
        arrays.
        """
        reachable = bytearray(self.num_nodes)
        is_base = self.is_base
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            if reachable[node_id]:
                continue
            reachable[node_id] = 1
            if is_base[node_id]:
                continue
            entry = choice_entry[node_id]
            if entry is None:
                continue
            for child_id, _multiplier in entry[1]:
                stack.append(child_id)
        return reachable

    def total(self, costs: CostTable, materialized: Set[int] = EMPTY_SET) -> float:
        """``bestcost(Q, M)``: root cost plus computing and materializing ``M``."""
        if isinstance(costs, CostTableView):
            costs = costs._values
        total = costs[self.root_id]
        mat_cost = self.mat_cost
        # Sorted so the float sum is deterministic for equal sets regardless
        # of set insertion history (result costs are compared exactly).
        for node_id in sorted(materialized):
            total += costs[node_id] + mat_cost[node_id]
        return total

    def best_operations(
        self, costs: CostTable, materialized: Set[int] = EMPTY_SET
    ) -> Dict[int, OperationNode]:
        """The argmin operation for every non-base node with operations."""
        if isinstance(costs, CostTableView):
            costs = costs._values
        choices: Dict[int, OperationNode] = {}
        effective = self.effective_costs(costs, materialized)
        op_nodes = self.op_nodes
        for node_id, operations in enumerate(self.op_specs):
            if operations is None:
                continue
            best_op = None
            best = INFINITE_COST
            for op_index, entry in enumerate(operations):
                arity = len(entry)
                if arity == 5:
                    c1, m1, c2, m2, local_cost = entry
                    total = local_cost + m1 * effective[c1] + m2 * effective[c2]
                elif arity == 3:
                    c1, m1, local_cost = entry
                    total = local_cost + m1 * effective[c1]
                else:
                    children, total = entry
                    for child_id, multiplier in children:
                        total += multiplier * effective[child_id]
                if total < best:
                    best = total
                    best_op = op_nodes[node_id][op_index]
            choices[node_id] = best_op
        return choices

    def effective_costs(
        self, costs: CostTable, materialized: Set[int] = EMPTY_SET
    ) -> List[float]:
        """The effective child costs ``C(e) = min(cost(e), reusecost(e))`` for
        materialized nodes and plain ``cost(e)`` otherwise, as a dense list."""
        if isinstance(costs, CostTableView):
            costs = costs._values
        if isinstance(costs, list):
            effective = list(costs)
        else:
            effective = [costs[node_id] for node_id in range(self.num_nodes)]
        reuse_cost = self.reuse_cost
        for node_id in materialized:
            reuse = reuse_cost[node_id]
            if reuse < effective[node_id]:
                effective[node_id] = reuse
        return effective


def argmin_operation(operations: Tuple[Tuple[Any, ...], ...], effective: Sequence[float]) -> int:
    """Index of the argmin operation of one ``op_specs`` row under the
    effective child costs, -1 when every alternative is infinite.

    This is the per-node body of :meth:`CostEngine.best_operations` (which
    keeps its own inlined copy for the full-table sweep): the strict ``<`` /
    first-wins tie-breaking and left-associated accumulation are contractual
    — the incremental greedy pruning recomputes individual choices with this
    function and must land on the same operation as a full
    ``best_operations`` pass, which the differential suite asserts.
    """
    best_index = -1
    best = INFINITE_COST
    for op_index, entry in enumerate(operations):
        arity = len(entry)
        if arity == 5:
            c1, m1, c2, m2, local_cost = entry
            total = local_cost + m1 * effective[c1] + m2 * effective[c2]
        elif arity == 3:
            c1, m1, local_cost = entry
            total = local_cost + m1 * effective[c1]
        else:
            children, total = entry
            for child_id, multiplier in children:
                total += multiplier * effective[child_id]
        if total < best:
            best = total
            best_index = op_index
    return best_index


class IncrementalCostState:
    """The incremental cost update machinery of Figure 5, on dense tables.

    Maintains ``cost(e)`` for every equivalence node under the current
    materialized set, propagates the effect of materializing (or
    un-materializing) a single node upwards through its ancestors in
    topological order, and keeps the running total ``bestcost(Q, X)`` in sync
    so that :meth:`total` is O(1) instead of O(|X|) per benefit probe.

    All per-node state is held in flat id-indexed lists/bytearrays (see the
    module docstring); ``state.costs`` remains a dict-compatible
    :class:`CostTableView` for external readers.  The ``_effective`` table
    memoizes ``min(cost(e), reusecost(e))`` for materialized nodes so the
    propagation inner loop — the single hottest loop in the greedy optimizer
    — performs one list read per child and no set-membership test.
    """

    __slots__ = (
        "dag",
        "engine",
        "materialized",
        "_costs",
        "_effective",
        "costs",
        "_total",
        "propagations",
        "_pending",
        "_mat_flags",
        "_eps",
    )

    def __init__(self, dag: Dag, epsilon: float = _EPSILON) -> None:
        self.dag = dag
        self.engine = get_engine(dag)
        #: Propagation cut-off.  The default prunes sub-jitter deltas (and is
        #: what the Figure 10 propagation counters are calibrated against);
        #: ``epsilon=0.0`` makes every toggle *exactly* equivalent to a
        #: from-scratch ``compute_costs`` — a node is recomputed whenever any
        #: input bit changed, and untouched nodes keep values computed from
        #: bit-identical inputs — which is what incremental Volcano-RU needs
        #: to stay byte-identical to its from-scratch reference.
        self._eps = epsilon
        self.materialized: Set[int] = set()
        self._costs: List[float] = list(self.engine.baseline_costs())
        #: C(e): min(cost, reuse) for materialized nodes, cost otherwise.
        self._effective: List[float] = list(self._costs)
        #: Dict-compatible read view of ``_costs`` (kept for API parity with
        #: the historical ``Dict[int, float]`` attribute).
        self.costs = CostTableView(self._costs)
        self._total: float = self._costs[self.engine.root_id]
        #: Number of equivalence-node cost propagations (Figure 10, left).
        self.propagations = 0
        num_nodes = self.engine.num_nodes
        #: Scratch flags for the propagation frontier (cleared by each pop).
        self._pending = bytearray(num_nodes)
        #: Byte-flag mirror of ``materialized`` for the inner loop.
        self._mat_flags = bytearray(num_nodes)

    @property
    def nodes_by_id(self) -> Sequence[EquivalenceNode]:
        """id -> EquivalenceNode (ids are dense, so the engine's list serves).

        Delegates to :attr:`CostEngine.nodes`, which materializes the façade
        views lazily — creating a state costs no node objects.
        """
        return self.engine.nodes

    def total(self) -> float:
        """``bestcost(Q, X)`` for the current materialized set."""
        return self._total

    def snapshot_costs(self) -> List[float]:
        """An independent dense copy of the current cost table."""
        return list(self._costs)

    # -- toggle / undo --------------------------------------------------------
    def toggle(self, node: EquivalenceNode, add: bool) -> List[Tuple[int, float]]:
        """Materialize (or un-materialize) *node* and propagate cost changes.

        Returns the undo log: the list of ``(node_id, previous_cost)`` entries
        that were overwritten, in propagation order.
        """
        return self.toggle_id(node.id, add)

    def toggle_id(self, node_id: int, add: bool) -> List[Tuple[int, float]]:
        """:meth:`toggle` by node id (the hot-path form)."""
        engine = self.engine
        costs = self._costs
        effective = self._effective
        materialized = self.materialized
        mat_flags = self._mat_flags
        pending = self._pending
        mat_cost = engine.mat_cost
        reuse_cost = engine.reuse_cost
        op_specs = engine.op_specs
        parent_ids = engine.parent_ids
        topo_key = engine.topo_key
        num_nodes = engine.num_nodes
        root_id = engine.root_id
        heappush = heapq.heappush
        heappop = heapq.heappop
        eps = self._eps

        if add == (node_id in materialized):
            # A redundant toggle would double-count the node's contribution in
            # the incrementally maintained total; fail fast instead.
            state = "already" if add else "not"
            raise ValueError(f"node {node_id} is {state} materialized")
        # The node's own cost never depends on its own membership (the DAG is
        # acyclic), so its pre-propagation cost is its final cost contribution.
        cost = costs[node_id]
        if add:
            materialized.add(node_id)
            mat_flags[node_id] = 1
            self._total += cost + mat_cost[node_id]
            reuse = reuse_cost[node_id]
            effective[node_id] = reuse if reuse < cost else cost
        else:
            materialized.discard(node_id)
            mat_flags[node_id] = 0
            self._total -= cost + mat_cost[node_id]
            effective[node_id] = cost

        undo: List[Tuple[int, float]] = []
        heap: List[int] = [topo_key[node_id]]
        pending[node_id] = 1
        propagations = 0
        while heap:
            current_id = heappop(heap) % num_nodes
            pending[current_id] = 0
            old_cost = costs[current_id]
            operations = op_specs[current_id]
            if operations is not None:
                new_cost = INFINITE_COST
                for entry in operations:
                    arity = len(entry)
                    if arity == 5:
                        c1, m1, c2, m2, local_cost = entry
                        candidate = local_cost + m1 * effective[c1] + m2 * effective[c2]
                    elif arity == 3:
                        c1, m1, local_cost = entry
                        candidate = local_cost + m1 * effective[c1]
                    else:
                        children, candidate = entry
                        for child_id, multiplier in children:
                            candidate += multiplier * effective[child_id]
                    if candidate < new_cost:
                        new_cost = candidate
            else:
                new_cost = old_cost
            propagations += 1
            delta = new_cost - old_cost
            changed = delta > eps or delta < -eps
            if changed:
                undo.append((current_id, old_cost))
                costs[current_id] = new_cost
                if current_id == root_id:
                    self._total += delta
                if mat_flags[current_id]:
                    self._total += delta
                    reuse = reuse_cost[current_id]
                    effective[current_id] = reuse if reuse < new_cost else new_cost
                else:
                    effective[current_id] = new_cost
            if changed or current_id == node_id:
                for parent_id in parent_ids[current_id]:
                    if not pending[parent_id]:
                        pending[parent_id] = 1
                        heappush(heap, topo_key[parent_id])
        self.propagations += propagations
        return undo

    def undo(self, node: EquivalenceNode, undo_log: List[Tuple[int, float]], added: bool) -> None:
        """Revert a previous :meth:`toggle`."""
        engine = self.engine
        costs = self._costs
        effective = self._effective
        materialized = self.materialized
        mat_flags = self._mat_flags
        reuse_cost = engine.reuse_cost
        root_id = engine.root_id
        node_id = node.id
        for changed_id, old_cost in reversed(undo_log):
            delta = old_cost - costs[changed_id]
            if changed_id == root_id:
                self._total += delta
            if mat_flags[changed_id]:
                self._total += delta
                reuse = reuse_cost[changed_id]
                effective[changed_id] = reuse if reuse < old_cost else old_cost
            else:
                effective[changed_id] = old_cost
            costs[changed_id] = old_cost
        cost = costs[node_id]
        contribution = cost + engine.mat_cost[node_id]
        if added:
            materialized.discard(node_id)
            mat_flags[node_id] = 0
            self._total -= contribution
            effective[node_id] = cost
        else:
            materialized.add(node_id)
            mat_flags[node_id] = 1
            self._total += contribution
            reuse = reuse_cost[node_id]
            effective[node_id] = reuse if reuse < cost else cost

    # -- benefit probes -------------------------------------------------------
    def cost_with(self, node: EquivalenceNode) -> float:
        """``bestcost(Q, X ∪ {node})`` without permanently changing the state."""
        return self.cost_with_id(node.id)

    def cost_with_id(self, node_id: int) -> float:
        """:meth:`cost_with` by node id: one fused toggle + exact restore.

        The restore writes the logged previous costs back verbatim and resets
        the total to its saved value, so long probe sequences are drift-free
        (no reversed floating-point arithmetic is involved at all).
        """
        previous_total = self._total
        undo_log = self.toggle_id(node_id, add=True)
        total = self._total
        costs = self._costs
        effective = self._effective
        mat_flags = self._mat_flags
        reuse_cost = self.engine.reuse_cost
        for changed_id, old_cost in reversed(undo_log):
            costs[changed_id] = old_cost
            if mat_flags[changed_id]:
                reuse = reuse_cost[changed_id]
                effective[changed_id] = reuse if reuse < old_cost else old_cost
            else:
                effective[changed_id] = old_cost
        self.materialized.discard(node_id)
        mat_flags[node_id] = 0
        effective[node_id] = costs[node_id]
        self._total = previous_total
        return total

    def run_monotonic_heap(
        self,
        heap: List[Tuple[float, int]],
        counters: Dict[str, int],
        max_materializations: int,
        deadline: Optional[float] = None,
    ) -> Set[int]:
        """The greedy monotonicity-heap loop (Section 4.3), fused.

        *heap* holds ``(-upper_bound, node_id)`` entries.  Pops the top
        candidate, probes its exact benefit against the current state, and
        either materializes it (still on top), reinserts it with the fresh
        value, or stops (no positive benefit).  The chain of probes between
        two materializations runs against one fixed state — the batched form
        of the benefit probe (see :meth:`probe_many`) — inside a single loop
        with every hot table bound once: the probe's toggle/restore pair is
        inlined rather than dispatched through
        :meth:`toggle_id`/:meth:`cost_with_id`, which the profile showed cost
        one call frame and ~15 attribute rebinds per probe.

        The inlined propagation kernel is a verbatim twin of the one in
        :meth:`toggle_id` (kept in sync by the engine-vs-reference and
        differential test suites); decisions, results, and the Figure 10
        counters are bit-for-bit those of the unfused loop.

        *deadline* (absolute ``perf_counter`` seconds) is checked once per
        heap pop — i.e. at probe boundaries, never inside a propagation — so
        an expired run stops with a committed prefix of the materialization
        sequence (``counters["deadline_expired"] = 1``) that is byte-identical
        to a run capped at that count.  ``deadline=None`` reads no clock.
        """
        engine = self.engine
        costs = self._costs
        effective = self._effective
        mat_flags = self._mat_flags
        pending = self._pending
        mat_cost = engine.mat_cost
        reuse_cost = engine.reuse_cost
        op_specs = engine.op_specs
        parent_ids = engine.parent_ids
        topo_key = engine.topo_key
        num_nodes = engine.num_nodes
        root_id = engine.root_id
        heappush = heapq.heappush
        heappop = heapq.heappop
        eps = self._eps

        chosen: Set[int] = set()
        current_total = self._total
        total_propagations = 0
        undo: List[Tuple[int, float]] = []
        while heap and len(chosen) < max_materializations:
            if deadline is not None and perf_counter() >= deadline:
                counters["deadline_expired"] = 1
                break
            _negative_bound, node_id = heappop(heap)
            if node_id in chosen:
                continue
            counters["benefit_recomputations"] += 1
            counters["bestcost_calls"] += 1

            # --- probe: toggle(node_id, add=True) -------------------------
            # (twin of IncrementalCostState.toggle_id; keep in sync)
            running_total = current_total
            node_cost = costs[node_id]
            mat_flags[node_id] = 1
            running_total += node_cost + mat_cost[node_id]
            reuse = reuse_cost[node_id]
            effective[node_id] = reuse if reuse < node_cost else node_cost

            undo.clear()
            prop_heap: List[int] = [topo_key[node_id]]
            pending[node_id] = 1
            while prop_heap:
                current_id = heappop(prop_heap) % num_nodes
                pending[current_id] = 0
                old_cost = costs[current_id]
                operations = op_specs[current_id]
                if operations is not None:
                    new_cost = INFINITE_COST
                    for entry in operations:
                        arity = len(entry)
                        if arity == 5:
                            c1, m1, c2, m2, local_cost = entry
                            candidate = (
                                local_cost + m1 * effective[c1] + m2 * effective[c2]
                            )
                        elif arity == 3:
                            c1, m1, local_cost = entry
                            candidate = local_cost + m1 * effective[c1]
                        else:
                            children, candidate = entry
                            for child_id, multiplier in children:
                                candidate += multiplier * effective[child_id]
                        if candidate < new_cost:
                            new_cost = candidate
                else:
                    new_cost = old_cost
                total_propagations += 1
                delta = new_cost - old_cost
                changed = delta > eps or delta < -eps
                if changed:
                    undo.append((current_id, old_cost))
                    costs[current_id] = new_cost
                    if current_id == root_id:
                        running_total += delta
                    if mat_flags[current_id]:
                        running_total += delta
                        reuse = reuse_cost[current_id]
                        effective[current_id] = reuse if reuse < new_cost else new_cost
                    else:
                        effective[current_id] = new_cost
                if changed or current_id == node_id:
                    for parent_id in parent_ids[current_id]:
                        if not pending[parent_id]:
                            pending[parent_id] = 1
                            heappush(prop_heap, topo_key[parent_id])

            benefit = current_total - running_total

            # --- restore: exact write-back of the logged costs -----------
            for changed_id, old_cost in reversed(undo):
                costs[changed_id] = old_cost
                if mat_flags[changed_id]:
                    reuse = reuse_cost[changed_id]
                    effective[changed_id] = reuse if reuse < old_cost else old_cost
                else:
                    effective[changed_id] = old_cost
            mat_flags[node_id] = 0
            effective[node_id] = costs[node_id]

            # --- heap decision (identical to the reference loop) ---------
            next_bound = -heap[0][0] if heap else float("-inf")
            if heap and benefit < next_bound - _EPSILON:
                # Not necessarily the best any more: reinsert fresh.
                heappush(heap, (-benefit, node_id))
                continue
            if benefit <= _EPSILON:
                break
            # Commit: the probe was fully restored above, so re-toggle for
            # real (counted again, exactly like the reference
            # implementation's cost_with + toggle pair).
            self.toggle_id(node_id, add=True)
            chosen.add(node_id)
            current_total = self._total
        self.propagations += total_propagations
        return chosen

    def probe_many(self, node_ids: Sequence[int]) -> List[float]:
        """Batched benefit probes: ``bestcost(Q, X ∪ {x})`` for each ``x``.

        All probes are evaluated against the *same* current state, which is
        exactly the situation of the greedy loops: between two
        materializations the state is fixed and every candidate's benefit is
        defined against it, so the probes are order-independent and can be
        requested as one batch.  Candidates with disjoint ancestor cones (per
        ``CostEngine.parent_ids``) touch disjoint cost entries *below the
        root*, but any candidate with a nonzero benefit perturbs the root
        summation, so the toggles are applied one at a time (never stacked)
        to keep each probe's float result bit-identical to the sequential
        reference.  Each probe is one exact-restore :meth:`cost_with_id`
        pass; the fully fused variant (hot tables bound once for a whole
        probe chain) is :meth:`run_monotonic_heap`, which is what the
        default greedy configuration uses.
        """
        return [self.cost_with_id(node_id) for node_id in node_ids]


def get_engine(dag: Dag) -> CostEngine:
    """The cached :class:`CostEngine` for *dag*, rebuilt if the DAG grew.

    The cache key is the (equivalence, operation) node counts, so structural
    growth via :meth:`Dag.equivalence` / :meth:`Dag.add_operation` triggers a
    fresh snapshot.  In-place mutation of already-snapshotted scalars
    (``mat_cost``, ``reuse_cost``, ``local_cost``, multipliers) is **not**
    detected — the costing API treats a built DAG's annotations as frozen, as
    every in-repo producer does (the builder annotates during construction
    only).  Callers that re-annotate an existing DAG must build a fresh DAG
    (or delete ``dag._cost_engine``) before re-costing.
    """
    key = (dag.num_equivalence_nodes, dag.num_operation_nodes)
    cached = getattr(dag, "_cost_engine", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    engine = CostEngine(dag)
    dag._cost_engine = (key, engine)
    return engine
