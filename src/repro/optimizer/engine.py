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
* ``op_specs`` / ``op_ids`` — per node, one arity-specialized kernel entry
  (the arena's ``op_spec``: the unit pair ``(left, right, local)`` of every
  join, priced without multiplying, or a shape that keeps its multipliers)
  and one operation id per alternative operation;
  code that needs an operation's children reads the arena's ``op_children``
  / ``op_multipliers`` / ``op_local_cost`` columns by operation id;
* ``parent_op_ids`` / ``op_owner`` / ``topo_number`` — the upward
  adjacency used by the incremental cost propagation of Figure 5: per node,
  the operations that read it, each with the node that owns it;
* ``mat_cost`` / ``reuse_cost`` / ``is_base`` — per-node scalars.

The cost kernels (:meth:`sweep`, :meth:`total`) are written against these
tables with no object traversal in the inner loop.  :meth:`sweep` is the one
full-DAG pricing pass of the package: it records each node's argmin
operation id along with its cost, so every search takes its choices from a
sweep and never prices the DAG a second time.  :meth:`compute_costs`
returns a sweep's costs, and :meth:`baseline` memoizes the empty-set sweep
that every search starts from.  The per-node argmin over a node's operations
has one body, :func:`argmin_operation`.  ``costing.py`` delegates to the
kernels for the public API and wraps the dense result lists in
:class:`CostTableView`, a read-only mapping that behaves like the
``{node_id: cost}`` dicts the API historically returned.

The engine holds no node views, and every search works on ids from start to
finish: a :class:`~repro.optimizer.plans.ConsolidatedPlan` holds its sweep's
operation-id tuple (``choice_op``), so no search builds a view; views are
built only when a plan is navigated.

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

**Decrease-only propagation.**  The state only ever adds nodes to the
materialized set (:meth:`IncrementalCostState.materialize_id`).  An add —
every greedy probe and commit, every Volcano-RU registration — does not
re-price a popped node's operations.  Each node whose effective cost changed
prices only the operations that read it (``parent_op_ids``) and folds each
price into its owner's running minimum (``_best``); a popped node's new cost
is ``min(old, _best[node])``.  The added node's own operations are not
priced at all: their inputs did not change.  A many-input operation (the
pseudo-root's ``NoOp`` over the query roots) is not priced each time one of
its children changes: the add records it and prices it once, at its owner's
pop, with its final inputs, which is the minimum of its repeated pricings by
the first point below.  This is exactly the full argmin of every popped
node:

* under an add every effective input can only fall, and float ``+`` and
  ``*`` by non-negative multipliers are monotone, so the minimum over an
  operation's repeated pricings is its pricing with the final inputs;
* an operation that reads no changed child prices at least the node's
  minimum before the toggle, which the cut-off left no lower than
  ``stored − ε``, so it can never decide a change the full argmin would not
  decide.

``tests/test_engine.py::TestDecreaseOnlyPropagation`` holds the full
re-pricing add loop as the oracle and asserts equal undo logs, costs,
totals and propagation counts after every add.

Benefit probes are served by :meth:`IncrementalCostState.cost_with_id`: one
add plus an exact restore, with no intermediate undo arithmetic.  Probes
are evaluated one at a time rather than under cumulative toggles, even for
candidates with disjoint ancestor cones: every candidate with a positive
benefit changes the root cost, so any two useful probes share the root's
summation and their float deltas would stop being byte-identical to the
one-at-a-time reference if the toggles were stacked.

Engines are cached per DAG via :func:`get_engine`, keyed on the node/operation
counts so a DAG that is (atypically) extended after optimization gets a fresh
snapshot.  A new engine renumbers the DAG only when the arena's ``numbered``
record (root id, node count, operation count of the last numbering) no
longer matches: the builder numbers every DAG it returns, so an engine over
a freshly built DAG does not number it a second time.

Measured effect (see ``benchmarks/bench_fig9_scaleup.py`` and
``bench_fig10_greedy_complexity.py``; CPython 3.11 on a shared 2-core host):
greedy optimization of the largest scale-up workload CQ5 (303 equivalence
nodes, 1321 operation nodes) dropped from ~41 ms (object graph) to ~13 ms
(array engine) to ~7 ms (dense incremental state), CQ1 from ~1.1 ms to
~0.65 ms; Volcano-RU on CQ5 dropped from ~53 ms to ~5 ms (incremental
per-query costing) to ~3.4 ms (dense Volcano-SH decision pass + the memoized
:meth:`CostEngine.baseline` table) and on the fig8 batch BQ5 from
~13 ms to ~3 ms — all with byte-identical plan costs, materialized sets, and
counters for all four algorithms on every tier-1 workload and unchanged
Figure 10 counters (CQ5: 2913 propagations, 172 benefit recomputations).
Decrease-only propagation then cut the effective-cost reads of a greedy
search by 38% on CQ1 and 12% on CQ5 and of a Volcano-RU search by 25-49%
(``tests/test_work_counts.py``), and by 39% over 300 ``service-mixed``
batches; with the bitmask sharing sweep of :mod:`.sharability`, greedy on
CQ5 went from ~6.6 ms to ~5.4 ms.  Pricing the pseudo-root's many-input
operation once per add then cut the effective-cost reads of a greedy search
by 4% on CQ1, 24% on CQ3 and 33% on CQ5 (35,952 to 23,964), with the
propagation counts unchanged.

**Oracles.**  The kernels ship without reference twins.  Their oracles
live in ``tests/oracles/``: the paper's recurrences transcribed over the
object graph (Section 3.1 costs, plan costs, Volcano-SH, Volcano-RU,
greedy's pruning and the full re-pricing add loop), sharing no code with
this module.  The differential suites compare the two with ``==``.
"""

from __future__ import annotations

import heapq
import math
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

from repro.dag.nodes import Dag, DagError

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
        "op_specs",
        "op_ids",
        "op_owner",
        "op_is_subsumption",
        "parent_op_ids",
        "created_by_subsumption",
        "_baseline",
    )

    def __init__(self, dag: Dag) -> None:
        if dag.root is None:
            raise DagError("cannot build a cost engine for a DAG without a root")
        arena = dag.arena
        # Existing numbers are stale if the root moved or nodes or operations
        # were added since the last numbering (Dag.add_operation does not
        # invalidate them); otherwise numbering again would change nothing.
        if arena.numbered != (dag.root.id, arena.num_equivalences, arena.num_operations):
            dag.assign_topological_numbers()

        # The arena already stores the DAG as dense id-indexed columns (ids
        # are dense 0..n-1 by construction), so the snapshot degrades to
        # copying the mutable per-node scalars, aliasing the append-only
        # per-operation columns, and grouping precomputed kernel entries per
        # node — no object-graph traversal.
        # The engine holds the arena, never the Dag: the Dag caches its engine
        # (see get_engine), so a back reference would be a reference cycle.
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
        #: Per node, the cost-kernel entries of its operations in the same
        #: order as ``node.operations`` (ties keep the first op): ``None``
        #: for nodes that are never recomputed (base tables, operation-less
        #: nodes); otherwise one entry per operation —
        #: ``(left, right, local)`` for the dominant unit-multiplier pair
        #: (every join), ``(c1, m1, local, None)`` for one child,
        #: ``(c1, m1, c2, m2, local)`` for any other pair and
        #: ``(children, local)`` otherwise — distinguished by ``len`` (see
        #: ``arena._op_spec``).  A single unpack plus one arithmetic
        #: expression replaces the nested child loop; the left-associated
        #: expression evaluates bit-identically to the sequential
        #: accumulation it replaces.  The per-operation tuples are written by
        #: the arena as operations are appended; the engine only groups them
        #: per node.
        spec_of = arena.op_spec.__getitem__
        self.op_specs: List[Optional[Tuple[Tuple[Any, ...], ...]]] = [
            None if is_base[node_id] or not op_ids else tuple(map(spec_of, op_ids))
            for node_id, op_ids in enumerate(eq_op_ids)
        ]
        #: Per node: operation-node ids, parallel to ``op_specs`` rows.
        self.op_ids: List[Tuple[int, ...]] = [tuple(op_ids) for op_ids in eq_op_ids]
        #: Operation id -> id of the equivalence node the operation computes
        #: (append-only arena column, aliased).
        self.op_owner: List[int] = arena.op_owner
        #: Operation id -> ``is_subsumption`` flag (Volcano-SH pre-pass/undo).
        self.op_is_subsumption: List[bool] = arena.op_is_subsumption
        #: Per node: ids of the parent *operation* nodes, in ``node.parents``
        #: order — the upward adjacency of the incremental cost propagation
        #: (an operation's owner is ``op_owner``) and what Volcano-SH's
        #: special test scans.
        self.parent_op_ids: List[Tuple[int, ...]] = [
            tuple(parent_ops) for parent_ops in arena.eq_parent_ops
        ]
        #: Per node: whether the node was introduced by a subsumption
        #: derivation (these must pay for themselves, Section 3.2).
        self.created_by_subsumption: List[bool] = list(arena.eq_created_by_subsumption)
        # Lazily memoized ``sweep(∅)`` (see :meth:`baseline`).
        self._baseline: Optional[Tuple[List[float], Tuple[int, ...]]] = None

    # -- cost kernels ---------------------------------------------------------
    def sweep(
        self, materialized: Set[int] = EMPTY_SET
    ) -> Tuple[List[float], Tuple[int, ...]]:
        """``cost(e)`` and the argmin operation id of every node, bottom-up.

        Both results are indexed by node id; the operation id is ``-1`` for
        base tables, operation-less nodes and nodes whose alternatives are
        all infinite.  The ids are a tuple, the ``choice_op`` of a
        :class:`~repro.optimizer.plans.ConsolidatedPlan` as it stands.  The
        inner loop reads the memoized effective child cost
        ``C(e) = min(cost(e), reusecost(e) if e ∈ M)`` from a side table
        maintained with one membership test per *node* instead of one per
        child read; with no materializations the side table aliases the cost
        list outright.
        """
        costs: List[float] = [0.0] * self.num_nodes
        choice_op: List[int] = [-1] * self.num_nodes
        # C(e) per node; identical to ``costs`` when nothing is materialized.
        effective = costs if not materialized else [0.0] * self.num_nodes
        op_specs = self.op_specs
        op_ids = self.op_ids
        reuse_cost = self.reuse_cost
        is_base = self.is_base
        distinct = effective is not costs
        for node_id in self.topo_order:
            # Base tables cost 0 even if (atypically) given operations, as
            # the Section 3.1 recurrence has it.
            if is_base[node_id]:
                cost = 0.0
            else:
                operations = op_specs[node_id]
                if operations is None:
                    cost = INFINITE_COST
                else:
                    index, cost = argmin_operation(operations, effective)
                    if index >= 0:
                        choice_op[node_id] = op_ids[node_id][index]
                costs[node_id] = cost
            if distinct:
                if node_id in materialized:
                    reuse = reuse_cost[node_id]
                    effective[node_id] = reuse if reuse < cost else cost
                else:
                    effective[node_id] = cost
        return costs, tuple(choice_op)

    def compute_costs(self, materialized: Set[int] = EMPTY_SET) -> List[float]:
        """``cost(e)`` for every node (the costs of one :meth:`sweep`; the
        shared, read-only :meth:`baseline` list when *materialized* is
        empty)."""
        return (self.sweep(materialized) if materialized else self.baseline())[0]

    def baseline(self) -> Tuple[List[float], Tuple[int, ...]]:
        """``sweep(∅)``, memoized for the engine's lifetime.

        The empty-set sweep is what every search starts from (Volcano's
        plan, Volcano-SH's starting plan, the cost-state seeds of greedy and
        Volcano-RU, the Volcano-SH fallback table) and the snapshot's
        annotations are frozen (see :func:`get_engine`), so one sweep serves
        them all.  The cost list is shared: callers must treat it as
        read-only and copy (``list(...)``) before mutating.
        """
        if self._baseline is None:
            self._baseline = self.sweep()
        return self._baseline

    def reachable_flags(self, choice_op: Sequence[int]) -> bytearray:
        """Byte flags of the nodes reachable from the root under *choice_op*.

        *choice_op* maps node id to the operation id a consolidated plan
        chose for it (``-1`` where the plan chose nothing); the walk descends
        from the root through chosen operations only.  This is the
        reachability snapshot the Volcano-SH/RU decision passes sweep over —
        owning it here keeps every structural walk on the engine's dense
        arrays.
        """
        reachable = bytearray(self.num_nodes)
        is_base = self.is_base
        op_children = self.arena.op_children
        stack = [self.root_id]
        while stack:
            node_id = stack.pop()
            if reachable[node_id]:
                continue
            reachable[node_id] = 1
            if is_base[node_id]:
                continue
            op_id = choice_op[node_id]
            if op_id >= 0:
                stack.extend(op_children[op_id])
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


def argmin_operation(
    operations: Tuple[Tuple[Any, ...], ...], effective: Sequence[float]
) -> Tuple[int, float]:
    """``(index, cost)`` of the cheapest operation of one ``op_specs`` row
    under the effective child costs; ``(-1, inf)`` when every alternative is
    infinite.

    The one argmin body of the package: the cost sweep and Volcano-RU's
    plan walk call it.  The strict ``<`` (first wins ties) and
    the left-associated accumulation are contractual: incremental callers
    recompute single choices with it and must land on the operation and the
    float a full sweep would, which the differential suite asserts.  The
    unit pair ``(left, right, local)`` (every join) is tested first; the
    one-child, other-pair and many-input shapes follow (see
    ``arena._op_spec``).
    """
    best_index = -1
    best = INFINITE_COST
    for op_index, entry in enumerate(operations):
        arity = len(entry)
        if arity == 3:
            left, right, local_cost = entry
            total = local_cost + effective[left] + effective[right]
        elif arity == 4:
            c1, m1, local_cost, _ = entry
            total = local_cost + m1 * effective[c1]
        elif arity == 5:
            c1, m1, c2, m2, local_cost = entry
            total = local_cost + m1 * effective[c1] + m2 * effective[c2]
        else:
            children, total = entry
            for child_id, multiplier in children:
                total += multiplier * effective[child_id]
        if total < best:
            best = total
            best_index = op_index
    return best_index, best


class IncrementalCostState:
    """The incremental cost update machinery of Figure 5, on dense tables.

    Maintains ``cost(e)`` for every equivalence node under the current
    materialized set, propagates the effect of materializing a single node
    upwards through its ancestors in topological order, and keeps the running
    total ``bestcost(Q, X)`` in sync so that :meth:`total` is O(1) instead of
    O(|X|) per benefit probe.

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
        "_best",
        "_eps",
    )

    def __init__(self, dag: Dag, epsilon: float = _EPSILON) -> None:
        self.dag = dag
        self.engine = get_engine(dag)
        #: Propagation cut-off.  The default prunes sub-jitter deltas (and is
        #: what the Figure 10 propagation counters are calibrated against);
        #: ``epsilon=0.0`` makes every add *exactly* equivalent to a
        #: from-scratch ``compute_costs`` — a node is recomputed whenever any
        #: input bit changed, and untouched nodes keep values computed from
        #: bit-identical inputs — which is what incremental Volcano-RU needs
        #: to stay byte-identical to its from-scratch formulation.
        self._eps = epsilon
        self.materialized: Set[int] = set()
        self._costs: List[float] = list(self.engine.baseline()[0])
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
        #: Scratch running minimum per frontier node of an add: the cheapest
        #: price of its operations that read a changed child (``inf``
        #: outside an add; reset by each pop).
        self._best: List[float] = [INFINITE_COST] * num_nodes

    def total(self) -> float:
        """``bestcost(Q, X)`` for the current materialized set."""
        return self._total

    def snapshot_costs(self) -> List[float]:
        """An independent dense copy of the current cost table."""
        return list(self._costs)

    # -- materialization ------------------------------------------------------
    def materialize_id(self, node_id: int) -> List[Tuple[int, float]]:
        """Materialize node *node_id* and propagate the cost decreases
        upwards in topological order.

        Returns the undo log: the list of ``(node_id, previous_cost)`` entries
        that were overwritten, in propagation order.
        """
        engine = self.engine
        costs = self._costs
        effective = self._effective
        materialized = self.materialized
        mat_flags = self._mat_flags
        pending = self._pending
        best = self._best
        reuse_cost = engine.reuse_cost
        op_specs = engine.op_specs
        op_spec = engine.arena.op_spec
        op_owner = engine.op_owner
        parent_op_ids = engine.parent_op_ids
        topo_key = engine.topo_key
        num_nodes = engine.num_nodes
        root_id = engine.root_id
        heappush = heapq.heappush
        heappop = heapq.heappop
        eps = self._eps

        if node_id in materialized:
            # A repeated add would double-count the node's contribution in
            # the incrementally maintained total; fail fast instead.
            raise ValueError(f"node {node_id} is already materialized")
        # The node's own cost never depends on its own membership (the DAG is
        # acyclic), so its pre-propagation cost is its final cost contribution.
        cost = costs[node_id]
        materialized.add(node_id)
        mat_flags[node_id] = 1
        self._total += cost + engine.mat_cost[node_id]
        reuse = reuse_cost[node_id]
        effective[node_id] = reuse if reuse < cost else cost

        undo: List[Tuple[int, float]] = []
        heap: List[int] = [topo_key[node_id]]
        pending[node_id] = 1
        propagations = 0
        # Per owner, the many-input operations that read a changed node, in
        # a dict used as an ordered set.  Each is priced once, at its owner's
        # pop, when every input is final, not once per changed child.
        deferred: Dict[int, Dict[int, None]] = {}
        # Decrease-only propagation: every effective input can only fall, so
        # a popped node's new cost is the minimum of its stored cost and the
        # prices of the operations that read a changed child, folded into
        # ``best`` as each child changed (see the module docstring for why
        # this equals a full re-pricing).
        while heap:
            current_id = heappop(heap) % num_nodes
            pending[current_id] = 0
            propagations += 1
            if current_id != node_id:
                candidate = best[current_id]
                best[current_id] = INFINITE_COST
                if op_specs[current_id] is None:
                    continue
                if deferred:
                    many = deferred.pop(current_id, None)
                    if many is not None:
                        for op_id in many:
                            children, price = op_spec[op_id]
                            for child_id, multiplier in children:
                                price += multiplier * effective[child_id]
                            if price < candidate:
                                candidate = price
                old_cost = costs[current_id]
                delta = candidate - old_cost
                if not delta < -eps:
                    continue
                undo.append((current_id, old_cost))
                costs[current_id] = candidate
                if current_id == root_id:
                    self._total += delta
                if mat_flags[current_id]:
                    self._total += delta
                    reuse = reuse_cost[current_id]
                    effective[current_id] = reuse if reuse < candidate else candidate
                else:
                    effective[current_id] = candidate
            # The operations reading this node, priced inline: a call per
            # operation would cost more than the arithmetic.
            for op_id in parent_op_ids[current_id]:
                entry = op_spec[op_id]
                arity = len(entry)
                owner = op_owner[op_id]
                if arity == 3:
                    left, right, local_cost = entry
                    price = local_cost + effective[left] + effective[right]
                elif arity == 4:
                    c1, m1, local_cost, _ = entry
                    price = local_cost + m1 * effective[c1]
                elif arity == 5:
                    c1, m1, c2, m2, local_cost = entry
                    price = local_cost + m1 * effective[c1] + m2 * effective[c2]
                else:
                    # Many inputs: priced at the owner's pop (see ``deferred``).
                    deferred.setdefault(owner, {})[op_id] = None
                    price = INFINITE_COST
                if price < best[owner]:
                    best[owner] = price
                if not pending[owner]:
                    pending[owner] = 1
                    heappush(heap, topo_key[owner])
        self.propagations += propagations
        return undo

    # -- benefit probes -------------------------------------------------------
    def cost_with_id(self, node_id: int) -> float:
        """``bestcost(Q, X ∪ {node_id})`` without permanently changing the
        state: one :meth:`materialize_id` + exact restore.

        The restore writes the logged previous costs back verbatim and resets
        the total to its saved value, so long probe sequences are drift-free
        (no reversed floating-point arithmetic is involved at all).
        """
        previous_total = self._total
        undo_log = self.materialize_id(node_id)
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
