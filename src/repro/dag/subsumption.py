"""Subsumption derivations (Section 2.1 of the paper).

After the individual queries have been represented in the DAG, this pass adds
derivations that let one sub-expression be computed from another:

* **Selection subsumption** — if predicate ``P1`` implies ``P2`` then
  ``σ_P1(E)`` can be derived as ``σ_P1(σ_P2(E))``; an extra (flagged)
  selection operation is added between the two equivalence nodes.
* **Disjunction nodes** — for equality selections on the same column
  (``σ_{A=5}(E)``, ``σ_{A=10}(E)``) a new node ``σ_{A=5 ∨ A=10}(E)`` is
  created and both originals are derived from it, representing shared access.
* **Aggregation subsumption** — ``γ_{dno;sum(sal)}(E)`` and
  ``γ_{age;sum(sal)}(E)`` are both derivable from ``γ_{dno,age;sum(sal)}(E)``
  by further group-bys.
* **Join-level subsumption** — when two queries join the same relations with
  the same join predicates but *different* single-table selections (the
  batched and scale-up workloads of Section 6 are full of this pattern), a
  shared "weaker" join node with the common selections is created and each
  original join is derived from it by a residual selection.  This is the DAG
  form of the alternative plans that a transformation-based generator obtains
  by *not* pushing the differing selections down.

Every operation node added here is flagged ``is_subsumption`` so that
Volcano-SH can apply its pre-pass/undo rule and reports can count them.

The pass reuses the builder's memo tables (see :mod:`repro.dag.builder`):
the join-space re-expansion a weak join triggers hash-conses every sub-join
it shares with the original queries or with other weak-join ranges, which
is what keeps this pass cheap on the scale-up workloads (70+ heavily
overlapping ranges).  Weak joins themselves are not memoized: each group of
the pass asks for its own.  When the builder carries a catalog-lifetime
session cache (:mod:`repro.service.session`), the scans and join expansions
the weak joins trigger resolve through the session's catalog-dependent
fragment caches across builds; implication proofs and weak-join predicate
sorts are recomputed per build (caching them across builds measured within
noise).
The reference builder (``memoize=False``) runs the pass with none of these
tables and remains the byte-identity oracle.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.expressions import AggregateFunction
from repro.algebra.predicates import (
    Comparison,
    Predicate,
    and_,
    implies,
    or_,
)
from repro.cost import algorithms as alg
from repro.dag.nodes import AggregateOp, CachedReadOp, ScanOp, SelectOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.builder import DagBuilder
    from repro.execution.result_cache import ResultCacheEntry


def apply_subsumption(builder: "DagBuilder") -> int:
    """Add all subsumption derivations to the builder's DAG.

    Returns the number of derivations (operation nodes) added.
    """
    added = 0
    added += _selection_subsumption(builder)
    added += _disjunction_subsumption(builder)
    added += _aggregate_subsumption(builder)
    added += _join_subsumption(builder)
    return added


# ---------------------------------------------------------------------------
# Selection subsumption on scans and selects
# ---------------------------------------------------------------------------

def _scan_groups(builder: "DagBuilder") -> Dict[Tuple[str, str], List[int]]:
    """Group scan equivalence node ids by (table, alias)."""
    groups: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    for eq_id, key in enumerate(builder.dag.arena.eq_key):
        if isinstance(key, tuple) and key and key[0] == "scan":
            groups[(key[1], key[2])].append(eq_id)
    return groups


def _select_groups(builder: "DagBuilder") -> Dict[object, List[int]]:
    """Group select equivalence node ids by their child key."""
    groups: Dict[object, List[int]] = defaultdict(list)
    for eq_id, key in enumerate(builder.dag.arena.eq_key):
        if isinstance(key, tuple) and key and key[0] == "select":
            groups[key[1]].append(eq_id)
    return groups


def _key_predicates(key: object) -> FrozenSet[Predicate]:
    """The selection predicates applied by a scan/select equivalence key."""
    if isinstance(key, tuple) and key and key[0] in ("scan", "select"):
        return key[-1]
    return frozenset()


def _selection_subsumption(builder: "DagBuilder") -> int:
    added = 0
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    groups = list(_scan_groups(builder).values()) + list(_select_groups(builder).values())
    for members in groups:
        if len(members) < 2:
            continue
        for stronger in members:
            stronger_preds = _key_predicates(eq_key[stronger])
            if not stronger_preds:
                continue
            for weaker in members:
                if weaker == stronger:
                    continue
                weaker_preds = _key_predicates(eq_key[weaker])
                if stronger_preds == weaker_preds:
                    continue
                if not weaker_preds:
                    continue
                if implies(and_(*stronger_preds), and_(*weaker_preds)):  # repro-lint: ok(D001) boolean implication is conjunct-order independent
                    # Sorted: the conjunct order is persisted in the SelectOp
                    # (and printed by plan explains), and iterating the
                    # frozenset directly made it vary with PYTHONHASHSEED.
                    predicate = and_(*sorted(stronger_preds, key=str))
                    cost = alg.filter_cost(
                        builder.cost_model, eq_props[weaker].rows, eq_props[stronger].rows
                    )
                    builder.dag.add_operation_id(
                        stronger,
                        SelectOp(predicate),
                        (weaker,),
                        cost.total,
                        is_subsumption=True,
                    )
                    added += 1
    return added


# ---------------------------------------------------------------------------
# Cross-batch result-cache injection (PR 10)
# ---------------------------------------------------------------------------

def inject_cached_results(builder: "DagBuilder") -> int:
    """Inject cached executed results as base derivations of scan nodes.

    For every scan equivalence node of the freshly built DAG, the builder's
    :class:`~repro.execution.result_cache.ResultCache` is consulted for
    entries over the same ``(table, alias)``:

    * an entry whose predicate set matches the node's **exactly** is
      injected as-is (no residual);
    * otherwise the cheapest entry whose predicates are **implied** by the
      node's (the same :func:`~repro.algebra.predicates.implies` proof the
      selection-subsumption pass uses — a cached *weaker* result is a
      superset of the needed rows) is injected with a compensating residual
      selection over the full predicate set.

    Injection is restricted to scan-family keys deliberately: every
    derivation of a scan equivalence node produces rows in table-scan order
    with identical column sets (the executor never prunes columns), so
    serving the cached rows — filtered by the residual for covering hits —
    is byte-identical to any cold derivation of the node.  The injected
    operation is a :class:`~repro.dag.nodes.CachedReadOp` over a new base
    equivalence node keyed ``("cached-result", digest)``.

    **Admission and pricing.**  The reuse-cost model
    (:func:`repro.cost.algorithms.cached_read_cost`) gates admission: an
    entry is injected only when reading it back (plus the residual filter)
    is estimated no more expensive than the node's plain table scan.  The
    injected operation itself is priced *infinite*, which keeps it invisible
    to every cost table and argmin of the optimization search — join-order,
    materialization, and tie-break decisions are bit-identical to a
    cache-off build.  Adoption happens per node, after the search, in
    :func:`repro.execution.result_cache.adopt_cached_reads`; because it only
    ever swaps the derivation of a scan-family node, the executed rows are
    byte-identical to the cache-off plan's.  Candidate order and the
    injected predicate order are canonical (sorted by content), so injection
    is deterministic across ``PYTHONHASHSEED`` values and processes.

    Returns the number of operations injected.
    """
    cache = builder._result_cache
    if cache is None:
        return 0
    added = 0
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    for (table, alias), members in sorted(_scan_groups(builder).items()):
        candidates = cache.scan_candidates(table, alias)
        if not candidates:
            continue
        deps_id: Optional[int] = None
        for eq_id in members:
            scan_cost = _plain_scan_cost(builder, eq_id)
            if scan_cost is None:
                continue
            preds = _key_predicates(eq_key[eq_id])
            chosen: Optional["ResultCacheEntry"] = None
            residual: Optional[Predicate] = None
            for entry in candidates:
                if entry.predicates == preds:
                    chosen = entry
                    break
            if chosen is None and preds:
                # Covering: candidates come smallest-first, so the first
                # implied (strictly weaker) entry is the cheapest to read
                # and filter.
                for entry in candidates:
                    weaker = entry.predicates or frozenset()
                    if weaker == preds:
                        continue
                    if not weaker or implies(and_(*preds), and_(*weaker)):  # repro-lint: ok(D001) boolean implication is conjunct-order independent
                        chosen = entry
                        residual = and_(*sorted(preds, key=str))
                        break
            if chosen is None:
                continue
            reuse_cost = alg.cached_read_cost(
                builder.cost_model,
                float(chosen.row_count),
                float(chosen.blocks),
                eq_props[eq_id].rows,
                residual is not None,
            )
            if reuse_cost.total > scan_cost:
                continue
            base_key = ("cached-result", chosen.digest)
            base_id = builder.dag.find_id(base_key)
            if base_id is None:
                base_node = builder.dag.equivalence(
                    base_key,
                    chosen.props,
                    f"cached[{chosen.digest[:12]}]",
                    is_base=True,
                )
                base_id = base_node.id
                if builder._session is not None:
                    if deps_id is None:
                        deps_id = builder._leaf_tag_deps(table)[1]
                    builder._register_id(base_id, deps_id)
            builder.dag.add_operation_id(
                eq_id,
                CachedReadOp(
                    digest=chosen.digest,
                    table=table,
                    alias=alias,
                    blocks=chosen.blocks,
                    row_count=chosen.row_count,
                    residual=residual,
                    columns=chosen.columns,
                    rows=chosen.rows,
                ),
                (base_id,),
                float("inf"),
            )
            if residual is None:
                cache.exact_injections += 1
            else:
                cache.covering_injections += 1
            added += 1
    return added


def _plain_scan_cost(builder: "DagBuilder", eq_id: int) -> Optional[float]:
    """Local cost of the node's plain :class:`ScanOp` derivation, if any.

    The admission baseline for cached reads: reading a cached result must
    be estimated no more expensive than rescanning the stored table (the
    scan operation's child is the zero-cost base node, so its local cost is
    its total).
    """
    arena = builder.dag.arena
    for op_id in arena.eq_op_ids[eq_id]:
        if isinstance(arena.op_operator[op_id], ScanOp):
            return arena.op_local_cost[op_id]
    return None


# ---------------------------------------------------------------------------
# Disjunction nodes for equality selections
# ---------------------------------------------------------------------------

def _single_equality(predicates: FrozenSet[Predicate]) -> Optional[Comparison]:
    """Return the single ``column = constant`` comparison, if that is all."""
    if len(predicates) != 1:
        return None
    (predicate,) = predicates
    if isinstance(predicate, Comparison):
        normalized = predicate.normalized()
        if normalized.op == "=" and normalized.is_column_constant():
            return normalized
    return None


def _disjunction_subsumption(builder: "DagBuilder") -> int:
    added = 0
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    for (table, alias), members in _scan_groups(builder).items():
        by_column: Dict[ColumnRef, List[Tuple[int, Comparison]]] = defaultdict(list)
        for eq_id in members:
            comparison = _single_equality(_key_predicates(eq_key[eq_id]))
            if comparison is not None:
                by_column[comparison.left].append((eq_id, comparison))
        for column, entries in by_column.items():
            if len(entries) < 2:
                continue
            distinct = {comparison.right for _, comparison in entries}
            if len(distinct) < 2:
                continue
            disjunction = or_(*sorted((c for _, c in entries), key=str))
            shared_id = builder.scan_equivalence_id(table, alias, [disjunction])
            arena.eq_created_by_subsumption[shared_id] = True
            for eq_id, comparison in entries:
                if eq_id == shared_id:
                    continue
                cost = alg.filter_cost(
                    builder.cost_model, eq_props[shared_id].rows, eq_props[eq_id].rows
                )
                builder.dag.add_operation_id(
                    eq_id, SelectOp(comparison), (shared_id,), cost.total, is_subsumption=True
                )
                added += 1
    return added


# ---------------------------------------------------------------------------
# Aggregation subsumption
# ---------------------------------------------------------------------------

_DECOMPOSABLE = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def _aggregate_subsumption(builder: "DagBuilder") -> int:
    added = 0
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    groups: Dict[object, List[int]] = defaultdict(list)
    for eq_id, key in enumerate(eq_key):
        if isinstance(key, tuple) and key and key[0] == "agg":
            child_key, group_by, aggregates = key[1], key[2], key[3]
            if not group_by:
                continue
            if any(a.func not in _DECOMPOSABLE for a in aggregates):
                continue
            signature = (child_key, frozenset((a.func, a.column) for a in aggregates))
            groups[signature].append(eq_id)
    for members in groups.values():
        group_sets = {frozenset(eq_key[m][2]) for m in members}
        if len(group_sets) < 2:
            continue
        combined_columns = tuple(sorted(frozenset().union(*group_sets)))
        template_key = eq_key[members[0]]
        child_id = _aggregate_child_id(builder, members[0])
        if child_id is None:
            continue
        aggregates = template_key[3]
        combined_alias = "shared_" + "_".join(sorted(c.column for c in combined_columns))
        combined = builder.aggregate_equivalence(
            arena.eq_view(child_id), combined_columns, aggregates, combined_alias
        )
        combined_id = combined.id
        arena.eq_created_by_subsumption[combined_id] = True
        for eq_id in members:
            node_key = eq_key[eq_id]
            if frozenset(node_key[2]) == frozenset(combined_columns):
                continue
            regroup = tuple(ColumnRef(combined_alias, c.column) for c in node_key[2])
            re_aggs = tuple(
                AggregateFunction(
                    _DECOMPOSABLE[a.func], ColumnRef(combined_alias, a.alias), a.alias
                )
                for a in node_key[3]
            )
            choice = alg.choose_aggregate(
                builder.cost_model, eq_props[combined_id], regroup, eq_props[eq_id].rows
            )
            builder.dag.add_operation_id(
                eq_id,
                AggregateOp(regroup, re_aggs, node_key[4]),
                (combined_id,),
                choice.total,
                is_subsumption=True,
            )
            added += 1
    return added


def _aggregate_child_id(builder: "DagBuilder", eq_id: int) -> Optional[int]:
    arena = builder.dag.arena
    for op_id in arena.eq_op_ids[eq_id]:
        if isinstance(arena.op_operator[op_id], AggregateOp) and not arena.op_is_subsumption[op_id]:
            return arena.op_children[op_id][0]
    return None


# ---------------------------------------------------------------------------
# Join-level subsumption (shared weaker joins)
# ---------------------------------------------------------------------------

def _join_subsumption(builder: "DagBuilder") -> int:
    added = 0
    arena = builder.dag.arena
    eq_key = arena.eq_key
    eq_props = arena.eq_props
    groups: Dict[object, List[int]] = defaultdict(list)
    for eq_id, key in enumerate(eq_key):
        if not (isinstance(key, tuple) and key and key[0] == "join"):
            continue
        leaf_keys, join_preds = key[1], key[2]
        identities = []
        ok = True
        for leaf_key in leaf_keys:
            if isinstance(leaf_key, tuple) and leaf_key and leaf_key[0] == "scan":
                identities.append((leaf_key[1], leaf_key[2]))
            else:
                ok = False
                break
        if not ok:
            continue
        groups[(frozenset(identities), join_preds)].append(eq_id)

    for (identities, join_preds), members in groups.items():
        if len(members) < 2:
            continue
        # Intersect the per-leaf selections across the group.
        per_leaf: Dict[Tuple[str, str], List[FrozenSet[Predicate]]] = defaultdict(list)
        for eq_id in members:
            for leaf_key in eq_key[eq_id][1]:
                per_leaf[(leaf_key[1], leaf_key[2])].append(leaf_key[3])
        weak_preds = {
            identity: frozenset.intersection(*pred_sets)
            for identity, pred_sets in per_leaf.items()
        }
        if all(
            weak_preds[(leaf_key[1], leaf_key[2])] == leaf_key[3]
            for eq_id in members
            for leaf_key in eq_key[eq_id][1]
        ):
            continue  # the members are already identical in their selections
        weak_id = _weak_join_node(builder, weak_preds, join_preds)
        if weak_id is None:
            continue
        arena.eq_created_by_subsumption[weak_id] = True
        for eq_id in members:
            if eq_id == weak_id:
                continue
            residual: List[Predicate] = []
            for leaf_key in eq_key[eq_id][1]:
                extra = leaf_key[3] - weak_preds[(leaf_key[1], leaf_key[2])]
                residual.extend(extra)
            if not residual:
                continue
            predicate = and_(*sorted(residual, key=str))
            cost = alg.filter_cost(
                builder.cost_model, eq_props[weak_id].rows, eq_props[eq_id].rows
            )
            builder.dag.add_operation_id(
                eq_id, SelectOp(predicate), (weak_id,), cost.total, is_subsumption=True
            )
            added += 1
    return added


def _weak_join_node(
    builder: "DagBuilder",
    weak_preds: Dict[Tuple[str, str], FrozenSet[Predicate]],
    join_preds: FrozenSet[Predicate],
) -> Optional[int]:
    """Build (or find) the id of the join node over the weakened leaves.

    Each call has its own weakened selections and join predicates (the
    groups of :func:`_join_subsumption` are keyed on them), so there is
    nothing to memoize per call.  The expansion hash-conses every sub-join
    it shares with the queries or with other weak-join ranges, which is what
    makes the 70-odd overlapping ranges of the scale-up workloads cheap.
    With a session cache attached, the scans resolve through the session's
    scan cache and the expansion through its block logs.
    """
    aliases = []
    leaf_ids: Dict[str, int] = {}
    for (table, alias), predicates in sorted(weak_preds.items()):
        aliases.append(alias)
        leaf_ids[alias] = builder.scan_equivalence_id(
            table, alias, tuple(sorted(predicates, key=str))
        )
    if len(aliases) < 2:
        return None
    return builder._expand_join_space(aliases, leaf_ids, sorted(join_preds, key=str))
