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

The pass reads its groups from indexes the builder fills as it creates
nodes (scans by ``(table, alias)``, selections by child key, joins over
scans by :func:`repro.dag.builder.join_group`), so it never walks the whole
DAG; the builder's oracle (``tests/oracles/builder.py``) regroups the whole
DAG instead.  The pass reuses the builder's memo tables: the join-space
re-expansion a weak join triggers hash-conses every sub-join it shares with
the original queries or with other weak-join ranges, which is what keeps
this pass cheap on the scale-up workloads (70+ heavily overlapping ranges),
and a weak join whose node the build has expanded already adds nothing (see
:func:`_weak_join_node`).

With a session cache (:mod:`repro.service.session`), each join group's
derivation is logged in the ``subsumption_logs`` family, keyed on the
members' key ids (:class:`GroupLog`): a warm build finds the weak join by
its logged key id or builds it from the logged scans and block log, and
appends the logged selections and costs, with no intersection, sort,
conjunction, :class:`~repro.dag.nodes.SelectOp` or filter pricing.  The
scans and join expansions weak joins trigger resolve through the session's
``scans`` and ``block_logs`` families.  The implication proofs of selection
subsumption are recomputed per build, with one conjunction per group member.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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
    groups = list(builder._scan_groups().values()) + list(builder._select_groups().values())
    for members in groups:
        if len(members) < 2:
            continue
        member_preds = [_key_predicates(eq_key[member]) for member in members]
        # One conjunction per member, shared by every pair it takes part in.
        # Sorted: the conjunct order is persisted in the SelectOp (and
        # printed by plan explains), and iterating the frozenset directly
        # made it vary with PYTHONHASHSEED; the implication proof does not
        # depend on it.
        conjunctions = [and_(*sorted(preds, key=str)) for preds in member_preds]
        for stronger, stronger_preds, stronger_all in zip(members, member_preds, conjunctions):
            if not stronger_preds:
                continue
            for weaker, weaker_preds, weaker_all in zip(members, member_preds, conjunctions):
                if weaker == stronger:
                    continue
                if stronger_preds == weaker_preds:
                    continue
                if not weaker_preds:
                    continue
                if implies(stronger_all, weaker_all):
                    cost = alg.filter_cost(
                        builder.cost_model, eq_props[weaker].rows, eq_props[stronger].rows
                    )
                    arena.add_operation(
                        stronger,
                        SelectOp(stronger_all),
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
    for (table, alias), members in sorted(builder._scan_groups().items()):
        candidates = cache.scan_candidates(table, alias)
        if not candidates:
            continue
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
            base_id = arena.by_key.get(base_key)
            if base_id is None:
                base_node = builder.dag.equivalence(
                    base_key,
                    chosen.props,
                    f"cached[{chosen.digest[:12]}]",
                    is_base=True,
                )
                base_id = base_node.id
                if builder._session is not None:
                    builder._register_id(base_id)
            arena.add_operation(
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
    # A list: the disjunction scans made below join the live index.
    for (table, alias), members in list(builder._scan_groups().items()):
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
                arena.add_operation(
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
            arena.add_operation(
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

#: One weak leaf of a join group: ``(table, alias, predicates)``, the
#: predicates sorted by ``str``.
ScanSpec = Tuple[str, str, Tuple[Predicate, ...]]

#: One pricing of a group's residual selections: the rows of the weak join
#: and of each member, then each member's filter cost (0.0 for a member
#: with no residual selection).
Prices = Tuple[Tuple[float, ...], Tuple[float, ...]]

#: Pricings kept per group log, the latest first: a statistics write and
#: the write restoring it each find theirs.
PRICE_VARIANTS = 2

_SELECTION = (SelectOp, type(None))

#: A ``subsumption_logs`` lookup's default: a stored ``None`` is a log.
_MISSING: Any = object()


class GroupLog(NamedTuple):
    """A join group's derivation, as the ``subsumption_logs`` family keeps it.

    ``scans`` are the weak join's leaves in ``(table, alias)`` order and
    ``join_predicates`` its predicates, sorted by ``str``: the weak join is
    built from them as from the intersected selections.  ``leaf_kids`` are
    the key ids of its leaves and ``weak_kid`` that of its node.
    ``selects`` holds, per group member in id order, the
    residual selection deriving the member from the weak join (``None`` when
    there is none).  These are functions of the members' keys.  A filter
    cost is a function of two row counts, so ``prices`` holds up to
    :data:`PRICE_VARIANTS` pricings (:data:`Prices`), each valid in the
    builds whose nodes carry its rows.
    """

    scans: Tuple[ScanSpec, ...]
    join_predicates: Tuple[Predicate, ...]
    leaf_kids: Tuple[int, ...]
    weak_kid: int
    selects: Tuple[Optional[SelectOp], ...]
    prices: Tuple[Prices, ...]


def _join_subsumption(builder: "DagBuilder") -> int:
    added = 0
    session = builder._session
    for members in builder._join_groups():
        if session is not None:
            added += _replay_group(builder, members)
            continue
        derivation = _derive_group(builder, members)
        if derivation is not None:
            scans, join_predicates, selects = derivation
            weak_id = _weak_join_node(builder, scans, join_predicates)[0]
            added += _add_residuals(builder, members, weak_id, selects, ())[0]
    return added


def _derive_group(
    builder: "DagBuilder", members: List[int]
) -> Optional[Tuple[Tuple[ScanSpec, ...], Tuple[Predicate, ...], Tuple[Optional[SelectOp], ...]]]:
    """The weak leaves, join predicates and residual selections of a group
    (see :class:`GroupLog`), or ``None`` when its members' selections are
    identical."""
    eq_key = builder.dag.arena.eq_key
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
        return None
    selects: List[Optional[SelectOp]] = []
    for eq_id in members:
        residual: List[Predicate] = []
        for leaf_key in eq_key[eq_id][1]:
            residual.extend(leaf_key[3] - weak_preds[(leaf_key[1], leaf_key[2])])
        selects.append(SelectOp(and_(*sorted(residual, key=str))) if residual else None)
    scans = tuple(
        (table, alias, tuple(sorted(predicates, key=str)))
        for (table, alias), predicates in sorted(weak_preds.items())
    )
    join_predicates = tuple(sorted(eq_key[members[0]][2], key=str))
    return scans, join_predicates, tuple(selects)


def _add_residuals(
    builder: "DagBuilder",
    members: List[int],
    weak_id: int,
    selects: Tuple[Optional[SelectOp], ...],
    prices: Tuple[Prices, ...],
) -> Tuple[int, Tuple[Prices, ...]]:
    """Derive a group's members from its weak join by their residual
    selections.

    The costs come from the pricing in *prices* whose rows the weak join
    and the members carry, and are priced otherwise.  Returns the
    operations added and the pricings: *prices* itself when one of them
    served, else the new pricing followed by the latest of *prices*.
    """
    arena = builder.dag.arena
    arena.eq_created_by_subsumption[weak_id] = True
    eq_props = arena.eq_props
    rows = (eq_props[weak_id].rows,) + tuple([eq_props[eq_id].rows for eq_id in members])
    for logged_rows, costs in prices:
        if logged_rows == rows:
            break
    else:
        weak_rows = rows[0]
        cost_model = builder.cost_model
        costs = tuple([
            0.0 if select is None else alg.filter_cost(cost_model, weak_rows, member_rows).total
            for select, member_rows in zip(selects, rows[1:])
        ])
        prices = ((rows, costs),) + prices[:PRICE_VARIANTS - 1]
    # Each residual selection is new: a member is in one group, and only
    # its group's weak join derives it.
    append_operation = arena.append_operation
    added = 0
    for eq_id, select, cost in zip(members, selects, costs):
        if select is not None:
            append_operation(eq_id, select, (weak_id,), cost, None, True)
            added += 1
    return added, prices


def _replay_group(builder: "DagBuilder", members: List[int]) -> int:
    """A group's derivation through the session's ``subsumption_logs``,
    keyed on the members' key ids.

    A log one of whose pricings serves is appended as logged (a hit); its
    weak join is the node of the logged key id when this build has expanded
    that node already (see :func:`_weak_join_node`).  Otherwise (a miss)
    the group is derived, or only its selections priced again, and its log
    stored.  A malformed entry counts as a quarantine of the family and is
    replaced.
    """
    session = builder._session
    node_kid = builder._node_kid
    signature = tuple([node_kid[eq_id] for eq_id in members])
    logs = session.subsumption_logs
    entry = logs.get(signature, _MISSING)
    if entry is not _MISSING:
        try:
            log = find(entry, len(members))
        except (TypeError, ValueError, IndexError):
            logs.quarantined += 1
        else:
            if log is None:
                session.stats.hits += 1
                return 0
            kid_node = builder._kid_node
            weak_id = kid_node.get(log.weak_kid)
            if weak_id is None or weak_id not in builder._expanded_joins:
                leaf_ids = [kid_node.get(kid) for kid in log.leaf_kids]
                weak_id = _weak_join_node(
                    builder, log.scans, log.join_predicates,
                    None if None in leaf_ids else leaf_ids,
                )[0]
            added, prices = _add_residuals(builder, members, weak_id, log.selects, log.prices)
            if prices is log.prices:
                session.stats.hits += 1
            else:
                session.stats.misses += 1
                logs[signature] = log._replace(prices=prices)
            return added
    session.stats.misses += 1
    derivation = _derive_group(builder, members)
    added = 0
    log = None
    if derivation is not None:
        scans, join_predicates, selects = derivation
        weak_id, leaf_ids = _weak_join_node(builder, scans, join_predicates)
        added, prices = _add_residuals(builder, members, weak_id, selects, ())
        leaf_kids = tuple([node_kid[leaf_id] for leaf_id in leaf_ids])
        log = GroupLog(scans, join_predicates, leaf_kids, node_kid[weak_id], selects, prices)
    logs[signature] = log
    return added


def find(log: Any, count: int) -> Optional[GroupLog]:
    """The ``subsumption_logs`` entry *log* checked for a group of *count*
    members (``None``: the members' selections are identical).

    Side-effect free; raises ``TypeError``, ``ValueError`` or ``IndexError``
    on a malformed entry, which only a damaged cache value is, so that
    :func:`_add_residuals` cannot fail part-way.
    """
    if log is None:
        return None
    if log.__class__ is not GroupLog:
        raise TypeError("not a subsumption log")
    scans, join_predicates, leaf_kids, weak_kid, selects, prices = log
    if not (
        selects.__class__ is join_predicates.__class__ is prices.__class__ is tuple
        and leaf_kids.__class__ is scans.__class__ is tuple
        and len(leaf_kids) == len(scans)
        and all(map(isinstance, leaf_kids, repeat(int)))
        and weak_kid.__class__ is int
        and len(selects) == count
        and all(map(isinstance, selects, repeat(_SELECTION, count)))
        and all(map(isinstance, join_predicates, repeat(Predicate)))
        and 0 < len(prices) <= PRICE_VARIANTS
    ):
        raise ValueError("malformed subsumption log")
    for rows, costs in prices:
        if not (
            rows.__class__ is costs.__class__ is tuple
            and len(rows) == count + 1
            and len(costs) == count
            and all(map(isinstance, rows + costs, repeat(float)))
        ):
            raise ValueError("malformed subsumption-log pricing")
    for table, alias, predicates in scans:
        if not (
            table.__class__ is alias.__class__ is str
            and predicates.__class__ is tuple
            and all(map(isinstance, predicates, repeat(Predicate)))
        ):
            raise ValueError("malformed subsumption-log scan")
    return log


def _weak_join_node(
    builder: "DagBuilder",
    scans: Tuple[ScanSpec, ...],
    join_predicates: Tuple[Predicate, ...],
    leaf_ids: Optional[List[int]] = None,
) -> Tuple[int, List[int]]:
    """Build (or find) the join node over the weakened leaves; return its
    id and those of its leaves, which *leaf_ids* gives when this build
    holds them all.

    The expansion hash-conses every sub-join it shares with the queries or
    with other weak-join ranges, which is what makes the 70-odd overlapping
    ranges of the scale-up workloads cheap.  With a session cache attached,
    the scans resolve through the session's scan cache and the expansion
    through its block logs.

    A weak join whose node this build has expanded already is that node,
    with nothing to add: it is built from exactly the node's key
    predicates, which connect it (the node was expanded canonically), so its
    block's adjacency is that of the node's sub-sets in the block that
    expanded it; every sub-set and partition it would enumerate was
    enumerated there, and every canonical sub-set marked expanded.  A
    session build skips such a weak join, found by the key id its group log
    holds, without its scans or block log (:func:`_replay_group`); a build
    without a session finds it by its key here.  (A session build that
    derives a group expands its weak join, so that its block log is
    recorded for builds that lack the node.)
    """
    if leaf_ids is None:
        leaf_ids = [
            builder.scan_equivalence_id(table, alias, predicates)
            for table, alias, predicates in scans
        ]
    if builder._session is None:
        arena = builder.dag.arena
        eq_key = arena.eq_key
        node_id = arena.by_key.get((
            "join",
            frozenset([eq_key[leaf_id] for leaf_id in leaf_ids]),
            frozenset(join_predicates),
        ))
        if node_id is not None and node_id in builder._expanded_joins:
            return node_id, leaf_ids
    aliases = [alias for _, alias, _ in scans]
    weak_id = builder._expand_join_space(aliases, dict(zip(aliases, leaf_ids)), join_predicates)
    return weak_id, leaf_ids
