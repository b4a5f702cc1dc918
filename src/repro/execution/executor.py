"""Plan executor: runs optimizer plans over an in-memory database.

The executor consumes the executable operator trees produced by
:func:`repro.optimizer.plans.extract_plan`.  Materialized nodes are computed
once, their write/read-back work is charged with the cost-model constants, and
subsequent uses read the stored copy — so the difference between a No-MQO plan
and an MQO plan shows up directly in the executed work, which is the Figure 7
experiment.

Every operator yields a :class:`~repro.execution.operators.RowSet` (one
column schema, rows as tuples of atoms).  Row sets are immutable, so a
materialized intermediate, a result-cache entry and a cached read all share
one row set instead of copying it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.algebra.columns import ColumnRef
from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.dag.builder import IndexBuildOp
from repro.dag.nodes import (
    AggregateOp,
    CachedReadOp,
    JoinOp,
    NestedApplyOp,
    NoOp,
    ProjectOp,
    ScanOp,
    SelectOp,
)
from repro.execution.datagen import Database
from repro.execution.operators import (
    ExecutionError,
    ExecutionStats,
    RowSet,
    aggregate_rows,
    filter_rows,
    join_rows,
    nested_apply_rows,
    project_rows,
    rows_blocks,
    scan_rows,
)
from repro.execution.result_cache import (
    ResultCache,
    ResultCacheEntry,
    operator_token,
    token_digest,
)
from repro.optimizer.plans import ConsolidatedPlan, PlanNode, extract_plan


@dataclass
class ExecutionResult:
    """Row sets and work accounting of one plan execution.

    ``per_query`` holds one :class:`RowSet` per query root.  ``rows`` and
    ``per_query_rows`` are dictionary views of them, built on each access.
    """

    per_query: List[RowSet]
    stats: ExecutionStats

    @property
    def per_query_rows(self) -> List[List[Dict[ColumnRef, object]]]:
        """Each query's rows as dictionaries keyed by column."""
        return [rows.as_dicts() for rows in self.per_query]

    @property
    def rows(self) -> List[Dict[ColumnRef, object]]:
        """All queries' rows as dictionaries, query after query."""
        return [row for rows in self.per_query for row in rows.as_dicts()]

    @property
    def simulated_seconds(self) -> float:
        return self.stats.simulated_seconds


@dataclass
class _DigestContext:
    """Per-run digest bookkeeping for the result cache.

    ``digests``/``deps`` memoize, per equivalence-node id, the content
    digest and base-relation set of the subtree producing it.  Both are
    functions of the node alone: every plan node of one equivalence node is
    built from the same chosen operation, and a digest is
    materialization-transparent.  So each node is digested once per run,
    and ``reuse`` plan nodes (which carry no subtree of their own) resolve to
    their producer's values.  Producers always precede their reuses in the
    executor's recursion: :func:`extract_plan` marks the *first* DFS
    encounter as the materialize node, and the executor (and the digest
    recursion) walk the exact same DFS order.
    """

    digests: Dict[int, str] = field(default_factory=dict)
    deps: Dict[int, FrozenSet[str]] = field(default_factory=dict)


class Executor:
    """Executes consolidated plans over an in-memory database.

    With a :class:`~repro.execution.result_cache.ResultCache` attached, the
    executor additionally (a) *serves* any materialize/operation node whose
    content digest is already stored — charging only the sequential read of
    the stored blocks — and (b) *populates* the cache from materialized
    intermediates, scan-family nodes, and per-query results it computes.
    ``result_cache=None`` (the default) skips every digest computation and
    executes exactly as before.
    """

    def __init__(
        self,
        database: Database,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        result_cache: Optional[ResultCache] = None,
    ) -> None:
        self.database = database
        self.catalog = catalog
        self.cost_model = cost_model
        self.result_cache = result_cache

    # -- public API -----------------------------------------------------------
    def run(self, plan: ConsolidatedPlan) -> ExecutionResult:
        """Execute the whole batch plan (from the pseudo-root)."""
        tree = extract_plan(plan)
        stats = ExecutionStats()
        cache: Dict[int, RowSet] = {}
        ctx = _DigestContext() if self.result_cache is not None else None
        per_query: List[RowSet] = []
        if isinstance(tree.operation.operator if tree.operation else None, NoOp):
            for child in tree.children:
                rows = self._execute(child, stats, cache, ctx)
                if ctx is not None:
                    self._store(child, rows, ctx)
                per_query.append(rows)
        else:
            rows = self._execute(tree, stats, cache, ctx)
            if ctx is not None:
                self._store(tree, rows, ctx)
            per_query.append(rows)
        return ExecutionResult(per_query, stats)

    # -- plan interpretation ------------------------------------------------
    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        cache: Dict[int, RowSet],
        ctx: Optional[_DigestContext] = None,
    ) -> RowSet:
        if node.kind == "reuse":
            rows = cache.get(node.equivalence.id)
            if rows is None:
                raise ExecutionError(f"reuse of {node.equivalence.label} before materialization")
            blocks = rows_blocks(rows, self.cost_model)
            cost = self.cost_model.sequential_read(blocks)
            stats.blocks_read += blocks
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            stats.reuses += 1
            return rows
        if node.kind == "materialize":
            if ctx is not None:
                # Digest unconditionally: this records the digest/deps of
                # every materialized node in the subtree, which later
                # ``reuse`` nodes resolve through the context.
                digest = self._plan_digest(node, ctx)
                served = self._try_serve(node, digest, stats, cache)
                if served is not None:
                    return served
            rows = self._execute(node.children[0], stats, cache, ctx)
            cache[node.equivalence.id] = rows
            blocks = rows_blocks(rows, self.cost_model)
            cost = self.cost_model.sequential_write(blocks)
            stats.blocks_written += blocks
            stats.rows_materialized += len(rows.rows)
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            if ctx is not None:
                self._store(node, rows, ctx)
            return rows
        if node.kind == "base":
            raise ExecutionError("stored tables are consumed by their parent scan operation")
        if ctx is not None and not isinstance(node.operation.operator, (NoOp, CachedReadOp)):
            digest = self._plan_digest(node, ctx)
            served = self._try_serve(node, digest, stats, cache)
            if served is not None:
                return served
            rows = self._execute_operation(node, stats, cache, ctx)
            if self._scan_key(node) is not None:
                self._store(node, rows, ctx, digest=digest)
            return rows
        return self._execute_operation(node, stats, cache, ctx)

    # -- result-cache hooks ---------------------------------------------------
    def _plan_digest(self, node: PlanNode, ctx: _DigestContext) -> str:
        """Content digest of the physical subtree rooted at *node*.

        Materialization-transparent: a materialize node digests as its
        child and a reuse node as its producer, so logically identical
        subtrees hash alike whether or not the optimizer chose to share
        them.  Base leaves contribute the catalog statistics digest of
        their table, pinning the optimizer-visible data content.
        Memoized per equivalence node on *ctx*.
        """
        eq_id = node.equivalence.id
        if node.kind == "reuse":
            return ctx.digests[eq_id]
        digest = ctx.digests.get(eq_id)
        if digest is not None:
            return digest
        if node.kind == "materialize":
            digest = self._plan_digest(node.children[0], ctx)
        elif node.kind == "base":
            table = node.equivalence.base_table or ""
            stats_digest = self.catalog.table(table).stats_digest()
            digest = token_digest(f"base[{table}|{stats_digest}]")
        else:
            operator = node.operation.operator
            parts = ["op|" + operator_token(operator)]
            if not isinstance(operator, CachedReadOp):
                # A CachedReadOp's digest field already identifies the content;
                # its child is a synthetic base node with no stored table.
                parts.extend(self._plan_digest(child, ctx) for child in node.children)
            digest = token_digest("|".join(parts))
        ctx.digests[eq_id] = digest
        return digest

    def _plan_deps(self, node: PlanNode, ctx: _DigestContext) -> FrozenSet[str]:
        """Base relations read by the subtree rooted at *node* (lowercased),
        memoized per equivalence node on *ctx*."""
        eq_id = node.equivalence.id
        if node.kind == "reuse":
            return ctx.deps[eq_id]
        deps = ctx.deps.get(eq_id)
        if deps is not None:
            return deps
        if node.kind == "materialize":
            deps = self._plan_deps(node.children[0], ctx)
        elif node.kind == "base":
            deps = frozenset(((node.equivalence.base_table or "").lower(),))
        else:
            operator = node.operation.operator
            if isinstance(operator, (ScanOp, CachedReadOp)):
                deps = frozenset((operator.table.lower(),))
            else:
                deps = frozenset().union(*(self._plan_deps(child, ctx) for child in node.children))
        ctx.deps[eq_id] = deps
        return deps

    def _scan_key(self, node: PlanNode) -> Optional[tuple]:
        """The equivalence key if *node* is a scan-family node, else None."""
        key = node.equivalence.key
        if isinstance(key, tuple) and key and key[0] == "scan":
            return key
        return None

    def _try_serve(
        self,
        node: PlanNode,
        digest: str,
        stats: ExecutionStats,
        cache: Dict[int, RowSet],
    ) -> Optional[RowSet]:
        """Serve *node* from the result cache if its digest is stored.

        A digest match means the cached rows are byte-identical to what
        executing the subtree would produce (see the result-cache module
        docstring), so only the sequential read of the stored blocks is
        charged.  Nodes with a materialize *descendant* are never served:
        skipping the subtree would skip populating the per-run cache that
        later reuse nodes read.
        """
        rc = self.result_cache
        assert rc is not None
        if node.materializes_below:
            return None
        entry = rc.lookup(digest)
        if entry is None:
            return None
        rows = RowSet(entry.columns, entry.rows)
        cost = self.cost_model.sequential_read(entry.blocks)
        stats.blocks_read += entry.blocks
        stats.io_seconds += cost.io
        stats.cpu_seconds += cost.cpu
        rc.exec_serves += 1
        if node.kind == "materialize":
            # The plan still expects this intermediate to be reusable; no
            # write is charged — the cached copy already exists.
            cache[node.equivalence.id] = rows
        return rows

    def _store(
        self,
        node: PlanNode,
        rows: RowSet,
        ctx: _DigestContext,
        digest: Optional[str] = None,
    ) -> None:
        """Store the executed *rows* of *node* in the result cache.

        Called for materialized intermediates, scan-family nodes, and
        per-query roots.  Reuse nodes and rows produced *by* a cached read
        are skipped — their content is already stored under its original
        digest.  Scan-family nodes keep their equivalence-key components so
        the build-time injection pass can offer them for exact and covering
        (subsumption) reuse.  The entry shares the (immutable) row set.
        """
        rc = self.result_cache
        assert rc is not None
        if node.kind == "reuse":
            return
        inner = node.children[0] if node.kind == "materialize" else node
        if inner.kind == "reuse":
            return
        if inner.operation is not None and isinstance(inner.operation.operator, CachedReadOp):
            return
        if digest is None:
            digest = self._plan_digest(node, ctx)
        key = self._scan_key(node)
        entry = ResultCacheEntry(
            digest=digest,
            kind="scan" if key is not None else "plan",
            columns=rows.columns,
            rows=rows.rows,
            row_count=len(rows.rows),
            blocks=rows_blocks(rows, self.cost_model),
            props=node.equivalence.properties,
            deps=self._plan_deps(node, ctx),
            table=key[1] if key is not None else None,
            alias=key[2] if key is not None else None,
            predicates=key[3] if key is not None else None,
        )
        rc.put(entry)

    def _execute_operation(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        cache: Dict[int, RowSet],
        ctx: Optional[_DigestContext] = None,
    ) -> RowSet:
        operator = node.operation.operator
        if isinstance(operator, CachedReadOp):
            # Rows are pinned in the operator itself: once a plan is built,
            # it executes the same bytes even if the store entry has been
            # evicted, faulted, or invalidated since.
            rows = RowSet(operator.columns, operator.rows)
            cost = self.cost_model.sequential_read(operator.blocks)
            stats.blocks_read += operator.blocks
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            if self.result_cache is not None:
                self.result_cache.injected_serves += 1
            if operator.residual is not None:
                rows = filter_rows(rows, operator.residual, stats, self.cost_model)
            return rows
        if isinstance(operator, ScanOp):
            table = self.catalog.table(operator.table)
            return scan_rows(
                self.database[operator.table.lower()],
                operator.alias,
                operator.predicate,
                stats,
                self.cost_model,
                table.tuple_width,
            )
        children_rows = [self._execute(child, stats, cache, ctx) for child in node.children]
        if isinstance(operator, SelectOp):
            return filter_rows(children_rows[0], operator.predicate, stats, self.cost_model)
        if isinstance(operator, ProjectOp):
            return project_rows(children_rows[0], operator.columns, stats, self.cost_model)
        if isinstance(operator, JoinOp):
            return join_rows(children_rows[0], children_rows[1], operator.predicates, stats, self.cost_model)
        if isinstance(operator, AggregateOp):
            return aggregate_rows(
                children_rows[0],
                operator.group_by,
                operator.aggregates,
                operator.output_alias,
                stats,
                self.cost_model,
            )
        if isinstance(operator, IndexBuildOp):
            # Index construction over the (materialized) child: charge the
            # build cost; the rows pass through unchanged.
            rows = children_rows[0]
            cost = self.cost_model.index_build_cost(len(rows.rows), 16)
            stats.io_seconds += cost.io
            stats.cpu_seconds += cost.cpu
            return rows
        if isinstance(operator, NestedApplyOp):
            outer = children_rows[0]
            if len(children_rows) > 1:
                invariant = children_rows[1]
            else:
                raise ExecutionError("nested apply without an invariant input")
            if operator.aggregate is None or operator.outer_column is None:
                raise ExecutionError("nested apply operator lacks execution metadata")
            if operator.name == "correlated_apply":
                # Plain correlated evaluation: every distinct outer binding is
                # a separate invocation of the nested query, each with its own
                # access cost (the optimizer's pushdown estimate); charge it so
                # the executed work reflects repeated invocation.
                positions = {column: index for index, column in enumerate(outer.columns)}
                outer_refs = [
                    positions[c]
                    for p in operator.correlation
                    for c in sorted(p.columns())
                    if outer.rows and c in positions
                ]
                invocations = len({tuple(r[i] for i in outer_refs) for r in outer.rows})
                probe = self.cost_model.index_probe_cost(
                    max(1.0, len(invariant.rows) / max(1, invocations or 1)), 64
                )
                stats.io_seconds += probe.io * invocations
                stats.cpu_seconds += probe.cpu * invocations
            return nested_apply_rows(
                outer,
                invariant,
                operator.correlation,
                operator.aggregate,
                operator.outer_column,
                operator.comparison,
                stats,
                self.cost_model,
            )
        raise ExecutionError(f"unsupported operator in executable plan: {operator.describe()}")
