"""Cross-batch semantic result cache (PR 10).

The paper shares work *within* a batch by materializing common
subexpressions; this module shares it *across* batches over time,
PartitionCache-style: intermediates actually computed by the executor are
kept in a bounded, content-addressed store, and the DAG builder injects them
into later builds as reuse-cost base nodes — including *covering* hits where
a cached weaker result plus a compensating residual selection answers a
stronger predicate (the implication proof is the same
:func:`repro.algebra.predicates.implies` machinery the subsumption pass
uses; see :func:`repro.dag.subsumption.inject_cached_results`).

**Keying.**  Executed rows are a pure function of the *physical operator
subtree* and the stored data: the executor never prunes columns (early
projection affects only estimated :class:`LogicalProperties`, i.e. costs),
scans qualify all raw columns in raw key order, and every operator is
deterministic.  Each entry is therefore keyed by a sha256 digest of the
canonical serialization of the subtree that produced it, with base-table
leaves contributing their catalog statistics digest
(:meth:`repro.catalog.schema.Table.stats_digest`) — so a digest match at
execution time means the cached rows are byte-identical to what recomputing
the subtree would produce, row and column order included.  Canonical
equivalence keys enter through the *scan-kind* metadata: entries produced at
``("scan", table, alias, predicates)`` equivalence nodes carry that key's
components, which is what makes them candidates for build-time exact and
covering injection.

**Stored format.**  An entry holds the executed row set as two immutable
tuples: ``columns`` (the schema, one ``ColumnRef`` per column) and ``rows``
(tuples of atoms in schema order).  Serving an entry, injecting it as a
:class:`~repro.dag.nodes.CachedReadOp` and snapshotting it all share those
tuples; nothing copies a row, and the collector does not track the rows, so
a full store adds one tracked object graph per entry, not per row.

**Lifecycle.**  The store is the ``results`` family of a
:class:`~repro.service.session.SessionCache`: LRU-bounded
(``SessionCacheLimits.results``), invalidated per relation through the
catalog's statistics digests alongside the other catalog-dependent
families, wiped on schema changes, pickled into worker snapshots, and reachable by the chaos
:class:`~repro.service.resilience.FaultInjector` (a dropped or corrupted
entry is a miss/quarantine — strictly less reuse, never a wrong row; plans
already built pin their served rows inside the
:class:`~repro.dag.nodes.CachedReadOp` operator itself).

The cache assumes one logical database per catalog: statistics digests pin
the *optimizer-visible* content, and the differential suite
(``tests/test_result_cache.py``) executes cached and cold paths against the
same generated data, which is the deployment contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Predicate
from repro.cost.estimation import LogicalProperties
from repro.execution.operators import Columns, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.nodes import Operator
    from repro.optimizer.plans import ConsolidatedPlan
    from repro.service.session import SessionCache


def canonical_token(value: object) -> str:
    """Deterministic serialization of operator payload values.

    Stable across ``PYTHONHASHSEED`` and across processes: frozensets are
    sorted by their element tokens, predicates and column refs serialize
    through their (deterministic) ``str``, floats through ``repr`` (IEEE-754
    round-trip), and dataclasses by class name plus field tokens.
    """
    if value is None:
        return "~"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, str):
        return "s:" + value
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, Predicate):
        return "P:" + str(value)
    if isinstance(value, ColumnRef):
        return "C:" + str(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical_token(v) for v in value) + ")"
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(canonical_token(v) for v in value)) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [type(value).__name__]
        for f in dataclasses.fields(value):
            if not f.compare:
                continue  # e.g. CachedReadOp.columns/rows: payload, not identity
            parts.append(f.name + "=" + canonical_token(getattr(value, f.name)))
        return "<" + "|".join(parts) + ">"
    return f"{type(value).__name__}:{value!r}"


def operator_token(operator: "Operator") -> str:
    """Canonical serialization of a physical operator (without children)."""
    from repro.dag.nodes import CachedReadOp

    if isinstance(operator, CachedReadOp):
        # The digest already identifies the cached content; the residual is
        # the only other execution-relevant payload (rows are pinned data).
        residual = "" if operator.residual is None else str(operator.residual)
        return f"<CachedReadOp|{operator.digest}|{residual}>"
    return canonical_token(operator)


def token_digest(token: str) -> str:
    """sha256 hex digest of a canonical token."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def adopt_cached_reads(
    plan: "ConsolidatedPlan", cache: Optional["ResultCache"] = None
) -> int:
    """Swap scan-family plan choices to their injected cached reads.

    :func:`repro.dag.subsumption.inject_cached_results` prices injected
    :class:`~repro.dag.nodes.CachedReadOp` operations infinite, so the
    optimization search — join orders, materialization choices, argmin
    tie-breaks — runs bit-identically to a cache-off build.  This post-pass
    then adopts the cached read per node.  It is byte-safe because it only
    ever touches *scan-family* equivalence nodes, whose every derivation
    yields the same rows in the same (table-scan) order with the same
    columns; admission (the reuse-cost gate) already happened at injection
    time.  Idempotent: a choice already pointing at a cached read is left
    alone, so re-adopting a plan served from the plan cache is a no-op.
    The swaps work on operation ids and give the plan a new ``choice_op``
    tuple, so a plan sharing a memoized sweep's tuple never edits the memo.

    Returns the number of choices swapped, also accumulated on
    ``cache.adoptions`` when *cache* is given.
    """
    from repro.dag.nodes import CachedReadOp

    arena = plan.dag.arena
    eq_key = arena.eq_key
    op_operator = arena.op_operator
    choice_op = list(plan.choice_op)
    swapped = 0
    for eq_id, chosen in enumerate(choice_op):
        if chosen < 0 or isinstance(op_operator[chosen], CachedReadOp):
            continue
        key = eq_key[eq_id]
        if not (isinstance(key, tuple) and key and key[0] == "scan"):
            continue
        for op_id in arena.eq_op_ids[eq_id]:
            if isinstance(op_operator[op_id], CachedReadOp):
                choice_op[eq_id] = op_id
                swapped += 1
                break
    if swapped:
        plan.choice_op = tuple(choice_op)
    if cache is not None:
        cache.adoptions += swapped
    return swapped


@dataclass
class ResultCacheEntry:
    """One cached executed intermediate.

    ``digest`` is the content address (canonical physical-subtree digest,
    see module docstring).  ``kind`` is ``"scan"`` for entries produced at a
    ``("scan", table, alias, predicates)`` equivalence node — the covering-
    eligible ones, carrying that key's components — and ``"plan"`` for
    everything else (materialized intermediates and per-query results),
    which serve on exact digest matches at execution time only.
    ``columns`` and ``rows`` are the executed row set: one column schema and
    the rows as tuples of atoms in schema order.  Both are immutable tuples,
    shared (never copied) with the executor and with every
    :class:`~repro.dag.nodes.CachedReadOp` injected from the entry, and the
    rows are invisible to the garbage collector.  ``blocks``
    is the stored size under the cost model's block accounting, charged as a
    sequential read when the entry is served; ``props`` are the producing
    equivalence node's estimated properties (reused for the injected base
    node); ``deps`` are the base relations read, the invalidation anchor.
    """

    digest: str
    kind: str
    columns: Columns
    rows: Tuple[Row, ...]
    row_count: int
    blocks: int
    props: LogicalProperties
    deps: FrozenSet[str]
    table: Optional[str] = None
    alias: Optional[str] = None
    predicates: Optional[FrozenSet[Predicate]] = None


#: Candidate order of a scan-kind entry: ``(row_count, predicate tokens,
#: digest)``, smallest first.
CandidateKey = Tuple[int, str, str]


class ResultCache:
    """Facade over the session's ``results`` family.

    Bound to one :class:`~repro.service.session.SessionCache`: the store is
    ``session.results`` (so bounds, invalidation, snapshots, and chaos hooks
    all come from the session), values are the entries themselves, whose
    :attr:`~ResultCacheEntry.deps` ``SessionCache._evict`` reads.
    Beside the store the facade keeps an index of its scan-kind entries by
    ``(table, alias)`` for :meth:`scan_candidates`; entries must therefore
    enter the store through :meth:`put` (or be in it when the facade is
    built, as after a snapshot restore).

    Counters: ``hits``/``misses`` count execution-time digest lookups
    (:meth:`lookup`), ``stores`` successful inserts,
    ``exact_injections``/``covering_injections`` build-time base-node
    injections, ``adoptions`` post-search choice swaps
    (:func:`adopt_cached_reads`), ``exec_serves`` execution-time
    digest-match serves, and ``injected_serves`` rows served through an
    injected :class:`~repro.dag.nodes.CachedReadOp`.
    """

    def __init__(self, session: "SessionCache") -> None:
        self.session = session
        self.store = session.results
        #: ``(table, alias)`` -> ``{digest: (candidate key, entry)}`` over the
        #: scan-kind entries put into the store.  Entries that leave the
        #: store behind the facade's back (LRU eviction, invalidation,
        #: quarantine) stay here until a probe of their bucket drops them;
        #: :meth:`put` rebuilds the index once it holds more than twice the
        #: store's entries.
        self._scan_index: Dict[
            Tuple[Optional[str], Optional[str]],
            Dict[str, Tuple[CandidateKey, ResultCacheEntry]],
        ] = {}
        self._indexed = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.exact_injections = 0
        self.covering_injections = 0
        self.adoptions = 0
        self.exec_serves = 0
        self.injected_serves = 0
        self._reindex()

    # -- invalidation registry (see repro.analysis M001) -----------------------
    def clear(self) -> None:
        """Drop every cached result and the scan index.

        Relation-targeted invalidation is the session's job
        (:meth:`SessionCache.sync` evicts ``results`` entries by their
        ``deps``); this is the manual full-wipe entry point.
        """
        self.store.clear()
        self._scan_index.clear()
        self._indexed = 0

    # -- store access -----------------------------------------------------------
    def lookup(self, digest: str) -> Optional[ResultCacheEntry]:
        """The entry stored under *digest*, if present (counts hit/miss).

        Goes through :meth:`BoundedCache.get`, so LRU recency, chaos fault
        hooks, and :class:`CorruptedEntry` quarantine all apply.
        """
        entry: Optional[ResultCacheEntry] = self.store.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, entry: ResultCacheEntry) -> bool:
        """Insert *entry* unless its digest is already stored."""
        if self.store.get(entry.digest) is not None:
            return False
        self.store[entry.digest] = entry
        self.stores += 1
        if entry.kind == "scan":
            self._index(entry)
            if self._indexed > 2 * len(self.store):
                self._reindex()
        return True

    def scan_candidates(self, table: str, alias: str) -> List[ResultCacheEntry]:
        """Covering-eligible entries for scans of ``(table, alias)``.

        Reads only the index bucket of ``(table, alias)``.  Each digest in it
        is probed through :meth:`BoundedCache.peek`: the chaos fault hook
        runs and a poisoned entry is quarantined, as in
        :meth:`BoundedCache.get`, so faulted entries drop out here exactly
        like a cold miss — but the probe does not refresh recency, so the
        store's LRU order (and with it every later eviction) is the same as
        if no build had looked.  A digest no longer holding its indexed
        entry is dropped from the bucket.  Matches are returned
        smallest-first — ``(row_count, predicate tokens, digest)`` — so
        injection picks the cheapest covering result deterministically,
        independent of insertion or hash order.
        """
        bucket = self._scan_index.get((table, alias))
        if not bucket:
            return []
        peek = self.store.peek
        found: List[Tuple[CandidateKey, ResultCacheEntry]] = []
        for digest, item in list(bucket.items()):
            if peek(digest) is not item[1]:
                del bucket[digest]
                self._indexed -= 1
            else:
                found.append(item)
        found.sort()  # keys end with the digest, so entries are never compared
        return [entry for _, entry in found]

    def _index(self, entry: ResultCacheEntry) -> None:
        bucket = self._scan_index.setdefault((entry.table, entry.alias), {})
        if entry.digest not in bucket:
            self._indexed += 1
        predicates = entry.predicates or frozenset()
        preds_token = ",".join(sorted(str(p) for p in predicates))
        bucket[entry.digest] = ((entry.row_count, preds_token, entry.digest), entry)

    def _reindex(self) -> None:
        """Rebuild the scan index from the entries now in the store."""
        self._scan_index.clear()
        self._indexed = 0
        for value in dict.values(self.store):
            # Poisoned values (not entries) are skipped: they are never
            # served, and a lookup quarantines them.
            if value.__class__ is ResultCacheEntry and value.kind == "scan":
                self._index(value)

    # -- introspection ----------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """All counters as a plain dict (for benchmarks and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "exact_injections": self.exact_injections,
            "covering_injections": self.covering_injections,
            "adoptions": self.adoptions,
            "exec_serves": self.exec_serves,
            "injected_serves": self.injected_serves,
            "entries": len(self.store),
        }
