"""Seeded random AND-OR DAG workload generator for property/differential tests.

The optimizer package keeps growing pairs of equivalent-by-construction code
paths — the array engine vs. the reference object-graph recurrence, the
incremental cost state vs. from-scratch recomputation, incremental Volcano-RU
vs. its per-query re-costing reference.  The tier-1 workloads exercise them on
a handful of realistic DAGs; :func:`random_dag` generates *thousands* of small
adversarial ones: AND/OR DAGs with shared sub-expressions (children are drawn
from a common pool, so multiple parents share nodes), nested-query use
multipliers > 1, and randomized materialization/reuse-cost annotations that
make sharing profitable for some nodes and a trap for others.

Generation is fully deterministic in the seed: node keys are tuples, children
are drawn with ``random.Random(seed)``, and no hash-order iteration is
involved, so a failing seed reproduces exactly.

The DAGs are structurally faithful to the builder's output: dense equivalence
node ids, a pseudo-root whose single operation (use multiplier 1) combines
every query root, every non-base node has at least one operation, and
``validate()`` passes.  Multi-query structure arises naturally: every
parentless derived node becomes a query root.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from repro.algebra import (
    Aggregate,
    AggregateFunction,
    Join,
    Relation,
    Select,
    and_,
    col,
    eq,
    ge,
    le,
    lt,
    or_,
)
from repro.algebra.nested import CorrelatedSubqueryFilter
from repro.cost.estimation import LogicalProperties
from repro.catalog.catalog import Catalog
from repro.dag.builder import Query
from repro.dag.nodes import Dag, EquivalenceNode, Operator
from repro.workloads.scaleup import scaleup_queries
from tests.oracles import builder as oracle_builder


class _GenOp(Operator):
    """Distinct operator instance per operation (no accidental signature
    dedup in ``Dag.add_operation``)."""

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.name = tag

    def describe(self) -> str:
        return self.tag


def random_dag(
    seed: int,
    min_base: int = 2,
    max_base: int = 4,
    min_derived: int = 3,
    max_derived: int = 14,
    max_operations_per_node: int = 3,
) -> Dag:
    """A small random AND-OR DAG, deterministic in *seed*.

    Roughly mirrors the shape of the builder's output on tiny batches:
    2-4 base tables, 3-14 derived equivalence nodes with 1-3 alternative
    operations each, operation children drawn from every node built so far
    (which is what creates shared sub-expressions), occasional use
    multipliers > 1 (nested-query invocations), and materialization/reuse
    costs drawn so that materializing is profitable for some nodes only.
    """
    rng = random.Random(seed)
    dag = Dag()

    bases: List[EquivalenceNode] = []
    for index in range(rng.randint(min_base, max_base)):
        node = dag.equivalence(
            ("base", index),
            LogicalProperties(rows=float(rng.choice([100, 1_000, 10_000]))),
            label=f"t{index}",
            is_base=True,
            base_table=f"t{index}",
        )
        bases.append(node)

    pool: List[EquivalenceNode] = list(bases)
    derived: List[EquivalenceNode] = []
    for index in range(rng.randint(min_derived, max_derived)):
        node = dag.equivalence(
            ("derived", index),
            LogicalProperties(rows=float(rng.randint(1, 5_000))),
            label=f"d{index}",
        )
        for op_index in range(rng.randint(1, max_operations_per_node)):
            arity = min(rng.choice([1, 2, 2, 2, 3]), len(pool))
            children = rng.sample(pool, arity)
            multipliers = tuple(
                float(rng.choice([1.0] * 6 + [2.0, 5.0, 20.0])) for _ in children
            )
            local_cost = float(rng.randint(1, 200))
            dag.add_operation(
                node, _GenOp(f"op{index}.{op_index}"), children, local_cost, multipliers
            )
        # Materialization is a genuine trade-off: reuse is usually (not
        # always) cheaper than the node's local costs, and the
        # materialization cost is sometimes prohibitive.
        node.mat_cost = float(rng.randint(0, 60))
        node.reuse_cost = float(rng.randint(0, 40))
        pool.append(node)
        derived.append(node)

    query_roots = [node for node in derived if not node.parents]
    if not query_roots:  # pragma: no cover - rng.sample makes this unreachable
        query_roots = [derived[-1]]
    root = dag.equivalence(
        ("root",), LogicalProperties(rows=1.0), label="root"
    )
    dag.add_operation(
        root,
        _GenOp("no-op"),
        query_roots,
        0.0,
        tuple(1.0 for _ in query_roots),
    )
    dag.set_root(root, query_roots)
    dag.validate()
    return dag


def random_subsumption_dag(seed: int) -> Dag:
    """A :func:`random_dag` augmented with subsumption derivations.

    The plain generator never sets ``is_subsumption`` / ``created_by_
    subsumption``, so Volcano-SH's swap pre-pass, special materialization
    test, and final undo are dead code on its output.  This variant
    post-processes the random DAG (the base structure for a given *seed* is
    byte-identical to ``random_dag(seed)``, so pinned seeds elsewhere are
    unaffected) with its own deterministic rng: a few shared "weaker" source
    nodes are created (flagged ``created_by_subsumption``), each derived from
    earlier nodes, and one or more existing derived nodes get a flagged
    subsumption derivation from the source.  Sources only ever reference
    nodes created before every one of their consumers, which keeps the DAG
    acyclic (an operation in the base generator never references a
    later-created node).  Costs are randomized so that across seeds the swap
    is sometimes taken outright by Volcano, sometimes swapped in and kept,
    sometimes swapped in and undone, and the source is sometimes worth
    materializing under the pay-for-itself test and sometimes not.
    """
    dag = random_dag(seed)
    rng = random.Random((seed << 1) ^ 0xD06)
    nodes = dag.equivalence_nodes()
    consumers_pool = [
        node for node in nodes if not node.is_base and node is not dag.root
    ]
    for group in range(rng.randint(1, 3)):
        count = min(rng.randint(1, 3), len(consumers_pool))
        if not count:
            break
        consumers = rng.sample(consumers_pool, count)
        limit = min(node.id for node in consumers)
        pool = [node for node in nodes if node.id < limit]
        if not pool:
            continue
        arity = min(rng.choice([1, 2]), len(pool))
        children = rng.sample(pool, arity)
        source = dag.equivalence(
            ("subsumption-source", group),
            LogicalProperties(rows=float(rng.randint(1, 5_000))),
            label=f"w{group}",
        )
        source.created_by_subsumption = True
        dag.add_operation(
            source,
            _GenOp(f"weak{group}"),
            children,
            float(rng.randint(1, 120)),
            tuple(1.0 for _ in children),
        )
        source.mat_cost = float(rng.randint(0, 60))
        source.reuse_cost = float(rng.randint(0, 40))
        for consumer in consumers:
            dag.add_operation(
                consumer,
                _GenOp(f"sub{group}.{consumer.id}"),
                [source],
                float(rng.randint(1, 60)),
                (1.0,),
                is_subsumption=True,
            )
    dag.validate()
    return dag


def subsumption_undo_dag() -> Dag:
    """A fixed DAG on which the Volcano-SH pre-pass swap must be undone.

    Shape (labels in parentheses)::

        root ── no-op ──> X, Y
        X (consumer):  regular op over b1, local 55
                       subsumption op over S, local 10   [is_subsumption]
        Y (witness):   op over S, local 5
        S (source):    op over b0, local 50              [created_by_subsumption]
                       mat_cost 1000, reuse_cost 1

    Plain Volcano picks X's regular derivation (55 < 10 + 50) while Y keeps
    ``S`` in the plan, so the pre-pass condition holds for X
    (``10 + 1·reuse(S) = 11 ≤ 55``) and the swap is made.  The source's
    pay-for-itself test then fails spectacularly (``mat_cost`` 1000 against
    savings of 93), ``S`` is not materialized, and the final undo must
    revert X's choice to the regular derivation — leaving the plan exactly
    where Volcano put it.
    """
    dag = Dag()
    b0 = dag.equivalence(
        ("base", 0), LogicalProperties(rows=100.0), label="b0",
        is_base=True, base_table="b0",
    )
    b1 = dag.equivalence(
        ("base", 1), LogicalProperties(rows=100.0), label="b1",
        is_base=True, base_table="b1",
    )
    source = dag.equivalence(("S",), LogicalProperties(rows=50.0), label="S")
    source.created_by_subsumption = True
    dag.add_operation(source, _GenOp("weak"), [b0], 50.0, (1.0,))
    source.mat_cost = 1000.0
    source.reuse_cost = 1.0

    consumer = dag.equivalence(("X",), LogicalProperties(rows=10.0), label="X")
    dag.add_operation(consumer, _GenOp("regular"), [b1], 55.0, (1.0,))
    dag.add_operation(
        consumer, _GenOp("residual"), [source], 10.0, (1.0,), is_subsumption=True
    )
    witness = dag.equivalence(("Y",), LogicalProperties(rows=10.0), label="Y")
    dag.add_operation(witness, _GenOp("use-S"), [source], 5.0, (1.0,))

    root = dag.equivalence(("root",), LogicalProperties(rows=1.0), label="root")
    dag.add_operation(root, _GenOp("no-op"), [consumer, witness], 0.0, (1.0, 1.0))
    dag.set_root(root, [consumer, witness])
    dag.validate()
    return dag


def self_join_dag() -> Dag:
    """A fixed DAG whose operations read one child twice.

    Shape (``op(children; multipliers) local``)::

        root ── no-op ──> D2, D3
        D0: op(b0, b1) 50          op(b1, b0) 60
        D1: op(D0, D0; 1, 1) 30    op(D0, b0) 80     (a self-join of D0)
        D2: op(D1, D0) 20          op(D0, D0; 1, 3) 40
        D3: op(D1, b1) 10

    The builder never makes such operations (the ``self-join`` batch's two
    aliases are two nodes), but the cost recurrence and the sharing sweep
    must handle them: an operation reading a changed node twice is priced
    once per read, and its degree-of-sharing vectors overlap.
    """
    dag = Dag()
    b0, b1 = (
        dag.equivalence(("base", index), LogicalProperties(rows=rows), label=f"b{index}",
                        is_base=True, base_table=f"b{index}")
        for index, rows in enumerate((100.0, 1_000.0))
    )
    derived = []
    for index, (mat_cost, reuse_cost) in enumerate(((5.0, 1.0), (5.0, 2.0), (30.0, 4.0),
                                                    (8.0, 3.0))):
        node = dag.equivalence(("D", index), LogicalProperties(rows=10.0), label=f"D{index}")
        node.mat_cost = mat_cost
        node.reuse_cost = reuse_cost
        derived.append(node)
    d0, d1, d2, d3 = derived
    for node, children, local_cost, multipliers in (
        (d0, [b0, b1], 50.0, (1.0, 1.0)),
        (d0, [b1, b0], 60.0, (1.0, 1.0)),
        (d1, [d0, d0], 30.0, (1.0, 1.0)),
        (d1, [d0, b0], 80.0, (1.0, 1.0)),
        (d2, [d1, d0], 20.0, (1.0, 1.0)),
        (d2, [d0, d0], 40.0, (1.0, 3.0)),
        (d3, [d1, b1], 10.0, (1.0, 1.0)),
    ):
        dag.add_operation(node, _GenOp(f"op{dag.arena.num_operations}"), children,
                          local_cost, multipliers)
    root = dag.equivalence(("root",), LogicalProperties(rows=1.0), label="root")
    dag.add_operation(root, _GenOp("no-op"), [d2, d3], 0.0, (1.0, 1.0))
    dag.set_root(root, [d2, d3])
    dag.validate()
    return dag


def random_query_workload(
    seed: int, max_queries: int = 4, outer_predicates: bool = False
) -> List[Query]:
    """A randomized overlapping *query batch* (for the builder oracle).

    Unlike :func:`random_dag`, which fabricates AND-OR DAGs directly, this
    generator produces actual algebra expressions over the PSP catalog so the
    full ``DagBuilder`` pipeline runs: join-space expansion (including blocks
    left deliberately disconnected, which exercises the artificial
    cross-product edges where the memoized builder must *not* hash-cons),
    repeated tables within one block (canonical ``#k`` aliases), predicates
    spanning more than two relations (disjunctions), overlapping range and
    equality selections (selection/disjunction subsumption), and occasional
    aggregations.  Deterministic in *seed*: every random draw goes through one
    ``random.Random`` and no hash-order iteration is involved.

    ``outer_predicates=True`` additionally gives some blocks predicates over
    an alias outside the block (a correlation column, ``psp2.num =
    outer.y``, whose in-block mask covers one alias, and ``outer.z < 5``,
    whose mask covers none).  They are drawn from a second ``random.Random``,
    so the rest of each batch is exactly the batch drawn without them.  The
    batches are for building only: no executor resolves ``outer``.
    """
    rng = random.Random(seed ^ 0xB11D)
    outer_rng = random.Random(seed ^ 0x0C7E) if outer_predicates else None
    thresholds = (100, 250, 400, 700)
    queries: List[Query] = []
    for q in range(rng.randint(2, max_queries)):
        k = rng.randint(2, 5)
        tables = [rng.randint(1, 6) for _ in range(k)]
        aliases: List[str] = []
        occurrences = {}
        relations: List[Relation] = []
        for table in tables:
            occ = occurrences.get(table, 0)
            occurrences[table] = occ + 1
            alias = f"psp{table}" if occ == 0 else f"psp{table}x{occ}"
            aliases.append(alias)
            relations.append(Relation(f"psp{table}", alias))

        expression = relations[0]
        for i in range(1, k):
            if rng.random() < 0.75:
                j = rng.randrange(i)
                predicate = eq(col(aliases[j], "sp"), col(aliases[i], "p"))
            else:
                predicate = None  # disconnected: forces a cross-product edge
            if predicate is None:
                expression = Join(expression, relations[i])
            else:
                expression = Join(expression, relations[i], predicate)

        extras = []
        if k >= 3 and rng.random() < 0.3:
            a, b, c = rng.sample(aliases, 3)
            extras.append(
                or_(eq(col(a, "sp"), col(b, "p")), eq(col(a, "sp"), col(c, "p")))
            )
        for alias in aliases:
            if rng.random() < 0.5:
                comparison = rng.choice((ge, le, eq))
                extras.append(comparison(col(alias, "num"), rng.choice(thresholds)))
        if outer_rng is not None and outer_rng.random() < 0.5:
            alias = outer_rng.choice(aliases)
            extras.append(eq(col(alias, "num"), col("outer", "y")))
            if outer_rng.random() < 0.5:
                extras.append(lt(col("outer", "z"), 5))
        if extras:
            expression = Select(expression, and_(*extras))

        # Aggregate only over aliases the canonical renaming leaves unchanged
        # (single-occurrence tables keep their table name), so the group-by
        # columns still resolve in the block's output.
        stable = [a for a, t in zip(aliases, tables) if tables.count(t) == 1]
        if stable and rng.random() < 0.3:
            target = rng.choice(stable)
            expression = Aggregate(
                expression,
                group_by=(col(target, "num"),),
                aggregates=(AggregateFunction("sum", col(target, "p"), "total"),),
                alias=f"agg{q}",
            )
        queries.append(Query(f"R{seed}.{q}", expression))
    return queries


def degenerate_batches() -> Dict[str, List[Query]]:
    """Degenerate query batches over the PSP catalog, by name.

    Each batch is a corner the realistic workloads never reach:

    * ``single`` — one query (the first chain query of ``CQ2`` at seed 1);
    * ``duplicate-two-names`` / ``duplicate-one-name`` — that query's
      expression twice, under two names and under one, so both query roots
      are the same equivalence node;
    * ``scan-only`` / ``select-only`` — one base-table scan, with and
      without a selection;
    * ``cross-2`` / ``cross-3`` / ``cross-4`` — 2-, 3- and 4-way cross
      products;
    * ``shared-cross`` — two queries over one shared cross product;
    * ``self-join`` — one table joined with itself under two aliases;
    * ``all-disjoint`` — two equi-joins over disjoint table pairs, so the
      queries share nothing;
    * ``deep-correlation`` — correlated sub-queries nested three deep
      (:func:`deep_correlation`), and its middle level as a second query.
    """
    chain = scaleup_queries(2, seed=1)[0]
    cross = Join(Relation("psp1"), Relation("psp2"))
    cross3 = Join(cross, Relation("psp3"))
    return {
        "single": [chain],
        "duplicate-two-names": [Query("dup-a", chain.expression),
                                Query("dup-b", chain.expression)],
        "duplicate-one-name": [Query("dup", chain.expression),
                               Query("dup", chain.expression)],
        "scan-only": [Query("scan", Relation("psp1"))],
        "select-only": [Query("select", Select(Relation("psp1"), ge(col("psp1", "num"), 300)))],
        "cross-2": [Query("cross2", cross)],
        "cross-3": [Query("cross3", cross3)],
        "cross-4": [Query("cross4", Join(cross3, Relation("psp4")))],
        "shared-cross": [
            Query("cross-select", Select(cross, ge(col("psp1", "num"), 300))),
            Query("cross-join", Join(cross, Relation("psp3"),
                                     eq(col("psp2", "sp"), col("psp3", "p")))),
        ],
        "self-join": [Query("self", Join(Relation("psp1", "a"), Relation("psp1", "b"),
                                         eq(col("a", "sp"), col("b", "p"))))],
        "all-disjoint": [
            Query("disjoint-a", Join(Relation("psp1"), Relation("psp2"),
                                     eq(col("psp1", "sp"), col("psp2", "p")))),
            Query("disjoint-b", Join(Relation("psp5"), Relation("psp6"),
                                     eq(col("psp5", "sp"), col("psp6", "p")))),
        ],
        "deep-correlation": [Query("deep", deep_correlation(1, 3)),
                             Query("deep-middle", deep_correlation(2, 2))],
    }


def deep_correlation(first: int, depth: int) -> CorrelatedSubqueryFilter:
    """``psp<first>`` rows whose ``num`` is at most the least ``num`` among
    the rows of the next relation that its ``sp`` names (``p = sp``) and
    that pass the same test against the relation after them, *depth* levels
    deep; the innermost level reads the plain next relation."""
    outer, inner = f"psp{first}", f"psp{first + 1}"
    invariant = Relation(inner) if depth == 1 else deep_correlation(first + 1, depth - 1)
    return CorrelatedSubqueryFilter(
        outer=Relation(outer),
        invariant=invariant,
        correlation=(eq(col(inner, "p"), col(outer, "sp")),),
        aggregate=AggregateFunction("min", col(inner, "num"), "least_num"),
        outer_column=col(outer, "num"),
        op="<=",
    )


def rows_digest(per_query_rows) -> str:
    """sha256 over the exact executed rows — values, row order, column
    order — of ``ExecutionResult.per_query_rows``: the byte-identity oracle
    of every execution test."""
    serialized = repr([
        [[(str(column), row[column]) for column in row] for row in rows]
        for rows in per_query_rows
    ])
    return hashlib.sha256(serialized.encode()).hexdigest()


def reference_dag(catalog: Catalog, queries) -> Dag:
    """The builder oracle's DAG of *queries* (:mod:`tests.oracles.builder`):
    production and session-backed builds must match it byte for byte
    (``dag_fingerprint``)."""
    return oracle_builder.build(catalog, queries)


def _fingerprint_token(value) -> str:
    """Canonical token of a key value: tuples in order, frozensets sorted."""
    if isinstance(value, tuple):
        return "(" + ",".join(_fingerprint_token(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(_fingerprint_token(v) for v in value)) + "}"
    return f"{type(value).__name__}:{value!r}"


def dag_fingerprint(dag: Dag) -> str:
    """A canonical, hash-order-independent serialization of a built DAG.

    Covers everything the optimizers consume: equivalence keys, logical
    properties (rows, per-column stats in column order), materialization/reuse costs,
    topological numbers, and the full operation list (operator payload,
    children, multipliers, local costs, subsumption flags).  Two DAGs with
    equal fingerprints are byte-identical as far as every algorithm in
    :mod:`repro.optimizer` is concerned; frozensets inside keys are sorted by
    their canonical token so the fingerprint is stable across
    ``PYTHONHASHSEED`` values.
    """
    parts = []
    for node in dag.equivalence_nodes():
        # In stored order: the column order is part of the properties (it
        # fixes the schema and every fold over the columns).
        stats = "|".join(
            f"{ref!r}={stat.distinct!r}:{stat.width}:{stat.low!r}:{stat.high!r}"
            for ref, stat in node.properties.columns.items()
        )
        operations = ";".join(
            "~".join(
                (
                    str(op.id),
                    repr(op.operator),
                    ",".join(str(child.id) for child in op.children),
                    ",".join(repr(m) for m in op.child_multipliers),
                    repr(op.local_cost),
                    str(op.is_subsumption),
                )
            )
            for op in node.operations
        )
        parts.append(
            "\x1e".join(
                (
                    str(node.id),
                    _fingerprint_token(node.key),
                    node.label,
                    repr(node.properties.rows),
                    stats,
                    repr(node.mat_cost),
                    repr(node.reuse_cost),
                    str(node.topo_number),
                    str(node.is_base),
                    str(node.base_table),
                    str(node.scan_alias),
                    str(node.created_by_subsumption),
                    operations,
                )
            )
        )
    roots = ",".join(str(node.id) for node in dag.query_roots)
    header = f"root={dag.root.id if dag.root else None};queries={roots};names={dag.query_names!r}"
    return header + "\x1d" + "\x1d".join(parts)


def random_materialization_sets(
    dag: Dag, rng: random.Random, count: int = 4
) -> List[set]:
    """A few random subsets of the non-base nodes, for cost-table probes."""
    candidates = [
        node.id
        for node in dag.equivalence_nodes()
        if not node.is_base and node is not dag.root
    ]
    sets = [set()]
    for _ in range(count - 1):
        if not candidates:
            break
        size = rng.randint(1, len(candidates))
        sets.append(set(rng.sample(candidates, size)))
    return sets
