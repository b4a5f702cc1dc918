"""Deterministic work counts: the tier-1 performance gate.

Wall-clock time on a shared host is noisy; how often the optimizer performs a
unit of work is not.  Like the paper's Figure 10, which judges greedy by cost
propagations and benefit recomputations rather than seconds, this module pins
machine-independent counts on the workloads whose speed matters:

* **DAG builds** on CQ1..CQ5, BQ5 and the no-overlap batch of Section 6.4:
  ``alg.choose_join`` calls (one per join operation priced), ``JoinInput``
  constructions (one per equivalence node that feeds a join) and
  ``DagBuilder._expand_join_space`` calls (one per join block walked),
  ``ColumnStats`` constructions (none: properties are interned schemas plus
  float tuples), plus the equivalence- and operation-node counts of the DAG;
* ``Schema`` creations of a CQ5 build from cold property memos, and none
  when it repeats;
* ``ColumnRef``, ``Constant``, ``Comparison`` and ``JoinOp`` objects a CQ5
  build makes from empty intern tables, and none when it repeats with freshly
  generated queries;
* **search** on CQ1/CQ3/CQ5: greedy's Figure 10 counters, and for Volcano-RU
  the ``IncrementalCostState.toggle_id`` calls, the propagations they perform
  and the ``CostEngine`` constructions; for both, the effective child-cost
  reads of the incremental cost state (one per child of every operation
  priced);
* **views and numberings per search** on CQ3/CQ5, for all four algorithms:
  ``OperationNode``/``EquivalenceNode`` constructions and
  ``DagArena.assign_topological_numbers`` calls — a search works in id space
  and builds a view only for an operation its plan chooses;
* the **join-level subsumption pass** of a cold CQ5 build: its join groups,
  its weak joins (one per group) and the joins they price, each a new
  operation;
* the four **warm-rebuild** scenarios of :class:`OptimizerSession` on CQ5,
  checked as relations between warm and cold work: a rebuild and a shifted
  batch replay every join block they expand from its log
  (``block_logs.append``; no ``_expand_per_node``, no partition priced or
  enumerated, ``_add_join_operation`` being the per-partition step of the
  live enumeration) and every join group of the rebuild from its group log
  (no derivation, ``and_``, ``SelectOp`` or ``filter_cost`` in the pass),
  and a statistics change falls back to the per-node path only for the
  blocks reading the changed relation;
* ``DagBuilder.build`` calls of a session's ``optimize_all``: one per call,
  like the base optimizer's, with or without the plan cache;
* ``token_digest`` calls of a result-cache ``Executor.run``: at most one
  per node of the executable plan;
* store reads of ``ResultCache.scan_candidates``: the live entries of the
  probed ``(table, alias)`` plus stale index slots, never the whole store,
  and an index no larger than twice the store.

Counting wraps functions (and swaps the intern tables for tables that count
their insertions) with ``monkeypatch`` in this module only, so ``src/``
carries no counter and no option for it.  Node counts and greedy's
``candidates`` are results, so they must match exactly.  Work counts are
ceilings: doing less work passes (lower the pin along with the change), doing
more fails with the measured and pinned values.  What this gate cannot see is
a constant-factor slowdown that does the same work; the perfbench pairs
(``perfbench/run.py``) measure that.
"""

import collections

import pytest

from repro import Algorithm, MQOptimizer
from repro.algebra import columns, predicates
from repro.catalog import psp_catalog, tpcd_catalog
from repro.cost import algorithms as alg, estimation
from repro.dag.arena import DagArena, EquivalenceNode, OperationNode
from repro.dag import block_logs, nodes, subsumption
from repro.dag.builder import DagBuilder
from repro.execution import Executor, executor as executor_module, generate_psp_data
from repro.execution.result_cache import ResultCache
from repro.optimizer import engine
from repro.optimizer.plans import extract_plan
from repro.service.session import OptimizerSession, SessionCacheLimits
from repro.workloads.batch import batched_queries, no_overlap_batch
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.test_algebra_values import clear_tables
from tests.test_result_cache import reference_candidates

#: Pinned counts that are results, not work: they must match exactly.
EXACT = frozenset({"eq_nodes", "op_nodes", "candidates", "choices", "join_groups"})

#: Cold ``MQOptimizer.build_dag`` per workload.
BUILD_PINS = {
    "CQ1": {"choose_join": 140, "join_inputs": 34, "expansions": 9,
            "eq_nodes": 47, "op_nodes": 169, "column_stats": 0},
    "CQ2": {"choose_join": 380, "join_inputs": 82, "expansions": 21,
            "eq_nodes": 111, "op_nodes": 457, "column_stats": 0},
    "CQ3": {"choose_join": 620, "join_inputs": 130, "expansions": 33,
            "eq_nodes": 175, "op_nodes": 745, "column_stats": 0},
    "CQ4": {"choose_join": 860, "join_inputs": 178, "expansions": 45,
            "eq_nodes": 239, "op_nodes": 1033, "column_stats": 0},
    "CQ5": {"choose_join": 1100, "join_inputs": 226, "expansions": 57,
            "eq_nodes": 303, "op_nodes": 1321, "column_stats": 0},
    "BQ5": {"choose_join": 860, "join_inputs": 172, "expansions": 46,
            "eq_nodes": 210, "op_nodes": 1017, "column_stats": 0},
    "NO-OVERLAP": {"choose_join": 356, "join_inputs": 92, "expansions": 5,
                   "eq_nodes": 128, "op_nodes": 387, "column_stats": 0},
}

#: Schemas a cold-memo CQ5 build interns (one per distinct column layout).
CQ5_SCHEMAS = 110

#: Interned values a CQ5 build from empty intern tables makes (one per
#: distinct value; a comparison's normal form included).
CQ5_VALUES = {"column_refs": 66, "constants": 36, "comparisons": 58, "join_ops": 21}

#: ``(module, intern table, counter)``.
INTERN_TABLES = (
    (columns, "_COLUMN_REFS", "column_refs"),
    (columns, "_CONSTANTS", "constants"),
    (predicates, "_COMPARISONS", "comparisons"),
    (nodes, "_JOIN_OPS", "join_ops"),
)

#: Greedy's Figure 10 counters on a prebuilt DAG.
GREEDY_PINS = {
    "CQ1": {"cost_propagations": 310, "benefit_recomputations": 26,
            "bestcost_calls": 26, "candidates": 22},
    "CQ3": {"cost_propagations": 1633, "benefit_recomputations": 101,
            "bestcost_calls": 101, "candidates": 70},
    "CQ5": {"cost_propagations": 2913, "benefit_recomputations": 172,
            "bestcost_calls": 172, "candidates": 118},
}

#: Volcano-RU's incremental costing on a prebuilt DAG.
VOLCANO_RU_PINS = {
    "CQ1": {"toggles": 15, "propagations": 75, "engines": 1},
    "CQ3": {"toggles": 75, "propagations": 377, "engines": 1},
    "CQ5": {"toggles": 143, "propagations": 706, "engines": 1},
}

#: Effective-cost reads (``IncrementalCostState._effective[...]``) of one
#: search on a prebuilt DAG: the child reads of every operation the cost
#: propagation prices, greedy's pruning fixpoint included.  An add toggle
#: prices only the operations that read a changed node.
EFFECTIVE_READ_PINS = {
    ("CQ1", Algorithm.GREEDY): 2460,
    ("CQ3", Algorithm.GREEDY): 17740,
    ("CQ5", Algorithm.GREEDY): 40532,
    ("CQ1", Algorithm.VOLCANO_RU): 691,
    ("CQ3", Algorithm.VOLCANO_RU): 4990,
    ("CQ5", Algorithm.VOLCANO_RU): 11813,
}

#: Node views and topological numberings of one search on a prebuilt DAG
#: (CQ3: 175 nodes, 745 operations; CQ5: 303 nodes, 1,321 operations).
#: ``choices`` is the size of the returned plan's choice map.  Volcano-SH
#: adds a view per subsumption derivation it swaps in; Volcano-RU builds
#: views only for the query order whose plan wins.
SEARCH_VIEW_PINS = {
    ("CQ3", Algorithm.VOLCANO): {"op_views": 161, "eq_views": 0, "numberings": 0,
                                 "choices": 161},
    ("CQ3", Algorithm.VOLCANO_SH): {"op_views": 173, "eq_views": 0, "numberings": 0,
                                    "choices": 161},
    ("CQ3", Algorithm.VOLCANO_RU): {"op_views": 82, "eq_views": 0, "numberings": 0,
                                    "choices": 82},
    ("CQ3", Algorithm.GREEDY): {"op_views": 161, "eq_views": 0, "numberings": 0,
                                "choices": 161},
    ("CQ5", Algorithm.VOLCANO): {"op_views": 281, "eq_views": 0, "numberings": 0,
                                 "choices": 281},
    ("CQ5", Algorithm.VOLCANO_SH): {"op_views": 307, "eq_views": 0, "numberings": 0,
                                    "choices": 281},
    ("CQ5", Algorithm.VOLCANO_RU): {"op_views": 145, "eq_views": 0, "numberings": 0,
                                    "choices": 145},
    ("CQ5", Algorithm.GREEDY): {"op_views": 281, "eq_views": 0, "numberings": 0,
                                "choices": 281},
}

#: Join groups of a CQ5 build (join nodes over the same scans and join
#: predicates with other selections), the weak joins a cold build makes for
#: them, one per group (51 are a node the build has expanded already, and
#: are not expanded again), and the joins those weak joins price.
CQ5_JOIN_PASS = {"join_groups": 72, "weak_joins": 72, "choose_join": 156}
#: Weak joins a warm CQ5 rebuild still expands: the other 51 are nodes the
#: rebuild has expanded already, found by the key id their group log holds.
CQ5_WARM_WEAK_JOINS = 21

#: Joins re-priced when one relation's statistics change under a warm session.
STATS_CHANGE_CHOOSE_JOIN = 198
#: Blocks of that rebuild expanded per node: the 11 of its 57 block
#: expansions (the other 51 of CQ5's 108 are weak joins whose node the
#: rebuild has expanded already) that read the changed relation; the other
#: 46 replay their logs.  Restoring the statistics, and then writing the
#: same change again, prices nothing: the logs of both states are still
#: cached.
STATS_CHANGE_PER_NODE = 11


def _workload(name):
    """``(catalog, queries)`` for a build workload."""
    if name == "BQ5":
        return tpcd_catalog(1.0), batched_queries(5)
    if name == "NO-OVERLAP":
        queries, catalog = no_overlap_batch(tpcd_catalog(1.0))
        return catalog, queries
    return psp_catalog(), scaleup_queries(int(name[2:]))


def _check(label, measured, pins):
    """Exact match for result counts, ceiling for work counts."""
    failures = [
        key for key, pin in pins.items()
        if (measured.get(key, 0) != pin if key in EXACT else measured.get(key, 0) > pin)
    ]
    report = ", ".join(f"{key} {measured.get(key, 0)} (pinned {pin})"
                       for key, pin in pins.items())
    assert not failures, f"{label}: {', '.join(failures)} off the pin; {report}"


class CountingTable(dict):
    """An intern table that counts its insertions: one per object made."""

    def __init__(self, entries, counts, key):
        super().__init__(entries)
        self.counts = counts
        self.key = key

    def __setitem__(self, key, value):
        self.counts[self.key] += 1
        super().__setitem__(key, value)


@pytest.fixture
def work(monkeypatch):
    """A counter of the optimizer's units of work, live for one test."""
    counts = collections.Counter()

    def count_calls(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count_calls(alg, "choose_join", "choose_join")
    count_calls(alg.JoinInput, "__init__", "join_inputs")
    count_calls(DagBuilder, "_expand_join_space", "expansions")
    count_calls(DagBuilder, "_expand_per_node", "per_node_expansions")
    count_calls(DagBuilder, "_add_join_operation", "partitions")
    count_calls(block_logs, "append", "block_replays")
    count_calls(subsumption, "_weak_join_node", "weak_joins")
    count_calls(subsumption, "_derive_group", "group_derivations")
    count_calls(subsumption, "find", "group_logs")
    count_calls(subsumption, "and_", "and_")
    count_calls(nodes.SelectOp, "__init__", "select_ops")
    count_calls(alg, "filter_cost", "filter_cost")
    count_calls(DagBuilder, "build", "builds")
    count_calls(estimation.ColumnStats, "__init__", "column_stats")
    count_calls(estimation.Schema, "__init__", "schemas")
    count_calls(engine.CostEngine, "__init__", "engines")
    count_calls(executor_module, "token_digest", "token_digests")
    count_calls(OperationNode, "__init__", "op_views")
    count_calls(EquivalenceNode, "__init__", "eq_views")
    count_calls(DagArena, "assign_topological_numbers", "numberings")
    toggle_id = engine.IncrementalCostState.toggle_id

    def counted_toggle(state, node_id, add):
        before = state.propagations
        undo = toggle_id(state, node_id, add)
        counts["toggles"] += 1
        counts["propagations"] += state.propagations - before
        return undo

    monkeypatch.setattr(engine.IncrementalCostState, "toggle_id", counted_toggle)
    for module, name, key in INTERN_TABLES:
        monkeypatch.setattr(module, name, CountingTable(getattr(module, name), counts, key))
    return counts


@pytest.fixture
def join_pass(work, monkeypatch):
    """The work counts of the join-level subsumption pass alone, plus its
    ``join_groups`` and the ``join_ops`` it adds."""
    counts = collections.Counter()
    join_subsumption, join_groups = subsumption._join_subsumption, subsumption._join_groups

    def counted_pass(builder):
        before = collections.Counter(work)
        arena = builder.dag.arena
        first = arena.num_operations
        added = join_subsumption(builder)
        counts.update(collections.Counter(work) - before)
        counts["join_ops"] += sum(
            isinstance(operator, nodes.JoinOp) for operator in arena.op_operator[first:]
        )
        return added

    def counted_groups(builder):
        groups = join_groups(builder)
        counts["join_groups"] += len(groups)
        return groups

    monkeypatch.setattr(subsumption, "_join_subsumption", counted_pass)
    monkeypatch.setattr(subsumption, "_join_groups", counted_groups)
    return counts


@pytest.mark.parametrize("name", sorted(BUILD_PINS))
def test_cold_build(work, name):
    catalog, queries = _workload(name)
    dag = MQOptimizer(catalog).build_dag(queries)
    measured = dict(work, eq_nodes=dag.num_equivalence_nodes,
                    op_nodes=dag.num_operation_nodes)
    _check(f"{name} build", measured, BUILD_PINS[name])


def test_cold_join_pass_prices_new_operations_only(join_pass):
    """A cold CQ5 build builds one weak join per join group, and every join
    its weak joins price is an operation the pass adds."""
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
    _check("CQ5 join pass", join_pass, CQ5_JOIN_PASS)
    assert join_pass["choose_join"] == join_pass["join_ops"] > 0, dict(join_pass)


def test_schemas_are_interned_once(work):
    """A CQ5 build from cold property memos creates one schema per column
    layout; the same build again creates none."""
    estimation.clear_property_memos()
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
    cold = dict(work)
    work.clear()
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
    _check("CQ5 cold-memo build", cold, {"schemas": CQ5_SCHEMAS, "column_stats": 0})
    _check("CQ5 warm-memo build", work, {"schemas": 0, "column_stats": 0})


def test_values_are_interned_once(work):
    """A CQ5 build from empty intern tables makes one object per distinct
    column reference, constant, comparison and join operator; the same
    batch generated and built again makes none."""
    clear_tables()
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
    cold = dict(work)
    work.clear()
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(5))
    _check("CQ5 empty-table build", cold, CQ5_VALUES)
    _check("CQ5 repeat build", work, dict.fromkeys(CQ5_VALUES, 0))


@pytest.mark.parametrize("name", sorted(GREEDY_PINS))
def test_greedy_search(name):
    queries = scaleup_queries(int(name[2:]))
    optimizer = MQOptimizer(psp_catalog())
    result = optimizer.optimize(queries, Algorithm.GREEDY, dag=optimizer.build_dag(queries))
    _check(f"{name} greedy", result.counters, GREEDY_PINS[name])


@pytest.mark.parametrize("name", sorted(VOLCANO_RU_PINS))
def test_volcano_ru_search(work, name):
    queries = scaleup_queries(int(name[2:]))
    optimizer = MQOptimizer(psp_catalog())
    dag = optimizer.build_dag(queries)
    work.clear()
    optimizer.optimize(queries, Algorithm.VOLCANO_RU, dag=dag)
    _check(f"{name} Volcano-RU", work, VOLCANO_RU_PINS[name])


class CountingReads(list):
    """A cost table that counts its indexed reads."""

    def __init__(self, values, counts):
        super().__init__(values)
        self.counts = counts

    def __getitem__(self, index):
        self.counts["effective_reads"] += 1
        return list.__getitem__(self, index)


@pytest.mark.parametrize(
    "name, algorithm", list(EFFECTIVE_READ_PINS),
    ids=[f"{name}-{algorithm.value}" for name, algorithm in EFFECTIVE_READ_PINS],
)
def test_search_effective_cost_reads(monkeypatch, name, algorithm):
    counts = collections.Counter()
    state_init = engine.IncrementalCostState.__init__

    def counting_init(state, *args, **kwargs):
        state_init(state, *args, **kwargs)
        state._effective = CountingReads(state._effective, counts)

    queries = scaleup_queries(int(name[2:]))
    optimizer = MQOptimizer(psp_catalog())
    dag = optimizer.build_dag(queries)
    monkeypatch.setattr(engine.IncrementalCostState, "__init__", counting_init)
    optimizer.optimize(queries, algorithm, dag=dag)
    _check(f"{name} {algorithm.value}", counts,
           {"effective_reads": EFFECTIVE_READ_PINS[(name, algorithm)]})


@pytest.mark.parametrize(
    "name, algorithm", list(SEARCH_VIEW_PINS),
    ids=[f"{name}-{algorithm.value}" for name, algorithm in SEARCH_VIEW_PINS],
)
def test_search_builds_views_only_for_chosen_operations(work, name, algorithm):
    queries = scaleup_queries(int(name[2:]))
    optimizer = MQOptimizer(psp_catalog())
    dag = optimizer.build_dag(queries)
    work.clear()
    result = optimizer.optimize(queries, algorithm, dag=dag)
    measured = dict(work, choices=len(result.plan.choices))
    _check(f"{name} {algorithm.value}", measured, SEARCH_VIEW_PINS[(name, algorithm)])


class TestWarmRebuild:
    """The warm-rebuild scenarios on CQ5 (36 chain queries, 22 relations)."""

    def _primed(self, work, **session_kwargs):
        """A session that has built CQ5 once, and the counts of that build."""
        session = OptimizerSession(psp_catalog(), **session_kwargs)
        session.build_dag(scaleup_queries(5))
        cold = dict(work)
        work.clear()
        return session, cold

    def test_repeat_is_served_by_the_plan_cache(self, work):
        session, _ = self._primed(work)
        session.build_dag(scaleup_queries(5))
        assert work["expansions"] == 0, dict(work)

    def test_rebuild_prices_no_join(self, work):
        session, cold = self._primed(work, cache_plans=False)
        session.build_dag(scaleup_queries(5))
        assert cold["choose_join"] > 0
        assert cold["per_node_expansions"] == cold["expansions"] > 0
        # Every query block and every weak join the rebuild expands replays.
        assert work["block_replays"] == work["expansions"] == (
            cold["expansions"] - cold["weak_joins"] + work["weak_joins"]), dict(work)
        _check("CQ5 warm rebuild", work,
               {"choose_join": 0, "partitions": 0, "per_node_expansions": 0,
                "weak_joins": CQ5_WARM_WEAK_JOINS})

    def test_rebuild_and_shifted_batch_replay_join_groups_from_logs(self, work, join_pass):
        """The warm CQ5 rebuild serves every join group from its
        ``subsumption_logs`` entry: no group is derived, and the pass builds
        no conjunction or selection and prices no filter.  The shifted batch
        derives only its three groups over psp5's joins, which lost a member
        to the shift and so are groups CQ5 never formed; the two residual
        selections of each are built and priced."""
        session, _ = self._primed(work, cache_plans=False)
        batches = (
            ("CQ5 warm rebuild", scaleup_queries(5), 0),
            ("SQ5..SQ18 after CQ5",
             [query for c in range(5, 19) for query in component_query(c)], 3),
        )
        for label, queries, derived in batches:
            join_pass.clear()
            session.build_dag(queries)
            assert join_pass["group_logs"] + join_pass["group_derivations"] == (
                join_pass["join_groups"]) > 0, dict(join_pass)
            _check(f"{label} join pass", join_pass,
                   {"group_derivations": derived, "and_": 2 * derived,
                    "select_ops": 2 * derived, "filter_cost": 2 * derived, "choose_join": 0})

    def test_shifted_batch_prices_no_join(self, work):
        session, _ = self._primed(work, cache_plans=False)
        session.build_dag([query for c in range(5, 19) for query in component_query(c)])
        assert work["block_replays"] == work["expansions"] > 0, dict(work)
        _check("SQ5..SQ18 after CQ5", work,
               {"choose_join": 0, "partitions": 0, "per_node_expansions": 0})

    def test_statistics_change_reprices_only_its_cone(self, work):
        session, cold = self._primed(work, cache_plans=False)
        catalog = session.catalog
        rows = catalog.table("psp3").row_count
        catalog.update_statistics("psp3", row_count=31_000)
        session.build_dag(scaleup_queries(5))
        assert 0 < work["choose_join"] < cold["choose_join"], (work, cold)
        assert work["per_node_expansions"] + work["block_replays"] == work["expansions"]
        _check("CQ5 psp3 statistics change", work,
               {"choose_join": STATS_CHANGE_CHOOSE_JOIN,
                "per_node_expansions": STATS_CHANGE_PER_NODE})
        for label, row_count in (("restore", rows), ("repeated change", 31_000)):
            work.clear()
            catalog.update_statistics("psp3", row_count=row_count)
            session.build_dag(scaleup_queries(5))
            assert work["block_replays"] == work["expansions"] == (
                cold["expansions"] - cold["weak_joins"] + work["weak_joins"]), dict(work)
            _check(f"CQ5 psp3 statistics {label}", work,
                   {"choose_join": 0, "partitions": 0, "per_node_expansions": 0})


@pytest.mark.parametrize("cache_plans, builds, plan_hits, plan_misses",
                         [(True, 1, 5, 5), (False, 2, 0, 0)])
def test_session_optimize_all_builds_once_per_call(work, cache_plans, builds,
                                                   plan_hits, plan_misses):
    """Two ``optimize_all`` calls on CQ2: the plan cache serves the second
    call's DAG and four results; without it each call builds once."""
    queries = scaleup_queries(2)
    plain = MQOptimizer(psp_catalog()).optimize_all(queries)
    work.clear()
    session = OptimizerSession(psp_catalog(), cache_plans=cache_plans)
    for _ in range(2):
        results = session.optimize_all(queries)
        assert {name: r.cost for name, r in results.items()} == {
            name: r.cost for name, r in plain.items()}
    assert work["builds"] == builds, dict(work)
    assert (session.plan_hits, session.plan_misses) == (plan_hits, plan_misses)


def _plan_nodes(plan):
    """Nodes of the executable tree of *plan*, every kind counted."""
    count, stack = 0, [extract_plan(plan)]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


@pytest.mark.parametrize("algorithm", [Algorithm.VOLCANO, Algorithm.GREEDY])
def test_result_cache_run_digests_each_plan_node_once(work, algorithm):
    """PSP windows executed through a result cache, the third a repeat of
    the first: each run digests every plan node at most once."""
    catalog = psp_catalog(relation_count=8)
    database = generate_psp_data(relation_count=8, rows_per_table=50)
    session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
    executor = Executor(database, catalog, result_cache=session.result_cache)
    for start in (1, 2, 1):
        queries = component_query(start) + component_query(start + 1)
        plan = session.optimize(queries, algorithm).plan
        work.clear()
        executor.run(plan)
        assert 0 < work["token_digests"] <= _plan_nodes(plan), dict(work)


#: Four component windows over ``psp_catalog(relation_count=6)``.
CANDIDATE_WINDOWS = [component_query(start, seed=seed)
                     for seed in (42, 43) for start in (1, 2)]


@pytest.mark.parametrize("results", [None, 4])
def test_scan_candidates_read_matches_not_the_store(monkeypatch, results):
    """The four windows executed through a result cache, then rebuilt: a
    ``scan_candidates`` call finds, among the digests it reads, only the
    live entries of its ``(table, alias)``; every other digest it reads is
    gone (a stale index slot, dropped at most once per stored entry).  The
    index stays within twice the store, also when the store's bound evicts."""
    catalog = psp_catalog(relation_count=6)
    database = generate_psp_data(relation_count=6, rows_per_table=50)
    session = OptimizerSession(catalog, cache_plans=False, result_cache=True,
                               limits=SessionCacheLimits(results=results))
    cache = session.result_cache
    store = cache.store
    reads = []  # one flag per store read: did it find a value?
    for name in ("get", "peek"):
        original = getattr(store, name, None)
        if original is not None:
            def read(key, default=None, original=original):
                value = original(key, default)
                reads.append(value is not default)
                return value

            monkeypatch.setattr(store, name, read)
    calls = []  # (live reads, stale reads, live matches) per call
    scan_candidates, put = ResultCache.scan_candidates, ResultCache.put
    scan_puts = []

    def counted_candidates(owner, table, alias):
        matches = len(reference_candidates(store, table, alias))
        before = len(reads)
        found = scan_candidates(owner, table, alias)
        probed = reads[before:]
        calls.append((probed.count(True), probed.count(False), matches))
        return found

    def counted_put(owner, entry):
        stored = put(owner, entry)
        if stored and entry.kind == "scan":
            scan_puts.append(entry)
        return stored

    monkeypatch.setattr(ResultCache, "scan_candidates", counted_candidates)
    monkeypatch.setattr(ResultCache, "put", counted_put)
    executor = Executor(database, catalog, result_cache=cache)
    for queries in CANDIDATE_WINDOWS:
        executor.run(session.optimize(queries, "greedy").plan)
    for queries in CANDIDATE_WINDOWS:
        session.optimize(queries, "greedy")

    assert sum(matches for _, _, matches in calls) > 0, calls
    over = [call for call in calls if call[0] > call[2]]
    assert not over, f"calls reading more live entries than match: {over}"
    live = list(dict.values(store))
    left = sum(1 for entry in scan_puts if not any(entry is kept for kept in live))
    stale = sum(stale for _, stale, _ in calls)
    assert stale <= left, f"{stale} stale reads, {left} scan entries left the store"
    if results is not None:
        assert store.evictions > 0
    indexed = sum(len(bucket) for bucket in cache._scan_index.values())
    assert indexed <= 2 * len(store), (indexed, len(store))
