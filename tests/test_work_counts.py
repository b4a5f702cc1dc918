"""Deterministic work counts: the tier-1 performance gate.

Wall-clock time on a shared host is noisy; how often the optimizer performs a
unit of work is not.  Like the paper's Figure 10, which judges greedy by cost
propagations and benefit recomputations rather than seconds, this module pins
machine-independent counts on the workloads whose speed matters:

* **DAG builds** on CQ1..CQ5, BQ5 and the no-overlap batch of Section 6.4:
  ``alg.choose_join`` calls (one per join operation priced), ``JoinInput``
  constructions (one per equivalence node that feeds a join) and
  ``DagBuilder._expand_join_space`` calls (one per join block walked), plus
  the equivalence- and operation-node counts of the DAG;
* **search** on CQ1/CQ3/CQ5: greedy's Figure 10 counters, and for Volcano-RU
  the ``IncrementalCostState.toggle_id`` calls, the propagations they perform
  and the ``CostEngine`` constructions;
* the four **warm-rebuild** scenarios of :class:`OptimizerSession` on CQ5,
  checked as relations between warm and cold work;
* ``DagBuilder.build`` calls of a session's ``optimize_all``: one per call,
  like the base optimizer's, with or without the plan cache.

Counting wraps functions with ``monkeypatch`` in this module only, so ``src/``
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
from repro.catalog import psp_catalog, tpcd_catalog
from repro.cost import algorithms as alg
from repro.dag.builder import DagBuilder
from repro.optimizer import engine
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries, no_overlap_batch
from repro.workloads.scaleup import component_query, scaleup_queries

#: Pinned counts that are results, not work: they must match exactly.
EXACT = frozenset({"eq_nodes", "op_nodes", "candidates"})

#: Cold ``MQOptimizer.build_dag`` per workload.
BUILD_PINS = {
    "CQ1": {"choose_join": 140, "join_inputs": 34, "expansions": 12,
            "eq_nodes": 47, "op_nodes": 169},
    "CQ2": {"choose_join": 380, "join_inputs": 82, "expansions": 36,
            "eq_nodes": 111, "op_nodes": 457},
    "CQ3": {"choose_join": 620, "join_inputs": 130, "expansions": 60,
            "eq_nodes": 175, "op_nodes": 745},
    "CQ4": {"choose_join": 860, "join_inputs": 178, "expansions": 84,
            "eq_nodes": 239, "op_nodes": 1033},
    "CQ5": {"choose_join": 1100, "join_inputs": 226, "expansions": 108,
            "eq_nodes": 303, "op_nodes": 1321},
    "BQ5": {"choose_join": 860, "join_inputs": 172, "expansions": 53,
            "eq_nodes": 210, "op_nodes": 1017},
    "NO-OVERLAP": {"choose_join": 356, "join_inputs": 92, "expansions": 5,
                   "eq_nodes": 128, "op_nodes": 387},
}

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

#: Joins re-priced when one relation's statistics change under a warm session.
STATS_CHANGE_CHOOSE_JOIN = 174


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
    count_calls(DagBuilder, "build", "builds")
    count_calls(engine.CostEngine, "__init__", "engines")
    toggle_id = engine.IncrementalCostState.toggle_id

    def counted_toggle(state, node_id, add):
        before = state.propagations
        undo = toggle_id(state, node_id, add)
        counts["toggles"] += 1
        counts["propagations"] += state.propagations - before
        return undo

    monkeypatch.setattr(engine.IncrementalCostState, "toggle_id", counted_toggle)
    return counts


@pytest.mark.parametrize("name", sorted(BUILD_PINS))
def test_cold_build(work, name):
    catalog, queries = _workload(name)
    dag = MQOptimizer(catalog).build_dag(queries)
    measured = dict(work, eq_nodes=dag.num_equivalence_nodes,
                    op_nodes=dag.num_operation_nodes)
    _check(f"{name} build", measured, BUILD_PINS[name])


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
        assert work["choose_join"] == 0, dict(work)

    def test_shifted_batch_prices_no_join(self, work):
        session, _ = self._primed(work, cache_plans=False)
        session.build_dag([query for c in range(5, 19) for query in component_query(c)])
        assert work["expansions"] > 0
        assert work["choose_join"] == 0, dict(work)

    def test_statistics_change_reprices_only_its_cone(self, work):
        session, cold = self._primed(work, cache_plans=False)
        session.catalog.update_statistics("psp3", row_count=31_000)
        session.build_dag(scaleup_queries(5))
        assert 0 < work["choose_join"] < cold["choose_join"], (work, cold)
        _check("CQ5 psp3 statistics change", work,
               {"choose_join": STATS_CHANGE_CHOOSE_JOIN})


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
