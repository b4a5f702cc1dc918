"""A stateful model test of the optimizer session and its caches.

The scenario tests in ``tests/test_session_cache.py`` each run one fixed
sequence.  Here Hypothesis drives a long-lived :class:`OptimizerSession`
through generated interleavings of the events that break caches:

* optimizing an overlapping window of PSP component queries (at two
  constant seeds), a CQ batch, or a batch of short chains, some of them
  joined in the reverse order, and then its last chain alone: blocks meet
  sub-sets other blocks made with their columns in another order, their
  block logs borrow those nodes, and later builds lack them;
* optimizing a chain, then four of its members joined in the reverse
  order and the chain again in one batch: the chain's block log meets a
  node of a key it logged with other properties;
* on the TPC-D catalog, a window of the BQ query pairs, whose join groups
  hold up to seven members;
* a statistics write on one relation, and a write restoring it;
* ``invalidate`` of one relation or of everything;
* a snapshot restored in process, with or without its plans;
* an interner reset, forced by lowering the ``max_interned`` guard for one
  sync.

The session is bounded by :data:`LIMITS`, small enough that most batches
evict entries from every fragment family.  After every optimization the
served DAG must fingerprint as the builder oracle's on the
catalog as it stands, and the greedy cost must equal a fresh
:class:`MQOptimizer`'s; after every step, every family must be within its
bound.  The run is derandomized, so it is the same on every interpreter.
"""

import dataclasses

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import Algorithm, MQOptimizer, OptimizerSession, Query
from repro.algebra import Join, Relation, Select, col, eq, ge
from repro.catalog import psp_catalog, tpcd_catalog
from repro.service import SessionCacheLimits
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.generators import dag_fingerprint, reference_dag

#: Windows start at one of these components and span up to three.
COMPONENTS = 8
#: The relations a write picks from: those the windows read most.
WRITTEN = tuple(f"psp{i}" for i in range(3, 9))
#: The same on the TPC-D catalog: those the BQ pairs read.
TPCD_WRITTEN = ("customer", "orders", "lineitem", "supplier", "nation", "part")
#: The BQ query pairs: BQ5 is the first five.
BQ_PAIRS = 5
#: Row counts a write sets; ``None`` restores the relation's own.
ROW_COUNTS = (5_000, 31_000, None)

LIMITS = SessionCacheLimits(scans=12, results=8, block_logs=10, subsumption_logs=6)

#: Chains built in both member orders: ``(first relation, offset of the
#: four reversed members, selection thresholds)``.  In each, the reversed
#: members' node has other row bits than the forward fold gives it, and a
#: join the chain adds above that node prices those bits.  The relations
#: are past :data:`WRITTEN`, so writes leave the bits as they are.
REVERSALS = (
    (11, 1, (260, 890, 429, 248, 365)),
    (13, 0, (146, 635, 200, 929, 840)),
    (13, 1, (973, 366, 596, 512, 450)),
    (14, 1, (946, 491, 194, 204, 244)),
)


def _chain(start, backward):
    """Three PSP relations from *start* on, joined in chain order; or,
    *backward*, joined from the last to the first, with a fourth relation
    joined to the first."""

    def link(a, b):
        return eq(col(f"psp{a}", "sp"), col(f"psp{b}", "p"))

    first = Select(Relation(f"psp{start}"), ge(col(f"psp{start}", "num"), 317))
    middle, last = Relation(f"psp{start + 1}"), Relation(f"psp{start + 2}")
    if not backward:
        return Query(f"forward{start}", Join(
            Join(first, middle, link(start, start + 1)), last, link(start + 1, start + 2)
        ))
    return Query(f"backward{start}", Join(
        Join(Join(last, middle, link(start + 1, start + 2)), first, link(start, start + 1)),
        Relation(f"psp{start + 3}"), link(start, start + 3),
    ))


def _selected_chain(start, thresholds, members):
    """The chain over ``psp<start + m>`` for the offsets *members*, in
    their order, each relation selected by ``num >=`` its threshold."""

    def leaf(offset):
        table = f"psp{start + offset}"
        return Select(Relation(table), ge(col(table, "num"), thresholds[offset]))

    expression = leaf(members[0])
    for previous, offset in zip(members, members[1:]):
        low, high = sorted((start + previous, start + offset))
        expression = Join(expression, leaf(offset),
                          eq(col(f"psp{low}", "sp"), col(f"psp{high}", "p")))
    name = "-".join(str(start + offset) for offset in members)
    return Query(f"chain{name}", expression)


class SessionMachine(RuleBasedStateMachine):
    """The rules every catalog shares; a subclass adds its batches."""

    #: The catalog the session serves, and the relations a write picks from.
    make_catalog = staticmethod(psp_catalog)
    written = WRITTEN

    def __init__(self):
        super().__init__()
        self.catalog = self.make_catalog()
        self.rows = {name: self.catalog.table(name).row_count for name in self.written}
        self.session = OptimizerSession(self.catalog, limits=LIMITS, max_plans=4)

    def _optimize(self, queries):
        served = self.session.optimize(queries, Algorithm.GREEDY)
        reference = reference_dag(self.catalog, queries)
        assert dag_fingerprint(served.plan.dag) == dag_fingerprint(reference)
        # The fingerprint lists each node's columns in order; the
        # properties' content keys must match too.
        assert [props.content_key() for props in served.plan.dag.arena.eq_props] == [
            props.content_key() for props in reference.arena.eq_props
        ]
        assert served.cost == MQOptimizer(self.catalog).optimize(
            queries, Algorithm.GREEDY
        ).cost

    @rule(table=st.integers(0, len(WRITTEN) - 1), rows=st.sampled_from(ROW_COUNTS))
    def write(self, table, rows):
        table = self.written[table]
        self.catalog.update_statistics(table, row_count=rows or self.rows[table])

    @rule(table=st.none() | st.integers(0, len(WRITTEN) - 1))
    def invalidate(self, table):
        self.session.invalidate(None if table is None else self.written[table])

    @rule(include_plans=st.booleans())
    def snapshot_and_restore(self, include_plans):
        data = self.session.snapshot_state(include_plans=include_plans)
        self.session = OptimizerSession.from_snapshot(data, max_plans=4)
        # The snapshot carries its own copy of the catalog.
        self.catalog = self.session.catalog

    @rule()
    def interner_reset(self):
        """Lower the ``max_interned`` guard under the interned count for one
        sync, which resets the session mid-stream."""
        cache = self.session.cache
        limits = cache.limits
        resets = cache.stats.interner_resets
        cache.limits = dataclasses.replace(limits, max_interned=cache.interned_count() - 1)
        cache.sync()
        cache.limits = limits
        assert cache.stats.interner_resets == resets + 1

    @invariant()
    def families_within_bounds(self):
        for family, size in self.session.cache.family_sizes().items():
            assert size <= getattr(LIMITS, family), (family, size)


class PspSessionMachine(SessionMachine):
    @rule(start=st.integers(1, COMPONENTS), width=st.integers(1, 3),
          seed=st.sampled_from((42, 43)))
    def optimize_window(self, start, width, seed):
        self._optimize([query for component in range(start, start + width)
                        for query in component_query(component, seed=seed)])

    @rule(size=st.integers(1, 3))
    def optimize_cq(self, size):
        self._optimize(scaleup_queries(size))

    @rule(chains=st.lists(st.tuples(st.integers(1, 3), st.booleans()),
                          min_size=1, max_size=2, unique=True))
    def optimize_chains(self, chains):
        queries = [_chain(start, backward) for start, backward in chains]
        self._optimize(queries)
        self._optimize(queries[-1:])


class ReversalSessionMachine(SessionMachine):
    """Chains built in both member orders.  A machine of its own: a new
    rule in :class:`PspSessionMachine` changes every draw its derandomized
    run makes."""

    @rule(case=st.sampled_from(REVERSALS))
    def optimize_both_orders(self, case):
        """A chain, then four of its members joined in the reverse order
        and the chain in one batch, reversed first: the reversed block makes
        the node of their sub-set, and the chain's block log, recorded by
        the first build, meets it with other properties."""
        start, offset, thresholds = case
        forward = _selected_chain(start, thresholds, range(len(thresholds)))
        backward = _selected_chain(start, thresholds, range(offset + 3, offset - 1, -1))
        self._optimize([forward])
        self._optimize([backward, forward])


class TpcdSessionMachine(SessionMachine):
    make_catalog = staticmethod(lambda: tpcd_catalog(1.0))
    written = TPCD_WRITTEN

    @rule(first=st.integers(0, BQ_PAIRS - 1), count=st.integers(1, 3))
    def optimize_pairs(self, first, count):
        queries = batched_queries(BQ_PAIRS)[2 * first:2 * (first + count)]
        self._optimize(queries)


def _settings(examples, steps):
    return settings(
        max_examples=examples,
        stateful_step_count=steps,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


PspSessionMachine.TestCase.settings = _settings(30, 16)
ReversalSessionMachine.TestCase.settings = _settings(10, 8)
TpcdSessionMachine.TestCase.settings = _settings(10, 10)
TestSessionModel = PspSessionMachine.TestCase
TestReversalSessionModel = ReversalSessionMachine.TestCase
TestTpcdSessionModel = TpcdSessionMachine.TestCase
