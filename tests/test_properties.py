"""Logical properties as interned schemas plus float tuples.

:class:`~repro.cost.estimation.LogicalProperties` is ``(rows, schema,
distincts)``.  These tests hold the float rules to the per-column rules they
replaced, bit for bit and for any floats; keep the content key the same in
every process; and check the process-wide schema and plan memos: bounded,
invisible in results, re-interned by snapshots, and out of reach of the
session cache entries that hold properties.
"""

import gc
import hashlib
import math
import os
import pathlib
import struct
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MQOptimizer
from repro.algebra.columns import ColumnRef
from repro.catalog import psp_catalog, tpcd_catalog
from repro.cost import estimation
from repro.cost.estimation import (
    MIN_ROWS,
    ColumnStats,
    Estimator,
    LogicalProperties,
    clear_property_memos,
)
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint

ROOT = pathlib.Path(__file__).resolve().parent.parent
_bits = struct.Struct("<d").pack
NAN = float("nan")

#: Any float, the special values drawn often.
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [NAN, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, -math.inf]
)


def _bounded_reference(distinct, rows):
    """The per-column rule of the former ``ColumnStats.bounded``."""
    if 1.0 <= distinct <= rows:
        return distinct
    return max(1.0, min(distinct, rows))


def _props(rows, distincts, relation="t"):
    return LogicalProperties(rows, {
        ColumnRef(relation, f"c{i}"): ColumnStats(d) for i, d in enumerate(distincts)
    })


def _float_bits(values):
    return [_bits(v) for v in values]


# ---------------------------------------------------------------------------
# The float rules
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(rows=floats, new_rows=floats, distincts=st.lists(floats, max_size=8))
@example(rows=10.0, new_rows=10.0, distincts=[5.0, NAN, 3.0])
@example(rows=10.0, new_rows=10.0, distincts=[5.0, -0.0, NAN, 0.5])
@example(rows=4.0, new_rows=math.inf, distincts=[math.inf, 2.0])
def test_with_rows_equals_the_per_column_rule(rows, new_rows, distincts):
    props = _props(rows, distincts)
    result = props.with_rows(new_rows)
    expected_rows = max(MIN_ROWS, new_rows)
    expected = [_bounded_reference(d, expected_rows) for d in distincts]
    assert _bits(result.rows) == _bits(expected_rows)
    assert _float_bits(result.distincts) == _float_bits(expected)
    assert result.schema is props.schema
    if all(e is d for e, d in zip(expected, distincts)):
        assert result.distincts is props.distincts
        if expected_rows == rows:
            assert result is props


def test_with_rows_rebounds_a_nan_in_mid_tuple():
    """``min``/``max`` skip a NaN that is not first; the rule maps it to 1."""
    result = _props(10.0, [5.0, NAN, 3.0]).with_rows(10.0)
    assert _float_bits(result.distincts) == _float_bits([5.0, 1.0, 3.0])


#: Six references, so two random column lists overlap often.
REFS = [ColumnRef(relation, column) for relation in "ab" for column in "xyz"]
column_stats = st.builds(
    ColumnStats,
    floats,
    st.integers(1, 64),
    st.none() | floats,
    st.none() | floats,
)
column_maps = st.lists(
    st.tuples(st.sampled_from(REFS), column_stats), max_size=6, unique_by=lambda c: c[0]
).map(dict)


@settings(max_examples=300, deadline=None)
@given(left_rows=floats, right_rows=floats, left=column_maps, right=column_maps)
def test_join_matches_a_dict_update_reference(left_rows, right_rows, left, right):
    """Joined columns keep ``dict.update`` order (a shared column keeps its
    left position and takes the right statistics), then every distinct
    count is re-bounded by the product of the row counts."""
    joined = Estimator(None).join(
        LogicalProperties(left_rows, left), LogicalProperties(right_rows, right), []
    )
    reference = dict(left)
    reference.update(right)
    rows = max(MIN_ROWS, max(MIN_ROWS, left_rows * right_rows))
    assert _bits(joined.rows) == _bits(rows)
    assert list(joined.columns) == list(reference)
    for (ref, got), stat in zip(joined.columns.items(), reference.values()):
        assert _bits(got.distinct) == _bits(_bounded_reference(stat.distinct, rows)), ref
        assert (got.width, got.low is None, got.high is None) == (
            stat.width, stat.low is None, stat.high is None)
        assert [_bits(v) for v in (got.low, got.high) if v is not None] == [
            _bits(v) for v in (stat.low, stat.high) if v is not None]


def test_columns_is_a_read_only_view():
    props = _props(5.0, [2.0, 3.0])
    with pytest.raises(TypeError):
        props.columns[ColumnRef("t", "c0")] = ColumnStats(1.0)  # repro-lint: ok(C002) the write must raise


# ---------------------------------------------------------------------------
# Content keys
# ---------------------------------------------------------------------------

def content_key_digest():
    """``(count, sha256)`` over the content keys of a cold CQ2 build plus
    hand-made properties with ``-0.0``, NaN and infinity."""
    props = list(MQOptimizer(psp_catalog()).build_dag(scaleup_queries(2)).arena.eq_props)
    props.append(LogicalProperties(-0.0, {
        ColumnRef("t", "x"): ColumnStats(NAN, 4, -0.0, None),
        ColumnRef("t", "y"): ColumnStats(math.inf, 8, None, 2.5),
    }))
    digest = hashlib.sha256()
    for p in props:
        for part in p.content_key():
            assert type(part) is bytes
            digest.update(len(part).to_bytes(4, "little") + part)
    return len(props), digest.hexdigest()


def test_content_keys_are_equal_in_another_process():
    """Snapshots restore elsewhere: the keys must not depend on the process
    or on ``PYTHONHASHSEED``."""
    here = content_key_digest()
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_properties import content_key_digest as d; print(*d())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [str(here[0]), here[1]]
    assert here[0] > 50


# ---------------------------------------------------------------------------
# The process-wide memos
# ---------------------------------------------------------------------------

MEMOS = ("_SCHEMAS", "_JOIN_PLANS", "_KEEP_PLANS")


def _batches():
    return [
        (psp_catalog(), scaleup_queries(3)),
        (tpcd_catalog(1.0), batched_queries(2)),
    ]


@pytest.fixture
def cold_memos():
    clear_property_memos()
    yield
    clear_property_memos()


def test_memo_bound_holds_under_overflow(cold_memos, monkeypatch):
    limit = 16
    monkeypatch.setattr(estimation, "MEMO_LIMIT", limit)
    remember = estimation._remember
    sizes = []

    def checked(memo, key, value):
        remember(memo, key, value)
        sizes.append(len(memo))

    monkeypatch.setattr(estimation, "_remember", checked)
    fingerprints = [dag_fingerprint(MQOptimizer(c).build_dag(q)) for c, q in _batches()]
    assert sizes and max(sizes) <= limit
    assert sizes.count(1) > len(MEMOS), "no memo overflowed"
    monkeypatch.undo()
    clear_property_memos()
    assert fingerprints == [dag_fingerprint(MQOptimizer(c).build_dag(q)) for c, q in _batches()]


def test_fingerprints_equal_with_memos_cleared_and_prewarmed(cold_memos):
    cold = []
    for catalog, queries in _batches():
        clear_property_memos()
        cold.append(dag_fingerprint(MQOptimizer(catalog).build_dag(queries)))
    for catalog, queries in _batches():
        MQOptimizer(catalog).build_dag(queries)
    warm = [dag_fingerprint(MQOptimizer(c).build_dag(q)) for c, q in _batches()]
    assert warm == cold
    assert all(len(getattr(estimation, name)) > 0 for name in MEMOS)


def test_restored_session_shares_schemas_with_a_cold_build():
    """A schema pickles as its content and re-interns on load."""
    queries = scaleup_queries(2)
    session = OptimizerSession(psp_catalog(), cache_plans=False)
    session.build_dag(queries)
    restored = OptimizerSession.from_snapshot(session.snapshot_state(), cache_plans=False)
    cold = {props.schema.token: props.schema
            for props in MQOptimizer(psp_catalog()).build_dag(queries).arena.eq_props}
    cache = restored.cache
    restored_props = [record[3] for variants in cache.block_logs.values()
                      for log in variants for record in log.records]
    restored_props += [props for entry in cache.scans.values() for props in entry[:2]]
    assert restored_props
    for props in restored_props:
        assert cold[props.schema.token] is props.schema


# ---------------------------------------------------------------------------
# What the collector sees
# ---------------------------------------------------------------------------

def tracked_reachable(roots, stop=()):
    """Objects the garbage collector tracks among those reachable from
    *roots*, not counting or following *stop* (classes, modules and
    functions are not followed either).  An object listed twice in *stop*
    is left out once."""
    seen = {id(obj): obj for obj in stop}
    stopped = len(seen)
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        if gc.is_tracked(obj):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return len(seen) - stopped


def test_tracked_reachable_leaves_out_a_repeated_stop_object_once():
    shared = [1]
    root = [shared, [2], shared]
    assert tracked_reachable([root]) == 3
    assert tracked_reachable([root], stop=(shared,)) == 2
    assert tracked_reachable([root], stop=(shared, shared)) == 2
    assert tracked_reachable([root], stop=(shared, root, shared)) == 0


def test_scan_entries_reach_few_tracked_objects():
    """A ``scans`` entry costs every collection a few objects, entries over
    one stored table share its properties, and entries with equal columns
    share one schema, counted once.  Allowed: 3 objects per entry (the
    entry, its scan properties and its operator), one per distinct stored
    table's properties, 5 per distinct predicate (for a comparison the
    comparison, its column and alias sets, its equi-join pair tuple and a
    column reference) and, per distinct column layout, 3 (the schema, its
    reference tuple and position map) plus one per column reference.  The
    per-column statistics objects and content-key tuples that properties
    held before reach about three times as many."""
    session = OptimizerSession(psp_catalog(), cache_plans=False)
    session.build_dag(scaleup_queries(5))
    gc.collect()
    values = list(session.cache.scans.values())
    assert len(values) > 10
    # Counted by identity, as the collector counts them; ``values`` keeps
    # every counted object alive.
    stored = {id(entry[0]) for entry in values}  # repro-lint: ok(C001) values holds the objects
    predicates = {id(entry[3].predicate) for entry in values  # repro-lint: ok(C001) values holds the objects
                  if entry[3].predicate is not None}
    layouts = dict.fromkeys(
        tuple((ref, stat.width, repr(stat.low), repr(stat.high))
              for ref, stat in props.columns.items())
        for entry in values for props in entry[:2]
    )
    bound = (3 * len(values) + len(stored) + 5 * len(predicates)
             + sum(3 + len(layout) for layout in layouts))
    assert tracked_reachable(values) <= bound
