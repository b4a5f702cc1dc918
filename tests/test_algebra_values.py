"""Interned algebra values: one object per column reference, constant,
comparison and join operator.

:class:`~repro.algebra.columns.ColumnRef`, :class:`~repro.algebra.columns.Constant`
and :class:`~repro.algebra.predicates.Comparison` are built through bounded
intern tables, and the builder makes its join operators through
:func:`~repro.dag.nodes.join_operator`.  These tests hold the values to the
frozen, ordered dataclasses they replaced — the same hashes, the same
equality and ordering, never equal to a plain tuple — check that interning
is exact and that a pickle re-interns in another process, and show that the
tables are invisible in results and keep session cache entries small.
"""

import dataclasses
import gc
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro import MQOptimizer
from repro.algebra import columns, predicates
from repro.algebra.columns import ColumnRef, Constant
from repro.algebra.predicates import Comparison, and_, eq, or_
from repro.catalog import psp_catalog, tpcd_catalog
from repro.dag import nodes
from repro.dag.nodes import JoinOp, join_operator
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint
from tests.test_properties import tracked_reachable

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``(module, table name)`` of every intern table.
TABLES = (
    (columns, "_COLUMN_REFS"),
    (columns, "_CONSTANTS"),
    (predicates, "_COMPARISONS"),
    (predicates, "_OPERAND_SETS"),
    (nodes, "_JOIN_OPS"),
)


def clear_tables():
    for module, name in TABLES:
        getattr(module, name).clear()


# ---------------------------------------------------------------------------
# The dataclasses the values replaced: the reference semantics
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class RefColumn:
    relation: str
    column: str


@dataclasses.dataclass(frozen=True, order=True)
class RefConstant:
    value: object


@dataclasses.dataclass(frozen=True, order=True)
class RefComparison:
    left: object
    op: str
    right: object


names = st.text(max_size=4) | st.sampled_from(["a", "b", "x", "y", "psp1"])
scalars = (
    st.integers(-3, 3)
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1.0, 2.5])
    | st.text(max_size=3)
)
ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def operands(draw):
    """An operand and its reference twin."""
    if draw(st.booleans()):
        relation, column = draw(names), draw(names)
        return ColumnRef(relation, column), RefColumn(relation, column)
    value = draw(scalars)
    return Constant(value), RefConstant(value)


@st.composite
def comparisons(draw):
    (left, ref_left), op, (right, ref_right) = draw(operands()), draw(ops), draw(operands())
    return Comparison(left, op, right), RefComparison(ref_left, op, ref_right)


def outcome(compare):
    """The result of *compare*, or the type of the error it raises."""
    try:
        return compare()
    except TypeError as error:
        return type(error)


def same_semantics(a, b, ref_a, ref_b):
    for compare in (
        lambda x, y: x == y,
        lambda x, y: x != y,
        lambda x, y: x < y,
        lambda x, y: x <= y,
        lambda x, y: x > y,
        lambda x, y: x >= y,
    ):
        assert outcome(lambda: compare(a, b)) == outcome(lambda: compare(ref_a, ref_b))


@given(names, names)
def test_column_hash_is_the_value_hash(relation, column):
    ref = ColumnRef(relation, column)
    assert hash(ref) == hash((relation, column)) == hash(RefColumn(relation, column))
    assert ref is ColumnRef(relation, column)
    assert ref != (relation, column) and (relation, column) != ref


@given(scalars)
def test_constant_hash_is_the_value_hash(value):
    constant = Constant(value)
    assert hash(constant) == hash((value,)) == hash(RefConstant(value))
    assert Constant(value) is constant
    assert str(constant) == (f"'{value}'" if isinstance(value, str) else str(value))


@given(comparisons())
def test_comparison_hash_is_the_value_hash(pair):
    comparison, reference = pair
    assert hash(comparison) == hash((comparison.left, comparison.op, comparison.right))
    assert hash(comparison) == hash(reference)
    assert Comparison(comparison.left, comparison.op, comparison.right) is comparison


@given(operands(), operands())
def test_operands_compare_like_the_dataclasses(a, b):
    same_semantics(a[0], b[0], a[1], b[1])


@given(comparisons(), comparisons())
def test_comparisons_compare_like_the_dataclasses(a, b):
    same_semantics(a[0], b[0], a[1], b[1])


def test_values_are_frozen():
    ref = ColumnRef("a", "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.relation = "b"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del eq(ref, 1).op
    assert ref.relation == "a"


def test_interning_is_exact():
    """Equal values of other types stay other objects, each with its own
    ``str``, and a comparison keeps its own operand objects."""
    one, one_float, true = Constant(1), Constant(1.0), Constant(True)
    assert one == one_float == true
    assert one is not one_float and one is not true and one_float is not true
    assert [str(c) for c in (one, one_float, true)] == ["1", "1.0", "True"]
    assert Constant(-0.0) is not Constant(0.0) and str(Constant(-0.0)) == "-0.0"
    x = ColumnRef("a", "x")
    by_type = [Comparison(x, "=", c) for c in (one, one_float, true)]
    assert [c.right for c in by_type] == [one, one_float, true]
    assert all(c.right is constant for c, constant in zip(by_type, (one, one_float, true)))
    assert [str(c) for c in by_type] == ["a.x = 1", "a.x = 1.0", "a.x = True"]
    operators = [join_operator((c,), "hash_join") for c in by_type]
    assert all(op.predicates[0] is c for op, c in zip(operators, by_type))


def test_nan_constants_follow_the_dataclass_semantics():
    nan = float("nan")
    assert Constant(nan) is Constant(nan) and Constant(nan) == Constant(nan)
    assert Constant(float("nan")) != Constant(float("nan"))


def test_derived_values_live_on_the_one_object():
    comparison = eq(ColumnRef("b", "y"), ColumnRef("a", "x"))
    normalized = comparison.normalized()
    assert str(normalized) == "a.x = b.y"
    assert normalized is eq(ColumnRef("a", "x"), ColumnRef("b", "y"))
    assert normalized.normalized() is normalized
    assert comparison.relations() == frozenset({"a", "b"})
    assert comparison.equi_join_pairs() == ((ColumnRef("b", "y"), ColumnRef("a", "x")),)
    assert eq(ColumnRef("a", "x"), 5).equi_join_pairs() == ()
    assert comparison.rename({"c": "d"}) is comparison
    assert comparison.rename({"b": "a"}) is eq(ColumnRef("a", "y"), ColumnRef("a", "x"))


def test_memos_stay_out_of_pickles():
    """The composite predicates memoize per instance; a pickle carries the
    value alone, whether or not the memos were filled."""
    for predicate in (
        and_(eq(ColumnRef("a", "x"), ColumnRef("b", "y")), eq(ColumnRef("a", "z"), 5)),
        or_(eq(ColumnRef("a", "x"), 1), eq(ColumnRef("a", "x"), 2)),
    ):
        cold = pickle.dumps(predicate)
        predicate.relations()
        predicate.equi_join_pairs()
        assert pickle.dumps(predicate) == cold
        assert pickle.loads(cold) == predicate


CHILD = """
import pickle, sys
from repro.algebra.columns import ColumnRef, Constant
from repro.algebra.predicates import Comparison
values = pickle.loads(bytes.fromhex(sys.stdin.read()))
ref, one, one_float, true, comparison, conjunction = values
x = ColumnRef("a", "x")
assert ref is x and hash(ref) == hash(("a", "x"))
assert one is Constant(1) and one_float is Constant(1.0) and true is Constant(True)
assert [str(c) for c in (one, one_float, true)] == ["1", "1.0", "True"]
assert comparison is Comparison(x, "=", Constant(1.0)) and comparison.left is x
assert comparison.right is one_float and hash(comparison) == hash((x, "=", one_float))
assert conjunction.children[0] is comparison
print("ok")
"""


def test_pickles_reintern_in_another_process():
    """A value restored under another ``PYTHONHASHSEED`` is the child's own
    interned object and hashes with the child's seed."""
    x = ColumnRef("a", "x")
    comparison = Comparison(x, "=", Constant(1.0))
    values = [x, Constant(1), Constant(1.0), Constant(True), comparison,
              and_(comparison, eq(x, ColumnRef("b", "y")))]
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=pickle.dumps(values).hex(),
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["ok"]


# ---------------------------------------------------------------------------
# The tables
# ---------------------------------------------------------------------------

def _fingerprints():
    return [
        dag_fingerprint(MQOptimizer(catalog).build_dag(queries))
        for catalog, queries in (
            (psp_catalog(), scaleup_queries(3)),
            (tpcd_catalog(1.0), batched_queries(2)),
        )
    ]


def test_tiny_tables_change_no_fingerprint(monkeypatch):
    """With every table cleared every few insertions, equal values are often
    other objects; the DAGs are the same as from empty full-size tables."""
    clear_tables()
    cold = _fingerprints()
    limit = 4
    monkeypatch.setattr(columns, "INTERN_LIMIT", limit)
    clear_tables()
    assert _fingerprints() == cold
    for module, name in TABLES:
        assert 0 < len(getattr(module, name)) <= limit, name
    old = ColumnRef("a", "x")
    for i in range(limit):
        ColumnRef("a", f"filler{i}")
    new = ColumnRef("a", "x")
    assert new is not old and new == old and hash(new) == hash(old)
    assert Comparison(old, "=", Constant(2)).left is old
    assert Comparison(new, "=", Constant(2)).left is new
    monkeypatch.undo()
    clear_tables()


def test_join_operators_are_shared_by_builds_and_sessions():
    MQOptimizer(psp_catalog()).build_dag(scaleup_queries(3))
    built = [op for op in MQOptimizer(psp_catalog()).build_dag(scaleup_queries(3))
             .arena.op_operator if isinstance(op, JoinOp)]
    session = OptimizerSession(psp_catalog(), cache_plans=False)
    session.build_dag(scaleup_queries(3))
    recorded = [operator for variants in session.cache.block_logs.values()
                for log in variants for operator in log.operators]
    by_value = {}
    for op in built + recorded:
        assert by_value.setdefault(op, op) is op
    assert len(built) > 10 * len(by_value)


# ---------------------------------------------------------------------------
# What the collector sees
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cq5_session():
    session = OptimizerSession(psp_catalog(), cache_plans=False)
    session.build_dag(scaleup_queries(5))
    gc.collect()
    return session


def test_comparisons_share_their_column_and_relation_sets():
    """After CQ5 at two constant seeds and BQ5, the interned comparisons
    hold one column-set object and one relation-set object per distinct
    content, not a pair of sets each."""
    for seed in (42, 43):
        OptimizerSession(psp_catalog(), cache_plans=False).build_dag(scaleup_queries(5, seed=seed))
    MQOptimizer(tpcd_catalog(1.0)).build_dag(batched_queries(5))
    comparisons = list(predicates._COMPARISONS.values())
    assert len(comparisons) > 50
    for sets in ([c.columns() for c in comparisons], [c.relations() for c in comparisons]):
        by_content = {}
        for value in sets:
            assert by_content.setdefault(value, value) is value
        assert len(by_content) < len(comparisons) / 2


def test_block_logs_reach_few_tracked_objects(cq5_session):
    """A block's entry reaches its variants tuple, and each log three
    objects: itself, its records and its operator column.
    Per sub-set record, five: the record, its key tuple, the key's
    member-key and predicate sets, and its properties.  Allowed, per
    distinct join operator, ten objects: the operator, its predicate tuple,
    and for a comparison the comparison, its column and alias sets, its
    equi-join pair tuples and its column references.  The partition columns
    of ids and costs hold ints and floats only, so they are untracked: one
    tuple per partition, as a row of partitions would keep, reaches past the
    bound."""
    values = list(cq5_session.cache.block_logs.values())
    assert len(values) > 50
    logs = [log for variants in values for log in variants]
    records = sum(len(log.records) for log in logs)
    partitions = sum(len(log.operators) for log in logs)
    operators = {operator for log in logs for operator in log.operators}
    bound = len(values) + 3 * len(logs) + 5 * records + 10 * len(operators)
    tracked = tracked_reachable(values)
    assert tracked <= bound
    assert tracked + partitions > bound
