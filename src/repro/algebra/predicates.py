"""Predicates for selections and joins.

The predicate language is deliberately small — comparisons between columns and
constants (or columns and columns, for join predicates), conjunctions, and
disjunctions — but it is sufficient for the TPC-D-style workloads in the paper
and it supports the two operations the multi-query optimizer needs beyond
evaluation:

* **implication tests** between single-column predicates, which drive the
  subsumption derivations of Section 2.1 of the paper
  (``sigma_{A<5}(E)`` is derivable from ``sigma_{A<10}(E)``), and
* **canonical alias rewriting**, which drives unification of equivalence nodes
  across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.algebra import columns as _values
from repro.algebra.columns import ColumnRef, Constant, InternedValue, Operand

_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_NEGATION = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Predicate:
    """Abstract base class for all predicates.

    :class:`Comparison` is an interned value with its derived values stored
    on it; the composite predicates are frozen dataclasses that memoize
    :meth:`relations` and :meth:`equi_join_pairs` per instance.
    """

    __slots__ = ()

    def columns(self) -> FrozenSet[ColumnRef]:
        """Return every column referenced by the predicate."""
        raise NotImplementedError

    def relations(self) -> FrozenSet[str]:
        """Return the set of relation aliases referenced by the predicate.

        Cached on the instance: the DAG builder consults the alias set of
        every predicate once per query block it appears in, and all concrete
        predicate classes are immutable.
        """
        cached = self.__dict__.get("_relations")
        if cached is None:
            cached = frozenset(c.relation for c in self.columns())
            object.__setattr__(self, "_relations", cached)  # repro-lint: ok(C002) idempotent memo of a pure derived value on a frozen instance
        return cached

    def equi_join_pairs(self) -> Tuple[Tuple[ColumnRef, ColumnRef], ...]:
        """Return the ``left.col = right.col`` pairs among the top-level
        conjuncts, in conjunct order.

        Cached on the instance like :meth:`relations`: join costing reads
        the pairs of every connecting predicate once per join operation.
        """
        cached = self.__dict__.get("_equi_join_pairs")
        if cached is None:
            cached = tuple(
                pair
                for conjunct in self.conjuncts()
                if isinstance(conjunct, Comparison)
                for pair in conjunct.equi_join_pairs()
            )
            object.__setattr__(self, "_equi_join_pairs", cached)  # repro-lint: ok(C002) idempotent memo of a pure derived value on a frozen instance
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # The memos stay out of pickles: session snapshots carry thousands
        # of predicates, and the memos are re-derived on first use after a
        # restore.
        return {name: value for name, value in self.__dict__.items()
                if name not in _MEMO_NAMES}

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """Return a copy with relation aliases rewritten through *mapping*.

        Aliases absent from *mapping* are left unchanged.
        """
        raise NotImplementedError

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        """Evaluate the predicate against a row binding columns to values."""
        raise NotImplementedError

    def conjuncts(self) -> Tuple["Predicate", ...]:
        """Return the top-level conjuncts of this predicate."""
        return (self,)

    def is_join_predicate(self) -> bool:
        """Return ``True`` if the predicate references more than one alias."""
        return len(self.relations()) > 1


#: Per-instance memos of the composite predicates, kept out of pickles.
_MEMO_NAMES = frozenset({"_relations", "_equi_join_pairs"})


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (used for cross products and empty filters)."""

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "TruePredicate":
        return self

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return True

    def conjuncts(self) -> Tuple[Predicate, ...]:
        return ()

    def __str__(self) -> str:
        return "TRUE"


#: ``(left, op, right)`` -> the interned :class:`Comparison`.  Looked up by
#: value, kept only when the entry holds the very operand objects asked for:
#: ``Constant(1)`` and ``Constant(1.0)`` are equal values, but a comparison
#: keeps its own operands.
_COMPARISONS: Dict[Tuple[object, str, object], "Comparison"] = {}  # repro-lint: ok(M002) immutable values keyed by their own content, checked for operand identity; cleared past INTERN_LIMIT
#: The column and relation sets of the interned comparisons, one object per
#: content: comparisons share a few such sets, and the collector tracks
#: each set object.
_OPERAND_SETS: Dict[FrozenSet[Any], FrozenSet[Any]] = {}  # repro-lint: ok(M002) immutable sets keyed by their own content; cleared past INTERN_LIMIT


def _shared_set(value: FrozenSet[Any]) -> FrozenSet[Any]:
    """The one frozenset of *value*'s content in :data:`_OPERAND_SETS`
    (called with :data:`repro.algebra.columns.intern_lock` held)."""
    shared = _OPERAND_SETS.get(value)
    if shared is None:
        if len(_OPERAND_SETS) >= _values.INTERN_LIMIT:
            _OPERAND_SETS.clear()
        shared = _OPERAND_SETS[value] = value
    return shared


class Comparison(Predicate, InternedValue):
    """A comparison ``left op right`` between columns and/or constants.

    Interned like :class:`~repro.algebra.columns.ColumnRef` (see
    :mod:`repro.algebra.columns`): one object per operand objects and
    operator, hash ``hash((left, op, right))`` stored when it is built, with
    its ``str``, columns, relations, equi-join pairs and normalized form
    derived once, so every later build and session reuses them.  Equality
    and ordering are by value; a pickle calls the constructor on load.
    """

    __slots__ = ("left", "op", "right", "_hash", "_str", "_columns", "_relations",
                 "_equi_join_pairs", "_normalized")

    left: Operand
    op: str
    right: Operand

    def __new__(cls, left: Operand, op: str, right: Operand) -> "Comparison":
        key = (left, op, right)
        comparison = _COMPARISONS.get(key)
        if comparison is not None and comparison.left is left and comparison.right is right:
            return comparison
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator: {op!r}")
        comparison = object.__new__(cls)
        object.__setattr__(comparison, "left", left)
        object.__setattr__(comparison, "op", op)
        object.__setattr__(comparison, "right", right)
        object.__setattr__(comparison, "_hash", hash(key))
        object.__setattr__(comparison, "_str", f"{left} {op} {right}")
        columns = frozenset(
            operand for operand in (left, right) if isinstance(operand, ColumnRef)
        )
        with _values.intern_lock:
            object.__setattr__(comparison, "_columns", _shared_set(columns))
            object.__setattr__(
                comparison, "_relations", _shared_set(frozenset(c.relation for c in columns))
            )
        equi = op == "=" and isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
        object.__setattr__(comparison, "_equi_join_pairs", ((left, right),) if equi else ())
        # The normal form puts a constant on the right and orders the
        # operands of a column-column (in)equality; it is its own normal
        # form.  ``None`` stands for the comparison itself, which it must
        # not reference: a reference cycle outlives the intern table.
        normalized = None
        if (isinstance(left, Constant) and isinstance(right, ColumnRef)) or (
            isinstance(left, ColumnRef)
            and isinstance(right, ColumnRef)
            and right < left
            and op in ("=", "!=")
        ):
            normalized = Comparison(right, _FLIPPED[op], left)
        object.__setattr__(comparison, "_normalized", normalized)
        with _values.intern_lock:
            if len(_COMPARISONS) >= _values.INTERN_LIMIT:
                _COMPARISONS.clear()
            # Replacing an entry of other operand objects replaces its key too.
            _COMPARISONS.pop(key, None)
            _COMPARISONS[key] = comparison
        return comparison

    def fields(self) -> Tuple[Operand, str, Operand]:
        return (self.left, self.op, self.right)

    def __repr__(self) -> str:
        return f"Comparison(left={self.left!r}, op={self.op!r}, right={self.right!r})"

    def __str__(self) -> str:
        return self._str

    def columns(self) -> FrozenSet[ColumnRef]:
        return self._columns

    def relations(self) -> FrozenSet[str]:
        return self._relations

    def equi_join_pairs(self) -> Tuple[Tuple[ColumnRef, ColumnRef], ...]:
        return self._equi_join_pairs

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        left, right = self.left, self.right
        if isinstance(left, ColumnRef) and left.relation in mapping:
            left = left.with_relation(mapping[left.relation])
        if isinstance(right, ColumnRef) and right.relation in mapping:
            right = right.with_relation(mapping[right.relation])
        if left is self.left and right is self.right:
            return self
        return Comparison(left, self.op, right)

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        left = row[self.left] if isinstance(self.left, ColumnRef) else self.left.value
        right = row[self.right] if isinstance(self.right, ColumnRef) else self.right.value
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def flipped(self) -> "Comparison":
        """Return the equivalent comparison with operands exchanged."""
        return Comparison(self.right, _FLIPPED[self.op], self.left)

    def negated(self) -> "Comparison":
        """Return the logical negation of this comparison."""
        return Comparison(self.left, _NEGATION[self.op], self.right)

    def is_column_constant(self) -> bool:
        """True for ``column op constant`` (after normalization)."""
        return isinstance(self.left, ColumnRef) and isinstance(self.right, Constant)

    def is_column_column(self) -> bool:
        """True for ``column op column`` (typically an equi-join predicate)."""
        return isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef)

    def normalized(self) -> "Comparison":
        """Return an equivalent comparison with any constant on the right and
        column-column comparisons ordered lexicographically."""
        normalized = self._normalized
        return self if normalized is None else normalized


@dataclass(frozen=True)
class Conjunction(Predicate):
    """A conjunction (AND) of predicates."""

    children: Tuple[Predicate, ...]

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset().union(*(c.columns() for c in self.children)) if self.children else frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        return Conjunction(tuple(c.rename(mapping) for c in self.children))

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return all(c.evaluate(row) for c in self.children)

    def conjuncts(self) -> Tuple[Predicate, ...]:
        out = []
        for child in self.children:
            out.extend(child.conjuncts())
        return tuple(out)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Disjunction(Predicate):
    """A disjunction (OR) of predicates.

    Disjunctions are also what the subsumption machinery introduces for shared
    access between equality selections (``sigma_{A=5 or A=10}(E)``).
    """

    children: Tuple[Predicate, ...]

    def columns(self) -> FrozenSet[ColumnRef]:
        return frozenset().union(*(c.columns() for c in self.children)) if self.children else frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Disjunction":
        return Disjunction(tuple(c.rename(mapping) for c in self.children))

    def evaluate(self, row: Mapping[ColumnRef, object]) -> bool:
        return any(c.evaluate(row) for c in self.children)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def _operand(value) -> Operand:
    if isinstance(value, (ColumnRef, Constant)):
        return value
    return Constant(value)


def eq(left, right) -> Comparison:
    """``left = right``"""
    return Comparison(_operand(left), "=", _operand(right))


def ne(left, right) -> Comparison:
    """``left != right``"""
    return Comparison(_operand(left), "!=", _operand(right))


def lt(left, right) -> Comparison:
    """``left < right``"""
    return Comparison(_operand(left), "<", _operand(right))


def le(left, right) -> Comparison:
    """``left <= right``"""
    return Comparison(_operand(left), "<=", _operand(right))


def gt(left, right) -> Comparison:
    """``left > right``"""
    return Comparison(_operand(left), ">", _operand(right))


def ge(left, right) -> Comparison:
    """``left >= right``"""
    return Comparison(_operand(left), ">=", _operand(right))


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction of the given predicates, flattening nested conjunctions."""
    flattened = []
    for predicate in predicates:
        if isinstance(predicate, TruePredicate):
            continue
        if isinstance(predicate, Conjunction):
            flattened.extend(predicate.children)
        else:
            flattened.append(predicate)
    if not flattened:
        return TruePredicate()
    if len(flattened) == 1:
        return flattened[0]
    return Conjunction(tuple(flattened))


def or_(*predicates: Predicate) -> Predicate:
    """Disjunction of the given predicates, flattening nested disjunctions."""
    flattened = []
    for predicate in predicates:
        if isinstance(predicate, Disjunction):
            flattened.extend(predicate.children)
        else:
            flattened.append(predicate)
    if not flattened:
        return TruePredicate()
    if len(flattened) == 1:
        return flattened[0]
    return Disjunction(tuple(flattened))


def conjuncts_of(predicate: Optional[Predicate]) -> Tuple[Predicate, ...]:
    """Return the conjuncts of *predicate* (empty tuple for ``None``/TRUE)."""
    if predicate is None:
        return ()
    return predicate.conjuncts()


# ---------------------------------------------------------------------------
# Implication — the engine behind subsumption derivations
# ---------------------------------------------------------------------------

def _single_column_range(predicate: Predicate) -> Optional[Tuple[ColumnRef, str, Constant]]:
    """Decompose ``column op constant``; return ``None`` for anything else."""
    if isinstance(predicate, Comparison):
        normalized = predicate.normalized()
        if normalized.is_column_constant():
            return normalized.left, normalized.op, normalized.right
    return None


def _comparison_implies(p: Comparison, q: Comparison) -> bool:
    """Implication between two single-column comparisons on the same column."""
    dp = _single_column_range(p)
    dq = _single_column_range(q)
    if dp is None or dq is None:
        return False
    (pc, pop, pv), (qc, qop, qv) = dp, dq
    if pc != qc:
        return False
    pval, qval = pv.value, qv.value
    try:
        if pop == "=":
            return _COMPARATORS[qop](pval, qval)
        if pop in ("<", "<="):
            if qop == "<":
                return pval < qval or (pval == qval and pop == "<")
            if qop == "<=":
                return pval <= qval
            if qop == "!=":
                return pval <= qval if pop == "<" else pval < qval
            return False
        if pop in (">", ">="):
            if qop == ">":
                return pval > qval or (pval == qval and pop == ">")
            if qop == ">=":
                return pval >= qval
            if qop == "!=":
                return pval >= qval if pop == ">" else pval > qval
            return False
        if pop == "!=":
            return qop == "!=" and pval == qval
    except TypeError:
        return False
    return False


def implies(p: Predicate, q: Predicate) -> bool:
    """Return ``True`` if predicate *p* provably implies predicate *q*.

    The test is sound but deliberately incomplete: it covers the cases needed
    by the subsumption machinery of the paper — conjunctions of single-column
    comparisons against constants, plus syntactic equality and disjunction
    membership.  When in doubt it returns ``False``, which only means a
    subsumption derivation is not added.
    """
    if p == q:
        return True
    if isinstance(q, TruePredicate):
        return True
    if isinstance(p, TruePredicate):
        return False
    if isinstance(q, Conjunction):
        return all(implies(p, qc) for qc in q.children)
    if isinstance(p, Conjunction):
        return any(implies(pc, q) for pc in p.children)
    if isinstance(q, Disjunction):
        return any(implies(p, qc) for qc in q.children)
    if isinstance(p, Disjunction):
        return all(implies(pc, q) for pc in p.children)
    if isinstance(p, Comparison) and isinstance(q, Comparison):
        return _comparison_implies(p, q)
    return False
