"""Logical query expressions.

Queries are written as immutable expression trees.  The trees are what a SQL
front end would produce after parsing and view expansion; they are the input
to the multi-query optimizer (which normalizes them into *query blocks* before
building the AND-OR DAG, see :mod:`repro.dag.builder`).

The node types follow the operations the paper's optimizer rule set supports:
relation scans, selections, projections, (inner) joins, and group-by
aggregation.  Nested/correlated queries are expressed at the workload level
(:mod:`repro.workloads.nested`) as structures over these trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple, Type, TypeVar

from repro.algebra.columns import ColumnRef
from repro.algebra.predicates import Predicate, TruePredicate


def _require_predicate(owner: str, predicate: object) -> None:
    """Reject a non-:class:`Predicate` at construction, naming the field."""
    if not isinstance(predicate, Predicate):
        raise TypeError(
            f"{owner}.predicate must be a Predicate, got {type(predicate).__name__}"
        )


class Expression:
    """Abstract base class of logical expressions.

    The concrete expressions are frozen dataclasses whose generated hash
    is computed once per instance (:func:`hash_once`): a session keys its
    plan cache on whole expression trees, so each lookup would otherwise
    re-hash every node of the batch.
    """

    def __getstate__(self) -> Dict[str, object]:
        # The stored hash stays out of pickles: it depends on the process's
        # string-hash seed, so a restored expression hashes afresh.
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    def children(self) -> Tuple["Expression", ...]:
        """Return the input expressions."""
        raise NotImplementedError

    def relations(self) -> FrozenSet[str]:
        """Return the aliases of all base relations referenced below here."""
        out: FrozenSet[str] = frozenset()
        for child in self.children():
            out = out | child.relations()
        return out

    def rename(self, mapping: Mapping[str, str]) -> "Expression":
        """Return a copy with relation aliases rewritten through *mapping*."""
        raise NotImplementedError


_E = TypeVar("_E", bound=Expression)


def hash_once(cls: Type[_E]) -> Type[_E]:
    """Store the generated dataclass hash of each *cls* instance on first use.

    The value is the dataclass formula's, ``hash`` of the tuple of fields;
    only the repeated tree walk goes.  Apply above ``@dataclass``.
    """
    value_hash = cls.__hash__

    def __hash__(self: Expression) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = value_hash(self)
            object.__setattr__(self, "_hash", cached)  # repro-lint: ok(C002) idempotent memo of a pure derived value on a frozen instance
        return cached

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    return cls


@hash_once
@dataclass(frozen=True)
class Relation(Expression):
    """A scan of a base relation.

    ``alias`` defaults to the table name; it must be unique within a query
    when the same table is referenced more than once.
    """

    table: str
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        """The alias under which this relation instance is referenced."""
        return self.alias or self.table

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def relations(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        if self.name in mapping:
            return Relation(self.table, mapping[self.name])
        return self

    def __str__(self) -> str:
        if self.alias and self.alias != self.table:
            return f"{self.table} AS {self.alias}"
        return self.table


@hash_once
@dataclass(frozen=True)
class Select(Expression):
    """A selection (filter) over a single input."""

    child: Expression
    predicate: Predicate

    def __post_init__(self) -> None:
        _require_predicate("Select", self.predicate)

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def rename(self, mapping: Mapping[str, str]) -> "Select":
        return Select(self.child.rename(mapping), self.predicate.rename(mapping))

    def __str__(self) -> str:
        return f"σ[{self.predicate}]({self.child})"


@hash_once
@dataclass(frozen=True)
class Project(Expression):
    """A (duplicate-preserving) projection onto a list of columns."""

    child: Expression
    columns: Tuple[ColumnRef, ...]

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def rename(self, mapping: Mapping[str, str]) -> "Project":
        renamed = tuple(
            c.with_relation(mapping[c.relation]) if c.relation in mapping else c
            for c in self.columns
        )
        return Project(self.child.rename(mapping), renamed)

    def __str__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"π[{cols}]({self.child})"


@hash_once
@dataclass(frozen=True)
class Join(Expression):
    """An inner join of two inputs on a predicate.

    A :class:`~repro.algebra.predicates.TruePredicate` yields a cross product
    (which the optimizer tolerates but never prefers).
    """

    left: Expression
    right: Expression
    predicate: Predicate = field(default_factory=TruePredicate)

    def __post_init__(self) -> None:
        _require_predicate("Join", self.predicate)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def rename(self, mapping: Mapping[str, str]) -> "Join":
        return Join(
            self.left.rename(mapping),
            self.right.rename(mapping),
            self.predicate.rename(mapping),
        )

    def __str__(self) -> str:
        return f"({self.left} ⋈[{self.predicate}] {self.right})"


@dataclass(frozen=True, order=True)
class AggregateFunction:
    """A single aggregate such as ``sum(l.extendedprice) AS revenue``.

    ``column`` is ``None`` for ``count(*)``.
    """

    func: str
    column: Optional[ColumnRef]
    alias: str

    _SUPPORTED = ("sum", "min", "max", "count", "avg")

    def __post_init__(self) -> None:
        if self.func not in self._SUPPORTED:
            raise ValueError(f"unsupported aggregate function: {self.func!r}")

    def __str__(self) -> str:
        arg = "*" if self.column is None else str(self.column)
        return f"{self.func}({arg}) AS {self.alias}"


@hash_once
@dataclass(frozen=True)
class Aggregate(Expression):
    """Group-by aggregation over a single input."""

    child: Expression
    group_by: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggregateFunction, ...]
    alias: Optional[str] = None

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    @property
    def name(self) -> str:
        """Alias under which the aggregate's output columns are referenced."""
        return self.alias or "agg"

    def rename(self, mapping: Mapping[str, str]) -> "Aggregate":
        group = tuple(
            c.with_relation(mapping[c.relation]) if c.relation in mapping else c
            for c in self.group_by
        )
        aggs = tuple(
            AggregateFunction(
                a.func,
                a.column.with_relation(mapping[a.column.relation])
                if a.column is not None and a.column.relation in mapping
                else a.column,
                a.alias,
            )
            for a in self.aggregates
        )
        return Aggregate(self.child.rename(mapping), group, aggs, self.alias)

    def __str__(self) -> str:
        group = ", ".join(str(c) for c in self.group_by) or "()"
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"γ[{group}; {aggs}]({self.child})"


def walk(expression: Expression) -> Iterator[Expression]:
    """Yield every node of the expression tree, pre-order."""
    yield expression
    for child in expression.children():
        yield from walk(child)


def base_relations(expression: Expression) -> Tuple[Relation, ...]:
    """Return all base-relation leaves of the expression, in tree order."""
    return tuple(node for node in walk(expression) if isinstance(node, Relation))
