"""Correlated nested sub-queries.

The paper's Section 5 extension treats correlated evaluation of nested queries
as repeated invocations of the nested query, where the part of the nested
query that does not depend on correlation variables (the *invariant* part) can
be materialized — ideally with a temporary index on the correlation column —
and shared across invocations and with the outer query.

:class:`CorrelatedSubqueryFilter` is the logical form of such a query: it
filters the *outer* expression by comparing one of its columns against a
scalar aggregate computed, per outer row, over the correlated selection of the
*invariant* expression.  TPC-D Q2 is the canonical example::

    ... WHERE ps_supplycost = (SELECT min(ps_supplycost) FROM ... WHERE
                               ps_partkey = p_partkey AND r_name = '...')

Here the invariant part is ``partsupp ⋈ supplier ⋈ nation ⋈ σ(region)`` and
the correlation predicate is ``inner.ps_partkey = outer.p_partkey``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.algebra.columns import ColumnRef
from repro.algebra.expressions import AggregateFunction, Expression, hash_once
from repro.algebra.predicates import Predicate


@hash_once
@dataclass(frozen=True)
class CorrelatedSubqueryFilter(Expression):
    """Filter the outer expression with a correlated scalar sub-query.

    Semantics: keep an outer row iff
    ``outer_column <op> aggregate(σ_correlation(invariant))`` where the
    correlation predicates compare invariant columns with the outer row's
    values.

    Parameters
    ----------
    outer:
        The outer query expression (a join block, typically).
    invariant:
        The correlation-independent part of the nested query.
    correlation:
        Predicates linking invariant columns to outer columns; evaluated per
        outer row.
    aggregate:
        The scalar aggregate computed over the matching invariant rows.
    outer_column:
        The outer column compared against the aggregate value.
    op:
        Comparison operator between ``outer_column`` and the aggregate.
    invariant_alias:
        Alias under which the invariant result's columns are referenced by the
        correlation predicates.
    """

    outer: Expression
    invariant: Expression
    correlation: Tuple[Predicate, ...]
    aggregate: AggregateFunction
    outer_column: ColumnRef
    op: str = "="
    invariant_alias: str = "inner"

    def children(self) -> Tuple[Expression, ...]:
        return (self.outer, self.invariant)

    def rename(self, mapping: Mapping[str, str]) -> "CorrelatedSubqueryFilter":
        renamed_corr = tuple(p.rename(mapping) for p in self.correlation)
        outer_col = self.outer_column
        if outer_col.relation in mapping:
            outer_col = outer_col.with_relation(mapping[outer_col.relation])
        return CorrelatedSubqueryFilter(
            self.outer.rename(mapping),
            self.invariant.rename(mapping),
            renamed_corr,
            self.aggregate,
            outer_col,
            self.op,
            self.invariant_alias,
        )

    def __str__(self) -> str:
        corr = " AND ".join(str(p) for p in self.correlation)
        return (
            f"σ[{self.outer_column} {self.op} {self.aggregate.func}(... where {corr})]"
            f"({self.outer})"
        )
