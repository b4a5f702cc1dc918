"""Column references and literal constants used in predicates and expressions.

A :class:`ColumnRef` names a column of a relation *instance*; the ``relation``
part is the alias used in the query (for base tables that are referenced only
once, the alias conventionally equals the table name).  Canonicalization of
aliases for DAG unification happens later, in :mod:`repro.dag.builder`.

**Interned values.**  Column references and constants are immutable values
that every query block, DAG key, estimate and executed row set names over
and over, so each is built once: the constructor returns the one live object
of its value from a bounded process-wide table (see :data:`INTERN_LIMIT`),
and that object stores its hash.  The contract that keeps every result the
same as with plain value objects:

* the stored hash is the value hash, ``hash((relation, column))`` and
  ``hash((value,))``, never an ``id``: frozenset and dict iteration orders
  and their ``PYTHONHASHSEED`` behaviour do not change;
* equality and ordering are by value, and a reference never equals a plain
  tuple;
* interning is exact: ``Constant(1)``, ``Constant(1.0)`` and
  ``Constant(True)`` are equal by value but stay three objects, each with
  its own ``str``, and so do ``0.0`` and ``-0.0``;
* a pickle stores the value and calls the constructor on load, so a value
  restored in another process is that process's interned object and
  carries no hash from the process that wrote it.

No result may depend on which object a value is: after a table is cleared
two equal objects may be alive at once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import FrozenInstanceError
from typing import Dict, NoReturn, Tuple, Union

#: Bound on the entries of each value intern table (the tables here, the
#: comparison table in :mod:`repro.algebra.predicates` and the join-operator
#: table in :mod:`repro.dag.nodes`).  A table is cleared when an insertion
#: would pass it; live objects stay valid, since values compare and hash by
#: content.
INTERN_LIMIT = 1 << 14
#: Serializes the check-and-clear of every intern table.  Two threads may
#: still build the same value twice; both objects are equal values.
intern_lock = threading.Lock()

#: ``(relation, column)`` -> the interned :class:`ColumnRef`.
_COLUMN_REFS: Dict[Tuple[str, str], "ColumnRef"] = {}  # repro-lint: ok(M002) immutable values keyed by their own content; cleared past INTERN_LIMIT
#: ``(type, value[, sign])`` -> the interned :class:`Constant`.
_CONSTANTS: Dict[Tuple[object, ...], "Constant"] = {}  # repro-lint: ok(M002) immutable values keyed by their own content and type; cleared past INTERN_LIMIT


class InternedValue:
    """Base of the interned values: frozen, hashed by the hash stored when
    the object is built, and equal and ordered by :meth:`fields` as a frozen,
    ordered dataclass of the same fields would be (only another object of
    the same class compares)."""

    __slots__ = ()

    #: The value hash, stored when the object is built (a slot of each
    #: subclass).
    _hash: int

    def fields(self) -> Tuple[object, ...]:
        """The value's fields, in declaration order."""
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() == other.fields()  # type: ignore[attr-defined]

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() < other.fields()  # type: ignore[attr-defined]

    def __le__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() <= other.fields()  # type: ignore[attr-defined]

    def __gt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() > other.fields()  # type: ignore[attr-defined]

    def __ge__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() >= other.fields()  # type: ignore[attr-defined]

    def __reduce__(self) -> Tuple[object, Tuple[object, ...]]:
        # Through the constructor: the loading process interns the value
        # and hashes it itself.
        return (self.__class__, self.fields())


class ColumnRef(InternedValue):
    """A reference to ``relation.column`` (interned; see the module notes)."""

    __slots__ = ("relation", "column", "_hash")

    relation: str
    column: str

    def __new__(cls, relation: str, column: str) -> "ColumnRef":
        key = (relation, column)
        ref = _COLUMN_REFS.get(key)
        if ref is None:
            ref = object.__new__(cls)
            object.__setattr__(ref, "relation", relation)
            object.__setattr__(ref, "column", column)
            object.__setattr__(ref, "_hash", hash(key))
            with intern_lock:
                if len(_COLUMN_REFS) >= INTERN_LIMIT:
                    _COLUMN_REFS.clear()
                _COLUMN_REFS[key] = ref
        return ref

    def fields(self) -> Tuple[str, str]:
        return (self.relation, self.column)

    def __repr__(self) -> str:
        return f"ColumnRef(relation={self.relation!r}, column={self.column!r})"

    def __str__(self) -> str:
        return f"{self.relation}.{self.column}"

    def with_relation(self, relation: str) -> "ColumnRef":
        """Return this column bound to a different alias."""
        return ColumnRef(relation, self.column)


class Constant(InternedValue):
    """A literal constant appearing in a predicate (interned; see the module
    notes).

    Values are restricted to hashable, orderable Python scalars (numbers and
    strings) so that predicate implication tests and selectivity estimation
    can compare them.
    """

    __slots__ = ("value", "_hash")

    value: Union[int, float, str]

    def __new__(cls, value: Union[int, float, str]) -> "Constant":
        kind = value.__class__
        # The type keeps 1, 1.0 and True apart and the sign keeps 0.0 and
        # -0.0 apart; a NaN equals no other object, so it finds only itself.
        if kind is float:
            key: Tuple[object, ...] = (kind, value, math.copysign(1.0, value))  # type: ignore[arg-type]
        else:
            key = (kind, value)
        constant = _CONSTANTS.get(key)
        if constant is None:
            constant = object.__new__(cls)
            object.__setattr__(constant, "value", value)
            object.__setattr__(constant, "_hash", hash((value,)))
            with intern_lock:
                if len(_CONSTANTS) >= INTERN_LIMIT:
                    _CONSTANTS.clear()
                _CONSTANTS[key] = constant
        return constant

    def fields(self) -> Tuple[Union[int, float, str]]:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Constant(value={self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


Operand = Union[ColumnRef, Constant]


def col(relation: str, column: str) -> ColumnRef:
    """Convenience constructor for a column reference."""
    return ColumnRef(relation, column)


def lit(value: Union[int, float, str]) -> Constant:
    """Convenience constructor for a literal constant."""
    return Constant(value)
