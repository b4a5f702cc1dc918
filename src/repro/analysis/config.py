"""Configuration for the determinism & cache-safety linter.

Defaults are tuned to this repository's actual bug history (see
``docs/DETERMINISM.md``); projects can override them from the
``[tool.repro-lint]`` table of ``pyproject.toml``::

    [tool.repro-lint]
    exclude = ["*/analysis_fixtures/*"]
    set_returning = ["relations", "columns"]
    frozen_attributes = ["columns"]

    [tool.repro-lint.registries]
    SessionCache = "_families"

``tomllib`` ships with Python 3.11+; on older interpreters the built-in
defaults are used unchanged (the defaults and the checked-in pyproject table
are kept identical, so lint results do not depend on the interpreter).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

try:  # Python 3.11+
    import tomllib as _tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10 legs
    _tomllib = None  # type: ignore[assignment]

#: Method/function names whose *calls* are treated as returning an unordered
#: (hash-ordered) iterable, in addition to ``set()``/``frozenset()``
#: constructors and set-operator methods.  ``relations``/``columns`` are the
#: ``FrozenSet``-returning accessors of :mod:`repro.algebra.predicates` that
#: fed both historical hash-order bugs.
DEFAULT_SET_RETURNING: FrozenSet[str] = frozenset({"relations", "columns"})

#: Callables through which consuming a set in arbitrary order is harmless
#: (order-insensitive constructors/combinators); ``f(*some_set)`` is only
#: flagged when ``f`` is not one of these.
DEFAULT_ORDER_INSENSITIVE_CALLS: FrozenSet[str] = frozenset(
    {
        "set",
        "frozenset",
        "dict",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "update",
        "intersection_update",
        "difference_update",
        "symmetric_difference_update",
        "isdisjoint",
        "issubset",
        "issuperset",
        "print",  # diagnostics, not key/plan construction
    }
)

#: Attribute names documenting frozen / copy-on-write mapping state; writes
#: through them (``x.columns[k] = v``, ``x.columns.update(...)``) are C002.
DEFAULT_FROZEN_ATTRIBUTES: FrozenSet[str] = frozenset({"columns"})

#: Constructor names whose call results count as cache tables for rules M001
#: and M002, in addition to dict/set literals and comprehensions.
#: ``BoundedCache`` is this repo's LRU-bounded cache family
#: (:class:`repro.service.session.BoundedCache`); projects with their own
#: cache classes add them here so M001 keeps tracking registry coverage and
#: M002 keeps tracking module-level tables.
DEFAULT_CACHE_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "dict",
        "set",
        "frozenset",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "WeakValueDictionary",
        "WeakKeyDictionary",
        "BoundedCache",
    }
)

#: Cache-owning classes mapped to the method that declares their
#: invalidation story.  Every dict/set-valued ``self.*`` attribute created in
#: the class ``__init__`` must be referenced by that method (or carry a
#: justified suppression) — rule M001.
DEFAULT_REGISTRIES: Mapping[str, str] = {
    "SessionCache": "_families",
    "DagBuilder": "build",
    "OptimizerSession": "_sync",
    "DagArena": "__setstate__",
    "ResultCache": "clear",
}

#: Path fragments excluded from linting (fnmatch patterns over ``/``-joined
#: relative paths).  The fixture corpus is deliberately full of violations.
DEFAULT_EXCLUDE: Tuple[str, ...] = ("*/analysis_fixtures/*",)


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration."""

    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    set_returning: FrozenSet[str] = DEFAULT_SET_RETURNING
    order_insensitive_calls: FrozenSet[str] = DEFAULT_ORDER_INSENSITIVE_CALLS
    frozen_attributes: FrozenSet[str] = DEFAULT_FROZEN_ATTRIBUTES
    cache_constructors: FrozenSet[str] = DEFAULT_CACHE_CONSTRUCTORS
    registries: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_REGISTRIES))


def _coerce_str_tuple(value: Any, key: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"[tool.repro-lint] {key} must be a list of strings")
    return tuple(value)


def config_from_mapping(data: Mapping[str, Any]) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.repro-lint]`` table."""
    config = LintConfig()
    if "exclude" in data:
        config = replace(config, exclude=_coerce_str_tuple(data["exclude"], "exclude"))
    if "set_returning" in data:
        config = replace(
            config, set_returning=frozenset(_coerce_str_tuple(data["set_returning"], "set_returning"))
        )
    if "order_insensitive_calls" in data:
        config = replace(
            config,
            order_insensitive_calls=frozenset(
                _coerce_str_tuple(data["order_insensitive_calls"], "order_insensitive_calls")
            ),
        )
    if "frozen_attributes" in data:
        config = replace(
            config,
            frozen_attributes=frozenset(
                _coerce_str_tuple(data["frozen_attributes"], "frozen_attributes")
            ),
        )
    if "cache_constructors" in data:
        config = replace(
            config,
            cache_constructors=frozenset(
                _coerce_str_tuple(data["cache_constructors"], "cache_constructors")
            ),
        )
    if "registries" in data:
        registries = data["registries"]
        if not isinstance(registries, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in registries.items()
        ):
            raise ValueError("[tool.repro-lint] registries must map class names to method names")
        config = replace(config, registries=dict(registries))
    return config


def find_pyproject(start: str) -> Optional[str]:
    """Walk upwards from *start* looking for a ``pyproject.toml``."""
    directory = os.path.abspath(start)
    if os.path.isfile(directory):
        directory = os.path.dirname(directory)
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_config(pyproject_path: Optional[str] = None, start: str = ".") -> LintConfig:
    """Load the configuration from ``pyproject.toml`` (defaults if absent).

    On interpreters without :mod:`tomllib` the defaults are returned; the
    checked-in ``[tool.repro-lint]`` table mirrors them exactly, so results
    are interpreter-independent.
    """
    if pyproject_path is None:
        pyproject_path = find_pyproject(start)
    if pyproject_path is None or _tomllib is None:
        return LintConfig()
    with open(pyproject_path, "rb") as handle:
        document: Dict[str, Any] = _tomllib.load(handle)
    table = document.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.repro-lint] must be a table")
    return config_from_mapping(table)
