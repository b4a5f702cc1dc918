"""AST rules distilled from this repository's actual bug history.

Determinism rules (the PR 2 / PR 4 class — hash-order leaking into floats,
keys, or plan structure):

* **D001** — an unordered iterable (``set``/``frozenset`` literal, value, or
  a call known to return one) is materialized in iteration order: ``tuple()``
  / ``list()`` / a list comprehension, a ``min``/``max`` tie-break with a
  ``key=``, ``str.join``, star-unpacking into an order-sensitive callable, or
  a loop that ``.append``\\ s per element — all without ``sorted(...)``.
* **D002** — an order-sensitive float fold over an unordered source:
  ``sum``/``math.prod`` over a set (directly or through a comprehension), or
  a loop over one whose body ``+=``/``*=``-accumulates the element.

Cache-safety rules (the PR 5 class — cache keys whose identity/equality
semantics do not match their invalidation story):

* **C001** — an ``id(...)``-derived cache key without a companion strong
  reference in the same function (``refs.append(obj)`` or equivalent), the
  GC id-reuse hazard.
* **C002** — mutation of documented frozen / copy-on-write structures:
  ``object.__setattr__`` escapes outside ``__init__``-like methods, and
  writes through attributes declared frozen (``x.columns[k] = v``).
* **M001** — memo-table registry coherence: every dict/set-valued ``self.*``
  attribute created in the ``__init__`` of a registered cache-owning class
  must be referenced by that class's declared invalidation registry method.
* **M002** — module-level cache tables: a dict/set/``BoundedCache`` bound at
  module level and mutated inside a function lives as long as the process,
  outside every registry M001 checks, so it must justify its bound and its
  invalidation story with a suppression on its definition.

Garbage rule (per-call reference cycles that only the cyclic collector can
free, which kept every batch's DAG alive until a full collection):

* **G001** — a function nested in another function refers to itself,
  directly or through sibling nested functions.  Its closure cell holds the
  function, so every call of the enclosing function leaves a
  function → closure → cell → function cycle behind, and with it everything
  the closure captured (a whole plan or DAG).

Inference is deliberately conservative: only *provably* unordered sources are
flagged (literals, constructors, set-operator methods, set-annotated names and
parameters, and calls to functions whose return annotation is set-like),
so an unannotated value of unknown type never fires a rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.config import LintConfig

#: Every rule id with its one-line description (``--list-rules``).
RULES: Dict[str, str] = {
    "D001": "unordered iterable materialized in hash order without sorted(...)",
    "D002": "order-sensitive float fold (sum/prod/+=/*=) over an unordered source",
    "C001": "id()-derived cache key without a companion strong reference",
    "C002": "mutation of a documented frozen/copy-on-write structure",
    "M001": "cache attribute missing from the declared invalidation registry",
    "M002": "module-level cache table mutated inside a function",
    "G001": "nested function refers to itself: a reference cycle per call",
    "S001": "bare suppression: ok(RULE) requires a justification",
    "S002": "suppression names an unknown rule id",
    "S003": "unused suppression (matches no finding)",
    "E999": "file could not be parsed",
}


@dataclass(frozen=True)
class Finding:
    """One lint finding, position in a specific file."""

    rule: str
    message: str
    line: int
    col: int
    path: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# Set-typedness inference
# ---------------------------------------------------------------------------

_SETISH_HEADS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})
_UNION_HEADS = frozenset({"Optional", "Union"})
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_OPERATOR_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)
_ORDERED_CALLS = frozenset({"sorted", "list", "tuple", "enumerate", "zip", "range"})
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__setattr__"})
_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _annotation_is_setish(node: Optional[ast.expr]) -> bool:
    """True iff the annotation names a set-like type at its head."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SETISH_HEADS
    if isinstance(node, ast.Attribute):
        return node.attr in _SETISH_HEADS
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        if head_name in _UNION_HEADS:
            elements = (
                list(node.slice.elts) if isinstance(node.slice, ast.Tuple) else [node.slice]
            )
            return any(_annotation_is_setish(element) for element in elements)
        return _annotation_is_setish(head)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
        return _annotation_is_setish(node.left) or _annotation_is_setish(node.right)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_is_setish(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return False
    return False


class ModuleIndex:
    """Module-wide facts shared by every function check.

    Currently: the names of locally defined functions/methods whose return
    annotation is set-like, merged with the configured ``set_returning``
    names — calls to any of them are treated as unordered sources.  The
    lookup is by simple name (``self._foo()`` matches a method ``_foo``
    defined anywhere in the module), a deliberate over-approximation that
    keeps the inference resolution-free.
    """

    def __init__(self, tree: ast.Module, config: LintConfig) -> None:
        names: Set[str] = set(config.set_returning)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _annotation_is_setish(node.returns):
                    names.add(node.name)
        self.setish_callables: Set[str] = names


@dataclass
class _Scope:
    """Names bound to provably unordered / provably ordered values."""

    unordered: Set[str] = field(default_factory=set)
    ordered: Set[str] = field(default_factory=set)

    def is_unordered(self, name: str) -> bool:
        return name in self.unordered and name not in self.ordered


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _expr_unordered(node: ast.expr, scope: _Scope, index: ModuleIndex) -> bool:
    """True iff *node* provably evaluates to a hash-ordered iterable."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in _SET_CONSTRUCTORS:
            return True
        if isinstance(node.func, ast.Attribute) and name in _SET_OPERATOR_METHODS:
            return True
        if name is not None and name in index.setish_callables:
            return True
        return False
    if isinstance(node, ast.Name):
        return scope.is_unordered(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _expr_unordered(node.left, scope, index) or _expr_unordered(
            node.right, scope, index
        )
    if isinstance(node, ast.BoolOp):  # e.g. ``materialized or set()``
        return any(_expr_unordered(value, scope, index) for value in node.values)
    if isinstance(node, ast.IfExp):
        return _expr_unordered(node.body, scope, index) or _expr_unordered(
            node.orelse, scope, index
        )
    return False


def _expr_ordered(node: ast.expr) -> bool:
    """True iff *node* is clearly an ordered container (used to un-taint names)."""
    if isinstance(node, (ast.List, ast.Tuple, ast.ListComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in _ORDERED_CALLS
    return False


def _body_statements(fn: Union[_FunctionNode, ast.Module]) -> Iterator[ast.stmt]:
    """All statements of *fn*, without descending into nested functions."""
    stack: List[ast.stmt] = list(reversed(fn.body))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            # Statements nested inside e.g. ``if``/``for`` arrive via the
            # bodies, which are stmt lists handled by iter_child_nodes.


def _collect_scope(fn: Union[_FunctionNode, ast.Module], index: ModuleIndex) -> _Scope:
    """Flow-insensitive binding pass: which names hold unordered values?

    A name counts as unordered only if some binding makes it provably
    unordered and *no* binding makes it provably ordered — reuse of one name
    for both shapes drops it from the analysis instead of guessing.
    """
    scope = _Scope()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if _annotation_is_setish(arg.annotation):
                scope.unordered.add(arg.arg)
    for stmt in _body_statements(fn):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name) and _annotation_is_setish(stmt.annotation):
                scope.unordered.add(target.id)
        if not isinstance(target, ast.Name) or value is None:
            continue
        if _expr_unordered(value, scope, index):
            scope.unordered.add(target.id)
        elif _expr_ordered(value):
            scope.ordered.add(target.id)
    return scope


# ---------------------------------------------------------------------------
# D001 / D002 / C001 / C002: per-function consumption checks
# ---------------------------------------------------------------------------

def _loop_target_names(target: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _comprehension_over_unordered(
    node: ast.expr, scope: _Scope, index: ModuleIndex
) -> bool:
    """True iff *node* is a comprehension iterating an unordered source."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        return any(
            _expr_unordered(generator.iter, scope, index) for generator in node.generators
        )
    return False


class _FunctionChecker(ast.NodeVisitor):
    """Runs D001/D002/C001/C002 over one function body (or the module level).

    Nested functions are skipped — each gets its own checker with its own
    scope — and comprehension arguments already handled at a call site are
    marked *sanitized* so they are not reported twice.
    """

    def __init__(
        self,
        fn: Union[_FunctionNode, ast.Module],
        scope: _Scope,
        index: ModuleIndex,
        config: LintConfig,
    ) -> None:
        self.fn = fn
        self.scope = scope
        self.index = index
        self.config = config
        self.findings: List[Finding] = []
        self._sanitized: Set[int] = set()
        self._id_key_findings: List[Tuple[Finding, Optional[str]]] = []
        self.fn_name = fn.name if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else None

    # -- plumbing ---------------------------------------------------------
    def run(self) -> List[Finding]:
        for stmt in self.fn.body:
            self.visit(stmt)
        self._resolve_id_keys()
        return self.findings

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # checked separately with its own scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, message, getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        )

    def _unordered(self, node: ast.expr) -> bool:
        return _expr_unordered(node, self.scope, self.index)

    def _unordered_or_comp(self, node: ast.expr) -> bool:
        """Unordered directly, or a comprehension over an unordered source."""
        if self._unordered(node):
            return True
        if _comprehension_over_unordered(node, self.scope, self.index):
            self._sanitized.add(id(node))  # repro-lint: ok(C001) the tree pins every AST node for the checker's lifetime
            return True
        return False

    # -- calls: tuple/list/min/max/sum/prod/join/star-unpack/id -----------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name == "sorted" and node.args:
            # sorted(...) is the canonical fix: its argument (including a
            # comprehension over a set) is sanitized, not reported.
            self._sanitized.add(id(node.args[0]))  # repro-lint: ok(C001) the tree pins every AST node for the checker's lifetime
        elif name in ("tuple", "list") and len(node.args) == 1:
            if self._unordered_or_comp(node.args[0]):
                self._report(
                    "D001",
                    node,
                    f"{name}() materializes an unordered iterable in hash order; "
                    "wrap the source in sorted(...)",
                )
        elif name in ("min", "max"):
            has_key = any(keyword.arg == "key" for keyword in node.keywords)
            if has_key and any(self._unordered_or_comp(arg) for arg in node.args):
                self._report(
                    "D001",
                    node,
                    f"{name}(..., key=...) over an unordered iterable breaks ties in "
                    "hash order; iterate sorted(...) instead",
                )
        elif name in ("sum", "prod", "fsum"):
            if node.args and self._unordered_or_comp(node.args[0]):
                self._report(
                    "D002",
                    node,
                    f"{name}() over an unordered iterable is a float fold in hash "
                    "order; fold over sorted(...)",
                )
        elif name == "join" and isinstance(node.func, ast.Attribute) and len(node.args) == 1:
            if self._unordered_or_comp(node.args[0]):
                self._report(
                    "D001",
                    node,
                    "str.join over an unordered iterable builds a hash-ordered key; "
                    "join sorted(...)",
                )
        elif name == "id" and len(node.args) == 1:
            finding = Finding(
                "C001",
                "id()-derived key: object identity can be reused after GC; keep a "
                "companion strong reference or key on an epoch",
                node.lineno,
                node.col_offset,
            )
            arg = node.args[0]
            arg_token = ast.dump(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
            self._id_key_findings.append((finding, arg_token))
        # Star-unpacking a set positionally fixes an arbitrary argument order.
        for arg in node.args:
            if isinstance(arg, ast.Starred) and self._unordered(arg.value):
                if name not in self.config.order_insensitive_calls:
                    self._report(
                        "D001",
                        node,
                        f"*-unpacking an unordered iterable into {name or 'a call'}() "
                        "fixes an arbitrary argument order; unpack sorted(...)",
                    )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            if self.fn_name not in _INIT_METHODS:
                self._report(
                    "C002",
                    node,
                    "object.__setattr__ escape outside __init__/__post_init__ mutates "
                    "a frozen structure",
                )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in self.config.frozen_attributes
        ):
            self._report(
                "C002",
                node,
                f".{node.func.value.attr} is documented frozen/copy-on-write; "
                f"mutating it with .{node.func.attr}(...) leaks into shared state",
            )
        self.generic_visit(node)

    # -- comprehensions ----------------------------------------------------
    def visit_ListComp(self, node: ast.ListComp) -> None:
        # repro-lint: ok(C001) the tree pins every AST node for the checker's lifetime
        if id(node) not in self._sanitized and _comprehension_over_unordered(
            node, self.scope, self.index
        ):
            self._report(
                "D001",
                node,
                "list comprehension over an unordered iterable materializes hash "
                "order; iterate sorted(...)",
            )
        self.generic_visit(node)

    # -- loops: float folds and per-element appends -------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._unordered(node.iter):
            targets = _loop_target_names(node.target)
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, (ast.Add, ast.Mult))
                        and any(
                            isinstance(ref, ast.Name) and ref.id in targets
                            for ref in ast.walk(sub.value)
                        )
                    ):
                        self._report(
                            "D002",
                            sub,
                            "accumulating +=/*= over a set iterates in hash order; "
                            "iterate sorted(...)",
                        )
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "append"
                    ):
                        self._report(
                            "D001",
                            node,
                            "loop over an unordered iterable appends per element, "
                            "materializing hash order; iterate sorted(...)",
                        )
        self.generic_visit(node)

    # -- frozen-attribute subscript stores ----------------------------------
    def _check_store_target(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in self.config.frozen_attributes
        ):
            self._report(
                "C002",
                target,
                f"subscript write into .{target.value.attr}, a documented "
                "frozen/copy-on-write mapping",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store_target(node.target)
        self.generic_visit(node)

    # -- C001 companion resolution ------------------------------------------
    def _resolve_id_keys(self) -> None:
        """Keep only the id() findings lacking a same-function strong reference."""
        if not self._id_key_findings:
            return
        companions: Set[str] = set()
        for stmt in _body_statements(self.fn):
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("append", "add")
                    and len(sub.args) == 1
                    and isinstance(sub.args[0], (ast.Name, ast.Attribute))
                ):
                    companions.add(ast.dump(sub.args[0]))
                elif (
                    isinstance(sub, ast.Assign)
                    and isinstance(sub.value, (ast.Name, ast.Attribute))
                    and any(isinstance(t, ast.Subscript) for t in sub.targets)
                ):
                    companions.add(ast.dump(sub.value))
        for finding, arg_token in self._id_key_findings:
            if arg_token is not None and arg_token in companions:
                continue
            self.findings.append(finding)


# ---------------------------------------------------------------------------
# M001: memo-table registry coherence
# ---------------------------------------------------------------------------

def _is_cache_value(node: Optional[ast.expr], constructors: FrozenSet[str]) -> bool:
    """Dict/set-shaped initializer: the memo-table signature M001 tracks.

    *constructors* comes from :attr:`LintConfig.cache_constructors`, so
    project-specific cache classes (``BoundedCache`` here) stay tracked.
    """
    if node is None:
        return False
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in constructors
    if isinstance(node, ast.IfExp):
        return _is_cache_value(node.body, constructors) or _is_cache_value(
            node.orelse, constructors
        )
    return False


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def check_registries(tree: ast.Module, config: LintConfig) -> List[Finding]:
    """M001 over every registered cache-owning class defined in *tree*."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name not in config.registries:
            continue
        registry_name = config.registries[node.name]
        init: Optional[_FunctionNode] = None
        registry: Optional[_FunctionNode] = None
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    init = item
                elif item.name == registry_name:
                    registry = item
        if init is None:
            continue
        if registry is None:
            findings.append(
                Finding(
                    "M001",
                    f"class {node.name} is a registered cache owner but has no "
                    f"invalidation registry method {registry_name}()",
                    node.lineno,
                    node.col_offset,
                )
            )
            continue
        mentioned: Set[str] = set()
        for sub in ast.walk(registry):
            attr = _self_attr(sub) if isinstance(sub, ast.Attribute) else None
            if attr is not None:
                mentioned.add(attr)
        for stmt in _body_statements(init):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if target is None or not _is_cache_value(value, config.cache_constructors):
                continue
            attr = _self_attr(target)
            if attr is not None and attr not in mentioned:
                findings.append(
                    Finding(
                        "M001",
                        f"cache attribute self.{attr} of {node.name} is not referenced "
                        f"by its invalidation registry {registry_name}()",
                        stmt.lineno,
                        stmt.col_offset,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# M002: module-level cache tables
# ---------------------------------------------------------------------------

#: Methods that mutate a dict, set or ``BoundedCache`` in place.
_MUTATING_METHODS = frozenset(
    {
        "__setitem__",
        "__delitem__",
        "add",
        "clear",
        "difference_update",
        "discard",
        "intersection_update",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "symmetric_difference_update",
        "update",
    }
)


def _own_nodes(fn: _FunctionNode) -> Iterator[ast.AST]:
    """Every node of *fn*'s body, without descending into nested functions,
    lambdas or classes (they are checked as functions of their own)."""
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _mutated_tables(fn: _FunctionNode, tables: Set[str]) -> Set[str]:
    """The module-level *tables* that *fn* mutates: item assignment or
    deletion, a mutating method call (also through a plain local alias), or
    rebinding after a ``global`` declaration."""
    declared = {
        name
        for node in _own_nodes(fn)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    visible = tables - (_own_locals(fn) - declared)
    aliases: Dict[str, str] = {name: name for name in visible}
    for node in _own_nodes(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Name)
            and node.value.id in visible
        ):
            aliases[node.targets[0].id] = node.value.id
    mutated: Set[str] = set()
    for node in _own_nodes(fn):
        holder: Optional[ast.expr] = None
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            holder = node.value
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            holder = node.func.value
        elif (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.id in declared & tables
        ):
            mutated.add(node.id)
        if isinstance(holder, ast.Name) and holder.id in aliases:
            mutated.add(aliases[holder.id])
    return mutated


def check_module_caches(tree: ast.Module, config: LintConfig) -> List[Finding]:
    """M002 over the module-level cache tables of *tree*, reported at each
    table's definition (where its justification belongs)."""
    definitions: Dict[str, ast.stmt] = {}
    for stmt in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if (
            isinstance(target, ast.Name)
            and target.id not in definitions
            and _is_cache_value(value, config.cache_constructors)
        ):
            definitions[target.id] = stmt
    if not definitions:
        return []
    tables = set(definitions)
    mutators: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for name in _mutated_tables(node, tables):
                mutators.setdefault(name, node.name)
    findings: List[Finding] = []
    for name, stmt in definitions.items():
        if name in mutators:
            findings.append(
                Finding(
                    "M002",
                    f"module-level cache {name} is mutated in {mutators[name]}() and "
                    "lives as long as the process; justify its bound and why it "
                    "needs no invalidation with ok(M002)",
                    stmt.lineno,
                    stmt.col_offset,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# G001: self-referencing nested functions
# ---------------------------------------------------------------------------

def _nested_defs(fn: _FunctionNode) -> List[_FunctionNode]:
    """Functions defined directly in *fn*'s body (not in deeper functions)."""
    return [
        stmt
        for stmt in _body_statements(fn)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _own_locals(fn: _FunctionNode) -> Set[str]:
    """Names *fn* binds in its own scope (parameters, stores, nested
    definitions), which shadow any enclosing binding of the same name."""
    args = fn.args
    names = {
        arg.arg
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if arg is not None
    }
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def check_self_reference(tree: ast.Module) -> List[Finding]:
    """G001 over every function that defines nested functions."""
    findings: List[Finding] = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = _nested_defs(outer)
        if not nested:
            continue
        siblings = {fn.name for fn in nested}
        # Free references from each nested function to the nested functions
        # of *outer* (its own name included); descending into the nested
        # function's own inner functions and lambdas, whose cells it shares.
        refers: Dict[str, Set[str]] = {}
        for fn in nested:
            shadowed = _own_locals(fn)
            names = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            refers.setdefault(fn.name, set()).update(names & siblings - shadowed)
        for fn in nested:
            seen: Set[str] = set()
            stack = list(refers.get(fn.name, ()))
            while stack:
                name = stack.pop()
                if name in seen:
                    continue
                seen.add(name)
                stack.extend(refers.get(name, ()))
            if fn.name in seen:
                findings.append(
                    Finding(
                        "G001",
                        f"nested function {fn.name}() refers to itself: a reference "
                        "cycle per call of "
                        f"{outer.name}(); make it a module-level function or iterative",
                        fn.lineno,
                        fn.col_offset,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Entry point: all rules over one parsed module
# ---------------------------------------------------------------------------

def check_module(tree: ast.Module, config: LintConfig) -> List[Finding]:
    """Run every rule over *tree* and return the raw (unsuppressed) findings."""
    index = ModuleIndex(tree, config)
    findings: List[Finding] = []

    # Module- and class-level statements (the checker skips function bodies;
    # visiting a ClassDef covers its non-method statements with module scope).
    module_scope = _collect_scope(tree, index)
    findings.extend(_FunctionChecker(tree, module_scope, index, config).run())

    # Every function, with its own scope (methods and nested functions alike).
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = _collect_scope(node, index)
            findings.extend(_FunctionChecker(node, scope, index, config).run())

    findings.extend(check_registries(tree, config))
    findings.extend(check_module_caches(tree, config))
    findings.extend(check_self_reference(tree))
    return findings
