"""The layer map of ``docs/ARCHITECTURE.md``, checked against the imports.

Every runtime import from one ``repro`` package into another must point down
the map, so no layer reaches up into one that builds on it.  Imports under
``if TYPE_CHECKING:`` are excluded: they never run.  Lazy imports inside
functions are included: they run, only later.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Bottom to top: a package may import only packages listed before it.  The
#: package root (``repro/__init__.py``) re-exports from the layers and sits
#: above all of them.
LAYERS = (
    "algebra",
    "catalog",
    "cost",
    "dag",
    "optimizer",
    "execution",
    "api",
    "service",
    "workloads",
)
#: The determinism linter: it imports no layer and no layer imports it.
STANDALONE = "analysis"
PACKAGE_ROOT = "__init__"


def _layer(path):
    """The layer of a module: its package under ``repro``, or, for a module
    at the root, its name (``api``, ``__init__``)."""
    parts = path.relative_to(SRC).parts
    return parts[0][: -len(".py")] if len(parts) == 1 else parts[0]


def _runtime_imports(tree):
    """``(line, imported repro package)`` for every import that can run."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            pending.extend(node.orelse)
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield node.lineno, parts[1]


def _rank(layer):
    if layer == PACKAGE_ROOT:
        return len(LAYERS)
    return LAYERS.index(layer) if layer in LAYERS else None


def upward_imports(source, layer):
    """Human-readable violations of the map in one module's source."""
    violations = []
    for line, target in sorted(_runtime_imports(ast.parse(source))):
        if target == layer:
            continue
        if STANDALONE in (layer, target):
            allowed = False
        else:
            rank, target_rank = _rank(layer), _rank(target)
            if rank is None or target_rank is None:
                violations.append(f"{line}: {layer} -> {target} (layer not on the map)")
                continue
            allowed = target_rank < rank
        if not allowed:
            violations.append(f"{line}: {layer} -> {target}")
    return violations


def test_every_runtime_import_points_down_the_map():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        for problem in upward_imports(path.read_text(encoding="utf-8"), _layer(path)):
            violations.append(f"{path.relative_to(ROOT)}:{problem}")
    assert not violations, "imports against the layer map:\n" + "\n".join(violations)


def test_every_package_is_on_the_map():
    packages = {_layer(path) for path in SRC.rglob("*.py")}
    assert packages == set(LAYERS) | {STANDALONE, PACKAGE_ROOT}


def test_checker_sees_lazy_imports_and_skips_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service.session import SessionCache\n"
        "def build():\n"
        "    from repro.optimizer.engine import get_engine\n"
    )
    assert upward_imports(source, "dag") == ["5: dag -> optimizer"]


def test_architecture_doc_lists_the_same_layers():
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    block = text.split("## Layer map", 1)[1].split("```", 2)[1]
    documented = re.findall(r"^([a-z]+)\s", block, flags=re.MULTILINE)
    assert tuple(reversed(documented)) == LAYERS
