"""The layer map of ``docs/ARCHITECTURE.md``, checked against the imports.

Every runtime import from one ``repro`` package into another must point down
the map, so no layer reaches up into one that builds on it.  Imports under
``if TYPE_CHECKING:`` are excluded: they never run.  Lazy imports inside
functions are included: they run, only later.

The oracles in ``tests/oracles/`` are held apart from what they check: none
imports the optimizer, and the builder oracle names none of the production
builder's compiled join enumeration.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ORACLES = ROOT / "tests" / "oracles"

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


def test_oracles_share_no_code_with_the_optimizer():
    """The oracles in ``tests/oracles/`` walk the object graph; importing
    the optimizer (or anything built on it) would put engine code on both
    sides of a differential test."""
    violations = []
    for path in sorted(ORACLES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, target in _runtime_imports(tree):
            rank = _rank(target)
            if rank is None or rank >= LAYERS.index("optimizer"):
                violations.append(f"{path.relative_to(ROOT)}:{line}: {target}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                violations.append(f"{path.relative_to(ROOT)}:{node.lineno}: repro")
    assert not violations, "oracles importing the optimizer:\n" + "\n".join(violations)


#: Production's compiled join enumeration: the builder oracle derives what
#: these compute from definitions, so naming one would check production
#: against itself.
BUILDER_INTERNALS = frozenset(
    {"_BlockShape", "_block_shape", "_connected", "_connecting", "block_logs", "_SHAPE_MEMO"}
)


def builder_internals_named(source):
    """``(line, name)`` for every :data:`BUILDER_INTERNALS` name *source*
    uses: as a name, an attribute, an import or a string constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + [node.asname]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name in BUILDER_INTERNALS)
    return sorted(found)


def test_builder_oracle_names_no_compiled_enumeration():
    path = ORACLES / "builder.py"
    named = builder_internals_named(path.read_text(encoding="utf-8"))
    assert not named, f"{path.relative_to(ROOT)} names production's enumeration: {named}"


def test_internals_check_sees_every_form():
    source = (
        "from repro.dag.builder import _BlockShape\n"
        "from repro.dag import block_logs as logs\n"
        "import repro.dag.block_logs\n"
        "from repro.dag.block_logs import expand\n"
        "DagBuilder._connecting(self, (), ())\n"
        "shape = _block_shape(key)\n"
        "getattr(builder_module, '_SHAPE_MEMO')\n"
        "connected = is_connected(3, adjacency)\n"
    )
    assert builder_internals_named(source) == [
        (1, "_BlockShape"),
        (2, "block_logs"),
        (3, "block_logs"),
        (4, "block_logs"),
        (5, "_connecting"),
        (6, "_block_shape"),
        (7, "_SHAPE_MEMO"),
    ]


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
