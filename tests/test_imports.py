"""No unused imports in ``src/``, ``tests/`` or ``benchmarks/``.

The same check as ruff's ``F401``, made on the syntax tree so it runs
wherever the tests do.  A name counts as used when the module reads it
anywhere, lists it in ``__all__``, or names it in a quoted annotation.  A
package ``__init__`` imports to re-export, so its imports always count as
used, and so does an import line marked ``noqa: F401``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks")
EXCLUDED = "analysis_fixtures"


def _sources():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if EXCLUDED not in path.parts:
                yield path


def _quoted_names(annotation):
    """Names read by the string parts of an annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant):
                            yield element.value


def unused_imports(source, lines):
    """``(line, name)`` of every import of *source* that nothing uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        if "noqa: F401" not in lines[node.lineno - 1]:
            imported.extend((node.lineno, name) for name in names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    for annotation in _annotations(tree):
        used.update(_quoted_names(annotation))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in _sources() if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    unused = unused_imports(source, source.splitlines())
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_the_check_finds_an_unused_import():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING, List\n"
        "from a import b  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from c import Quoted\n"
        "__all__ = ['List']\n"
        "def f(x: 'Quoted') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source, source.splitlines()) == [(1, "os")]
