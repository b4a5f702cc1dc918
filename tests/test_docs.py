"""Docs freshness: the documentation's code examples must actually run.

Every fenced ``python`` block in ``README.md``, ``docs/DETERMINISM.md``,
``docs/ARCHITECTURE.md``, ``docs/RESILIENCE.md``, and
``docs/RESULT_CACHE.md`` is executed in its own namespace (asserts
included), so the documented API — the quick-start, the
``OptimizerSession`` warm-rebuild example, the linter example, the arena
walkthrough, the result-cache examples — can never drift from the code.  The
blocks are intentionally small — statistics-only, or at most a tiny generated
dataset (the result-cache examples execute real rows) — keeping this suite
fast.  Every script in ``examples/`` runs as a real subprocess, self-checks
included; the multi-worker service example (snapshot fan-out, bounded
caches, background warming) must also print its per-worker lines.

``benchmarks/harness.py`` is a helper module with no command line, so no
document, CI step or benchmark docstring may tell a reader to run it with a
``--flag``.

Runs in every CI leg: the examples must not depend on anything beyond the
standard library.
"""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = {
    "README.md": os.path.join(REPO_ROOT, "README.md"),
    "DETERMINISM.md": os.path.join(REPO_ROOT, "docs", "DETERMINISM.md"),
    "ARCHITECTURE.md": os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md"),
    "RESILIENCE.md": os.path.join(REPO_ROOT, "docs", "RESILIENCE.md"),
    "RESULT_CACHE.md": os.path.join(REPO_ROOT, "docs", "RESULT_CACHE.md"),
}

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(doc):
    with open(DOCS[doc], encoding="utf-8") as handle:
        text = handle.read()
    return _BLOCK_RE.findall(text)


def _all_blocks():
    return [(doc, index, block) for doc in DOCS for index, block in enumerate(_python_blocks(doc))]


def test_readme_has_python_examples():
    assert len(_python_blocks("README.md")) >= 2, "README lost its executable examples"


def test_determinism_doc_has_python_example():
    assert len(_python_blocks("DETERMINISM.md")) >= 1, "DETERMINISM.md lost its executable example"


def test_architecture_doc_has_python_example():
    assert len(_python_blocks("ARCHITECTURE.md")) >= 1, "ARCHITECTURE.md lost its executable example"


def test_resilience_doc_has_python_examples():
    assert len(_python_blocks("RESILIENCE.md")) >= 3, "RESILIENCE.md lost its executable examples"


def test_result_cache_doc_has_python_examples():
    assert len(_python_blocks("RESULT_CACHE.md")) >= 3, "RESULT_CACHE.md lost its executable examples"


@pytest.mark.parametrize("doc, index, block", _all_blocks())
def test_doc_python_block_runs(doc, index, block, capsys):
    namespace = {"__name__": f"{doc}_block_{index}"}
    exec(compile(block, f"{doc}[block {index}]", "exec"), namespace)


#: Output an example must print beyond exiting cleanly.  The deployment
#: example really forks workers off a pickled snapshot; its own asserts check
#: byte-identity of every worker's warm answers.
EXAMPLE_OUTPUT = {
    "multi_worker_service": ("worker 0", "worker 1", "byte-identical"),
}
EXAMPLES = sorted(
    os.path.splitext(os.path.basename(path))[0]
    for path in glob.glob(os.path.join(REPO_ROOT, "examples", "*.py"))
)


def test_examples_are_found():
    assert set(EXAMPLE_OUTPUT) <= set(EXAMPLES), EXAMPLES


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", f"{example}.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    for expected in EXAMPLE_OUTPUT.get(example, ()):
        assert expected in result.stdout, (expected, result.stdout)


def _harness_mentions():
    """``(source, flag)`` for every ``harness.py --flag`` in the documents,
    the CI workflow and the benchmark modules' docstrings."""
    texts = {}
    for path in [DOCS["README.md"], os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")]:
        with open(path, encoding="utf-8") as handle:
            texts[os.path.relpath(path, REPO_ROOT)] = handle.read()
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))):
        with open(path, encoding="utf-8") as handle:
            texts[os.path.relpath(path, REPO_ROOT)] = handle.read()
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        docstrings = [
            ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        ]
        texts[os.path.relpath(path, REPO_ROOT)] = "\n".join(docstrings)
    return [
        (source, flag)
        for source, text in texts.items()
        for command in re.findall(r"harness\.py([^`\n#)]*)", text)
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", command)
    ]


def test_documented_harness_flags_exist():
    assert _harness_mentions() == []
