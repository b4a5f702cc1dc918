"""Run the mutant registry: ``python -m tests.mutants [NAME...]``.

Run from the repository root.  With no names every mutant in
:data:`tests.mutants.MUTANTS` runs.  Each mutant's tests run with
``pytest -x`` on a copy of the tree in a temporary directory; the working
tree is never edited.

Exit status: 0 when every selected mutant is killed (its tests fail), 1 when
a mutant survives, its old text does not occur exactly once, or its tests
fail or cannot run on the unmutated copy, 2 for an unknown mutant name.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

from tests.mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parents[2]

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".mypy_cache", ".ruff_cache", "*.egg-info"
)


def _pytest(tree: Path, test_ids: Sequence[str]) -> int:
    """Exit code of ``pytest -x`` over *test_ids* in *tree*."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    completed = subprocess.run(
        command + list(test_ids),
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return completed.returncode


def _run_mutant(tree: Path, mutant: Mutant) -> str:
    """Apply *mutant* in *tree*, run its tests, restore the file; returns
    ``killed``, ``SURVIVED``, ``STALE`` or ``ERROR (exit N)``."""
    path = tree / mutant.path
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "STALE"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        code = _pytest(tree, mutant.tests)
    finally:
        path.write_text(original)
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return f"ERROR (exit {code})"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.mutants", description=__doc__)
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)

    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    selected = [by_name[name] for name in args.names] if args.names else list(MUTANTS)

    failed = False
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        test_ids = list(dict.fromkeys(t for mutant in selected for t in mutant.tests))
        code = _pytest(tree, test_ids)
        if code != 0:
            print(f"the mutants' tests fail without any mutant (pytest exit {code})")
            return 1
        for mutant in selected:
            start = time.perf_counter()
            outcome = _run_mutant(tree, mutant)
            elapsed = time.perf_counter() - start
            print(f"{mutant.name}: {outcome} ({elapsed:.1f} s)")
            if outcome != "killed":
                failed = True
                print(f"  {mutant.path}: {mutant.breaks}; must fail: {' '.join(mutant.tests)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
