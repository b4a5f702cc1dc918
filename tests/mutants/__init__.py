"""A committed registry of mutants that the oracle tests must kill.

Each :class:`Mutant` is one exact text edit of one source file plus the
test ids that must fail once it is applied.  The runner
(``python -m tests.mutants [NAME...]``, see :mod:`tests.mutants.__main__`)
copies the tree to a temporary directory, checks that the named tests pass
there unmutated, then applies each edit in turn and runs its tests.  It
exits non-zero if a mutant survives or if a mutant's old text no longer
occurs exactly once in its file: a refactor that moves the mutated code
must update the mutant, not drop it.

Nothing here is collected by pytest (no ``test_*.py`` file), so the
registry stays out of the tier-1 run.  Run it after editing an oracle, a
differential suite or the code a mutant below targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Mutant:
    """One exact edit of *path* (relative to the repository root) and the
    test ids that must fail under it."""

    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]
    #: What the edit breaks, in one line.
    breaks: str


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        name="prune-one-sweep",
        path="src/repro/optimizer/greedy.py",
        old=(
            "        if used == materialized:\n"
            "            break\n"
            "        materialized = used\n"
        ),
        new=(
            "        materialized = used\n"
            "        break\n"
        ),
        tests=(
            "tests/test_differential.py::TestGreedyPruningVsReferenceRounds"
            "::test_matches_reference_on_random_sets",
        ),
        breaks="greedy's pruning stops after one sweep, keeping the choices "
        "made for the unpruned set",
    ),
    Mutant(
        name="sweep-first-operation",
        path="src/repro/optimizer/engine.py",
        old="                        choice_op[node_id] = op_ids[node_id][index]\n",
        new="                        choice_op[node_id] = op_ids[node_id][0]\n",
        tests=(
            "tests/test_differential.py::TestCostSweepVsReference"
            "::test_matches_reference_on_random_dags",
        ),
        breaks="the cost sweep records each node's first operation instead "
        "of its argmin",
    ),
    Mutant(
        name="propagation-first-reader",
        path="src/repro/optimizer/engine.py",
        old=(
            "            for op_id in parent_op_ids[current_id]:\n"
            "                entry = op_spec[op_id]\n"
        ),
        new=(
            "            for op_id in parent_op_ids[current_id][:1]:\n"
            "                entry = op_spec[op_id]\n"
        ),
        tests=(
            "tests/test_engine.py::TestDecreaseOnlyPropagation"
            "::test_adds_match_full_repricing",
        ),
        breaks="decrease-only propagation prices only the first operation "
        "that reads a changed node",
    ),
    Mutant(
        name="bitmask-or-overlap",
        path="src/repro/optimizer/sharability.py",
        old=(
            "                        and multiplier == 1.0\n"
            "                        and not acc & child_vector\n"
        ),
        new="                        and multiplier == 1.0\n",
        tests=(
            "tests/test_differential.py::TestSharingSweepPaths"
            "::test_degrees_match_single_target_recurrence",
        ),
        breaks="the sharing sweep ORs bitmasks that share a bit, losing the "
        "sum of the overlapping degrees",
    ),
)
