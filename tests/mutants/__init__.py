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
registry stays out of the tier-1 run; CI runs it as a step of its own on one
interpreter.  Run it after editing an oracle, a differential suite or the
code a mutant below targets.
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
        name="propagation-unit-pair-left-twice",
        path="src/repro/optimizer/engine.py",
        old="                    price = local_cost + effective[left] + effective[right]\n",
        new="                    price = local_cost + effective[left] + effective[left]\n",
        tests=(
            "tests/test_engine.py::TestDecreaseOnlyPropagation"
            "::test_adds_match_full_repricing",
            "tests/test_engine.py::TestUnitPairShape"
            "::test_materialize_id_prices_bitwise_equal",
        ),
        breaks="the cost propagation prices a unit pair (every join) with "
        "its left child twice instead of left plus right",
    ),
    Mutant(
        name="propagation-skips-deferred-many-input",
        path="src/repro/optimizer/engine.py",
        old="                    many = deferred.pop(current_id, None)\n",
        new="                    many = None\n",
        tests=(
            "tests/test_engine.py::TestDecreaseOnlyPropagation"
            "::test_adds_match_full_repricing",
        ),
        breaks="the cost propagation never prices a many-input operation "
        "(the pseudo-root's) at its owner's pop, so the root keeps its old cost",
    ),
    Mutant(
        name="bitmask-unit-pair-or-overlap",
        path="src/repro/optimizer/sharability.py",
        old=(
            "                if a.__class__ is int and b.__class__ is int and not a & b:\n"
        ),
        new="                if a.__class__ is int and b.__class__ is int:\n",
        tests=(
            "tests/test_differential.py::TestSharingSweepPaths"
            "::test_degrees_match_single_target_recurrence",
        ),
        breaks="the sharing sweep's unit-pair path ORs two bitmasks that "
        "share a bit, losing the sum of the overlapping degrees",
    ),
    Mutant(
        name="bitmask-or-overlap",
        path="src/repro/optimizer/sharability.py",
        old=(
            "                and multiplier == 1.0\n"
            "                and not acc & child_vector\n"
        ),
        new="                and multiplier == 1.0\n",
        tests=(
            "tests/test_differential.py::TestSharingSweepPaths"
            "::test_degrees_match_single_target_recurrence",
        ),
        breaks="the sharing sweep ORs bitmasks that share a bit, losing the "
        "sum of the overlapping degrees",
    ),
    Mutant(
        name="sh-numuses-not-minus-one",
        path="src/repro/optimizer/volcano_sh.py",
        old="            if mat_cost[node_id] / (uses - 1) + reuse_cost[node_id] < cost:\n",
        new="            if mat_cost[node_id] / uses + reuse_cost[node_id] < cost:\n",
        tests=(
            "tests/test_differential.py::TestDenseVolcanoSH"
            "::test_matches_reference_on_random_dags",
        ),
        breaks="Volcano-SH's materialization test divides the materialization "
        "cost by numuses instead of numuses - 1",
    ),
    Mutant(
        name="plan-costs-ignore-reuse",
        path="src/repro/optimizer/volcano_sh.py",
        old=(
            "            if node_id in materialized:\n"
            "                reuse = reuse_cost[node_id]\n"
            "                effective[node_id] = reuse if reuse < cost else cost\n"
        ),
        new=(
            "            if node_id in materialized:\n"
            "                effective[node_id] = cost\n"
        ),
        tests=(
            "tests/test_differential.py::TestDenseVolcanoSH"
            "::test_matches_reference_on_random_dags",
        ),
        breaks="the plan-cost sweep prices a materialized child at its cost, "
        "not at min(cost, reusecost)",
    ),
    Mutant(
        name="ru-last-query-fixes-choice",
        path="src/repro/optimizer/volcano_ru.py",
        old=(
            "            if combined_ops[node_id] < 0:\n"
            "                combined_ops[node_id] = op_id\n"
        ),
        new="            combined_ops[node_id] = op_id\n",
        tests=(
            "tests/test_differential.py::TestIncrementalVolcanoRUExact"
            "::test_matches_from_scratch_reference_on_every_order",
        ),
        breaks="Volcano-RU's combined plan takes each node's choice from the "
        "last query to reach it instead of the first",
    ),
    Mutant(
        name="plan-navigates-unchosen-node",
        path="src/repro/optimizer/plans.py",
        old=(
            "        if op_id < 0:\n"
            "            raise PlanError(f\"plan has no operation chosen for {node!r}\")\n"
        ),
        new=(
            "        if op_id < 0:\n"
            "            op_id = self.dag.arena.eq_op_ids[node.id][0]\n"
        ),
        tests=(
            "tests/test_differential.py::TestPlanThroughAllInfiniteNode"
            "::test_every_algorithm_raises_plan_error",
        ),
        breaks="navigating a plan through a node with no chosen operation "
        "(every alternative infinite) takes its first operation instead of "
        "raising PlanError",
    ),
    Mutant(
        name="resolve-ignores-properties-id",
        path="src/repro/dag/block_logs.py",
        old=(
            "            if node_pid[node] != pid:\n"
            "                stale = True\n"
        ),
        new=(
            "            if node_pid[node] != pid:\n"
            "                pass\n"
        ),
        tests=("tests/test_session_model.py::TestReversalSessionModel",),
        breaks="a block log replays onto a node of the same key whose "
        "properties differ from the ones the log was recorded under",
    ),
    Mutant(
        name="single-leaf-side-applies-predicate",
        path="src/repro/dag/builder.py",
        old=(
            "                        if not (left_join and not pmask & other)\n"
            "                        and not (right_join and not pmask & submask)\n"
        ),
        new="                        if pmask & other and pmask & submask\n",
        tests=(
            "tests/test_differential.py::TestBuilderVsOracle"
            "::test_matches_reference_with_out_of_block_predicates",
        ),
        breaks="a single-leaf side of a partition applies its one-alias "
        "predicate, so the predicate no longer connects the partition",
    ),
    Mutant(
        name="hash-cons-ignores-canonical",
        path="src/repro/dag/builder.py",
        old=(
            "        for mask, members, applicable, canonical, partitions in shape.plan:\n"
            "            predicates = frozenset(block_predicates[i] for i in applicable)\n"
        ),
        new=(
            "        for mask, members, applicable, canonical, partitions in shape.plan:\n"
            "            canonical = True\n"
            "            predicates = frozenset(block_predicates[i] for i in applicable)\n"
        ),
        tests=(
            "tests/test_differential.py::TestBuilderVsOracle"
            "::test_non_canonical_subset_of_an_expanded_node",
        ),
        breaks="every sub-set counts as canonical, so one whose block adds an "
        "edge inside it is skipped once another block has expanded its node",
    ),
    Mutant(
        name="block-shape-numeric-order",
        path="src/repro/dag/builder.py",
        old="        subsets.sort(key=int.bit_count)\n",
        new="",
        tests=(
            "tests/test_differential.py::TestBuilderVsOracle"
            "::test_matches_reference_on_random_query_batches",
        ),
        breaks="a block's connected sub-sets are expanded in numeric order, "
        "not smallest first, so its nodes are numbered in another order",
    ),
    Mutant(
        name="join-index-misses-expanded-nodes",
        path="src/repro/dag/builder.py",
        old="                self._index_join(arena.eq_key[node_id], node_id)\n",
        new="",
        tests=(
            "tests/test_differential.py::TestBuilderVsOracle"
            "::test_matches_reference_on_random_query_batches",
        ),
        breaks="the join index misses the nodes a per-node expansion creates, "
        "so the subsumption pass derives no shared weak join for them",
    ),
    Mutant(
        name="subset-run-stores-cpu-only",
        path="src/repro/dag/builder.py",
        old="                costs.append(io + cpu)\n",
        new="                costs.append(cpu)\n",
        tests=(
            "tests/test_differential.py::TestBuilderVsOracle"
            "::test_matches_reference_on_seeded_workloads",
        ),
        breaks="the per-node expansion stores a partition's CPU cost, not "
        "io + cpu, as its local cost",
    ),
    Mutant(
        name="join-run-kernel-entries-swapped",
        path="src/repro/dag/arena.py",
        old="            [(left, right, cost) for (left, right), cost in zip(children, costs)]\n",
        new="            [(right, left, cost) for (left, right), cost in zip(children, costs)]\n",
        tests=(
            "tests/test_engine.py::TestEngineSnapshot::test_operation_tables_mirror_dag",
        ),
        breaks="a run of join operations gets kernel entries with the left "
        "and right children swapped",
    ),
    Mutant(
        name="merge-join-wins-ties",
        path="src/repro/cost/algorithms.py",
        old=(
            "    if total < best_total:\n"
            "        best_io, best_cpu, best_total, best_name = io, cpu, total, \"merge_join\"\n"
        ),
        new=(
            "    if total <= best_total:\n"
            "        best_io, best_cpu, best_total, best_name = io, cpu, total, \"merge_join\"\n"
        ),
        tests=(
            "tests/test_join_costing.py::TestKernelUnits"
            "::test_tie_between_nested_loops_and_merge_keeps_nested_loops",
        ),
        breaks="merge join replaces an equally priced nested-loops join",
    ),
    Mutant(
        name="index-probe-wins-ties",
        path="src/repro/cost/algorithms.py",
        old=(
            "                if total < best_total:\n"
            "                    best_io, best_cpu, best_total = io, cpu, total\n"
        ),
        new=(
            "                if total <= best_total:\n"
            "                    best_io, best_cpu, best_total = io, cpu, total\n"
        ),
        tests=(
            "tests/test_join_costing.py::TestKernelUnits"
            "::test_tie_between_index_probes_keeps_the_first",
        ),
        breaks="a later index probe replaces an equally priced earlier one",
    ),
    Mutant(
        name="bnl-memory-bound-strict",
        path="src/repro/cost/algorithms.py",
        old="    if right.blocks <= model.memory_blocks - 2:\n",
        new="    if right.blocks < model.memory_blocks - 2:\n",
        tests=(
            "tests/test_join_costing.py::TestKernelUnits"
            "::test_block_nested_loops_memory_boundary",
        ),
        breaks="block nested loops spills an inner of exactly memory_blocks - 2 "
        "blocks, which fits in memory",
    ),
    Mutant(
        name="merge-scan-sum-reassociated",
        path="src/repro/cost/algorithms.py",
        old="    scan_cpu = (left.rows + right.rows + output_rows) * per_tuple\n",
        new="    scan_cpu = (left.rows + (right.rows + output_rows)) * per_tuple\n",
        tests=(
            "tests/test_join_costing.py::TestKernelUnits"
            "::test_merge_scan_sums_rows_left_to_right",
        ),
        breaks="the merge pass adds the right and output rows first, which "
        "changes the last bit of some merge prices",
    ),
    Mutant(
        name="merge-right-input-unsorted",
        path="src/repro/cost/algorithms.py",
        old=(
            "        if _sorted_on(right.lead, pairs):\n"
            "            io, cpu = 0.0, scan_cpu\n"
            "        else:\n"
            "            io, cpu = right.sort.io, right.sort.cpu + scan_cpu\n"
            "    else:\n"
            "        io, cpu = left.sort\n"
            "        if not _sorted_on(right.lead, pairs):\n"
        ),
        new=(
            "        io, cpu = right.sort.io, right.sort.cpu + scan_cpu\n"
            "    else:\n"
            "        io, cpu = left.sort\n"
            "        if True:\n"
        ),
        tests=(
            "tests/test_join_costing.py::TestKernelMatchesOracle"
            "::test_grid_reaches_every_branch",
        ),
        breaks="merge join sorts a right input that is already ordered on "
        "the join column",
    ),
)
