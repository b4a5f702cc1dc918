"""Consolidated (DAG-structured) plans and executable plan extraction.

The output of basic Volcano optimization is the *consolidated best plan*: for
every equivalence node reachable from the pseudo-root, the chosen operation,
held as the operation ids of the cost sweep that chose them.
Because common sub-expressions are unified in the DAG, the consolidated plan
is itself a DAG (nodes may have several parents); the multi-query algorithms
then decide which of those shared nodes to actually materialize.

:func:`extract_plan` turns a consolidated plan plus a materialization set into
an executable operator tree in which the first use of a materialized node
computes and materializes it and every further use reads the materialized
result — the form the simulated execution engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dag.nodes import Dag, DagError, EquivalenceNode, OperationNode
from repro.optimizer.engine import get_engine as _engine


class PlanError(RuntimeError):
    """Raised when a plan is structurally inconsistent."""


@dataclass
class ConsolidatedPlan:
    """A DAG-structured plan: one chosen operation per equivalence node.

    ``choice_op`` holds, per node id, the id of the chosen operation, ``-1``
    where none is chosen (base tables, and nodes whose every alternative is
    infinite).  It is the operation-id tuple of the cost sweep that priced
    the plan, so holding a plan costs no per-node objects; the
    :class:`~repro.dag.nodes.OperationNode` views are built only when the
    plan is navigated.  Entries may exist for nodes that are not reachable
    from the root under the current choices; :meth:`reachable` reports the
    live part.
    """

    dag: Dag
    choice_op: Tuple[int, ...]
    materialized: Set[int] = field(default_factory=set)

    # -- navigation -----------------------------------------------------------
    def operation_for(self, node: EquivalenceNode) -> OperationNode:
        """The chosen operation of *node*; :class:`PlanError` when there is
        none, e.g. when every alternative of the node is infinite."""
        op_id = self.choice_op[node.id]
        if op_id < 0:
            raise PlanError(f"plan has no operation chosen for {node!r}")
        return self.dag.arena.op_view(op_id)

    def reachable(self, roots: Optional[Iterable[EquivalenceNode]] = None) -> List[EquivalenceNode]:
        """Equivalence nodes reachable from *roots* under the chosen operations."""
        root_ids = None if roots is None else [root.id for root in roots]
        eq_view = self.dag.arena.eq_view
        return [eq_view(node_id) for node_id in self.reachable_ids(root_ids)]

    def reachable_ids(self, root_ids: Optional[Iterable[int]] = None) -> List[int]:
        """Ids of the reachable plan nodes, in the same visit order as
        :meth:`reachable`.

        The walk runs on the arena's ``op_children`` column, indexed by the
        chosen operation ids, with no view traversal.
        """
        engine = _engine(self.dag)
        op_children = engine.arena.op_children
        is_base = engine.is_base
        choice_op = self.choice_op
        order: List[int] = []
        seen = bytearray(engine.num_nodes)
        stack = [engine.root_id] if root_ids is None else list(root_ids)
        while stack:
            node_id = stack.pop()
            if seen[node_id]:
                continue
            seen[node_id] = 1
            order.append(node_id)
            if is_base[node_id]:
                continue
            op_id = choice_op[node_id]
            if op_id >= 0:
                stack.extend(op_children[op_id])
        return order

    def cost(self, node_costs: Dict[int, float]) -> float:
        """Total plan cost under the given per-node cost table, summed like
        ``bestcost`` (the materialized nodes in id order)."""
        return _engine(self.dag).total(node_costs, self.materialized)

    def _node(self, node_id: int) -> EquivalenceNode:
        try:
            return self.dag.node_by_id(node_id)
        except DagError as error:
            raise PlanError(str(error)) from None

    def materialized_labels(self) -> List[str]:
        return [self._node(node_id).label for node_id in sorted(self.materialized)]

    # -- pretty printing -----------------------------------------------------
    def explain(self) -> str:
        """Human-readable rendering of the plan (one line per plan node)."""
        lines: List[str] = []
        _explain_node(self, self.dag.root, 0, lines, set())
        return "\n".join(lines)


# The recursive walks below are module-level functions taking their state as
# arguments: a nested function that calls itself is a reference cycle
# (function -> closure cell -> function) that keeps the whole plan alive
# until the cyclic garbage collector runs.

def _explain_node(
    plan: ConsolidatedPlan,
    node: EquivalenceNode,
    depth: int,
    lines: List[str],
    visited: Set[int],
) -> None:
    """Append the :meth:`ConsolidatedPlan.explain` lines of *node*'s subtree."""
    indent = "  " * depth
    marker = " [materialized]" if node.id in plan.materialized else ""
    if node.is_base:
        lines.append(f"{indent}{node.label}{marker}")
        return
    if node.id in visited and node.id in plan.materialized:
        lines.append(f"{indent}reuse({node.label})")
        return
    visited.add(node.id)
    if plan.choice_op[node.id] < 0:
        lines.append(f"{indent}{node.label}{marker} (no operation)")
        return
    operation = plan.operation_for(node)
    lines.append(f"{indent}{operation.operator.describe()} -> {node.label}{marker}")
    for child in operation.children:
        _explain_node(plan, child, depth + 1, lines, visited)


# ---------------------------------------------------------------------------
# Executable plan extraction
# ---------------------------------------------------------------------------

@dataclass
class PlanNode:
    """A node of an executable operator tree.

    ``kind`` is one of ``"operation"`` (apply ``operation`` to the children),
    ``"base"`` (scan nothing — the stored table, consumed by its parent scan
    operation), ``"materialize"`` (compute the child once, store it), and
    ``"reuse"`` (read a previously materialized result).
    ``materializes_below`` is true when a strict descendant is a
    ``"materialize"`` node; it is derived from the children at construction.
    """

    kind: str
    equivalence: EquivalenceNode
    operation: Optional[OperationNode] = None
    children: List["PlanNode"] = field(default_factory=list)
    materializes_below: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.materializes_below = any(
            child.kind == "materialize" or child.materializes_below
            for child in self.children
        )

    def describe(self, depth: int = 0) -> str:
        indent = "  " * depth
        if self.kind == "base":
            header = f"{indent}table({self.equivalence.label})"
        elif self.kind == "reuse":
            header = f"{indent}reuse({self.equivalence.label})"
        elif self.kind == "materialize":
            header = f"{indent}materialize({self.equivalence.label})"
        else:
            header = f"{indent}{self.operation.operator.describe()}"
        lines = [header]
        for child in self.children:
            lines.append(child.describe(depth + 1))
        return "\n".join(lines)


def extract_plan(plan: ConsolidatedPlan, root: Optional[EquivalenceNode] = None) -> PlanNode:
    """Build the executable operator tree for *root* (default: the pseudo-root).

    Materialized nodes are computed at their first use (wrapped in a
    ``materialize`` node) and read back (``reuse``) afterwards.
    """
    return _build_plan_node(plan, root or plan.dag.root, set())


def _build_plan_node(plan: ConsolidatedPlan, node: EquivalenceNode, produced: Set[int]) -> PlanNode:
    """The executable subtree of *node*; *produced* holds the materialized
    nodes already computed earlier in the walk."""
    if node.is_base:
        return PlanNode("base", node)
    if node.id in plan.materialized:
        if node.id in produced:
            return PlanNode("reuse", node)
        produced.add(node.id)
        inner = _operation_plan_node(plan, node, produced)
        return PlanNode("materialize", node, children=[inner])
    return _operation_plan_node(plan, node, produced)


def _operation_plan_node(
    plan: ConsolidatedPlan, node: EquivalenceNode, produced: Set[int]
) -> PlanNode:
    operation = plan.operation_for(node)
    children = [_build_plan_node(plan, child, produced) for child in operation.children]
    return PlanNode("operation", node, operation, children)
