"""The AND-OR DAG (Query DAG) substrate.

An AND-OR DAG is a directed acyclic graph whose nodes are divided into
*equivalence* (OR) nodes — sets of logical expressions producing the same
result — and *operation* (AND) nodes — algebraic operations whose inputs are
equivalence nodes.  The combined DAG of a batch of queries, with common
sub-expressions unified and subsumption derivations added, is the search space
of every multi-query optimization algorithm in this library.  Which of its
nodes are sharable is decided by :mod:`repro.optimizer.sharability`.
"""

from repro.dag.nodes import (
    AggregateOp,
    Dag,
    EquivalenceNode,
    JoinOp,
    NestedApplyOp,
    NoOp,
    OperationNode,
    Operator,
    ProjectOp,
    ScanOp,
    SelectOp,
)
from repro.dag.builder import DagBuilder, Query

__all__ = [
    "Dag",
    "EquivalenceNode",
    "OperationNode",
    "Operator",
    "ScanOp",
    "SelectOp",
    "ProjectOp",
    "JoinOp",
    "AggregateOp",
    "NestedApplyOp",
    "NoOp",
    "DagBuilder",
    "Query",
]
