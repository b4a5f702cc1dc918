"""Public façade of the multi-query optimization library.

Typical usage::

    from repro import MQOptimizer, Query, Algorithm
    from repro.catalog import tpcd_catalog
    from repro.workloads import tpcd_queries

    catalog = tpcd_catalog(scale=1.0)
    optimizer = MQOptimizer(catalog)
    batch = [tpcd_queries.q11(), tpcd_queries.q15()]
    result = optimizer.optimize(batch, Algorithm.GREEDY)
    print(result.summary())
    print(result.plan.explain())

A long-lived service uses :class:`~repro.service.session.OptimizerSession`
instead: the same optimizer, with DAGs, results and DAG fragments cached
between calls.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel, DEFAULT_COST_MODEL
from repro.dag.builder import DagBuilder, Query
from repro.dag.nodes import Dag
from repro.optimizer import (
    GreedyOptions,
    OptimizationResult,
    optimize_exhaustive,
    optimize_greedy,
    optimize_volcano,
    optimize_volcano_ru,
    optimize_volcano_sh,
)


class Algorithm(enum.Enum):
    """The optimization algorithms evaluated in the paper."""

    VOLCANO = "volcano"
    VOLCANO_SH = "volcano-sh"
    VOLCANO_RU = "volcano-ru"
    GREEDY = "greedy"
    EXHAUSTIVE = "exhaustive"

    @classmethod
    def parse(cls, value: Union[str, "Algorithm"]) -> "Algorithm":
        if isinstance(value, cls):
            return value
        normalized = value.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown algorithm: {value!r}")


#: The algorithms compared in every figure of the paper, in presentation order.
PAPER_ALGORITHMS = (
    Algorithm.VOLCANO,
    Algorithm.VOLCANO_SH,
    Algorithm.VOLCANO_RU,
    Algorithm.GREEDY,
)


class MQOptimizer:
    """Multi-query optimizer over a catalog.

    The optimizer owns DAG construction (including subsumption derivations)
    and dispatches to the requested search algorithm.  Every call builds its
    DAG cold; :class:`~repro.service.session.OptimizerSession` is this
    optimizer with caches kept alive between calls.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model

    # -- DAG construction ------------------------------------------------------
    def build_dag(self, queries: Sequence[Query]) -> Dag:
        """Build the combined AND-OR DAG for *queries*."""
        return DagBuilder(self.catalog, cost_model=self.cost_model).build(list(queries))

    # -- optimization ----------------------------------------------------------
    def optimize(
        self,
        queries: Sequence[Query],
        algorithm: Union[str, Algorithm] = Algorithm.GREEDY,
        dag: Optional[Dag] = None,
        greedy_options: Optional[GreedyOptions] = None,
    ) -> OptimizationResult:
        """Optimize a batch of queries with the requested algorithm.

        A given *dag* is searched instead of building one for *queries*.
        """
        algorithm = Algorithm.parse(algorithm)
        if dag is None:
            dag = self.build_dag(queries)
        if algorithm is Algorithm.VOLCANO:
            return optimize_volcano(dag)
        if algorithm is Algorithm.VOLCANO_SH:
            return optimize_volcano_sh(dag)
        if algorithm is Algorithm.VOLCANO_RU:
            return optimize_volcano_ru(dag)
        if algorithm is Algorithm.GREEDY:
            return optimize_greedy(dag, greedy_options)
        if algorithm is Algorithm.EXHAUSTIVE:
            return optimize_exhaustive(dag)
        raise ValueError(f"unsupported algorithm: {algorithm}")

    def optimize_all(
        self,
        queries: Sequence[Query],
        algorithms: Iterable[Union[str, Algorithm]] = PAPER_ALGORITHMS,
        greedy_options: Optional[GreedyOptions] = None,
    ) -> Dict[str, OptimizationResult]:
        """Run several algorithms on the same DAG and return results by name.

        The DAG is built once and shared, mirroring the paper's observation
        that Volcano-RU's two query orders (and all algorithms generally) can
        reuse a single expanded DAG.
        """
        dag = self.build_dag(queries)
        results: Dict[str, OptimizationResult] = {}
        for algorithm in algorithms:
            result = self.optimize(queries, algorithm, dag=dag, greedy_options=greedy_options)
            results[result.algorithm] = result
        return results


def optimize(
    queries: Sequence[Query],
    catalog: Catalog,
    algorithm: Union[str, Algorithm] = Algorithm.GREEDY,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> OptimizationResult:
    """One-shot convenience wrapper around :class:`MQOptimizer`."""
    return MQOptimizer(catalog, cost_model).optimize(queries, algorithm)
