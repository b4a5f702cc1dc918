"""The per-batch object graph is acyclic: reference counting frees it.

A batch's ``Dag``, ``DagArena``, ``CostEngine``, node views and plans, and
the interned algebra values once their tables let go of them, must
be freed the moment the last user reference goes, not left for the cyclic
garbage collector: a cycle anywhere in that graph keeps the whole DAG
(every operation, operator payload and set of logical properties) alive
through gen-1 and gen-2 collections.  Each scenario below runs once to warm
up lazy state, then again under ``gc.DEBUG_SAVEALL``, which makes
``gc.collect()`` keep everything it would have freed in ``gc.garbage``; no
object of this package may be among it.

The canonical-view contract these tests pin down: the arena holds its views
weakly, so a view is the same object while any reference to it lives, and a
view holds its arena, so it still navigates after its ``Dag`` is gone.
"""

import gc
import types
import weakref

from repro import PAPER_ALGORITHMS, MQOptimizer
from repro.catalog import psp_catalog
from repro.execution import Executor, generate_psp_data
from repro.optimizer.plans import extract_plan
from repro.service.session import OptimizerSession
from repro.workloads.scaleup import component_query, scaleup_queries
from tests.test_algebra_values import clear_tables


def _window(start, width, seed=42):
    return [
        query
        for component in range(start, start + width)
        for query in component_query(component, seed=seed)
    ]


def _from_repro(obj):
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    else:
        module = type(obj).__module__
    return module == "repro" or module.startswith("repro.")


def cyclic_repro_garbage(scenario):
    """Objects of this package that only the cyclic collector would free
    after one run of *scenario* (run once before, to warm up).

    Automatic collection is paused during the measured run: a collection in
    the middle of it would save a partial cycle whose saved objects then
    keep the rest of the batch reachable, hiding it from the final count.
    """
    scenario()
    gc.collect()
    flags = gc.get_debug()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        scenario()
        gc.collect()
        found = [obj for obj in gc.garbage if _from_repro(obj)]
        return sorted({type(obj).__qualname__ for obj in found}), len(found)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


class TestNoCyclicGarbage:
    def test_one_shot_batch_all_algorithms_and_extraction(self):
        catalog = psp_catalog()
        queries = scaleup_queries(2)

        def batch():
            optimizer = MQOptimizer(catalog)
            dag = optimizer.build_dag(queries)
            for algorithm in PAPER_ALGORITHMS:
                result = optimizer.optimize(queries, algorithm, dag=dag)
                extract_plan(result.plan)
                result.plan.explain()

        assert cyclic_repro_garbage(batch) == ([], 0)

    def test_warm_session_rebuild(self):
        session = OptimizerSession(psp_catalog(), cache_plans=False)
        session.optimize(_window(3, 3), "greedy")

        def rebuild():
            session.optimize(_window(3, 3), "greedy")
            session.optimize(_window(4, 2), "greedy")

        assert cyclic_repro_garbage(rebuild) == ([], 0)

    def test_result_cache_session_with_bound_executor(self):
        catalog = psp_catalog(relation_count=6)
        database = generate_psp_data(relation_count=6, rows_per_table=200)
        session = OptimizerSession(catalog, cache_plans=False, result_cache=True)
        executor = Executor(database, catalog, result_cache=session.result_cache)

        def optimize_and_run():
            for start in (1, 2):
                executor.run(session.optimize(_window(start, 1), "greedy").plan)

        assert cyclic_repro_garbage(optimize_and_run) == ([], 0)

    def test_values_dropped_by_their_intern_tables(self):
        """Interned values (a comparison and its normal form included) are
        freed by reference counting once a cleared table lets go of them."""
        catalog = psp_catalog()

        def build_and_clear():
            clear_tables()
            MQOptimizer(catalog).build_dag(scaleup_queries(2))
            clear_tables()

        assert cyclic_repro_garbage(build_and_clear) == ([], 0)


class TestCanonicalViews:
    def test_view_outlives_its_dag_and_navigates(self):
        optimizer = MQOptimizer(psp_catalog())
        queries = scaleup_queries(1)
        dag = optimizer.build_dag(queries)
        optimizer.optimize(queries, "greedy", dag=dag)  # caches an engine on the Dag
        root = dag.root
        operation = root.operations[0]
        expected = [child.label for child in operation.children]
        dag_ref = weakref.ref(dag)
        del dag
        # Freed by reference counting alone: no gc.collect() needed.
        assert dag_ref() is None
        # The view holds its arena, so navigation still reads live columns.
        assert [child.label for child in operation.children] == expected
        assert root.operations[0] is operation
        for child in operation.children:
            assert all(op.equivalence is child for op in child.operations)

    def test_views_fetched_twice_while_held_are_identical(self):
        dag = MQOptimizer(psp_catalog()).build_dag(scaleup_queries(1))
        nodes = dag.equivalence_nodes()
        operations = dag.operation_nodes()
        assert all(dag.node_by_id(node.id) is node for node in nodes)
        assert all(a is b for a, b in zip(dag.equivalence_nodes(), nodes))
        assert all(a is b for a, b in zip(dag.operation_nodes(), operations))
        for op in operations:
            assert op.equivalence is nodes[op.equivalence.id]
            assert any(candidate is op for candidate in op.equivalence.operations)
