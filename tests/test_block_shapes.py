"""The compiled join-block plan and the process-wide shape memo.

:class:`repro.dag.builder._BlockShape` compiles a block's integer shape
``(n, adjacency bitmasks, predicate bitmasks)`` into the enumeration the
memoized builder walks: connected sub-sets, their applicable predicates,
canonical flags, ordered partitions and each partition's connecting
predicates.  The Hypothesis property checks every part of it against
brute-force definitions written from scratch here — connectivity by
union-find over edge pairs, partitions by a plain descending scan,
connecting predicates by the set algebra the reference builder uses — on
random shapes of up to seven leaves, with artificial edges and predicate
masks that are empty, single-leaf or duplicated.

The memo tests pin the sharing contract of :func:`_block_shape`: one object
per key across builders, the partition budget, a reference builder that
never touches the memo, and fingerprints that do not depend on whether the
memo was cold or warm.
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import MQOptimizer
from repro.catalog import psp_catalog
from repro.dag import builder as builder_module
from repro.dag.builder import _BlockShape, _block_shape, _clear_shape_memo
from repro.workloads.scaleup import scaleup_queries
from tests.generators import dag_fingerprint, random_query_workload, reference_dag


@st.composite
def block_shapes(draw):
    """``(n, adjacency, pred_masks, values)``: a random block shape, with
    ``values[i]`` the identity of predicate *i* (equal values stand for the
    same predicate listed twice, so they carry equal masks)."""
    n = draw(st.integers(min_value=2, max_value=7))
    mask_strategy = st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=n - 1).map(lambda i: 1 << i),
        st.integers(min_value=1, max_value=(1 << n) - 1),
    )
    distinct = draw(st.lists(mask_strategy, max_size=6))
    values = (
        draw(st.lists(st.integers(min_value=0, max_value=len(distinct) - 1), max_size=8))
        if distinct
        else []
    )
    pred_masks = tuple(distinct[v] for v in values)
    edges = set()
    for pmask in pred_masks:
        members = [i for i in range(n) if pmask >> i & 1]
        edges.update(itertools.combinations(members, 2))
    # Edges no predicate induces: predicates spanning outer aliases and the
    # builder's cross-product edges look like this to the shape.
    for a, b in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=4,
        )
    ):
        edges.add((min(a, b), max(a, b)))
    # Connect the components the way the builder does: a chain through each
    # component's smallest leaf.
    representatives = sorted({_component_root(n, edges, i) for i in range(n)})
    edges.update(zip(representatives, representatives[1:]))
    adjacency = [0] * n
    for a, b in edges:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return n, tuple(adjacency), pred_masks, values


def _component_root(n, edges, leaf):
    """Smallest leaf of *leaf*'s component (union-find over *edges*)."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return find(leaf)


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _connected(mask, adjacency):
    members = _bits(mask)
    edges = {
        (a, b) for a, b in itertools.combinations(members, 2) if adjacency[a] >> b & 1
    }
    roots = {_component_root(max(members) + 1, edges, i) for i in members}
    return len(roots) == 1


def _applicable(mask, pred_masks):
    return tuple(i for i, pmask in enumerate(pred_masks) if pmask and pmask | mask == mask)


def _canonical(mask, adjacency, pred_masks):
    members = _bits(mask)
    block_edges = {
        (a, b) for a, b in itertools.combinations(members, 2) if adjacency[a] >> b & 1
    }
    key_edges = set()
    for i in _applicable(mask, pred_masks):
        key_edges.update(itertools.combinations(_bits(pred_masks[i]), 2))
    return block_edges == key_edges


@settings(max_examples=300, deadline=None)
@given(block_shapes())
def test_plan_matches_brute_force(case):
    n, adjacency, pred_masks, values = case
    shape = _BlockShape(n, adjacency, pred_masks)

    expected_subsets = sorted(
        (m for m in range(1 << n) if len(_bits(m)) >= 2 and _connected(m, adjacency)),
        key=lambda m: (len(_bits(m)), m),
    )
    assert [entry[0] for entry in shape.plan] == expected_subsets

    total = 0
    for mask, members, applicable, canonical, partitions in shape.plan:
        assert members == tuple(_bits(mask))
        assert applicable == _applicable(mask, pred_masks)
        assert canonical == _canonical(mask, adjacency, pred_masks)
        expected_partitions = [
            (left, mask ^ left)
            for left in range(mask - 1, 0, -1)
            if left | mask == mask
            and _connected(left, adjacency)
            and _connected(mask ^ left, adjacency)
        ]
        assert [(left, right) for left, right, _ in partitions] == expected_partitions
        # Connecting predicates, by the reference builder's set algebra over
        # predicate values: the result's key predicates minus those a join
        # input applied already (a single leaf applies none).
        key_values = {values[i] for i in applicable}
        for left, right, cid in partitions:
            applied = set()
            for side in (left, right):
                if len(_bits(side)) >= 2:
                    applied |= {values[i] for i in _applicable(side, pred_masks)}
            remaining = key_values - applied
            assert shape.connecting[cid] == tuple(i for i in applicable if values[i] in remaining)
        total += len(partitions)
    assert shape.partition_count == total
    assert len(set(shape.connecting)) == len(shape.connecting)


@pytest.fixture()
def cold_memo():
    _clear_shape_memo()
    yield builder_module._SHAPE_MEMO
    _clear_shape_memo()


def _memo_partitions():
    return sum(shape.partition_count for shape in builder_module._SHAPE_MEMO.values())


def test_equal_keys_share_one_shape_across_builders(cold_memo):
    catalog = psp_catalog()
    queries = scaleup_queries(2)
    MQOptimizer(catalog).build_dag(queries)
    first = dict(cold_memo)
    assert first
    MQOptimizer(catalog).build_dag(queries)
    assert cold_memo.keys() == first.keys()
    assert all(cold_memo[key] is shape for key, shape in first.items())
    key = next(iter(first))
    assert _block_shape(key) is first[key]


def test_partition_budget_holds(cold_memo, monkeypatch):
    budget = 40
    monkeypatch.setattr(builder_module, "_SHAPE_MEMO_PARTITIONS", budget)
    rng = random.Random(7)
    clears = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        adjacency = [0] * n
        edges = [(i, rng.randrange(i)) for i in range(1, n)]  # a spanning tree
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        for a, b in edges:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        key = (n, tuple(adjacency), (rng.randrange(1 << n),))
        before = len(cold_memo)
        shape = _block_shape(key)
        clears += len(cold_memo) < before
        assert _memo_partitions() == builder_module._shape_memo_partitions <= budget
        assert (key in cold_memo) == (shape.partition_count <= budget)
    assert clears > 0
    # A clique of five is over the whole budget: built, returned, not stored.
    clique = tuple(((1 << 5) - 1) & ~(1 << i) for i in range(5))
    big = _block_shape((5, clique, ()))
    assert big.partition_count > budget
    assert (5, clique, ()) not in cold_memo


def test_reference_builder_never_fills_the_memo(cold_memo):
    optimizer = MQOptimizer(psp_catalog())
    for seed in range(4):
        reference_dag(optimizer.catalog, random_query_workload(seed, outer_predicates=True))
    reference_dag(optimizer.catalog, scaleup_queries(2))
    assert not cold_memo
    assert builder_module._shape_memo_partitions == 0


def test_fingerprint_independent_of_memo_state(cold_memo):
    catalog = psp_catalog()
    batches = [scaleup_queries(2)] + [
        random_query_workload(seed, outer_predicates=True) for seed in range(6)
    ]
    for queries in batches:
        _clear_shape_memo()
        cold = dag_fingerprint(MQOptimizer(catalog).build_dag(queries))
        # Pre-warmed by every batch, this one included.
        for other in batches:
            MQOptimizer(catalog).build_dag(other)
        warm = dag_fingerprint(MQOptimizer(catalog).build_dag(queries))
        assert warm == cold


def test_concurrent_fills_keep_the_budget_accounting(cold_memo, monkeypatch):
    """More threads than cores fill and overflow one small memo with a
    tiny switch interval: a lost update of the partition count would
    leave it apart from the stored shapes' sum."""
    budget = 60
    monkeypatch.setattr(builder_module, "_SHAPE_MEMO_PARTITIONS", budget)
    keys = []
    for n in range(2, 6):
        for extra in range(1 << n):
            path = [0] * n
            for i in range(1, n):
                path[i] |= 1 << (i - 1)
                path[i - 1] |= 1 << i
            keys.append((n, tuple(path), (extra,)))
    expected = {key: _BlockShape(*key).plan for key in keys}
    errors = []

    def fill(offset):
        try:
            for _ in range(3):
                for key in keys[offset:] + keys[:offset]:
                    if _block_shape(key).plan != expected[key]:
                        errors.append(key)
        except Exception as error:  # a thread cannot raise into the test; assert below
            errors.append(error)

    threads = [threading.Thread(target=fill, args=(7 * i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _memo_partitions() == builder_module._shape_memo_partitions <= budget
