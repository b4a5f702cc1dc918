"""Expression hashes are computed once per node and never pickled.

A session keys its plan cache on whole expression trees
(``OptimizerSession._batch_key``), so every lookup hashes the batch.  The
concrete expressions are frozen dataclasses whose generated hash is stored
on the instance the first time it is asked for (``hash_once`` in
:mod:`repro.algebra.expressions`).  These tests hold the stored hash to the
dataclass formula, ``hash`` of the tuple of fields, and equality to the
field-tuple comparison, and check that a pickle carries no hash: a tree
restored under another ``PYTHONHASHSEED`` hashes with that seed.
"""

import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro import Query
from repro.algebra import Project, Relation, Select, col, eq
from repro.algebra.expressions import Expression, walk
from repro.algebra.nested import CorrelatedSubqueryFilter
from repro.service.session import OptimizerSession
from repro.workloads.batch import batched_queries
from repro.workloads.scaleup import scaleup_queries
from repro.workloads.tpcd_queries import q2

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _projection():
    return Query("projected", Project(
        Select(Relation("part", "p"), eq(col("p", "p_size"), 15)),
        (col("p", "p_partkey"), col("p", "p_name")),
    ))


def _batches():
    """Batches covering every expression type: chain joins, selections,
    projections, aggregates and a correlated sub-query."""
    return [scaleup_queries(1), batched_queries(3), [q2(), _projection()]]


def _nodes(batch):
    return [node for query in batch for node in walk(query.expression)]


def _fields(expression):
    return tuple(getattr(expression, field.name) for field in dataclasses.fields(expression))


def test_batches_cover_every_expression_type():
    kinds = {type(node).__name__ for batch in _batches() for node in _nodes(batch)}
    assert kinds >= {"Relation", "Select", "Join", "Project", "Aggregate",
                     "CorrelatedSubqueryFilter"}


@pytest.mark.parametrize("index", range(3))
def test_hash_is_the_dataclass_formula(index):
    for node in _nodes(_batches()[index]):
        expected = hash(_fields(node))
        assert hash(node) == expected
        assert node.__dict__["_hash"] == expected
        assert hash(node) == expected


@pytest.mark.parametrize("index", range(3))
def test_equality_is_the_field_comparison(index):
    left = _nodes(_batches()[index])
    right = _nodes(_batches()[index])
    for node in left[::2]:
        hash(node)  # only one side holds a stored hash
    for a, b in zip(left, right):
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
    for a, b in zip(left, left[1:]):
        same_type = type(a) is type(b)
        assert (a == b) == (same_type and _fields(a) == _fields(b))


def test_a_tree_is_hashed_once():
    """After one hash of a batch key, every node holds its hash and a second
    hash computes none."""
    batch = scaleup_queries(2)
    key = OptimizerSession._batch_key(batch)
    first = hash(key)
    assert all("_hash" in node.__dict__ for node in _nodes(batch))
    classes = sorted({type(node) for node in _nodes(batch)}, key=lambda cls: cls.__name__)
    calls = [(cls, cls.__hash__) for cls in classes]
    counted = []

    def counting(original):
        def wrapper(self):
            if "_hash" not in self.__dict__:
                counted.append(self)
            return original(self)
        return wrapper

    try:
        for cls, original in calls:
            cls.__hash__ = counting(original)
        assert hash(key) == first
    finally:
        for cls, original in calls:
            cls.__hash__ = original
    assert counted == []


def test_stored_hashes_stay_out_of_pickles():
    batch = batched_queries(2)
    cold = pickle.dumps(batch)
    hash(OptimizerSession._batch_key(batch))
    assert pickle.dumps(batch) == cold
    restored = pickle.loads(cold)
    assert all("_hash" not in node.__dict__ for node in _nodes(restored))
    assert restored == batch


CHILD = """
import dataclasses, pickle, sys
from repro.algebra.expressions import walk
from repro.workloads.batch import batched_queries
from repro.workloads.tpcd_queries import q2
from tests.test_expression_hashes import _projection
batch = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = batched_queries(2) + [q2(), _projection()]
assert not any("_hash" in node.__dict__ for q in batch for node in walk(q.expression))
for restored, built in zip(batch, fresh):
    for node, twin in zip(walk(restored.expression), walk(built.expression)):
        fields = tuple(getattr(node, f.name) for f in dataclasses.fields(node))
        assert hash(node) == hash(fields) == hash(twin)
        assert node == twin
print("ok")
"""


def test_pickles_hash_afresh_in_another_process():
    """A tree pickled after hashing is restored under another
    ``PYTHONHASHSEED`` with the child's own hashes, equal to a tree the
    child builds itself."""
    batch = batched_queries(2) + [q2(), _projection()]
    hash(OptimizerSession._batch_key(batch))
    assert any(isinstance(node, CorrelatedSubqueryFilter) for node in _nodes(batch))
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=pickle.dumps(batch).hex(),
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["ok"]


def test_every_concrete_expression_hashes_once():
    """Each concrete expression class carries the stored-hash wrapper."""
    concrete = {type(node) for batch in _batches() for node in _nodes(batch)}
    for cls in concrete:
        assert issubclass(cls, Expression)
        assert cls.__hash__.__qualname__.startswith("hash_once")
