"""The oracles: the paper's algorithms transcribed over the object graph,
and the DAG construction by set algebra.

The production searches in ``repro.optimizer`` run on the cost engine's flat
arrays.  The differential suites compare them with ``==`` against these
modules, which walk the node views and spell each recurrence out term by
term: :mod:`~tests.oracles.costing` (Section 3.1 costs, argmin choices,
``bestcost`` and plan costs), :mod:`~tests.oracles.sharability` (the degree
of sharing), :mod:`~tests.oracles.volcano_sh`, :mod:`~tests.oracles.volcano_ru`
and :mod:`~tests.oracles.greedy` (the Figure 5 add loop and the pruning).
The DAG builder is checked against :mod:`~tests.oracles.builder`, which
expands every join block by brute-force set algebra.

Nothing here imports ``repro.optimizer``, and the builder oracle names none
of the production builder's compiled enumeration (``tests/test_layering.py``
checks both): an oracle sharing code with what it checks would share its
faults.  Floats are summed in the engine's order (an operation's local cost
first, then its children left to right; ``bestcost``'s materialized nodes in
id order), so agreement is exact.
"""
