"""The builder's oracle: the join-space expansion of Section 2 by set algebra.

:class:`ReferenceBuilder` is a :class:`~repro.dag.builder.DagBuilder` that
overrides only what the production builder compiles, memoizes or indexes,
and spells each of those steps out from its definition:

* **the join-space expansion** of a block: the join graph's edges from the
  block predicates, plus a cross-product chain through each component's
  smallest leaf; the connected sub-sets of two or more leaves by brute
  force, ordered by (size, mask); and each sub-set's ordered partitions
  (left, right) by a descending submask scan, both sides connected;
* **the connecting predicates** of a partition: the result's key
  predicates minus each join input's key predicates (a single leaf applies
  none), sorted by ``str``;
* **the properties** of a sub-set: the plain left-associated fold over its
  members in block order, then the selectivity of its key predicates in
  ``str`` order;
* **the join-operation add**: a fresh
  :class:`~repro.cost.algorithms.JoinInput` per pricing and the arena's
  probing ``add_operation``, which drops a repeated partition;
* **the subsumption grouping**: a regroup of the whole arena at each read.

It never marks a node expanded, so every sub-set of every block is
enumerated again, and no weak join of the subsumption pass takes the
production builder's short cut.  It takes no session cache.

None of the production builder's compiled enumeration is used here: no block
shapes, shape memo, bitmask connectivity sweep, connecting-index tuples or
block logs (``tests/test_layering.py`` checks the names).  The brute-force
helpers below are also the definitions ``tests/test_block_shapes.py``
checks the compiled plans against.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from repro.cost import algorithms as alg
from repro.cost.model import Cost
from repro.dag.builder import DagBuilder
from repro.dag.nodes import join_operator


def bits(mask):
    """The leaf indices in *mask*, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def component_root(n, edges, leaf):
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


def is_connected(mask, adjacency):
    """Whether the leaves of *mask* form one component of the join graph
    *adjacency* restricted to them."""
    members = bits(mask)
    edges = {
        (a, b) for a, b in itertools.combinations(members, 2) if adjacency[a] >> b & 1
    }
    roots = {component_root(max(members) + 1, edges, i) for i in members}
    return len(roots) == 1


def applicable(mask, pred_masks):
    """Indices of the predicates whose (non-empty) leaf mask lies in *mask*."""
    return tuple(i for i, pmask in enumerate(pred_masks) if pmask and pmask | mask == mask)


def _join_group(key):
    """A join key's subsumption group: the ``(table, alias)`` of each of its
    leaves and its predicates; ``None`` when a leaf is not a scan."""
    leaves = key[1]
    if not all(leaf[0] == "scan" for leaf in leaves):
        return None
    return frozenset((leaf[1], leaf[2]) for leaf in leaves), key[2]


class ReferenceBuilder(DagBuilder):
    """:class:`DagBuilder` with the join-space expansion, the join-operation
    add, the join-input pricing view and the subsumption grouping
    transcribed from their definitions (see the module docstring)."""

    def _expand_join_space(self, aliases, leaf_ids, join_predicates):
        n = len(aliases)
        # A predicate's mask holds the block leaves it names; one naming
        # outer aliases only has mask 0 and applies nowhere in the block.
        pred_masks = [
            sum(1 << i for i, alias in enumerate(aliases) if alias in predicate.relations())
            for predicate in join_predicates
        ]
        edges = set()
        for pmask in pred_masks:
            edges.update(itertools.combinations(bits(pmask), 2))
        roots = sorted({component_root(n, edges, i) for i in range(n)})
        edges.update(zip(roots, roots[1:]))
        adjacency = [0] * n
        for a, b in edges:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        connected = {mask for mask in range(1, 1 << n) if is_connected(mask, adjacency)}
        subsets = sorted(
            (mask for mask in connected if len(bits(mask)) >= 2),
            key=lambda mask: (len(bits(mask)), mask),
        )

        arena = self.dag.arena
        nodes = {1 << i: leaf_ids[alias] for i, alias in enumerate(aliases)}
        for mask in subsets:
            members = bits(mask)
            predicates = frozenset(join_predicates[i] for i in applicable(mask, pred_masks))
            key = ("join", frozenset(arena.eq_key[nodes[1 << i]] for i in members), predicates)
            node_id = arena.by_key.get(key)
            if node_id is None:
                props = arena.eq_props[nodes[1 << members[0]]]
                for i in members[1:]:
                    props = self.estimator.join(props, arena.eq_props[nodes[1 << i]], [])
                selectivity = 1.0
                for predicate in sorted(predicates, key=str):
                    selectivity *= self.estimator.predicate_selectivity(predicate, props)
                props = props.with_rows(props.rows * selectivity)
                node_id = arena.add_equivalence(
                    key, props, "⋈".join(aliases[i] for i in members)
                )
            nodes[mask] = node_id
            left = (mask - 1) & mask
            while left:
                right = mask ^ left
                if left in connected and right in connected:
                    left_id, right_id = nodes[left], nodes[right]
                    self._add_join_operation(
                        node_id, left_id, right_id,
                        self.connecting_predicates(node_id, left_id, right_id),
                    )
                left = (left - 1) & mask
        return nodes[(1 << n) - 1]

    def _key_predicates(self, eq_id):
        """The predicates a join node's key applies (none for a leaf)."""
        key = self.dag.arena.eq_key[eq_id]
        return key[2] if key[0] == "join" else frozenset()

    def connecting_predicates(self, node_id, left_id, right_id):
        """The predicates joining *left_id* and *right_id* into *node_id*:
        the result's key predicates minus those either input applies."""
        remaining = (
            self._key_predicates(node_id)
            - self._key_predicates(left_id)
            - self._key_predicates(right_id)
        )
        return tuple(sorted(remaining, key=str))

    def _add_join_operation(self, node_id, left_id, right_id, connecting):
        """Price one partition and add it through the arena's probing
        ``add_operation``, one operation at a time."""
        arena = self.dag.arena
        name, io, cpu = alg.choose_join(
            self.cost_model,
            self.catalog,
            self._join_input(left_id),
            self._join_input(right_id),
            connecting,
            arena.eq_props[node_id].rows,
        )
        arena.add_operation(
            node_id, join_operator(connecting, name), (left_id, right_id), Cost(io, cpu).total
        )

    def _join_input(self, eq_id):
        arena = self.dag.arena
        return alg.JoinInput(
            self.cost_model,
            self.catalog,
            arena.eq_props[eq_id],
            arena.eq_base_table[eq_id],
            arena.eq_scan_alias[eq_id],
        )

    def _regroup(self, kind, group_of):
        """Node ids of key kind *kind* by ``group_of(key)``, each list in id
        order (a ``None`` group is skipped)."""
        groups = defaultdict(list)
        for eq_id, key in enumerate(self.dag.arena.eq_key):
            if isinstance(key, tuple) and key and key[0] == kind:
                group = group_of(key)
                if group is not None:
                    groups[group].append(eq_id)
        return groups

    def _scan_groups(self):
        return self._regroup("scan", lambda key: (key[1], key[2]))

    def _select_groups(self):
        return self._regroup("select", lambda key: key[1])

    def _join_groups(self):
        groups = self._regroup("join", _join_group)
        return [members for members in groups.values() if len(members) > 1]


def build(catalog, queries):
    """The oracle's DAG of *queries* over *catalog*."""
    return ReferenceBuilder(catalog).build(list(queries))
