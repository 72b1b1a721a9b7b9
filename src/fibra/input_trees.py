"""Height-1 input trees, their isomorphisms, and the symmetry structure of a network.

The input tree of a node consists of the node itself (the root) plus one leaf
per in-edge, each leaf typed by the phase space of the edge's source.  Two
input trees are isomorphic exactly when the root spaces agree and the typed
leaf multisets match; all such isomorphisms together form the symmetry
groupoid of the network.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import EnumerationCapExceeded, PreconditionError
from .graphs import Network, NetworkMap, NodeId, EdgeId, PhaseSpace

DEFAULT_ISO_CAP = 10**6


@dataclass(frozen=True)
class Leaf:
    edge_id: EdgeId
    source_node: NodeId
    leaf_type: PhaseSpace


@dataclass(frozen=True)
class InputTree:
    """The height-1 in-neighbourhood of a node, leaves sorted by edge id."""

    root: NodeId
    root_type: PhaseSpace
    leaves: tuple[Leaf, ...]

    def leaf_ids(self) -> tuple[EdgeId, ...]:
        return tuple(l.edge_id for l in self.leaves)

    def type_groups(self) -> dict[str, tuple[Leaf, ...]]:
        """Leaves grouped by phase-space name, groups and members in sorted order."""
        groups: dict[str, list[Leaf]] = {}
        for l in self.leaves:
            groups.setdefault(l.leaf_type.name, []).append(l)
        return {k: tuple(groups[k]) for k in sorted(groups)}

    def type_counts(self) -> Counter:
        return Counter(l.leaf_type.name for l in self.leaves)


def input_tree(net: Network, a: NodeId) -> InputTree:
    if a not in net.graph.node_set:
        raise PreconditionError(f"unknown node id {a!r}")
    leaves = tuple(Leaf(e.edge_id, e.src, net.space(e.src)) for e in net.in_edges(a))
    return InputTree(a, net.space(a), leaves)


@dataclass(frozen=True)
class TreeIso:
    """Isomorphism between two input trees: root goes to root, leaf_bijection on in-edge ids."""

    source: NodeId
    target: NodeId
    leaf_bijection: Mapping[EdgeId, EdgeId]

    def inverse(self) -> "TreeIso":
        return TreeIso(self.target, self.source, {v: k for k, v in self.leaf_bijection.items()})

    def then(self, other: "TreeIso") -> "TreeIso":
        """Composite self: a -> b followed by other: b -> c."""
        if other.source != self.target:
            raise PreconditionError("tree isomorphisms do not compose: target/source mismatch")
        return TreeIso(
            self.source,
            other.target,
            {k: other.leaf_bijection[v] for k, v in self.leaf_bijection.items()},
        )

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(k == v for k, v in self.leaf_bijection.items())


@dataclass(frozen=True)
class InducedTreeMap:
    """The map a node's input tree inherits from a network map; an iso iff the map is a fibration at that node."""

    source: NodeId
    target: NodeId
    leaf_map: Mapping[EdgeId, EdgeId]
    is_iso: bool

    def as_iso(self) -> TreeIso:
        if not self.is_iso:
            raise PreconditionError(
                f"induced tree map at {self.source!r} is not an isomorphism"
            )
        return TreeIso(self.source, self.target, dict(self.leaf_map))


def induced_tree_map(m: NetworkMap, a: NodeId) -> InducedTreeMap:
    """Map of input trees sending the leaf at an in-edge to the leaf at its image edge."""
    b = m.node(a)
    leaf_map = {e.edge_id: m.edge(e.edge_id) for e in m.domain.in_edges(a)}
    codomain_leaves = {e.edge_id for e in m.codomain.in_edges(b)}
    images = list(leaf_map.values())
    is_iso = (
        len(set(images)) == len(images)
        and set(images) == codomain_leaves
    )
    return InducedTreeMap(a, b, leaf_map, is_iso)


def iso_count(net: Network, a: NodeId, b: NodeId) -> int:
    """Number of input-network isomorphisms from a's tree to b's tree."""
    ta, tb = input_tree(net, a), input_tree(net, b)
    if ta.root_type != tb.root_type or ta.type_counts() != tb.type_counts():
        return 0
    return math.prod(math.factorial(k) for k in ta.type_counts().values())


def enumerate_tree_isos(
    net: Network, a: NodeId, b: NodeId, cap: int = DEFAULT_ISO_CAP
) -> list[TreeIso]:
    """All typed isomorphisms from a's input tree to b's, in deterministic order.

    Empty when the root spaces or the typed leaf multisets differ; otherwise
    every leaf-type-preserving bijection, enumerated lexicographically per
    type block.  Raises EnumerationCapExceeded when the count would exceed
    ``cap``.
    """
    count = iso_count(net, a, b)
    if count == 0:
        return []
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    groups_a, groups_b = input_tree(net, a).type_groups(), input_tree(net, b).type_groups()
    ids_a = [l.edge_id for name in sorted(groups_a) for l in groups_a[name]]
    per_type = (itertools.permutations([l.edge_id for l in groups_b[name]]) for name in sorted(groups_a))
    return [
        TreeIso(a, b, dict(zip(ids_a, itertools.chain.from_iterable(combo))))
        for combo in itertools.product(*per_type)
    ]


def aut_order(tree: InputTree) -> int:
    """Order of the automorphism group: product of factorials of same-type leaf counts."""
    return math.prod(math.factorial(k) for k in tree.type_counts().values())


def aut_generators(tree: InputTree) -> list[TreeIso]:
    """Adjacent transpositions within each same-type leaf block; generate the full group."""
    gens = []
    for _, leaves in tree.type_groups().items():
        ids = [l.edge_id for l in leaves]
        for i in range(len(ids) - 1):
            bij = {e: e for e in tree.leaf_ids()}
            bij[ids[i]], bij[ids[i + 1]] = ids[i + 1], ids[i]
            gens.append(TreeIso(tree.root, tree.root, bij))
    return gens


def _canonical_witness(member: InputTree, rep: InputTree) -> TreeIso:
    # positional matching of sorted same-type blocks; valid because multisets agree
    bij: dict[EdgeId, EdgeId] = {}
    groups_m, groups_r = member.type_groups(), rep.type_groups()
    for name in groups_m:
        for lm, lr in zip(groups_m[name], groups_r[name]):
            bij[lm.edge_id] = lr.edge_id
    return TreeIso(member.root, rep.root, bij)


@dataclass(frozen=True)
class IsoClass:
    representative: NodeId
    members: tuple[NodeId, ...]
    witnesses: Mapping[NodeId, TreeIso]  # member -> iso(member, representative)


@dataclass(frozen=True)
class SymmetryGroupoid:
    """Partition of the nodes into input-network isomorphism classes, with witnesses."""

    network: Network
    classes: tuple[IsoClass, ...]
    aut_orders: Mapping[NodeId, int]

    def class_of(self, node: NodeId) -> IsoClass:
        try:
            return self._class_by_node[node]
        except KeyError:
            raise PreconditionError(f"unknown node id {node!r}") from None

    def representative(self, node: NodeId) -> NodeId:
        return self.class_of(node).representative

    def representatives(self) -> tuple[NodeId, ...]:
        return tuple(c.representative for c in self.classes)

    @cached_property
    def _class_by_node(self) -> dict[NodeId, IsoClass]:
        # reversed, so that a node listed in several classes maps to the first
        return {a: c for c in reversed(self.classes) for a in c.members}


def symmetry_groupoid(net: Network) -> SymmetryGroupoid:
    """Classify nodes by input-network isomorphism; representative = least member."""
    trees = {a: input_tree(net, a) for a in net.graph.nodes}
    buckets: dict[tuple, list[NodeId]] = {}
    for a, t in trees.items():
        key = (t.root_type.name, tuple(sorted(t.type_counts().items())))
        buckets.setdefault(key, []).append(a)
    classes = []
    for key in sorted(buckets, key=lambda k: min(buckets[k])):
        members = tuple(sorted(buckets[key]))
        rep = members[0]
        witnesses = {m: _canonical_witness(trees[m], trees[rep]) for m in members}
        classes.append(IsoClass(rep, members, witnesses))
    orders = {a: aut_order(t) for a, t in trees.items()}
    return SymmetryGroupoid(net, tuple(classes), orders)
