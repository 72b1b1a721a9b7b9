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
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .errors import EnumerationCapExceeded, PreconditionError
from .graphs import EdgeId, Network, NetworkMap, NodeId, Partition, PhaseSpace

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
    leaves = tuple(Leaf(eid, src, net.space(src)) for eid, src in net.graph._index.in_pairs(a))
    return InputTree(a, net.space(a), leaves)


def _typed(in_edges: Sequence[int], leaf_type: Callable[[int], str]) -> Sequence[int]:
    """A node's in-edge positions in typed leaf order: by source-space name, and by edge id within a name.

    ``in_edges`` lists them in edge-id order, which the stable sort keeps;
    fewer than two are already in order.  ``leaf_type`` reads
    ``Network._leaf_types``.
    """
    return sorted(in_edges, key=leaf_type) if len(in_edges) > 1 else in_edges


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
    if a not in m.domain.graph.node_set:
        raise PreconditionError(f"unknown node id {a!r}")
    b = m.node_map.get(a)
    leaf_map = {eid: m.edge_map.get(eid) for eid, _ in m.domain.graph._index.in_pairs(a)}
    for kind, key, image in (("node", a, b), *(("edge", e, f) for e, f in leaf_map.items())):
        if image is None:
            raise PreconditionError(f"induced_tree_map: the map has no image of {kind} {key!r}")
    codomain_leaves = {eid for eid, _ in m.codomain.graph._index.in_pairs(b)}
    images = list(leaf_map.values())
    is_iso = (
        len(set(images)) == len(images)
        and set(images) == codomain_leaves
    )
    return InducedTreeMap(a, b, leaf_map, is_iso)


def iso_count(net: Network, a: NodeId, b: NodeId) -> int:
    """Number of input-network isomorphisms from a's tree to b's tree: |Aut(a)| when they share a class, else 0."""
    for node in (a, b):
        if node not in net.graph.node_set:
            raise PreconditionError(f"unknown node id {node!r}")
    classes = symmetry_groupoid(net)
    return aut_order(input_tree(net, a)) if classes.block_id(a) == classes.block_id(b) else 0


def canonical_isos(net: Network, sources: Iterable[NodeId], target: NodeId) -> list[TreeIso]:
    """The canonical isomorphism from each source's input tree onto ``target``'s, which must share its class.

    Same-type in-edges are matched by position, in edge-id order; ``target``'s
    order is read once for all sources.
    """
    node_set = net.graph.node_set
    if target not in node_set:
        raise PreconditionError(f"unknown node id {target!r}")
    members = set(symmetry_groupoid(net).block_of(target))
    index, leaf_type = net.graph._index, net._leaf_types.__getitem__
    in_edges, position, id_at = index.in_edges, index.position, index.edge_ids.__getitem__
    target_ids = list(map(id_at, _typed(in_edges[position[target]], leaf_type)))
    isos = []
    for a in sources:
        if a not in members:
            if a not in node_set:
                raise PreconditionError(f"unknown node id {a!r}")
            raise PreconditionError(f"input trees of {a!r} and {target!r} are not isomorphic")
        isos.append(TreeIso(a, target, dict(zip(map(id_at, _typed(in_edges[position[a]], leaf_type)), target_ids))))
    return isos


def enumerate_tree_isos(
    net: Network, a: NodeId, b: NodeId, cap: int = DEFAULT_ISO_CAP
) -> TreeIsos:
    """All typed isomorphisms from a's input tree to b's, in deterministic order.

    Empty when the root spaces or the typed leaf multisets differ; otherwise
    every leaf-type-preserving bijection, enumerated lexicographically per
    type block.  Raises EnumerationCapExceeded when the count would exceed
    ``cap``.  The isomorphisms are built on access, not up front.
    """
    count = iso_count(net, a, b)
    if count == 0:
        return TreeIsos(a, b, (), (), 0)
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    index, leaf_type = net.graph._index, net._leaf_types.__getitem__
    id_at = index.edge_ids.__getitem__
    runs_b = itertools.groupby(_typed(index.in_positions(b), leaf_type), leaf_type)
    blocks_b = tuple(tuple(map(id_at, run)) for _, run in runs_b)
    return TreeIsos(a, b, tuple(map(id_at, _typed(index.in_positions(a), leaf_type))), blocks_b, count)


class TreeIsos(Sequence):
    """The typed isomorphisms between two input trees as a lazy sequence.

    Item ``i`` is the ``i``-th element of the product, in type-name order, of
    each type block's permutations in lexicographic order (the last block
    varies fastest); it is unranked on access.  Compares equal to any
    sequence holding the same isomorphisms in the same order; two built alike
    compare equal without iterating.  Equality and ``repr`` read the count
    itself, so neither fails for its size; ``len()`` raises ``OverflowError``
    past ``sys.maxsize``, CPython's limit on a length.
    """

    def __init__(self, source: NodeId, target: NodeId, source_ids: tuple, target_blocks: tuple, count: int):
        self._source, self._target = source, target
        self._ids = source_ids  # a's leaf ids, block by block
        self._blocks = target_blocks  # b's leaf ids per type block
        self._len = count

    def __len__(self) -> int:
        return self._len

    def _iso(self, images) -> TreeIso:
        return TreeIso(self._source, self._target, dict(zip(self._ids, images)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("tree isomorphism index out of range")
        per_block = []
        for block in reversed(self._blocks):
            n_perms = math.factorial(len(block))
            i, rank = divmod(i, n_perms)
            per_block.append(_unrank_permutation(block, rank, n_perms))
        return self._iso(itertools.chain.from_iterable(reversed(per_block)))

    def __iter__(self):
        if self._len:
            yield from map(self._iso, _permutation_product(self._blocks))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        if isinstance(other, TreeIsos) and vars(self) == vars(other):  # the same trees, ids and count
            return True
        count = other._len if isinstance(other, TreeIsos) else len(other)
        return self._len == count and all(x == y for x, y in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        try:
            count = repr(self._len)
        except ValueError:  # more digits than sys.get_int_max_str_digits() lets Python print: hex, as jsonio.dumps
            count = hex(self._len)
        return f"TreeIsos({self._source!r} -> {self._target!r}, {count} isomorphisms)"


def _permutation_product(blocks: tuple) -> Iterator[tuple]:
    """One permutation of each block, chained, in ``itertools.product`` order; lazy, as ``product`` is not."""
    if not blocks:
        yield ()
        return
    for head in itertools.permutations(blocks[0]):
        for tail in _permutation_product(blocks[1:]):
            yield head + tail


def _unrank_permutation(items: tuple, rank: int, n_perms: int) -> list:
    """The ``rank``-th permutation of ``items`` in ``itertools.permutations`` order; ``n_perms`` is ``len(items)!``.

    Position ``j`` picks among the ``(n - j - 1)!`` permutations of the rest,
    so the one factorial is divided down by one count per position.
    """
    pool, out = list(items), []
    for k in range(len(pool), 0, -1):
        n_perms //= k
        q, rank = divmod(rank, n_perms)
        out.append(pool.pop(q))
    return out


def aut_order(tree: InputTree) -> int:
    """Order of the automorphism group: product of factorials of same-type leaf counts."""
    return math.prod(math.factorial(k) for k in tree.type_counts().values())


def symmetry_groupoid(net: Network) -> Partition:
    """The nodes' input-network isomorphism classes; a class's representative is its block id, its least member.

    Two input trees are isomorphic exactly when their root spaces and typed
    leaf multisets agree: one refinement round from the phase colouring.  The
    classes are all the groupoid keeps; every member of a class shares the
    automorphism order :func:`aut_order` gives for any one member's tree.
    Each network builds its classes once, on the first call, and keeps them.
    """
    return net._classes
