"""Fibration checking, factorization, balanced partitions, and quotient networks.

A map of graphs is a fibration when every codomain edge ending at the image
of a node lifts uniquely to an in-edge of that node.  Surjective fibrations
carve synchrony subspaces (polydiagonals) out of the total state space;
injective fibrations exhibit driving subsystems.  The coarsest balanced
partition is computed by iterated refinement of the phase-homogeneity
partition and realised as a quotient network with a projection fibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping

from .errors import FibrationRequired, PreconditionError
from .graphs import (
    Graph,
    Network,
    NetworkMap,
    NodeId,
    Partition,
    StateIndex,
    _images,
    _transposed,
    check_network_map,
    colour_classes,
    coordinate_distance,
    refinement_rounds,
    total_phase_space,
)
from .input_trees import symmetry_groupoid

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LiftFailure:
    node: NodeId
    codomain_edge: str
    lift_count: int


@dataclass(frozen=True)
class FibrationReport:
    is_fibration: bool
    failures: tuple[LiftFailure, ...]
    surjective_on_nodes: bool
    injective_on_nodes: bool
    surjective_on_edges: bool
    injective_on_edges: bool


def check_fibration(m: NetworkMap) -> FibrationReport:
    """Count lifts of every codomain in-edge at every domain node; unique lifts everywhere = fibration.

    A valid map sends each in-edge of a node to an in-edge of the node's
    image, so its lifts are unique exactly when no two in-edges of a node
    share an image and each node has as many in-edges as its image: two
    whole-column comparisons.  Lifts are counted node by node only where
    they fail, to name each failure.
    """
    violations = check_network_map(m)
    if violations:
        raise PreconditionError(
            "check_fibration requires a valid network map; first violation: " + violations[0].message
        )
    dom, cod = m.domain.graph._index, m.codomain.graph._index
    node_image, edge_image = _images(m)  # each a position, the map being valid
    unique = len(set(zip(dom.tgt, edge_image))) == len(edge_image) and list(
        map(len, dom.in_edges[: len(dom.nodes)])
    ) == list(map(len, map(cod.in_edges.__getitem__, node_image)))
    failures = [] if unique else _lift_failures(m, node_image)
    node_images = set(m.node_map.values())
    edge_images = set(m.edge_map.values())
    return FibrationReport(
        is_fibration=not failures,
        failures=tuple(failures),
        surjective_on_nodes=node_images == m.codomain.graph.node_set,
        injective_on_nodes=len(node_images) == len(m.node_map),
        surjective_on_edges=edge_images == cod.edge_pos.keys(),
        injective_on_edges=len(edge_images) == len(m.edge_map),
    )


def _lift_failures(m: NetworkMap, node_image: list[int]) -> list[LiftFailure]:
    """Each codomain in-edge at a domain node's image that does not lift uniquely there; nodes in id order."""
    dom, cod, edge_map = m.domain.graph._index, m.codomain.graph._index, m.edge_map
    failures: list[LiftFailure] = []
    for a in sorted(m.domain.graph.nodes):
        i = dom.position[a]
        lifts: dict[str, int] = {}  # codomain in-edge -> its preimages among a's in-edges
        for k in dom.in_edges[i]:
            image = edge_map[dom.edge_ids[k]]
            lifts[image] = lifts.get(image, 0) + 1
        for k in cod.in_edges[node_image[i]]:
            image = cod.edge_ids[k]
            n = lifts.get(image, 0)
            if n != 1:
                failures.append(LiftFailure(a, image, n))
    return failures


def factorize(m: NetworkMap) -> tuple[NetworkMap, NetworkMap]:
    """Split a fibration into a surjection onto its image followed by the inclusion."""
    if not check_fibration(m).is_fibration:
        raise FibrationRequired("factorize requires a fibration")
    image_nodes = tuple(sorted(set(m.node_map.values())))
    image_edge_ids = set(m.edge_map.values())
    image_edges = tuple(
        sorted((e for e in m.codomain.graph.edges if e.edge_id in image_edge_ids), key=lambda e: e.edge_id)
    )
    image_net = Network(
        Graph(image_nodes, image_edges),
        {a: m.codomain.space(a) for a in image_nodes},
    )
    surjection = NetworkMap(m.domain, image_net, dict(m.node_map), dict(m.edge_map))
    injection = NetworkMap(
        image_net,
        m.codomain,
        {a: a for a in image_nodes},
        {e.edge_id: e.edge_id for e in image_edges},
    )
    return surjection, injection


@dataclass(frozen=True)
class BalanceWitness:
    block: NodeId
    left: NodeId
    right: NodeId


def _balance_witness(net: Network, p: Partition, idx: Mapping[NodeId, NodeId]) -> BalanceWitness | None:
    if idx.keys() != net.graph.node_set:
        raise PreconditionError("partition does not list each node exactly once")
    for b in p.blocks:
        if len({net.space(a) for a in b}) > 1:
            raise PreconditionError(f"block {b[0]!r} mixes phase spaces")
    nodes, colours, _ = next(refinement_rounds(net, idx))
    colour = dict(zip(nodes, colours))
    for b in p.blocks:
        for a in b[1:]:
            if colour[a] != colour[b[0]]:
                return BalanceWitness(b[0], b[0], a)
    return None


def is_balanced(net: Network, p: Partition) -> tuple[bool, BalanceWitness | None]:
    """True iff the induced quotient map is a fibration.

    Equivalent formulation checked here: within each block, all members see
    the same multiset of source blocks over their in-edges.  The witness
    names the first offending pair.
    """
    witness = _balance_witness(net, p, p.block_index())
    return witness is None, witness


def quotient_of(net: Network, p: Partition) -> tuple[Network, NetworkMap]:
    """Quotient network of a balanced partition plus the projection fibration.

    The quotient reuses the in-edges of each block's least member, with edge
    ids prefixed by the block id; member in-edges are matched to those edges
    within same-source-block groups in edge-id order.
    """
    idx = p.block_index()
    witness = _balance_witness(net, p, idx)
    if witness is not None:
        raise PreconditionError(
            f"partition is not balanced: nodes {witness.left!r} and {witness.right!r} "
            f"in block {witness.block!r} have mismatched in-edge block multisets"
        )
    return _quotient(net, p, idx)


def _quotient(net: Network, p: Partition, idx: Mapping[NodeId, NodeId]) -> tuple[Network, NetworkMap]:
    """:func:`quotient_of` for a partition its caller knows to be balanced, with its node -> block id map.

    The projection of a balanced partition of a valid network is a fibration
    by construction once its quotient edge ids are distinct, so only that is
    checked: ids may contain ':', so two (block, edge) pairs can join to the
    same quotient edge id, and such a partition raises PreconditionError.
    """
    q_nodes = tuple(b[0] for b in p.blocks)
    q_edges: list[tuple[str, NodeId, NodeId]] = []  # (id, source, target) of each quotient edge
    edge_map: dict[str, str] = {}
    index = net.graph._index
    ids, src, in_edges, position = index.edge_ids, index.src, index.in_edges, index.position
    block = list(map(idx.__getitem__, index.nodes))  # per node position, its block id
    for b in p.blocks:
        rep = b[0]
        rep_groups: dict[NodeId, list[str]] = {}
        for i, a in enumerate(b):  # the representative comes first and fixes the quotient edges
            groups: dict[NodeId, list[str]] = {}
            for k in in_edges[position[a]]:
                groups.setdefault(block[src[k]], []).append(ids[k])
            if i == 0:
                rep_groups = groups
                q_edges += [(f"{rep}:{ids[k]}", block[src[k]], rep) for k in in_edges[position[a]]]
            for src_block, own_ids in groups.items():
                for own, reps in zip(own_ids, rep_groups[src_block]):
                    edge_map[own] = f"{rep}:{reps}"
    q_edges.sort(key=itemgetter(0))
    q_ids, q_srcs, q_tgts = _transposed(q_edges)
    if len(set(q_ids)) < len(q_ids):
        repeated = next(e for e, f in zip(q_ids, q_ids[1:]) if e == f)
        raise PreconditionError(
            f"quotient edge id {repeated!r} would name two edges: block ids and edge ids joined by ':' collide"
        )
    quotient = Network(Graph._from_columns(q_nodes, q_ids, q_srcs, q_tgts), {b[0]: net.space(b[0]) for b in p.blocks})
    return quotient, NetworkMap(net, quotient, idx, edge_map)


def coarsest_balanced(net: Network) -> tuple[Partition, Network, NetworkMap]:
    """Coarsest phase-homogeneous partition whose quotient map is a fibration.

    Rounds of ``refinement_rounds`` from the phase colouring, until a round
    adds no colour.
    """
    n_colours = len({net.phase[a] for a in net.graph.nodes})
    for nodes, colours, signatures in refinement_rounds(net, net.phase):
        if len(signatures) == n_colours:
            break
        n_colours = len(signatures)
    partition = colour_classes(nodes, colours, signatures)  # balanced: the last round split no block
    quotient, projection = _quotient(net, partition, partition.block_index())
    return partition, quotient, projection


@dataclass(frozen=True)
class Polydiagonal:
    """Synchrony constraint set of a surjective fibration: equal slices along each fiber."""

    network: Network
    partition: Partition
    index: StateIndex

    @cached_property
    def _representatives(self) -> np.ndarray:
        """For each flat coordinate, the same coordinate of its block's representative."""
        rep = self.partition.block_index()
        return self.index.gather(rep[a] for a in self.index.order)

    def violation(self, x: np.ndarray) -> float:
        """Max deviation of a state, or of all rows of a batch, from the fiber constraints; NaN if any is NaN."""
        x = self.index.states(x)
        return coordinate_distance(x[..., self._representatives], x, self.index)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return self.violation(x) <= tol


def polydiagonal_of(m: NetworkMap) -> Polydiagonal:
    """Fiber partition of a surjective fibration, with a tolerance-based membership test."""
    report = check_fibration(m)
    if not report.is_fibration:
        raise FibrationRequired("polydiagonal_of requires a fibration")
    if not report.surjective_on_nodes:
        raise PreconditionError("polydiagonal_of requires a surjective fibration")
    fibers: dict[NodeId, list[NodeId]] = {}
    for a in m.domain.graph.nodes:
        fibers.setdefault(m.node_map[a], []).append(a)
    partition = Partition(fibers.values())
    return Polydiagonal(m.domain, partition, total_phase_space(m.domain))


def essential_image(m: NetworkMap) -> frozenset[NodeId]:
    """Codomain nodes whose input network is isomorphic to that of some image node."""
    image = set(m.node_map.values())
    out: set[NodeId] = set()
    for block in symmetry_groupoid(m.codomain).blocks:
        if image.intersection(block):
            out.update(block)
    return frozenset(out)
