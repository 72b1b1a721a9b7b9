"""Directed multigraphs, phase-space labels, node partitions, and maps between labelled networks.

A network is a finite directed multigraph together with a coordinate phase
space attached to each node.  States of the whole network live in the product
of the node spaces, realised as a flat float vector under a deterministic
(lexicographic) node order.  Maps of networks act contravariantly on these
flat vectors by coordinate gathers.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import PreconditionError

if TYPE_CHECKING:
    import numpy as np

# The structure layer runs without numpy: the functions below that work on
# states import it where they run, so only numeric callers load it.

NodeId = str
EdgeId = str

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhaseSpace:
    """Coordinate phase space of a single node: R^dim, or the circle (angle mod 2pi)."""

    kind: str  # "R" | "S1"
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("R", "S1"):
            raise ValueError(f"unknown phase-space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("phase-space dim must be >= 1")
        if self.kind == "S1" and self.dim != 1:
            raise ValueError("circle phase space has dim 1")

    @cached_property  # kept in the instance dict, outside the fields: field builders read it per in-edge
    def name(self) -> str:
        return "S1" if self.kind == "S1" else f"R{self.dim}"

    @property
    def is_circle(self) -> bool:
        return self.kind == "S1"


def euclidean(dim: int) -> PhaseSpace:
    return PhaseSpace("R", dim)


def circle() -> PhaseSpace:
    return PhaseSpace("S1", 1)


R1 = euclidean(1)
R2 = euclidean(2)
S1 = circle()


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    """A directed edge ``edge_id: src -> tgt``; a frozen slotted value.

    Its ``__init__`` sets the three slots through their member descriptors,
    which skips the frozen ``__setattr__`` that a generated ``__init__`` calls
    once per field: a graph read from JSON builds one ``Edge`` per edge when
    its edges are first read.
    """

    edge_id: EdgeId
    src: NodeId
    tgt: NodeId

    def __init__(self, edge_id: EdgeId, src: NodeId, tgt: NodeId) -> None:
        _set_edge_id(self, edge_id)
        _set_src(self, src)
        _set_tgt(self, tgt)


_set_edge_id, _set_src, _set_tgt = Edge.edge_id.__set__, Edge.src.__set__, Edge.tgt.__set__


class _GraphIndex(NamedTuple):
    """A graph's edges as integer columns over name positions, and its structural violations.

    A position indexes ``names``: the distinct nodes in listing order, then
    each edge endpoint that is no node.  ``Graph._index`` builds it once.
    """

    nodes: tuple[NodeId, ...]  # the distinct nodes, in listing order
    names: tuple[NodeId, ...]  # ``nodes``, then each edge endpoint that is no node
    position: dict[NodeId, int]  # name -> its position in ``names``
    edge_ids: Sequence[EdgeId]  # per edge, in listing order
    src: list[int]  # per edge, the position of its source
    tgt: list[int]  # per edge, the position of its target
    in_edges: list[list[int]]  # per name, the positions of the edges into it, sorted by edge id
    edge_pos: dict[EdgeId, int]  # per edge id, the position of the last edge listed under it
    violations: tuple[Violation, ...]  # repeated node ids, then per edge: repeated id, unknown source, unknown target

    def in_positions(self, node: NodeId) -> Sequence[int]:
        """The positions of the edges into ``node``, sorted by edge id; none for a name no edge ends at."""
        i = self.position.get(node)
        return () if i is None else self.in_edges[i]

    def in_pairs(self, node: NodeId) -> list[tuple[EdgeId, NodeId]]:
        """(edge id, source) of each edge into ``node``, sorted by edge id."""
        ids, names, src = self.edge_ids, self.names, self.src
        return [(ids[k], names[src[k]]) for k in self.in_positions(node)]


def _graph_index(
    nodes: Sequence[NodeId], edge_ids: Sequence[EdgeId], sources: Sequence[NodeId], targets: Sequence[NodeId]
) -> _GraphIndex:
    """The index of a graph whose edges are given as three columns, one entry per edge.

    Whole columns are mapped to positions at once; the scans that name
    violations run only where a node id or an edge id repeats or an
    endpoint is no node.
    """
    distinct = tuple(dict.fromkeys(nodes))
    position = dict(zip(distinct, range(len(distinct))))
    violations = []
    if len(distinct) < len(nodes):
        seen: set[NodeId] = set()
        for a in nodes:
            if a in seen:
                violations.append(Violation("duplicate-node", a, f"node id {a!r} repeated"))
            seen.add(a)
    src, tgt = list(map(position.get, sources)), list(map(position.get, targets))
    unknown = None in src or None in tgt
    if unknown:  # each endpoint that is no node takes the next position
        for a in chain(sources, targets):
            position.setdefault(a, len(position))
        src, tgt = list(map(position.__getitem__, sources)), list(map(position.__getitem__, targets))
    edge_pos = dict(zip(edge_ids, range(len(edge_ids))))
    if unknown or len(edge_pos) < len(edge_ids):
        n, seen = len(distinct), set()
        for eid, s, t, a, b in zip(edge_ids, src, tgt, sources, targets):
            if eid in seen:
                violations.append(Violation("duplicate-edge", eid, f"edge id {eid!r} repeated"))
            seen.add(eid)
            if s >= n:
                violations.append(Violation("dangling-src", eid, f"edge {eid!r} has unknown source {a!r}"))
            if t >= n:
                violations.append(Violation("dangling-tgt", eid, f"edge {eid!r} has unknown target {b!r}"))
    names = tuple(position) if unknown else distinct
    in_edges: list[list[int]] = [[] for _ in names]
    for k, t in enumerate(tgt):
        in_edges[t].append(k)
    by_id = edge_ids.__getitem__
    for ks in in_edges:
        if len(ks) > 1:
            ks.sort(key=by_id)
    return _GraphIndex(distinct, names, position, edge_ids, src, tgt, in_edges, edge_pos, tuple(violations))


def _transposed(rows: Iterable[tuple]) -> tuple[list, list, list]:
    """The three columns of rows of three."""
    return tuple(map(list, zip(*rows))) or ([], [], [])


@dataclass(frozen=True)
class Graph:
    """Finite directed multigraph; loops and parallel edges allowed.

    Each instance builds its index lazily, once, on first use.
    ``cached_property`` stores it in the instance ``__dict__``, outside the
    dataclass fields, so equality and hashing still see only nodes and edges.
    A graph read from JSON starts from its edge columns instead, and builds
    ``edges`` from them when it is first read.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def _from_columns(
        cls, nodes: tuple[NodeId, ...], edge_ids: list[EdgeId], sources: list[NodeId], targets: list[NodeId]
    ) -> Graph:
        """The graph of ``nodes`` and of the edges whose ids, sources and targets the columns list, in order."""
        graph = cls.__new__(cls)
        graph.__dict__.update(nodes=nodes, _edge_columns=(edge_ids, sources, targets))
        return graph

    def __getattr__(self, name: str):
        # called only for an attribute the instance lacks: ``edges`` of a graph built from columns
        columns = self.__dict__.get("_edge_columns") if name == "edges" else None
        if columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = self.__dict__["edges"] = tuple(map(Edge, *columns))
        return edges

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        """In-edges of ``node`` sorted by edge id."""
        return tuple(map(self.edges.__getitem__, self._index.in_positions(node)))

    def edge_by_id(self, edge_id: EdgeId) -> Edge:
        return self.edges[self._index.edge_pos[edge_id]]

    @cached_property
    def node_set(self) -> frozenset[NodeId]:
        return frozenset(self._index.nodes)

    @cached_property
    def _edge_columns(self) -> tuple[list[EdgeId], list[NodeId], list[NodeId]]:
        """Edge ids, sources and targets, one entry per edge in listing order, from one scan of ``edges``."""
        return _transposed(map(attrgetter("edge_id", "src", "tgt"), self.edges))

    @cached_property
    def _index(self) -> _GraphIndex:
        return _graph_index(self.nodes, *self._edge_columns)


@dataclass(frozen=True)
class Network:
    """A graph plus a total assignment of phase spaces to its nodes.

    Like :class:`Graph`'s index, the flat state layout, the leaf types, the
    control signatures and the classes of the symmetry groupoid are built
    once per instance, on first use, outside the dataclass fields.
    """

    graph: Graph
    phase: Mapping[NodeId, PhaseSpace]

    def space(self, node: NodeId) -> PhaseSpace:
        return self.phase[node]

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        return self.graph.in_edges(node)

    def is_same(self, other: "Network") -> bool:
        """Structural equality up to node/edge listing order."""
        if self is other:
            return True
        return (
            set(self.graph.nodes) == set(other.graph.nodes)
            and set(self.graph.edges) == set(other.graph.edges)
            and dict(self.phase) == dict(other.phase)
        )

    @cached_property
    def _state_index(self) -> StateIndex:
        """The layout :func:`total_phase_space` returns; a repeated node id raises on every call.

        The node named is the graph index's first repeated one, which
        :func:`validate_network` names first too.
        """
        index = self.graph._index
        repeated = next((v for v in index.violations if v.kind == "duplicate-node"), None)
        if repeated is not None:
            raise PreconditionError(f"{repeated.message}: a state layout needs distinct node ids")
        order = tuple(sorted(index.nodes))
        slices: dict[NodeId, tuple[int, int]] = {}
        off = 0
        for a in order:
            d = self.space(a).dim
            slices[a] = (off, d)
            off += d
        return StateIndex(order, slices, {a: self.space(a) for a in order}, off)

    @cached_property
    def _leaf_types(self) -> list[str]:
        """Per edge position, the phase-space name of its source: the type of the input-tree leaf the edge gives.

        Read where every edge source is a node with a phase space, as after
        :func:`~fibra.input_trees.symmetry_groupoid`.
        """
        index, phase = self.graph._index, self.phase
        names = [phase[a].name for a in index.nodes]
        return list(map(names.__getitem__, index.src))

    @cached_property
    def _signatures(self) -> dict:
        """Node -> its control signature, each kept by :func:`~fibra.dynamics.signature_at` as it builds it."""
        return {}

    @cached_property
    def _classes(self) -> Partition:
        """The classes :func:`~fibra.input_trees.symmetry_groupoid` returns: one refinement round's colours."""
        return colour_classes(*next(refinement_rounds(self, self.phase)))


def network(nodes: Iterable[tuple[str, PhaseSpace]], edges: Iterable[tuple[str, str, str]]) -> Network:
    """Build a network from (node_id, space) pairs and (edge_id, src, tgt) triples."""
    pairs = list(nodes)
    return Network(Graph(tuple(n for n, _ in pairs), tuple(Edge(*e) for e in edges)), {n: s for n, s in pairs})


def refinement_rounds(net: Network, colour: Mapping[NodeId, Hashable]) -> Iterator[tuple]:
    """Colour refinement of the in-edge structure; yields (distinct nodes, colours, signature -> colour).

    Each round gives every node the dense id, numbered in node order, of (its
    colour, sorted colours of its in-edge sources), starting from ``colour``.
    The yielded dict is the round's own, not a copy.  An edge from an unknown node raises PreconditionError.
    """
    index = net.graph._index
    if unknown_sources := [v for v in index.violations if v.kind == "dangling-src"]:
        raise PreconditionError(unknown_sources[0].message)
    dense: dict[Hashable, int] = {}
    colours = [dense.setdefault(colour[a], len(dense)) for a in index.nodes]
    while True:
        signatures: dict[tuple, int] = {}
        colour_at = list(map(colours.__getitem__, index.src)).__getitem__  # an edge's position -> its source's colour
        colours = [
            signatures.setdefault((c, tuple(sorted(map(colour_at, in_edges)))), len(signatures))
            for c, in_edges in zip(colours, index.in_edges)
        ]
        yield index.nodes, colours, signatures


def colour_classes(nodes: Iterable[NodeId], colours: Iterable[int], signatures: Mapping) -> Partition:
    """The nodes of one round of :func:`refinement_rounds` as a partition, one block per colour."""
    buckets: list[list[NodeId]] = [[] for _ in signatures]
    for a, c in zip(nodes, colours):
        buckets[c].append(a)
    return Partition(buckets)


@dataclass(frozen=True)
class Partition:
    """Disjoint node blocks covering a node set; block id = least member.

    The fibers of a surjective fibration and the classes of the symmetry
    groupoid are both partitions of this kind.  Built from any iterable of
    node iterables: members are sorted, empty blocks dropped and blocks
    ordered by their least member.  A node listed more than once raises
    PreconditionError.
    """

    blocks: tuple[tuple[NodeId, ...], ...]

    def __post_init__(self) -> None:
        blocks = (tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", tuple(sorted(filter(None, blocks), key=lambda b: b[0])))
        if len(self._block_by_node) < sum(map(len, self.blocks)):
            raise PreconditionError("partition does not list each node exactly once")

    def block_of(self, node: NodeId) -> tuple[NodeId, ...]:
        try:
            return self._block_by_node[node]
        except KeyError:
            raise PreconditionError(f"node {node!r} not covered by the partition") from None

    def block_id(self, node: NodeId) -> NodeId:
        return self.block_of(node)[0]

    def representatives(self) -> tuple[NodeId, ...]:
        """The block ids, in block order."""
        return tuple(b[0] for b in self.blocks)

    def block_index(self) -> dict[NodeId, NodeId]:
        """node -> block id, nodes in block order."""
        return {a: b[0] for a, b in self._block_by_node.items()}

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        return all(len({other.block_id(a) for a in b}) == 1 for b in self.blocks)

    @cached_property
    def _block_by_node(self) -> dict[NodeId, tuple[NodeId, ...]]:
        return {a: b for b in self.blocks for a in b}


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str


def validate_network(net: Network) -> list[Violation]:
    """Report every violated structural invariant, the graph's own first; an empty list means valid.

    The phase map's keys are compared with the node set at once; the scans
    that name a missing or an extra phase space run only where they differ.
    """
    out = list(net.graph._index.violations)
    if net.phase.keys() == net.graph.node_set:
        return out
    for a in net.graph.nodes:
        if a not in net.phase:
            out.append(Violation("missing-phase", a, f"node {a!r} has no phase space"))
    for a in net.phase:
        if a not in net.graph.node_set:
            out.append(Violation("extra-phase", a, f"phase space assigned to unknown node {a!r}"))
    return out


@dataclass(frozen=True)
class NetworkMap:
    """A pair of node/edge maps between networks.

    Validity (graph homomorphism plus phase compatibility) is checked by
    :func:`check_network_map`, not enforced on construction.
    """

    domain: Network
    codomain: Network
    node_map: Mapping[NodeId, NodeId]
    edge_map: Mapping[EdgeId, EdgeId]


def identity_map(net: Network) -> NetworkMap:
    return NetworkMap(
        net,
        net,
        {a: a for a in net.graph.nodes},
        {e.edge_id: e.edge_id for e in net.graph.edges},
    )


def check_network_map(m: NetworkMap) -> list[Violation]:
    """Report every homomorphism or phase-compatibility violation.

    Whole columns are compared at once; the scans that name violations, in
    the order the nodes and edges are listed, run only where a comparison
    fails.
    """
    dom, cod = m.domain.graph._index, m.codomain.graph._index
    node_image, edge_image = _images(m)
    if None in node_image or max(node_image, default=-1) >= len(cod.nodes) or None in edge_image:
        return _image_violations(m)
    out: list[Violation] = []
    node_map, image_at = m.node_map, node_image.__getitem__
    if (
        len(dom.names) > len(dom.nodes)  # an endpoint that is no node: only the scan reads its image
        or list(map(image_at, dom.src)) != list(map(cod.src.__getitem__, edge_image))
        or list(map(image_at, dom.tgt)) != list(map(cod.tgt.__getitem__, edge_image))
    ):
        for eid, s, t, k in zip(dom.edge_ids, dom.src, dom.tgt, edge_image):
            src, tgt, img_src, img_tgt = node_map[dom.names[s]], node_map[dom.names[t]], cod.src[k], cod.tgt[k]
            if src != cod.names[img_src] or tgt != cod.names[img_tgt]:
                out.append(
                    Violation(
                        "homomorphism",
                        eid,
                        f"edge {eid!r}: endpoints map to ({src!r},{tgt!r}) "
                        f"but its image {cod.edge_ids[k]!r} runs ({cod.names[img_src]!r},{cod.names[img_tgt]!r})",
                    )
                )
    nodes, dom_phase, cod_phase = m.domain.graph.nodes, m.domain.phase, m.codomain.phase
    targets = list(map(node_map.__getitem__, nodes))
    if list(map(dom_phase.__getitem__, nodes)) != list(map(cod_phase.__getitem__, targets)):
        for a, b in zip(nodes, targets):
            space, image = dom_phase[a], cod_phase[b]
            if image != space:
                message = f"node {a!r}: domain space {space.name} != codomain space {image.name} at {b!r}"
                out.append(Violation("phase", a, message))
    return out


def _images(m: NetworkMap) -> tuple[list, list]:
    """The codomain position of the image of each distinct domain node and of each domain edge; None for none."""
    dom, cod = m.domain.graph._index, m.codomain.graph._index
    node_image = list(map(cod.position.get, map(m.node_map.get, dom.nodes)))
    return node_image, list(map(cod.edge_pos.get, map(m.edge_map.get, dom.edge_ids)))


def _image_violations(m: NetworkMap) -> list[Violation]:
    """Every domain node and edge with no image, or an image outside the codomain, in listing order."""
    out: list[Violation] = []
    cod_nodes, cod_edges = m.codomain.graph.node_set, m.codomain.graph._index.edge_pos
    for a in m.domain.graph.nodes:
        if a not in m.node_map:
            out.append(Violation("unmapped-node", a, f"node {a!r} has no image"))
        elif m.node_map[a] not in cod_nodes:
            out.append(Violation("bad-node-image", a, f"node {a!r} maps outside the codomain"))
    for eid in m.domain.graph._index.edge_ids:
        if eid not in m.edge_map:
            out.append(Violation("unmapped-edge", eid, f"edge {eid!r} has no image"))
        elif m.edge_map[eid] not in cod_edges:
            out.append(Violation("bad-edge-image", eid, f"edge {eid!r} maps outside the codomain"))
    return out


def compose_maps(m1: NetworkMap, m2: NetworkMap) -> NetworkMap:
    """Diagrammatic composite of m1: A -> B and m2: B -> C."""
    if not m1.codomain.is_same(m2.domain):
        raise PreconditionError("compose_maps: codomain of the first map is not the domain of the second")
    for kind, first, second in (("node", m1.node_map, m2.node_map), ("edge", m1.edge_map, m2.edge_map)):
        for b in first.values():
            if b not in second:
                raise PreconditionError(f"compose_maps: the second map has no image of {kind} {b!r}")
    return NetworkMap(
        m1.domain,
        m2.codomain,
        {a: m2.node_map[b] for a, b in m1.node_map.items()},
        {e: m2.edge_map[f] for e, f in m1.edge_map.items()},
    )


def gather_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the runs ``starts[k], ..., starts[k] + lengths[k] - 1``, one run after another."""
    import numpy as np

    runs = np.cumsum(lengths) - lengths  # where each run begins in the result
    return np.repeat(starts - runs, lengths) + np.arange(lengths.sum(), dtype=np.intp)


class _JointMapping(abc.Mapping):
    """``(i, a)`` -> ``move(i, parts[i][a])``: one mapping per layout of a joint index, read on demand."""

    def __init__(self, parts: list[Mapping], move: Callable[[int, object], object]):
        self._parts, self._move = dict(enumerate(parts)), move

    def __getitem__(self, key):
        try:
            i, a = key
            return self._move(i, self._parts[i][a])
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None

    def __iter__(self) -> Iterator:
        return chain.from_iterable(zip(repeat(i), part) for i, part in self._parts.items())

    def __len__(self) -> int:
        return sum(map(len, self._parts.values()))


@dataclass(frozen=True)
class StateIndex:
    """Flat-vector layout of the total state of a network.

    Nodes are laid out in lexicographic id order; each node owns a contiguous
    slice of length equal to its phase-space dimension.  The circle mask and
    the node gathers are derived from this layout here and nowhere else.
    """

    order: tuple[NodeId, ...]
    slices: Mapping[NodeId, tuple[int, int]]
    spaces: Mapping[NodeId, PhaseSpace]
    total_dim: int

    @classmethod
    def joint(cls, indexes: Iterable[StateIndex]) -> StateIndex:
        """The layouts one after another in one flat state; node ``a`` of the i-th is keyed ``(i, a)``.

        Its ``slices`` and ``spaces`` read the layouts' own entries when asked
        and store none per node, so a joint field's hot path (``state``,
        ``states`` and ``total_dim``) builds no dict keyed by ``(i, a)``.
        """
        indexes = list(indexes)
        offsets, off = [], 0
        for index in indexes:
            offsets.append(off)
            off += index.total_dim
        order = tuple(chain.from_iterable(zip(repeat(i), index.order) for i, index in enumerate(indexes)))
        slices = _JointMapping([index.slices for index in indexes], lambda i, span: (offsets[i] + span[0], span[1]))
        spaces = _JointMapping([index.spaces for index in indexes], lambda i, space: space)
        return cls(order, slices, spaces, off)

    def slice_of(self, node: NodeId) -> slice:
        off, length = self.slices[node]
        return slice(off, off + length)

    def gather(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Flat coordinate indices of ``nodes``, each node's slice in turn.

        ``x[index.gather(nodes)]`` concatenates the nodes' states; a node may
        appear more than once.  For k nodes of one dimension d,
        ``gather(nodes).reshape(shape + (d,))`` with ``prod(shape) == k``
        stacks their states along ``shape``.
        """
        import numpy as np

        spans = np.fromiter(chain.from_iterable(map(self.slices.__getitem__, nodes)), dtype=np.intp).reshape(-1, 2)
        return gather_runs(spans[:, 0], spans[:, 1])

    @cached_property
    def _circle_mask(self) -> np.ndarray:
        import numpy as np

        mask = np.zeros(self.total_dim, dtype=bool)
        mask[self.gather(a for a in self.order if self.spaces[a].is_circle)] = True
        return mask

    def state(self, x: np.ndarray) -> np.ndarray:
        """``x`` as one float state of this layout; PreconditionError for any other shape."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        if x.shape != (self.total_dim,):
            raise PreconditionError(f"state has shape {x.shape}, expected ({self.total_dim},)")
        return x

    def states(self, x: np.ndarray) -> np.ndarray:
        """``x`` as one float state ``(D,)`` or a batch ``(samples, D)``; PreconditionError for any other shape.

        A float64 ndarray, as every field call inside ``integrate`` passes, is
        taken as it is, which is what ``np.asarray(x, dtype=float)`` gives it.
        """
        array, double = self._float64
        if x.__class__ is not array or x.dtype is not double:
            import numpy as np

            x = np.asarray(x, dtype=float)
        shape = x.shape
        if not 0 < len(shape) < 3 or shape[-1] != self.total_dim:
            n = self.total_dim
            raise PreconditionError(f"state has shape {shape}, expected ({n},) or (samples, {n})")
        return x

    @cached_property
    def _float64(self) -> tuple[type, np.dtype]:
        """The ndarray type and the native float64 dtype, read once per layout: the structure layer loads no numpy."""
        import numpy as np

        return np.ndarray, np.dtype(float)

    def circle_mask(self) -> np.ndarray:
        """Boolean mask of the circle coordinates (a fresh copy)."""
        return self._circle_mask.copy()

    def pack(self, by_node: Mapping[NodeId, np.ndarray]) -> np.ndarray:
        import numpy as np

        x = np.zeros(self.total_dim)
        for a in self.order:
            x[self.slice_of(a)] = np.asarray(by_node[a], dtype=float)
        return x

    def unpack(self, x: np.ndarray) -> dict[NodeId, np.ndarray]:
        import numpy as np

        return {a: np.asarray(x)[self.slice_of(a)].copy() for a in self.order}


def total_phase_space(net: Network) -> StateIndex:
    """Deterministic flat layout of the product of the node phase spaces, built once per network."""
    return net._state_index


class PhaseSpaceMap:
    """Coordinate realisation of the contravariant total-state map of a network map.

    Sends a codomain state x' to the domain state x with x_a = x'_{phi(a)}:
    one gather of the codomain coordinates of each domain node's image.  The
    map is linear in coordinates, so its differential is the same gather
    acting on tangent vectors.
    """

    def __init__(self, nmap: NetworkMap):
        self.domain_index = total_phase_space(nmap.domain)
        self.codomain_index = total_phase_space(nmap.codomain)
        self._gather = self.codomain_index.gather(nmap.node_map[a] for a in self.domain_index.order)

    def __call__(self, x_codomain: np.ndarray) -> np.ndarray:
        """Map one codomain state, or each row of a (samples, total_dim) batch."""
        return self.codomain_index.states(x_codomain)[..., self._gather]

    def differential(self, v_codomain: np.ndarray) -> np.ndarray:
        """Tangent-level action; the same gather, since the map is linear."""
        return self(v_codomain)


def phase_space_map(m: NetworkMap) -> PhaseSpaceMap:
    violations = check_network_map(m)
    if violations:
        raise PreconditionError(
            "phase_space_map requires a valid network map; first violation: " + violations[0].message
        )
    return PhaseSpaceMap(m)


def wrap_angle(theta: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles to (-pi, pi]."""
    import numpy as np

    wrapped = np.mod(np.asarray(theta) + np.pi, TWO_PI) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def circle_distance(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray | float:
    """Distance on the circle between (possibly unwrapped) angles, elementwise."""
    import numpy as np

    d = np.mod(np.subtract(a, b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def coordinate_distance(x: np.ndarray, y: np.ndarray, index: StateIndex) -> float:
    """Max per-coordinate distance, circle-aware, over two states or all rows of two batches; NaN if any is NaN."""
    import numpy as np

    x, y = index.states(x), index.states(y)
    if x.shape != y.shape:
        raise PreconditionError(f"states have shapes {x.shape} and {y.shape}, expected one shape")
    dist = np.abs(x - y)
    circ = index._circle_mask
    dist[..., circ] = circle_distance(x[..., circ], y[..., circ])
    return float(dist.max(initial=0.0))
