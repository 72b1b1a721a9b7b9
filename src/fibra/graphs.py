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
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

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
    once per field: every loader builds one ``Edge`` per edge.
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
    """What one scan of a graph's nodes and one of its edges find; ``Graph._index`` builds it once."""

    nodes: tuple[NodeId, ...]  # the distinct nodes, in listing order
    in_edges: dict[NodeId, tuple[Edge, ...]]  # sorted by edge id; an unknown target has its own entry
    sources: list[list]  # per distinct node, the positions in ``nodes`` of its in-edge sources (None: no node)
    edge_by_id: dict[EdgeId, Edge]  # the last edge listed under each id
    violations: tuple[Violation, ...]  # repeated node ids, then per edge: repeated id, unknown source, unknown target


@dataclass(frozen=True)
class Graph:
    """Finite directed multigraph; loops and parallel edges allowed.

    Each instance builds its index lazily, once, on first use.
    ``cached_property`` stores it in the instance ``__dict__``, outside the
    dataclass fields, so equality and hashing still see only nodes and edges.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]

    def in_edges(self, node: NodeId) -> tuple[Edge, ...]:
        """In-edges of ``node`` sorted by edge id."""
        return self._index.in_edges.get(node, ())

    def edge_by_id(self, edge_id: EdgeId) -> Edge:
        return self._index.edge_by_id[edge_id]

    @cached_property
    def node_set(self) -> frozenset[NodeId]:
        return frozenset(self._index.nodes)

    @cached_property
    def _index(self) -> _GraphIndex:
        violations = []
        position: dict[NodeId, int] = {}
        for a in self.nodes:
            if a in position:
                violations.append(Violation("duplicate-node", a, f"node id {a!r} repeated"))
            position.setdefault(a, len(position))
        acc: dict[NodeId, tuple[list[Edge], list]] = {a: ([], []) for a in position}
        edge_by_id: dict[EdgeId, Edge] = {}
        for e in self.edges:
            eid, src = e.edge_id, position.get(e.src)
            if eid in edge_by_id:
                violations.append(Violation("duplicate-edge", eid, f"edge id {eid!r} repeated"))
            if src is None:
                violations.append(Violation("dangling-src", eid, f"edge {eid!r} has unknown source {e.src!r}"))
            if e.tgt not in position:
                violations.append(Violation("dangling-tgt", eid, f"edge {eid!r} has unknown target {e.tgt!r}"))
            edge_by_id[eid] = e
            edges, sources = acc.get(e.tgt) or acc.setdefault(e.tgt, ([], []))  # a target that is no node too
            edges.append(e)
            sources.append(src)
        by_id = attrgetter("edge_id")
        in_edges = {a: tuple(sorted(es, key=by_id) if len(es) > 1 else es) for a, (es, _) in acc.items()}
        sources = [sources for _, sources in acc.values()][: len(position)]
        return _GraphIndex(tuple(position), in_edges, sources, edge_by_id, tuple(violations))


@dataclass(frozen=True)
class Network:
    """A graph plus a total assignment of phase spaces to its nodes.

    Like :class:`Graph`'s index, the flat state layout and the classes of
    the symmetry groupoid are built once per instance, on first use, outside
    the dataclass fields.
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
        colour_at = colours.__getitem__
        colours = [
            signatures.setdefault((c, tuple(sorted(map(colour_at, srcs)))), len(signatures))
            for c, srcs in zip(colours, index.sources)
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
    """Report every violated structural invariant, the graph's own first; an empty list means valid."""
    out = list(net.graph._index.violations)
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
    """Report every homomorphism or phase-compatibility violation."""
    out: list[Violation] = []
    cod_nodes = m.codomain.graph.node_set
    cod_edges = m.codomain.graph._index.edge_by_id
    for a in m.domain.graph.nodes:
        if a not in m.node_map:
            out.append(Violation("unmapped-node", a, f"node {a!r} has no image"))
        elif m.node_map[a] not in cod_nodes:
            out.append(Violation("bad-node-image", a, f"node {a!r} maps outside the codomain"))
    for e in m.domain.graph.edges:
        if e.edge_id not in m.edge_map:
            out.append(Violation("unmapped-edge", e.edge_id, f"edge {e.edge_id!r} has no image"))
        elif m.edge_map[e.edge_id] not in cod_edges:
            out.append(Violation("bad-edge-image", e.edge_id, f"edge {e.edge_id!r} maps outside the codomain"))
    if out:
        return out
    node_map, edge_map = m.node_map, m.edge_map
    for e in m.domain.graph.edges:
        img = cod_edges[edge_map[e.edge_id]]
        if node_map[e.src] != img.src or node_map[e.tgt] != img.tgt:
            out.append(
                Violation(
                    "homomorphism",
                    e.edge_id,
                    f"edge {e.edge_id!r}: endpoints map to ({node_map[e.src]!r},{node_map[e.tgt]!r}) "
                    f"but its image {img.edge_id!r} runs ({img.src!r},{img.tgt!r})",
                )
            )
    dom_phase, cod_phase = m.domain.phase, m.codomain.phase
    for a in m.domain.graph.nodes:
        space, image = dom_phase[a], cod_phase[node_map[a]]
        if image != space:
            out.append(
                Violation(
                    "phase",
                    a,
                    f"node {a!r}: domain space {space.name} != codomain space {image.name} at {node_map[a]!r}",
                )
            )
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
