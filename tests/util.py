"""Seeded random generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys

import numpy as np
from hypothesis import strategies as st

from fibra import (
    BalanceWitness,
    LiftFailure,
    ControlExpr,
    Edge,
    EnumerationCapExceeded,
    Graph,
    Network,
    NetworkMap,
    Partition,
    PreconditionError,
    R1,
    R2,
    RawControl,
    S1,
    SignatureMismatch,
    TreeIso,
    Violation,
    VirtualVectorField,
    check_fibration,
    coordinate_distance,
    ctrl_transport,
    enumerate_tree_isos,
    input_tree,
    integrate,
    interconnect,
    iso_count,
    network,
    parse_control,
    per_class_field,
    per_node_field,
    phase_space_map,
    pullback,
    sample_space,
    signature_at,
    symmetry_groupoid,
    total_phase_space,
)
from fibra.dynamics import bind_control
from fibra.expr_dsl import (
    FUNCTIONS,
    KEYWORDS,
    MAX_BODY_RUNS,
    MAX_DEPTH,
    Aggregate,
    BinOp,
    Call,
    ExprSyntaxError,
    InputRef,
    Neg,
    Num,
    Pow,
    RootRef,
    _children,
    _Token,
)
from fibra.errors import EvaluationFault, InputError, IntegrationFault
from fibra.graphs import TWO_PI
from fibra.jsonio import _finite_number, _require, space_from_json
from fibra.numerics import Trajectory, _step_count

SPACES = (R1, R2, S1)


def random_network(rng: random.Random, max_nodes: int = 6, max_edges: int = 8,
                   spaces=SPACES) -> Network:
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    node_spaces = [(a, rng.choice(spaces)) for a in names]
    n_edges = rng.randint(0, max_edges)
    edges = [(f"e{j}", rng.choice(names), rng.choice(names)) for j in range(n_edges)]
    return network(node_spaces, edges)


def random_map_onto(rng: random.Random, codomain: Network, max_nodes: int = 6,
                    max_edges: int = 8) -> NetworkMap:
    """A valid (not necessarily fibration) map into ``codomain``."""
    n = rng.randint(1, max_nodes)
    names = [f"d{i}" for i in range(n)]
    node_map = {a: rng.choice(codomain.graph.nodes) for a in names}
    preimg: dict[str, list[str]] = {}
    for a, b in node_map.items():
        preimg.setdefault(b, []).append(a)
    edges, edge_map = [], {}
    cod_edges = list(codomain.graph.edges)
    if cod_edges:
        for j in range(rng.randint(0, max_edges)):
            e = rng.choice(cod_edges)
            if e.src in preimg and e.tgt in preimg:
                eid = f"de{j}"
                edges.append((eid, rng.choice(preimg[e.src]), rng.choice(preimg[e.tgt])))
                edge_map[eid] = e.edge_id
    dom = network([(a, codomain.space(node_map[a])) for a in names], edges)
    return NetworkMap(dom, codomain, node_map, edge_map)


def random_surjective_fibration(rng: random.Random, max_fiber: int = 3,
                                cod_max_nodes: int = 4, cod_max_edges: int = 5) -> NetworkMap:
    """:func:`random_lift` of a :func:`random_network`."""
    return random_lift(rng, random_network(rng, cod_max_nodes, cod_max_edges), max_fiber)


def random_lift(rng: random.Random, cod: Network, max_fiber: int = 3) -> NetworkMap:
    """A surjective fibration onto ``cod`` with 1 to ``max_fiber`` nodes over each node.

    Each domain edge runs from a random member of its image's source fiber.
    The domain edges are named in random order, so a domain node does not
    list its in-edges in its image's edge-id order.
    """
    node_map: dict[str, str] = {}
    i = 0
    for b in cod.graph.nodes:
        for _ in range(rng.randint(1, max_fiber)):
            node_map[f"d{i}"] = b
            i += 1
    preimg: dict[str, list[str]] = {}
    for a, b in node_map.items():
        preimg.setdefault(b, []).append(a)
    lifts = [(e, a) for a in sorted(node_map) for e in cod.in_edges(node_map[a])]
    names = [f"de{j}" for j in range(len(lifts))]
    rng.shuffle(names)
    edges, edge_map = [], {}
    for eid, (e, a) in zip(names, lifts):
        edges.append((eid, rng.choice(preimg[e.src]), a))
        edge_map[eid] = e.edge_id
    dom = network([(a, cod.space(node_map[a])) for a in sorted(node_map)], edges)
    return NetworkMap(dom, cod, node_map, edge_map)


def planted_network(seed: int, max_nodes: int = 6) -> Network:
    """A random network drawn from ``seed``, built around a :func:`random_network` of 1 to ``max_nodes`` nodes.

    That random part has up to three edges per node of its cap.  On three
    seeds in four, these are planted around it:

    - a chain c0 -> c1 -> c2 of one space, where c0 also has a self-loop and a
      parallel copy of it, and the random part's first node t, recast into
      another space, feeds c1 and c2, and nothing else feeds the chain: c1
      and c2 share their first refinement round's colour, and their
      mixed-space inputs, and the second round splits them;
    - an isolated node z of the third space, so that R1, R2 and S1 all occur;
    - a node h of z's space fed by c0, c1 and c2 twice and by t: four inputs
      of one space and one of another;
    - 0 to 2 edges from the chain into the random part.

    On the fourth seed the random part stands alone, so it may be a single
    node, have no edges or hold one space.  Either way, on about half the
    seeds the random part has at most ``max_nodes // 3`` nodes and the network
    is a :func:`random_lift` of what was built, with fibers of 1 to 3 nodes.
    Node ids ``nNN`` and edge ids ``eNN`` are dealt out at random, and nodes
    and edges listed at random, so that listing order, id order and the
    sorted state layout disagree; then the in-edge ids of each node over c2
    are in typed order (by source space, then id), and those over c1 and h
    in typed order with the first and last swapped, so that c1 and c2 pair
    their inputs by type, not by position.
    """
    rng = random.Random(seed)
    lifted = rng.random() < 0.5
    k = max(1, max_nodes // 3) if lifted else max_nodes
    net = random_network(rng, k, 3 * k)
    if rng.random() < 0.75:
        net = _planted_around(rng, net)
    over = {a: a for a in net.graph.nodes}
    if lifted:
        lift = random_lift(rng, net)
        net, over = lift.domain, lift.node_map
    nodes, edges = (rng.sample(items, len(items)) for items in (net.graph.nodes, net.graph.edges))
    rename = dict(zip(nodes, _dealt(rng, "n", len(nodes))))
    ids = dict(zip((e.edge_id for e in edges), _dealt(rng, "e", len(edges))))
    for a in nodes:
        if over[a] in ("c1", "c2", "h"):
            typed = sorted(net.in_edges(a), key=lambda e: (net.space(e.src).name, ids[e.edge_id]))
            if over[a] != "c2":
                typed[0], typed[-1] = typed[-1], typed[0]
            ids.update(zip((e.edge_id for e in typed), sorted(ids[e.edge_id] for e in typed)))
    return network(
        [(rename[a], net.space(a)) for a in nodes],
        [(ids[e.edge_id], rename[e.src], rename[e.tgt]) for e in edges],
    )


def _planted_around(rng: random.Random, rest: Network) -> Network:
    """``rest`` with the chain c0 -> c1 -> c2, its feed t and the nodes z and h planted around it (see :func:`planted_network`)."""
    chain, isolated, third = rng.sample(SPACES, 3)
    t, *others = rest.graph.nodes
    nodes = [("c0", chain), ("c1", chain), ("c2", chain), ("z", isolated), ("h", isolated), (t, third)]
    nodes += [(a, rest.space(a)) for a in others]
    edges = [("loop", "c0", "c0"), ("twin", "c0", "c0"), ("c01", "c0", "c1"), ("c12", "c1", "c2")]
    edges += [("t1", t, "c1"), ("t2", t, "c2")]
    edges += [("h0", "c0", "h"), ("h1", "c1", "h"), ("h2", "c2", "h"), ("h3", "c2", "h"), ("h4", t, "h")]
    edges += [(e.edge_id, e.src, e.tgt) for e in rest.graph.edges]
    edges += [(f"x{j}", rng.choice(("c0", "c1", "c2")), rng.choice(rest.graph.nodes)) for j in range(rng.randint(0, 2))]
    return network(nodes, edges)


def _dealt(rng: random.Random, prefix: str, n: int) -> list[str]:
    """The ids ``prefix`` + two or more digits, for ``n`` >= 2, in a random order that is not their sorted order."""
    ids = rng.sample([f"{prefix}{i:02d}" for i in range(n)], n)
    if ids == sorted(ids):
        ids[:2] = ids[1::-1]
    return ids


def networks(max_nodes: int = 6):
    """The hypothesis strategy of :func:`planted_network`: one drawn seed per network."""
    return st.integers(0, 2**32 - 1).map(lambda seed: planted_network(seed, max_nodes))


# Explicit examples at the small end of the domain: no edges, and a coarsest partition of one block.
LONE_NODE = network([("a", R1)], [])
R1_TRIANGLE = network([("a", R1), ("b", R1), ("c", R1)], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "a")])


# --- seeded cases ----------------------------------------------------------------
# A property over networks draws one case from ``cases()``: a ``Seeded`` of one seed,
# which makes every other draw (its network, field, states, counts and labels), so the
# seed a failing property prints rebuilds its case, and each example draws a new network.
# In a menu, a component sums one "root" term, one "group" term per input group,
# 1 to "most" of "terms" and, with "grammar", one expression of that depth over the
# whole grammar; a field's expression controls may all start component 0 with one of
# "faults".  Templates are ``str.format`` strings (see ``Seeded._filled``).

MILD = {
    "root": ("-x[{i}]", "0.5 * x[{i}]^2", "cos(x[{i}])"),
    "group": (
        "sum(u in inputs[{g}]) {{ sin(u[{j}] - x[{i}]) }}",
        "sum(u in inputs[{g}]) {{ u[{j}] * 1000.0 + tanh(u[0]) }}",
        "sum(u in inputs[{g}]) {{ sum(v in inputs[{g}]) {{ u[{j}] * v[0] - v[{j}] }} }}",
        "mean(u in inputs[{g}]) {{ u[{j}] }}",
    ),
}
# every function, ^ with negative exponents and overflow, mean, nested aggregators and
# constants that overflow; a drawn control may fault
GRAMMAR = {"grammar": 4}
# coordinate folds, aggregates with another body, and nested ones; the last term's two
# NaNs, from u * 1e308 * 10.0 at u >= 0.2 and at u <= -0.2, differ in sign, so their sum
# shows the order in which a group of two inputs is added
FOLDS = {
    "terms": (
        "{op}(u in inputs[{g}]) {{ u[{j}] }}",
        "{op}(u in inputs[{g}]) {{ u[{j}] * x[0] }}",
        "{op}(u in inputs[{g}]) {{ {op}(v in inputs[{h}]) {{ v[{k}] }} }}",
        "{op}(u in inputs[{g}]) {{ {op}(v in inputs[{h}]) {{ u[{j}] }} }}",
        "sum(u in inputs[{g}]) {{ sum(v in inputs[{h}]) {{ u[{j}] - v[{k}] }} }}",
        "sum(u in inputs[{g}]) {{ -(u[{j}] * 1e308 * 10.0 - 1e308 * 10.0) + (u[{j}] * 1e308 * 10.0 + 1e308 * 10.0) }}",
    ),
    "most": 3,
}
# folds and ordered aggregates beside root terms that overflow, and a shared fault term;
# no other term faults on any input (tanh, not sin, of a difference that may overflow),
# so a field's first fault has one message whichever member meets it first
BOUND = {
    "root": ("-x[{i}]", "1e300 * x[{i}]", "x[{i}] * x[{i}]"),
    "group": (
        "sum(u in inputs[{g}]) {{ u[{j}] }}",
        "mean(u in inputs[{g}]) {{ u[{j}] }}",
        "sum(u in inputs[{g}]) {{ u[{j}] * x[{i}] }}",
        "sum(u in inputs[{g}]) {{ tanh(u[{j}] - x[{i}]) }}",
        "mean(u in inputs[{g}]) {{ sum(v in inputs[{g}]) {{ u[{j}] - v[0] }} }}",
    ),
    "faults": ("log(x[0] + 0.5)", "sqrt(x[0] + 0.5)"),
}

# Value pools: a tuple of numbers, then spreads s, each drawn as often as the numbers:
# a uniform float in [-s, s], or any finite float where s is inf.  The numbers hold the
# boundary floats: the largest finite, the smallest normal and the smallest subnormal.
BIG, TINY, SUB = sys.float_info.max, sys.float_info.min, 5e-324
VALUES = ((0.0, -0.0, 0.5, -0.5, 1.0, -3.0, 700.0, BIG, -BIG, TINY, -SUB), 4.0)
FOLD_VALUES = ((0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, math.inf, -math.inf, BIG, -BIG, TINY, -SUB), 4.0)
WIDE = ((0.0, -0.0, SUB, -SUB, TINY, math.pi, -math.pi / 2, 1e22, 2.0**1023, BIG, -BIG), math.inf)


def cases():
    """The hypothesis strategy of seeded cases: one drawn seed each, which the case prints as ``Seeded(seed)``."""
    return st.integers(0, 2**32 - 1).map(Seeded)


def raw_control(sig, net: Network) -> RawControl:
    """A raw control that reads the order and the ids of its inputs, each id by its position in the edge list of
    ``net``, and each coordinate differently."""
    number = {e.edge_id: k for k, e in enumerate(net.graph.edges)}

    def fn(x, ins):
        weighed = ((k + 1.0) * (float(state @ np.arange(1.0, state.size + 1)) + number[eid]) for k, (eid, state) in enumerate(ins))
        return -x + sum(weighed)

    return RawControl(sig, fn)


class Seeded(random.Random):
    """The draws of one seeded case: ``Seeded(seed)`` makes the same draws for the same calls."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.initial = seed

    def __repr__(self) -> str:
        return f"Seeded({self.initial})"

    def network(self, max_nodes: int = 6) -> Network:
        """A :func:`planted_network` of a drawn seed."""
        return planted_network(self.getrandbits(32), max_nodes)

    def rng(self) -> np.random.Generator:
        """A numpy generator of a drawn seed, for the library's own samplers."""
        return np.random.default_rng(self.getrandbits(32))

    def values(self, pool, *shape: int) -> np.ndarray:
        """An array of ``shape`` drawn from ``pool`` (see VALUES)."""
        numbers, *spreads = pool

        def one():
            s = self.choice((None, *spreads))
            if s is None:
                return self.choice(numbers)
            return self.uniform(-s, s) if s < math.inf else math.ldexp(self.uniform(-1.0, 1.0), self.randint(-1074, 1023))

        return np.array([one() for _ in range(math.prod(shape))]).reshape(shape)

    def expression(self, sig, menu: dict = MILD, fault: str | None = None) -> ControlExpr:
        """An expression control of terms from ``menu``, component 0 starting with ``fault``."""
        components = []
        for i in range(sig.root.dim):
            terms = [fault] if fault and i == 0 else []
            if "root" in menu:
                terms.append(self._filled(menu["root"], sig, i))
            if "group" in menu:
                terms += [self._filled(menu["group"], sig, i, g=name) for name in sig.groups()]
            if "terms" in menu:
                terms += [self._filled(menu["terms"], sig, i) for _ in range(self.randint(1, menu.get("most", 1)))]
            if "grammar" in menu:
                terms.append(self.grammar(sig, menu["grammar"]))
            components.append(" + ".join(terms))
        return parse_control(components, sig)

    def _filled(self, templates, sig, i: int, g: str | None = None) -> str:
        """One of ``templates`` with {i} the component's root coordinate, {g} and {h} input groups (``g``
        if given), {j} and {k} coordinates of them and {op} an aggregator, each drawn once."""
        groups = sig.groups()
        drawn = {"i": i, "op": self.choice(("sum", "mean"))}
        if groups:
            drawn["g"], drawn["h"] = g or self.choice(sorted(groups)), self.choice(sorted(groups))
            drawn["j"], drawn["k"] = self.randrange(groups[drawn["g"]][0]), self.randrange(groups[drawn["h"]][0])
        return self.choice(templates).format(**drawn)

    def grammar(self, sig, depth: int, scope: tuple = ()) -> str:
        """One expression over the whole grammar, of depth at most ``depth``, reading the aggregator
        variables of ``scope`` ((variable, group) pairs); it may fault."""
        groups = sig.groups()
        kinds = ["num", "root"] + (["var"] if scope else [])
        if depth:
            kinds += ["neg", "func", "binop", "pow"] + (["agg"] if groups and len(scope) < 2 else [])
        kind = self.choice(kinds)
        if kind == "num":
            return self.choice(("0.0", "0.5", "2.0", "1000.0", "1e999"))
        if kind == "root":
            return f"x[{self.randrange(sig.root.dim)}]"
        if kind == "var":
            var, group = self.choice(scope)
            return f"{var}[{self.randrange(groups[group][0])}]"
        if kind == "agg":
            group, var = self.choice(sorted(groups)), "uv"[len(scope)]
            body = self.grammar(sig, depth - 1, scope + ((var, group),))
            return f"{self.choice(('sum', 'mean'))}({var} in inputs[{group}]) {{ {body} }}"
        sub = self.grammar(sig, depth - 1, scope)
        if kind == "neg":
            return f"-({sub})"
        if kind == "func":
            return f"{self.choice(sorted(FUNCTIONS))}({sub})"
        if kind == "pow":
            return f"({sub})^{self.choice((-3, -2, -1, 0, 1, 2, 3, 400, 401))}"
        return f"({sub}) {self.choice('+-*/')} ({self.grammar(sig, depth - 1, scope)})"

    def field(self, net: Network, menu: dict = MILD) -> VirtualVectorField:
        """Per class an expression control from ``menu`` or a :func:`raw_control`, as often each; in a
        per-class field or, as often, in a per-node field of each node's control :meth:`moved`.  Every
        expression control starts component 0 with the same one of the menu's faults, or with none."""
        fault = self.choice((None, *menu.get("faults", ())))
        classes = {}
        for rep in symmetry_groupoid(net).representatives():
            sig = signature_at(net, rep)
            classes[rep] = self.expression(sig, menu, fault) if self.random() < 0.5 else raw_control(sig, net)
        w = per_class_field(net, classes)
        if self.random() < 0.5:
            return w
        return per_node_field(net, {a: self.moved(net, a, w.control_at(a)) for a in net.graph.nodes})

    def moved(self, net: Network, a: str, ctrl):
        """``ctrl`` moved 0 to 2 times along random automorphisms of ``a``'s input tree."""
        count = iso_count(net, a, a)
        for _ in range(self.randint(0, 2)):
            ctrl = ctrl_transport(enumerate_tree_isos(net, a, a, cap=math.inf)[self.randrange(count)], ctrl)
        return ctrl


def random_injective_fibration(rng: random.Random, base_max_nodes: int = 4,
                               base_max_edges: int = 5, extra_max: int = 4) -> NetworkMap:
    """Inclusion of a random graph into an extension where new edges only feed new nodes."""
    dom = random_network(rng, base_max_nodes, base_max_edges)
    phase = dict(dom.phase)
    extra = [f"x{i}" for i in range(rng.randint(1, extra_max))]
    for a in extra:
        phase[a] = rng.choice(SPACES)
    all_nodes = list(dom.graph.nodes) + extra
    edges = [(e.edge_id, e.src, e.tgt) for e in dom.graph.edges]
    for j in range(rng.randint(0, 6)):
        edges.append((f"xe{j}", rng.choice(all_nodes), rng.choice(extra)))
    cod = network([(a, phase[a]) for a in all_nodes], edges)
    return NetworkMap(
        dom, cod,
        {a: a for a in dom.graph.nodes},
        {e.edge_id: e.edge_id for e in dom.graph.edges},
    )


def random_injection(rng: random.Random, feedback: bool = False) -> NetworkMap:
    """:func:`random_injective_fibration`, or with ``feedback`` the same inclusion plus one edge
    ``fb`` from a node outside the image into the image, which has no lift, so no fibration."""
    m = random_injective_fibration(rng)
    if not feedback:
        return m
    edges = [(e.edge_id, e.src, e.tgt) for e in m.codomain.graph.edges]
    outside = [a for a in m.codomain.graph.nodes if a not in m.node_map]
    edges.append(("fb", rng.choice(outside), rng.choice(m.domain.graph.nodes)))
    cod = network(list(m.codomain.phase.items()), edges)
    return NetworkMap(m.domain, cod, m.node_map, m.edge_map)


# --- independent oracles -------------------------------------------------------


def naive_is_fibration(m: NetworkMap) -> bool:
    """Explicit lift search straight from the unique-lift definition."""
    for a in m.domain.graph.nodes:
        for e_prime in m.codomain.graph.edges:
            if e_prime.tgt != m.node_map[a]:
                continue
            lifts = [
                e for e in m.domain.graph.edges
                if e.tgt == a and m.edge_map[e.edge_id] == e_prime.edge_id
            ]
            if len(lifts) != 1:
                return False
    return True


def naive_tree_isos(net: Network, a: str, b: str) -> list[dict[str, str]]:
    """All leaf bijections preserving types, found by filtering every permutation."""
    ta, tb = input_tree(net, a), input_tree(net, b)
    if ta.root_type != tb.root_type or len(ta.leaves) != len(tb.leaves):
        return []
    type_of_a = {l.edge_id: l.leaf_type for l in ta.leaves}
    type_of_b = {l.edge_id: l.leaf_type for l in tb.leaves}
    ids_a = sorted(type_of_a)
    out = []
    for perm in itertools.permutations(sorted(type_of_b)):
        if all(type_of_a[x] == type_of_b[y] for x, y in zip(ids_a, perm)):
            out.append(dict(zip(ids_a, perm)))
    return out


def set_partitions(items: list) -> list[list[list]]:
    """All set partitions of ``items``."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [[first] + sub[i]] + sub[i + 1:])
        out.append([[first]] + sub)
    return out


def all_phase_homogeneous_partitions(net: Network) -> list[Partition]:
    """Every partition refining the phase-space classes."""
    by_space: dict[str, list[str]] = {}
    for a in sorted(net.graph.nodes):
        by_space.setdefault(net.space(a).name, []).append(a)
    per_class = [set_partitions(nodes) for nodes in by_space.values()]
    out = []
    for combo in itertools.product(*per_class):
        blocks = [block for part in combo for block in part]
        out.append(Partition(blocks))
    return out


def oracle_balanced(net: Network, p: Partition) -> bool:
    """Balance via explicit matching of in-edges against the block's first member."""
    block_id = {a: b[0] for b in p.blocks for a in b}
    for block in p.blocks:
        ref = [block_id[e.src] for e in net.in_edges(block[0])]
        for a in block[1:]:
            own = [block_id[e.src] for e in net.in_edges(a)]
            if sorted(own) != sorted(ref):
                return False
    return True


# --- reference structure layer ---------------------------------------------------
# The scan-based adjacency, the separate in-edge, edge-id and validation scans,
# the per-node balance signatures and the nested-tuple refinement that the
# graph's one index and integer colour refinement replaced, kept as
# differential oracles.


class ScanGraph(Graph):
    """A graph that finds in-edges by scanning every edge, with no index."""

    def in_edges(self, node):
        return tuple(sorted((e for e in self.edges if e.tgt == node), key=lambda e: e.edge_id))


def scan_network(net: Network) -> Network:
    return Network(ScanGraph(net.graph.nodes, net.graph.edges), dict(net.phase))


def reference_adjacency(graph: Graph) -> tuple[dict, tuple]:
    """The in-edges of each edge target, node or not, sorted by edge id (ties in listing order), and the
    distinct nodes in listing order."""
    acc: dict = {}
    for e in graph.edges:
        acc.setdefault(e.tgt, []).append(e)
    in_edges = {a: tuple(sorted(edges, key=lambda e: e.edge_id)) for a, edges in acc.items()}
    return in_edges, tuple(dict.fromkeys(graph.nodes))


def reference_edge_index(graph: Graph) -> dict:
    """The last edge listed under each edge id."""
    return {e.edge_id: e for e in graph.edges}


def reference_validate_network(net: Network) -> list[Violation]:
    """Every structural violation, from scans of the nodes, the edges and the phase map."""
    out: list[Violation] = []
    node_set = frozenset(net.graph.nodes)
    seen_nodes: set[str] = set()
    for a in net.graph.nodes:
        if a in seen_nodes:
            out.append(Violation("duplicate-node", a, f"node id {a!r} repeated"))
        seen_nodes.add(a)
    seen_edges: set[str] = set()
    for e in net.graph.edges:
        if e.edge_id in seen_edges:
            out.append(Violation("duplicate-edge", e.edge_id, f"edge id {e.edge_id!r} repeated"))
        seen_edges.add(e.edge_id)
        if e.src not in node_set:
            out.append(Violation("dangling-src", e.edge_id, f"edge {e.edge_id!r} has unknown source {e.src!r}"))
        if e.tgt not in node_set:
            out.append(Violation("dangling-tgt", e.edge_id, f"edge {e.edge_id!r} has unknown target {e.tgt!r}"))
    for a in net.graph.nodes:
        if a not in net.phase:
            out.append(Violation("missing-phase", a, f"node {a!r} has no phase space"))
    for a in net.phase:
        if a not in node_set:
            out.append(Violation("extra-phase", a, f"phase space assigned to unknown node {a!r}"))
    return out


def reference_check_network_map(m: NetworkMap) -> list[Violation]:
    """Every image, homomorphism and phase violation, from scans of the nodes and of the ``Edge`` objects."""
    out: list[Violation] = []
    cod_nodes = frozenset(m.codomain.graph.nodes)
    cod_edges = reference_edge_index(m.codomain.graph)
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
    node_map = m.node_map
    for e in m.domain.graph.edges:
        img = cod_edges[m.edge_map[e.edge_id]]
        if node_map[e.src] != img.src or node_map[e.tgt] != img.tgt:
            out.append(
                Violation(
                    "homomorphism",
                    e.edge_id,
                    f"edge {e.edge_id!r}: endpoints map to ({node_map[e.src]!r},{node_map[e.tgt]!r}) "
                    f"but its image {img.edge_id!r} runs ({img.src!r},{img.tgt!r})",
                )
            )
    for a in m.domain.graph.nodes:
        space, image = m.domain.phase[a], m.codomain.phase[node_map[a]]
        if image != space:
            out.append(
                Violation("phase", a, f"node {a!r}: domain space {space.name} != codomain space {image.name} at {node_map[a]!r}")
            )
    return out


def reference_lift_failures(m: NetworkMap) -> list[LiftFailure]:
    """Per domain node in id order, each codomain in-edge of its image whose preimages among the node's
    in-edges (``Edge`` objects, found by scanning) are not exactly one."""
    failures = []
    for a in sorted(m.domain.graph.nodes):
        lifts: dict[str, int] = {}
        for e in m.domain.graph.edges:
            if e.tgt == a:
                lifts[m.edge_map[e.edge_id]] = lifts.get(m.edge_map[e.edge_id], 0) + 1
        for e in sorted((e for e in m.codomain.graph.edges if e.tgt == m.node_map[a]), key=lambda e: e.edge_id):
            if lifts.get(e.edge_id, 0) != 1:
                failures.append(LiftFailure(a, e.edge_id, lifts.get(e.edge_id, 0)))
    return failures


def scan_block_of(p: Partition, node: str) -> tuple:
    for b in p.blocks:
        if node in b:
            return b
    raise PreconditionError(f"node {node!r} not covered by the partition")


def reference_partition_blocks(blocks) -> tuple:
    """Blocks in canonical form by sorting alone, with no check for a repeated node."""
    materialized = [tuple(sorted(b)) for b in blocks]
    return tuple(sorted((b for b in materialized if b), key=lambda b: b[0]))


def reference_quotient_of(net: Network, p: Partition) -> tuple[Network, NetworkMap]:
    """Two-pass quotient construction: representative groups first, then every member."""
    idx = p.block_index()
    q_nodes = tuple(sorted(b[0] for b in p.blocks))
    q_edges = []
    rep_edge_groups = {}
    for b in p.blocks:
        rep = b[0]
        groups = {}
        for e in net.in_edges(rep):
            groups.setdefault(idx[e.src], []).append(e.edge_id)
            q_edges.append(Edge(f"{rep}:{e.edge_id}", idx[e.src], rep))
        rep_edge_groups[rep] = groups
    quotient = Network(
        Graph(q_nodes, tuple(sorted(q_edges, key=lambda e: e.edge_id))),
        {b[0]: net.space(b[0]) for b in p.blocks},
    )
    edge_map = {}
    for b in p.blocks:
        rep = b[0]
        for a in b:
            groups = {}
            for e in net.in_edges(a):
                groups.setdefault(idx[e.src], []).append(e.edge_id)
            for src_block, ids in groups.items():
                for own, reps in zip(ids, rep_edge_groups[rep][src_block]):
                    edge_map[own] = f"{rep}:{reps}"
    projection = NetworkMap(net, quotient, dict(idx), edge_map)
    assert check_fibration(projection).is_fibration
    return quotient, projection


def reference_balance_witness(net: Network, p: Partition) -> BalanceWitness | None:
    """Per-node signatures of sorted source blocks, each member against its block's first member.

    For phase-homogeneous partitions that list each node once.
    """
    idx = p.block_index()

    def signature(a):
        return tuple(sorted(idx[e.src] for e in net.in_edges(a)))

    for b in p.blocks:
        ref_sig = signature(b[0])
        for a in b[1:]:
            if signature(a) != ref_sig:
                return BalanceWitness(b[0], b[0], a)
    return None


def reference_coarsest_balanced(net: Network) -> tuple[Partition, Network, NetworkMap]:
    """Refinement whose block labels nest the previous round's signatures.

    Key size grows as (in-degree)^rounds, so keep inputs small.
    """
    block_of = {a: (net.space(a).name,) for a in net.graph.nodes}
    while True:
        sigs = {
            a: (block_of[a], tuple(sorted(block_of[e.src] for e in net.in_edges(a))))
            for a in net.graph.nodes
        }
        if len(set(sigs.values())) == len(set(block_of.values())):
            break
        block_of = sigs
    groups = {}
    for a, key in block_of.items():
        groups.setdefault(key, []).append(a)
    partition = Partition(groups.values())
    quotient, projection = reference_quotient_of(net, partition)
    return partition, quotient, projection


def doubled_edge_chain(n: int) -> Network:
    """n R1 nodes in a line, each consecutive pair joined by two parallel edges."""
    names = [f"c{i:03d}" for i in range(n)]
    edges = []
    for i in range(n - 1):
        edges.append((f"e{i:03d}a", names[i], names[i + 1]))
        edges.append((f"e{i:03d}b", names[i], names[i + 1]))
    return network([(a, R1) for a in names], edges)


# --- reference tokenizer ----------------------------------------------------------
# The character loop that the regex scan replaced, kept as a differential
# oracle: it yields (kind, text, (line, column)) triples ending with an "end"
# triple, or raises the same ExprSyntaxError.  Its str.isdigit/isalpha/isalnum
# tests agree with the scan's ASCII classes on ASCII text only.


def reference_tokenize(src: str) -> list[tuple]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        pos = (line, col)
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", pos) from None
            tokens.append(("num", text, pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], pos))
            col += j - i
            i = j
            continue
        if c in "+-*/^()[]{}":
            tokens.append(("op", c, pos))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", pos)
    tokens.append(("end", "", (line, col)))
    return tokens


# --- reference parser -------------------------------------------------------------
# The regex scan with one match object and one NamedTuple constructor per
# token, the recursive-descent parser that peeks and advances by method
# calls, and the stack walk that checked each component's height, kept as a
# differential oracle for ``parse_control``.

_REFERENCE_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<num>(?=\.?[0-9])[0-9.]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\]{}])"
    r"|(?P<newline>\n)"
    r"|(?P<bad>.)"
    r"|\Z)"
)


def reference_scan(src: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:  # the end of the source
            break
        text, start = m.group(kind), m.start(kind)
        pos = (line, start - line_start + 1)
        if kind == "newline":
            line, line_start = line + 1, start + 1
        elif kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", pos)
        else:
            if kind == "num":
                try:
                    float(text)
                except ValueError:
                    raise ExprSyntaxError(f"bad number literal {text!r}", pos) from None
            tokens.append(_Token(kind, text, pos))
    tokens.append(_Token("end", "", (line, len(src) - line_start + 1)))
    return tokens


class _ReferenceParser:
    def __init__(self, src, signature):
        self.tokens = reference_scan(src)
        self.k = 0
        self.signature = signature
        self.groups = signature.groups()
        self.scope = []  # (var, group name)
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def descend(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", self.peek().pos)

    def expr(self):
        self.descend()
        left = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance()
            right = self.term()
            left = BinOp(op.text, left, right, pos=op.pos)
        self.depth -= 1
        return left

    def term(self):
        left = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance()
            right = self.factor()
            left = BinOp(op.text, left, right, pos=op.pos)
        return left

    def factor(self):
        tok = self.peek()
        if tok.text == "-":
            self.advance()
            self.descend()
            arg = self.factor()
            self.depth -= 1
            return Neg(arg, pos=tok.pos)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            op = self.advance()
            sign = 1
            if self.peek().text == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
            self.advance()
            return Pow(base, sign * int(tok.text), pos=op.pos)
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), pos=tok.pos)
        if tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            if tok.text in ("sum", "mean"):
                return self.aggregate()
            if tok.text in FUNCTIONS:
                self.advance()
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(tok.text, arg, pos=tok.pos)
            return self.reference()
        raise ExprSyntaxError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos)

    def reference(self):
        name_tok = self.advance()
        name = name_tok.text
        self.expect("[")
        idx_tok = self.peek()
        if idx_tok.kind != "num" or not idx_tok.text.isdigit():
            raise ExprSyntaxError("index must be a non-negative integer", idx_tok.pos)
        self.advance()
        index = int(idx_tok.text)
        self.expect("]")
        if name == "x":
            if index >= self.signature.root.dim:
                raise ExprSyntaxError(
                    f"x[{index}] out of range for root space {self.signature.root.name}", name_tok.pos
                )
            return RootRef(index, pos=name_tok.pos)
        for var, group in reversed(self.scope):
            if var == name:
                dim = self.groups[group][0]
                if index >= dim:
                    raise ExprSyntaxError(
                        f"{name}[{index}] out of range for input type {group}", name_tok.pos
                    )
                return InputRef(name, index, pos=name_tok.pos)
        raise ExprSyntaxError("input reference outside aggregator", name_tok.pos)

    def aggregate(self):
        op_tok = self.advance()
        self.expect("(")
        var_tok = self.peek()
        if var_tok.kind != "ident" or var_tok.text in KEYWORDS or var_tok.text == "x" or var_tok.text in FUNCTIONS:
            raise ExprSyntaxError("expected a fresh aggregator variable name", var_tok.pos)
        self.advance()
        self.expect("in")
        self.expect("inputs")
        self.expect("[")
        group_tok = self.peek()
        if group_tok.kind not in ("ident", "num"):
            raise ExprSyntaxError("expected an input type name", group_tok.pos)
        self.advance()
        group = group_tok.text
        if group not in self.groups:
            known = ", ".join(self.groups) or "none"
            raise ExprSyntaxError(
                f"type name mismatch: no input group {group!r} (signature has: {known})", group_tok.pos
            )
        self.expect("]")
        self.expect(")")
        self.expect("{")
        runs = math.prod(self.groups[g][1] for _, g in self.scope) * self.groups[group][1]
        if runs > MAX_BODY_RUNS:
            raise ExprSyntaxError(
                f"aggregator body would run {runs} times per call, more than {MAX_BODY_RUNS}", op_tok.pos
            )
        self.scope.append((var_tok.text, group))
        try:
            body = self.expr()
        finally:
            self.scope.pop()
        self.expect("}")
        return Aggregate(op_tok.text, var_tok.text, group, body, pos=op_tok.pos)


def reference_check_height(e) -> None:
    """The stack walk: the first node popped below MAX_DEPTH levels is the one named."""
    stack = [(e, 1)]
    while stack:
        node, height = stack.pop()
        if height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", node.pos)
        stack.extend((child, height + 1) for child in _children(node))


def reference_parse_control(sources, signature) -> ControlExpr:
    """Every component parsed in turn, then the component count checked, then each height."""
    if isinstance(sources, str):
        sources = [sources]
    components = tuple(_ReferenceParser(s, signature).parse() for s in sources)
    if len(components) == signature.root.dim:  # else ControlExpr reports the count
        for c in components:
            reference_check_height(c)
    return ControlExpr(signature, components)


def ast_positions(e) -> list[tuple]:
    """Every node's type and position, in preorder; AST equality ignores positions."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append((type(node).__name__, node.pos))
        stack.extend(reversed(_children(node)))
    return out


# --- reference evaluator ----------------------------------------------------------
# The per-call path that bound controls replaced: every call re-checks its
# inputs, re-buckets them by type and re-sorts a transported control's ids;
# the field perturbs every coordinate outside the image.  Expressions are
# evaluated by the scalar tree walk that the compiled batch kernels replaced,
# one node and one float at a time.  Kept as differential oracles.


def reference_eval(e, root, buckets, env) -> float:
    """The scalar tree walk: one member, Python floats, ``math.*``."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, RootRef):
        return float(root[e.index])
    if isinstance(e, InputRef):
        return float(env[e.var][e.index])
    if isinstance(e, Neg):
        return -reference_eval(e.arg, root, buckets, env)
    if isinstance(e, BinOp):
        a = reference_eval(e.left, root, buckets, env)
        b = reference_eval(e.right, root, buckets, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        try:
            return a / b
        except ZeroDivisionError:
            raise EvaluationFault(f"division by zero at line {e.pos[0]}, column {e.pos[1]}") from None
    if isinstance(e, Pow):
        base = reference_eval(e.base, root, buckets, env)
        try:
            return float(base**e.exponent)
        except ZeroDivisionError:
            raise EvaluationFault(f"zero raised to a negative power at line {e.pos[0]}, column {e.pos[1]}") from None
        except OverflowError:
            sign = -1.0 if (base < 0 and e.exponent % 2 == 1) else 1.0
            return sign * math.inf
    if isinstance(e, Call):
        arg = reference_eval(e.arg, root, buckets, env)
        try:
            return float(FUNCTIONS[e.func](arg))
        except ValueError as exc:
            raise EvaluationFault(f"{e.func} fault at line {e.pos[0]}, column {e.pos[1]}: {exc}") from None
        except OverflowError:
            return math.inf
    if isinstance(e, Aggregate):
        values = buckets[e.group]
        if e.op == "mean" and not values:
            raise EvaluationFault(f"mean of empty group at line {e.pos[0]}, column {e.pos[1]}")
        had, saved = e.var in env, env.get(e.var)
        total = 0.0
        for v in values:
            env[e.var] = v
            total += reference_eval(e.body, root, buckets, env)
        if had:
            env[e.var] = saved
        else:
            env.pop(e.var, None)
        if e.op == "mean":
            total /= len(values)
        return total
    raise TypeError(f"not an expression node: {e!r}")


def reference_bind(ctrl, types):
    """The bound kernel before compilation: sort each group by value, then walk the tree."""
    positions = {name: [] for name in ctrl.signature.groups()}
    for i, t in enumerate(types):
        name = t if isinstance(t, str) else t.name
        if name not in positions:
            raise SignatureMismatch(f"input of type {name} not in signature groups {sorted(positions)}")
        positions[name].append(i)

    def kernel(root, states):
        buckets = {name: sorted([states[i] for i in pos], key=np.ndarray.tolist) for name, pos in positions.items()}
        return np.array([reference_eval(c, root, buckets, {}) for c in ctrl.components])

    return kernel


def reference_group_inputs(inputs, known_groups):
    """Bucket input states by type name; canonical (sorted-by-value) order per bucket."""
    buckets = {name: [] for name in known_groups}
    for t, state in inputs:
        name = t if isinstance(t, str) else t.name
        if name not in buckets:
            raise SignatureMismatch(f"input of type {name} not in signature groups {sorted(buckets)}")
        vec = np.asarray(state, dtype=float).reshape(-1)
        if vec.shape[0] != known_groups[name][0]:
            raise SignatureMismatch(
                f"input of type {name} has dimension {vec.shape[0]}, expected {known_groups[name][0]}"
            )
        buckets[name].append(vec)
    for name in buckets:
        buckets[name].sort(key=lambda v: tuple(v))
    return buckets


def reference_evaluate(ctrl, root, inputs):
    root = np.asarray(root, dtype=float).reshape(-1)
    if root.shape[0] != ctrl.signature.root.dim:
        raise SignatureMismatch(
            f"root state has dimension {root.shape[0]}, expected {ctrl.signature.root.dim}"
        )
    buckets = reference_group_inputs(inputs, ctrl.signature.groups())
    return np.array([reference_eval(c, root, buckets, {}) for c in ctrl.components])


def reference_eval_control(ctrl, root, inputs):
    """Dispatch on the control kind at every call; inputs are (edge id, space, state)."""
    if isinstance(ctrl, ControlExpr):
        return reference_evaluate(ctrl, root, [(space, state) for _, space, state in inputs])
    if isinstance(ctrl, RawControl):
        root = np.asarray(root, dtype=float).reshape(-1)
        if root.shape[0] != ctrl.signature.root.dim:
            raise SignatureMismatch(
                f"root state has dimension {root.shape[0]}, expected {ctrl.signature.root.dim}"
            )
        pairs = tuple((eid, np.asarray(state, dtype=float).reshape(-1)) for eid, _, state in inputs)
        if ctrl.reads is not None:  # a moved control: each label reads the state at its edge id
            at = dict(pairs)
            pairs = tuple((label, at[eid]) for label, eid in ctrl.reads)
        out = np.asarray(ctrl.fn(root, pairs), dtype=float).reshape(-1)
        if out.shape[0] != ctrl.signature.root.dim:
            raise SignatureMismatch("raw control returned a tangent vector of the wrong dimension")
        return out
    raise TypeError(f"not a control: {ctrl!r}")


def reference_transport(iso: TreeIso, raw: RawControl) -> RawControl:
    """``raw`` moved along ``iso``, relabelled by hand at every call.

    For each of the base's leaf ids, in sorted order, the moved control passes
    the state it finds at that id's image under ``iso.leaf_bijection``.
    """

    def fn(root, pairs):
        by_id = dict(pairs)
        relabelled = [(base_id, by_id[iso.leaf_bijection[base_id]]) for base_id in sorted(iso.leaf_bijection)]
        return raw.fn(root, tuple(relabelled))

    return RawControl(raw.signature, fn)


def reference_check_invariance(ctrl, a, net: Network, trials: int = 200, seed: int = 0) -> float:
    """One trial at a time: draw the root and each leaf, permute each type group, call the control twice."""
    tree = input_tree(net, a)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        root = sample_space(tree.root_type, rng)
        values = {l.edge_id: sample_space(l.leaf_type, rng) for l in tree.leaves}
        sigma = {}
        for leaves in tree.type_groups().values():
            ids = [l.edge_id for l in leaves]
            sigma.update(zip(ids, map(str, rng.permutation(ids))))
        before = reference_eval_control(ctrl, root, [(l.edge_id, l.leaf_type, values[l.edge_id]) for l in tree.leaves])
        after = reference_eval_control(
            ctrl, root, [(l.edge_id, l.leaf_type, values[sigma[l.edge_id]]) for l in tree.leaves]
        )
        worst = np.maximum(worst, np.abs(before - after).max())  # unlike max(), propagates NaN
    return float(worst)


def reference_vanishes_on_samples(ctrl, net: Network, a, samples: int, rng, tol: float) -> bool:
    """One sample at a time, stopping at the first that does not vanish."""
    tree = input_tree(net, a)
    for _ in range(samples):
        root = sample_space(tree.root_type, rng)
        inputs = [(l.edge_id, l.leaf_type, sample_space(l.leaf_type, rng)) for l in tree.leaves]
        if not np.abs(reference_eval_control(ctrl, root, inputs)).max() <= tol:  # NaN does not vanish
            return False
    return True


def reference_field(net: Network, w):
    """The interconnected field, evaluating every node through the per-call path.

    It carries the ``index`` that ``integrate`` reads, so it can be integrated.
    """
    index = total_phase_space(net)
    bindings = [
        (
            index.slice_of(a),
            w.control_at(a),
            [(e.edge_id, net.space(e.src), index.slice_of(e.src)) for e in net.in_edges(a)],
        )
        for a in index.order
    ]

    def field(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(index.total_dim)
        for sl, ctrl, in_slices in bindings:
            inputs = [(eid, space, x[ssl]) for eid, space, ssl in in_slices]
            out[sl] = reference_eval_control(ctrl, x[sl], inputs)
        return out

    field.index = index
    return field


def reference_units(net: Network, mode: str, controls):
    """The unit-building loop that per-class runs and the single gather replaced.

    Takes a raw (mode, controls) pair that no field has checked.  Node by node
    in layout order: its control, its own (per node) or its class
    representative's (per class), checked against the node's root space,
    each in-edge's type and the input count of each group, and a moved raw
    control also against the in-edge ids of the node it is placed at (its
    own, or its representative), each refusal naming the node; nodes that
    share one expression control and one count of inputs per group share a
    unit, and so do the nodes of one class, whatever its control; each unit
    then makes one gather for its roots and one per group, and binds its
    control to its first node's slots, a class's at its representative.
    Gives (root gather, kernel, input gathers) per unit, in the order of each
    unit's first node, as ``GlobalField._units`` orders its units.
    """
    index = total_phase_space(net)
    name = {a: space.name for a, space in net.phase.items()}
    groupoid = symmetry_groupoid(net)
    units: dict = {}
    for a in index.order:
        owner = a if mode == "per_node" else groupoid.block_id(a)
        ctrl = controls[owner]
        if ctrl.signature.root != index.spaces[a]:
            raise SignatureMismatch(f"control for root space {ctrl.signature.root.name} at node {a!r}")
        edges = net.in_edges(a)
        group = ctrl.signature.group_index
        sources = [[] for _ in group]
        for e in edges:
            g = group.get(name[e.src])
            if g is None:
                raise SignatureMismatch(
                    f"input of type {name[e.src]} not in signature groups {sorted(group)} at node {a!r}"
                )
            sources[g].append(e.src)
        counts = tuple(map(len, sources))
        if counts != tuple(count for _, count in ctrl.signature.groups().values()):
            raise SignatureMismatch(f"{counts} inputs per signature group at node {a!r}")
        placed = {e.edge_id for e in net.in_edges(owner)}  # a class's control is placed at its representative
        if isinstance(ctrl, RawControl) and ctrl.reads is not None and {eid for _, eid in ctrl.reads} != placed:
            raise SignatureMismatch(f"moved control reads other edge ids than the in-edges {sorted(placed)} at node {a!r}")
        key = (id(ctrl), counts) if isinstance(ctrl, ControlExpr) else owner
        slots = [(e.edge_id, net.space(e.src)) for e in edges]
        unit = units.get(key)
        if unit is None:
            unit = units[key] = (ctrl, slots, [], [[] for _ in group])
        unit[2].append(a)
        for acc, src in zip(unit[3], sources):
            acc.extend(src)
    out = []
    for ctrl, slots, roots, sources in units.values():
        m = len(roots)
        root_gather = index.gather(roots).reshape(m, ctrl.signature.root.dim)
        input_gathers = [
            index.gather(src).reshape(m, len(src) // m, dim)
            for src, (dim, _) in zip(sources, ctrl.signature.groups().values())
        ]
        out.append((root_gather, bind_control(ctrl, slots), input_gathers))
    return out


# --- reference flat-state layout --------------------------------------------------
# The per-node slice loops that StateIndex gathers replaced, kept as
# differential oracles.  Their running maxima skip NaN, as the old code did, so
# compare them on finite values only.


def reference_states(index, x):
    """``StateIndex.states`` without its float64 shortcut: ``np.asarray`` first, then the shape test."""
    x = np.asarray(x, dtype=float)
    n = index.total_dim
    if x.shape[-1:] != (n,) or x.ndim > 2:
        raise PreconditionError(f"state has shape {x.shape}, expected ({n},) or (samples, {n})")
    return x


def reference_circle_mask(index):
    mask = np.zeros(index.total_dim, dtype=bool)
    for a in index.order:
        if index.spaces[a].is_circle:
            mask[index.slice_of(a)] = True
    return mask


def reference_phase_space_map(nmap: NetworkMap):
    """Slice copy of each domain node's image state."""
    dom, cod = total_phase_space(nmap.domain), total_phase_space(nmap.codomain)
    pairs = [(dom.slice_of(a), cod.slice_of(nmap.node_map[a])) for a in dom.order]

    def apply(x_codomain):
        out = np.empty(dom.total_dim)
        for dst, src in pairs:
            out[dst] = x_codomain[src]
        return out

    return apply


def reference_circle_distance(a: float, b: float) -> float:
    d = float(np.mod(a - b, TWO_PI))
    return min(d, TWO_PI - d)


def reference_coordinate_distance(x, y, index) -> float:
    worst = 0.0
    for a in index.order:
        sl = index.slice_of(a)
        if index.spaces[a].is_circle:
            worst = max(worst, reference_circle_distance(float(x[sl][0]), float(y[sl][0])))
        else:
            worst = max(worst, float(np.abs(x[sl] - y[sl]).max()))
    return worst


def reference_violation(pd, x) -> float:
    """Each block member against the block's least member, slice by slice."""
    worst = 0.0
    for block in pd.partition.blocks:
        ref = block[0]
        ref_state = x[pd.index.slice_of(ref)]
        is_circle = pd.index.spaces[ref].is_circle
        for a in block[1:]:
            other = x[pd.index.slice_of(a)]
            if is_circle:
                worst = max(worst, reference_circle_distance(float(ref_state[0]), float(other[0])))
            else:
                worst = max(worst, float(np.abs(ref_state - other).max()))
    return worst


def reference_sample_state(index, rng):
    x = np.empty(index.total_dim)
    for a in index.order:
        x[index.slice_of(a)] = sample_space(index.spaces[a], rng)
    return x


def expected_dependencies(net: Network) -> dict[str, set[str]]:
    """Structural dependencies: a node and the sources of its in-edges."""
    return {a: {a} | {e.src for e in net.in_edges(a)} for a in net.graph.nodes}


def reference_dependency_matrix(field, x0, step: float = 1e-6, tol: float = 1e-8):
    """Which nodes each component reacts to: central differences along every
    coordinate, compared node slice by node slice; NaN counts as a dependency."""
    index = field.index
    deps = {a: set() for a in index.order}
    for c in index.order:
        sl_c = index.slice_of(c)
        for j in range(sl_c.start, sl_c.stop):
            plus, minus = x0.copy(), x0.copy()
            plus[j] += step
            minus[j] -= step
            with np.errstate(all="ignore"):  # as the field's callers set it
                up, down = field(plus), field(minus)
            diff = (up - down) / (2.0 * step)
            for a in index.order:
                if not np.abs(diff[index.slice_of(a)]).max() <= tol:
                    deps[a].add(c)
    return deps


# --- reference build-once layer ----------------------------------------------------
# The eager groupoid, the materialised isomorphism list and the per-sample
# certification loops that witness-free construction and sample batches
# replaced, kept as differential oracles.


def reference_canonical_witness(net: Network, member: str, rep: str) -> TreeIso:
    """Positional matching of the sorted same-type leaf blocks of two input trees."""
    groups_m, groups_r = input_tree(net, member).type_groups(), input_tree(net, rep).type_groups()
    bij = {}
    for name in groups_m:
        for lm, lr in zip(groups_m[name], groups_r[name]):
            bij[lm.edge_id] = lr.edge_id
    return TreeIso(member, rep, bij)


def reference_symmetry_groupoid(net: Network):
    """Input trees and counters per node, every witness built up front.

    Returns (classes, aut_orders), each class a (representative, members,
    witnesses) triple.
    """
    trees = {a: input_tree(net, a) for a in net.graph.nodes}
    buckets = {}
    for a, t in trees.items():
        key = (t.root_type.name, tuple(sorted(t.type_counts().items())))
        buckets.setdefault(key, []).append(a)
    classes = []
    for key in sorted(buckets, key=lambda k: min(buckets[k])):
        members = tuple(sorted(buckets[key]))
        witnesses = {m: reference_canonical_witness(net, m, members[0]) for m in members}
        classes.append((members[0], members, witnesses))
    orders = {a: math.prod(math.factorial(k) for k in t.type_counts().values()) for a, t in trees.items()}
    return classes, orders


def reference_enumerate_tree_isos(net: Network, a: str, b: str, cap: int = 10**6) -> list:
    """Every typed isomorphism, materialised as a list in enumeration order."""
    ta, tb = input_tree(net, a), input_tree(net, b)
    if ta.root_type != tb.root_type or ta.type_counts() != tb.type_counts():
        return []
    count = math.prod(math.factorial(k) for k in ta.type_counts().values())
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    groups_a, groups_b = ta.type_groups(), tb.type_groups()
    ids_a = [l.edge_id for name in sorted(groups_a) for l in groups_a[name]]
    per_type = (itertools.permutations([l.edge_id for l in groups_b[name]]) for name in sorted(groups_a))
    return [
        TreeIso(a, b, dict(zip(ids_a, itertools.chain.from_iterable(combo))))
        for combo in itertools.product(*per_type)
    ]


def reference_integrate(field, x0, T: float, h: float) -> Trajectory:
    """The RK4 loop that built a fresh array for each stage and tested ``np.isfinite`` on each step."""
    if not (h > 0 and math.isfinite(h)):
        raise PreconditionError("step size must be positive and finite")
    if not (T >= 0 and math.isfinite(T)):
        raise PreconditionError("horizon must be non-negative and finite")
    x = field.index.state(x0)
    n = _step_count(T, h)
    states = np.empty((n + 1, x.shape[0]))
    states[0] = x
    for k in range(n):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise IntegrationFault(k + 1)
        states[k + 1] = x
    times = np.arange(n + 1) * h
    return Trajectory(times, states, h)


def reference_pointwise_residual(m: NetworkMap, w_prime, samples: int, seed: int) -> float:
    """One sampled state and one call of each side per sample."""
    p = phase_space_map(m)
    codomain_field, domain_field = interconnect(m.codomain, w_prime), interconnect(m.domain, pullback(m, w_prime))
    rng = np.random.default_rng(seed)
    worst = 0.0
    with np.errstate(all="ignore"):  # as the fields' callers set it
        for _ in range(samples):
            x_prime = reference_sample_state(p.codomain_index, rng)
            lhs = p.differential(codomain_field(x_prime))
            rhs = domain_field(p(x_prime))
            worst = np.maximum(worst, np.abs(lhs - rhs).max(initial=0.0))
    return float(worst)


def reference_flow_deviation(m: NetworkMap, w_prime, x0_prime: np.ndarray, T: float, h: float) -> float:
    """The two flows from ``x0_prime``, each side built for this check alone."""
    p = phase_space_map(m)
    traj_prime = integrate(interconnect(m.codomain, w_prime), x0_prime, T, h)
    traj = integrate(interconnect(m.domain, pullback(m, w_prime)), p(x0_prime), T, h)
    flow = np.max([coordinate_distance(p(xp), x, p.domain_index) for xp, x in zip(traj_prime.states, traj.states)])
    return float(flow)


def reference_certify_conjugacy(m: NetworkMap, w_prime, samples: int, seed: int, T: float, h: float):
    """The pointwise loop, then the two flows from a seeded codomain state, each side built per check."""
    pointwise = reference_pointwise_residual(m, w_prime, samples, seed)
    x0_prime = reference_sample_state(phase_space_map(m).codomain_index, np.random.default_rng(seed))
    return pointwise, reference_flow_deviation(m, w_prime, x0_prime, T, h)


# --- reference JSON boundary -------------------------------------------------------
# The loader that checked every field of every entry through ``_require``,
# kept as the oracle of the one-pass loader.


def reference_network_from_json(obj) -> Network:
    nodes = _require(obj, "nodes", "network")
    edges = _require(obj, "edges", "network")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise InputError("network: 'nodes' and 'edges' must be lists")
    ids, phase = [], {}
    for entry in nodes:
        nid = _require(entry, "id", "network node")
        if not isinstance(nid, str):
            raise InputError(f"network node: id must be a string, got {nid!r}")
        ids.append(nid)
        phase[nid] = space_from_json(_require(entry, "space", "network node"))
    edge_list = []
    for entry in edges:
        eid = _require(entry, "id", "network edge")
        src = _require(entry, "src", "network edge")
        tgt = _require(entry, "tgt", "network edge")
        if not all(isinstance(v, str) for v in (eid, src, tgt)):
            raise InputError("network edge: id, src, tgt must be strings")
        edge_list.append(Edge(eid, src, tgt))
    return Network(Graph(tuple(ids), tuple(edge_list)), phase)


# --- reference state loader -------------------------------------------------------
# The loader that wrote each node's coordinates into a zeroed state through
# one array per node, kept as the oracle of the one-array loader.


def reference_state_from_json(obj, index) -> np.ndarray:
    def coordinates(values, dim, what):
        if not isinstance(values, list) or len(values) != dim or not all(map(_finite_number, values)):
            raise InputError(f"state: {what} must be a list of {dim} finite numbers")
        return np.array(values, dtype=float)

    if isinstance(obj, dict) and "flat" in obj:
        return coordinates(obj["flat"], index.total_dim, "'flat'")
    if isinstance(obj, dict) and "by_node" in obj:
        by_node = obj["by_node"]
        if not isinstance(by_node, dict):
            raise InputError("state: 'by_node' must be an object")
        x = np.zeros(index.total_dim)
        for a in index.order:
            if a not in by_node:
                raise InputError(f"state: missing node {a!r}")
            x[index.slice_of(a)] = coordinates(by_node[a], index.spaces[a].dim, f"node {a!r}")
        for a in by_node:
            if a not in index.slices:
                raise InputError(f"state: unknown node {a!r}")
        return x
    raise InputError("state: expected 'flat' or 'by_node'")
