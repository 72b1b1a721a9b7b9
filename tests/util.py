"""Seeded random generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from fibra import (
    ControlExpr,
    Edge,
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
    TransportedControl,
    check_fibration,
    input_tree,
    network,
    sample_space,
    sample_state,
    total_phase_space,
)
from fibra.expr_dsl import FUNCTIONS, Aggregate, BinOp, Call, InputRef, Neg, Num, Pow, RootRef
from fibra.errors import EvaluationFault
from fibra.graphs import TWO_PI

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
    cod = random_network(rng, cod_max_nodes, cod_max_edges)
    node_map: dict[str, str] = {}
    i = 0
    for b in cod.graph.nodes:
        for _ in range(rng.randint(1, max_fiber)):
            node_map[f"d{i}"] = b
            i += 1
    preimg: dict[str, list[str]] = {}
    for a, b in node_map.items():
        preimg.setdefault(b, []).append(a)
    edges, edge_map = [], {}
    j = 0
    for a in sorted(node_map):
        for e in cod.in_edges(node_map[a]):
            eid = f"de{j}"
            j += 1
            edges.append((eid, rng.choice(preimg[e.src]), a))
            edge_map[eid] = e.edge_id
    dom = network([(a, cod.space(node_map[a])) for a in sorted(node_map)], edges)
    return NetworkMap(dom, cod, node_map, edge_map)


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
        out.append(Partition.of(blocks))
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
# The scan-based adjacency and the nested-tuple refinement that the indexed
# graph and integer colour refinement replaced, kept as differential oracles.


class ScanGraph(Graph):
    """A graph that finds in-edges by scanning every edge, with no index."""

    def in_edges(self, node):
        return tuple(sorted((e for e in self.edges if e.tgt == node), key=lambda e: e.edge_id))


def scan_network(net: Network) -> Network:
    return Network(ScanGraph(net.graph.nodes, net.graph.edges), dict(net.phase))


def scan_block_of(p: Partition, node: str) -> tuple:
    for b in p.blocks:
        if node in b:
            return b
    raise PreconditionError(f"node {node!r} not covered by the partition")


def scan_class_of(g, node: str):
    for c in g.classes:
        if node in c.members:
            return c
    raise PreconditionError(f"unknown node id {node!r}")


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
    partition = Partition.of(groups.values())
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
        out = np.asarray(ctrl.fn(root, pairs), dtype=float).reshape(-1)
        if out.shape[0] != ctrl.signature.root.dim:
            raise SignatureMismatch("raw control returned a tangent vector of the wrong dimension")
        return out
    if isinstance(ctrl, TransportedControl):
        by_id = {eid: (eid, space, state) for eid, space, state in inputs}
        relabelled = []
        for src_id in sorted(ctrl.source_to_current):
            _, space, state = by_id[ctrl.source_to_current[src_id]]
            relabelled.append((src_id, space, state))
        return reference_eval_control(ctrl.base, root, relabelled)
    raise TypeError(f"not a control: {ctrl!r}")


def reference_field(net: Network, w):
    """The interconnected field, evaluating every node through the per-call path."""
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

    return field


def reference_driving_residual(m: NetworkMap, w_prime, samples: int, seed: int, fd_step: float) -> float:
    """Largest image-component central difference over every coordinate outside the image."""
    image = set(m.node_map.values())
    field = reference_field(m.codomain, w_prime)
    index = total_phase_space(m.codomain)
    image_slices = [index.slice_of(a) for a in index.order if a in image]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = sample_state(index, rng)
        for c in index.order:
            if c in image:
                continue
            sl_c = index.slice_of(c)
            for j in range(sl_c.start, sl_c.stop):
                plus, minus = x.copy(), x.copy()
                plus[j] += fd_step
                minus[j] -= fd_step
                diff = (field(plus) - field(minus)) / (2.0 * fd_step)
                for sl in image_slices:
                    block = np.abs(diff[sl])
                    if block.size:
                        worst = max(worst, float(block.max()))
    return worst


# --- reference flat-state layout --------------------------------------------------
# The per-node slice loops that StateIndex gathers replaced, kept as
# differential oracles.  Their running maxima skip NaN, as the old code did, so
# compare them on finite values only.


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


def reference_dependency_matrix(field, x0, step: float = 1e-6, tol: float = 1e-8):
    """Central differences along every coordinate, compared node slice by node slice."""
    index = field.index
    deps = {a: set() for a in index.order}
    for c in index.order:
        sl_c = index.slice_of(c)
        for j in range(sl_c.start, sl_c.stop):
            plus, minus = x0.copy(), x0.copy()
            plus[j] += step
            minus[j] -= step
            diff = (field(plus) - field(minus)) / (2.0 * step)
            for a in index.order:
                if np.abs(diff[index.slice_of(a)]).max() > tol:
                    deps[a].add(c)
    return deps
