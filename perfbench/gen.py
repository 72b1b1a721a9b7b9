"""Seeded benchmark inputs as plain Python data.

The generators know the answer to every question the benchmark asks (lift
maps, fibers, feedback edges), so they build plain lists and dicts and never
call fibra.  ``plan.py`` turns them into fibra objects and JSON files; the
oracles read only these plain structures and the program's reports.

A generator's cost depends on its size arguments, not on the workload seed.
Pairs of base nodes share their in-degree and phase space and trade fiber
sizes, so node, edge and coordinate counts are the same for every seed; the
wiring of a lift's base comes from a fixed structure seed, because it sets how
many rounds refinement takes.  The workload seed draws ids, fiber sizes, the
wiring of the lift itself, and states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIMS = {"R1": 1, "R2": 2, "S1": 1}


@dataclass
class Net:
    """A network as (id, space name) nodes and (edge id, src, tgt) edges."""

    nodes: list[tuple[str, str]]
    edges: list[tuple[str, str, str]]

    def space(self) -> dict[str, str]:
        return dict(self.nodes)

    def in_sources(self) -> dict[str, list[str]]:
        acc: dict[str, list[str]] = {a: [] for a, _ in self.nodes}
        for _, src, tgt in self.edges:
            acc[tgt].append(src)
        return acc


@dataclass
class Lift:
    """A fibration ``total -> base`` with its node and edge maps."""

    total: Net
    base: Net
    node_map: dict[str, str]
    edge_map: dict[str, str]
    fibers: dict[str, list[str]]


@dataclass
class Injection:
    """An injective map ``base -> host``; ``feedback`` names the edge that breaks it."""

    base: Net
    host: Net
    node_map: dict[str, str]
    edge_map: dict[str, str]
    feedback: str | None


def _ids(rng: np.random.Generator, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in rng.permutation(n)]


def random_lift(
    rng: np.random.Generator, n_total: int, spaces: tuple[str, ...], structure: int
) -> Lift:
    """A lift of a random base with in-degree 1-4 and fibers of 10-25 nodes.

    ``structure`` seeds the base's edge sources; ``rng`` draws everything else.
    """
    k = max(2, round(n_total / 17.5))
    k += k % 2
    sizes = [n_total // k + (1 if i < n_total % k else 0) for i in range(k)]
    sizes.sort()
    # pair the i-th smallest with the i-th largest so each pair can trade nodes
    pairs = [(i, k - 1 - i) for i in range(k // 2)]
    for j, (lo, hi) in enumerate(pairs):
        room = min(25 - sizes[lo], sizes[hi] - 10)
        d = int(rng.integers(0, room + 1))
        sizes[lo], sizes[hi] = sizes[lo] + d, sizes[hi] - d
    indeg = [0] * k
    space = [""] * k
    for j, (lo, hi) in enumerate(pairs):
        indeg[lo] = indeg[hi] = 1 + j % 4
        space[lo] = space[hi] = spaces[j % len(spaces)]

    base_ids = _ids(rng, "b", k)
    base_nodes = [(base_ids[i], space[i]) for i in range(k)]
    base_edges = []
    edge_ids = iter(_ids(rng, "a", sum(indeg)))
    wiring = np.random.default_rng(structure)
    for i in range(k):
        for s in wiring.integers(0, k, size=indeg[i]):
            base_edges.append((next(edge_ids), base_ids[int(s)], base_ids[i]))

    node_ids = iter(_ids(rng, "v", n_total))
    fibers = {base_ids[i]: [next(node_ids) for _ in range(sizes[i])] for i in range(k)}
    node_map = {x: b for b, xs in fibers.items() for x in xs}
    n_edges = sum(sizes[i] * indeg[i] for i in range(k))
    lifted_ids = iter(_ids(rng, "e", n_edges))
    edges, edge_map = [], {}
    for eid, src, tgt in base_edges:
        for x in fibers[tgt]:
            lifted = next(lifted_ids)
            edges.append((lifted, fibers[src][int(rng.integers(len(fibers[src])))], x))
            edge_map[lifted] = eid
    base_space = dict(base_nodes)
    total_nodes = [(x, base_space[b]) for x, b in node_map.items()]
    order = rng.permutation(len(total_nodes))
    total = Net([total_nodes[i] for i in order], edges)
    return Lift(total, Net(base_nodes, base_edges), node_map, edge_map, fibers)


def doubled_chain(rng: np.random.Generator, n: int) -> Net:
    """n R1 nodes in a line, consecutive nodes joined by two parallel edges."""
    ids = _ids(rng, "c", n)
    edge_ids = iter(_ids(rng, "d", 2 * (n - 1)))
    edges = [(next(edge_ids), ids[i - 1], ids[i]) for i in range(1, n) for _ in range(2)]
    return Net([(a, "R1") for a in ids], edges)


def all_circle_string(n: int) -> Net:
    """fibra.fixtures.string_graph(n) with every node on the circle."""
    nodes = [(str(k), "S1") for k in range(1, 2 * n + 1)]
    edges = [("b21", "2", "1"), ("f12", "1", "2")]
    edges += [(f"f{k}{k + 1}", str(k), str(k + 1)) for k in range(2, 2 * n)]
    return Net(nodes, edges)


def injection(
    rng: np.random.Generator, n_base: int, n_outside: int, with_feedback: bool
) -> Injection:
    """A closed base network included in a host with ``n_outside`` driven nodes.

    Outside nodes read from anywhere; base nodes read only from the base, so
    the inclusion is a fibration unless ``with_feedback`` adds one edge from
    an outside node into the base.
    """
    spaces = ("R1", "R2", "S1")
    base_ids = _ids(rng, "p", n_base)
    out_ids = _ids(rng, "q", n_outside)
    base_nodes = [(a, spaces[i % 3]) for i, a in enumerate(base_ids)]
    out_nodes = [(a, spaces[i % 3]) for i, a in enumerate(out_ids)]
    indeg_base = [1 + i % 3 for i in range(n_base)]
    indeg_out = [1 + i % 3 for i in range(n_outside)]
    edge_ids = iter(_ids(rng, "g", sum(indeg_base) + sum(indeg_out) + 1))
    base_edges = [
        (next(edge_ids), base_ids[int(s)], a)
        for a, d in zip(base_ids, indeg_base)
        for s in rng.integers(0, n_base, size=d)
    ]
    everyone = base_ids + out_ids
    out_edges = [
        (next(edge_ids), everyone[int(s)], a)
        for a, d in zip(out_ids, indeg_out)
        for s in rng.integers(0, len(everyone), size=d)
    ]
    feedback = None
    if with_feedback:
        feedback = next(edge_ids)
        out_edges.append(
            (feedback, out_ids[int(rng.integers(n_outside))], base_ids[int(rng.integers(n_base))])
        )
    base = Net(base_nodes, base_edges)
    host = Net(base_nodes + out_nodes, base_edges + out_edges)
    return Injection(
        base, host, {a: a for a in base_ids}, {e: e for e, _, _ in base_edges}, feedback
    )


def state_by_node(rng: np.random.Generator, net: Net) -> dict[str, list[float]]:
    """Uniform [-1, 1] on Euclidean coordinates and [0, 2pi) on circles."""
    out = {}
    for a, s in net.nodes:
        if s == "S1":
            out[a] = [float(rng.uniform(0.0, 2.0 * np.pi))]
        else:
            out[a] = [float(v) for v in rng.uniform(-1.0, 1.0, size=DIMS[s])]
    return out
