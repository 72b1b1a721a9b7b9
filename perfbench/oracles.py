"""Output checks that do not use fibra.

Each check takes what the generator knows (``gen`` structures) and what the
program wrote (a parsed JSON report or CSV text), and returns ``None`` when the
output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from gen import DIMS, Injection, Lift, Net

POINTWISE_TOL = 1e-12  # the library's pointwise conjugacy guarantee
CSV_TOL = 1e-9


def coarsest_blocks(net: Net) -> set[frozenset[str]]:
    """Coarsest balanced partition by integer colour refinement.

    Start from phase-space classes and split by the multiset of in-neighbour
    colours until the number of colours stops growing.
    """
    space = net.space()
    sources = net.in_sources()
    names = sorted(set(space.values()))
    colour = {a: names.index(s) for a, s in space.items()}
    n_colours = len(set(colour.values()))
    while True:
        sig = {a: (colour[a], tuple(sorted(colour[s] for s in sources[a]))) for a in space}
        ranks = {k: i for i, k in enumerate(sorted(set(sig.values())))}
        colour = {a: ranks[sig[a]] for a in space}
        if len(ranks) == n_colours:
            break
        n_colours = len(ranks)
    blocks: dict[int, set[str]] = {}
    for a, c in colour.items():
        blocks.setdefault(c, set()).add(a)
    return {frozenset(b) for b in blocks.values()}


def _is_fibration(dom: Net, cod_in: dict[str, list[str]], node_map, edge_map) -> str | None:
    """Every codomain in-edge at phi(a) has exactly one preimage among a's in-edges."""
    dom_in: dict[str, list[str]] = {a: [] for a, _ in dom.nodes}
    for e, _, tgt in dom.edges:
        dom_in[tgt].append(e)
    for a, own in dom_in.items():
        images = Counter(edge_map[e] for e in own)
        if images != Counter(cod_in[node_map[a]]):
            return f"no unique lift at node {a}"
    return None


def check_partition(net: Net, blocks: list[list[str]], fibers=None) -> str | None:
    got = {frozenset(b) for b in blocks}
    if sum(len(b) for b in blocks) != len(net.nodes) or len(got) != len(blocks):
        return "blocks do not partition the nodes"
    want = coarsest_blocks(net)
    if got != want:
        return f"{len(got)} blocks, colour refinement finds {len(want)}"
    where = {a: i for i, b in enumerate(blocks) for a in b}
    for fiber in (fibers or {}).values():
        if len({where[a] for a in fiber}) != 1:
            return "a fiber of the lift is split across blocks"
    return None


def check_quotient(net: Net, blocks, quotient: dict, projection: dict) -> str | None:
    """The quotient has one node per block and the projection is a fibration onto it."""
    reps = sorted(min(b) for b in blocks)
    if sorted(n["id"] for n in quotient["nodes"]) != reps:
        return "quotient nodes are not the block representatives"
    sources = net.in_sources()
    if len(quotient["edges"]) != sum(len(sources[r]) for r in reps):
        return "quotient edge count differs from the representatives' in-degrees"
    block_of = {a: min(b) for b in blocks for a in b}
    if projection["nodes"] != block_of:
        return "projection node map is not the block map"
    cod_in: dict[str, list[str]] = {r: [] for r in reps}
    for e in quotient["edges"]:
        cod_in[e["tgt"]].append(e["id"])
    return _is_fibration(net, cod_in, projection["nodes"], projection["edges"])


def coarsest_report(net: Net, fibers=None):
    def check(rc: int, report: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        res = report["results"]
        blocks = res["blocks"] if "blocks" in res else res["partition"]["blocks"]
        return check_partition(net, blocks, fibers) or check_quotient(
            net, blocks, res["quotient"], res["projection"]
        )

    return check


def _classes(net: Net) -> dict[tuple, list[str]]:
    space = net.space()
    sources = net.in_sources()
    classes: dict[tuple, list[str]] = {}
    for a, s in space.items():
        key = (s, tuple(sorted(Counter(space[b] for b in sources[a]).items())))
        classes.setdefault(key, []).append(a)
    return classes


def groupoid_report(net: Net):
    def check(rc: int, report: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        res = report["results"]
        got = sorted(sorted(c["members"]) for c in res["classes"])
        want = sorted(sorted(m) for m in _classes(net).values())
        if got != want:
            return "isomorphism classes differ"
        space = net.space()
        for a, srcs in net.in_sources().items():
            order = math.prod(math.factorial(k) for k in Counter(space[b] for b in srcs).values())
            if res["aut_orders"][a] != order:
                return f"automorphism order of {a} differs"
        return None

    return check


def fibration_report():
    def check(rc: int, report: dict) -> str | None:
        res = report["results"]
        if rc != 0 or not res["is_fibration"] or res["failures"]:
            return f"exit {rc}: a known lift map was not reported as a fibration"
        if not (res["surjective_on_nodes"] and res["surjective_on_edges"]):
            return "lift map not reported surjective"
        return None

    return check


def kuramoto_rk4(x0: dict[str, list[float]], steps: int, h: float, omega: float, coupling: float):
    """Plain-numpy RK4 of Kuramoto dynamics on the all-circle string graph."""
    order = sorted(x0)
    pos = {a: i for i, a in enumerate(order)}
    src = np.array([pos["2" if a == "1" else str(int(a) - 1)] for a in order])
    x = np.array([x0[a][0] for a in order])

    def f(y):
        return omega + coupling * np.sin(y[src] - y)

    states = [x]
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return order, np.array(states)


def simulate_csv(x0, steps: int, h: float, omega: float, coupling: float):
    order, want = kuramoto_rk4(x0, steps, h, omega, coupling)

    def check(rc: int, text: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        lines = text.splitlines()
        if lines[0].split(",") != ["t"] + [f"{a}[0]" for a in order]:
            return "CSV header is not t then the nodes in lexicographic order"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if got.shape != (steps + 1, len(order) + 1):
            return f"CSV has shape {got.shape}, expected {(steps + 1, len(order) + 1)}"
        if np.abs(got[:, 0] - np.arange(steps + 1) * h).max() > 1e-12:
            return "time column is not k*h"
        err = float(np.abs(got[:, 1:] - want).max())
        if err > CSV_TOL:
            return f"trajectory differs from the numpy RK4 by {err:.3e}"
        return None

    return check


def polydiagonal_report():
    def check(rc: int, report: dict) -> str | None:
        res = report["results"]
        if rc != 0 or not res["passed"]:
            return f"exit {rc}: polydiagonal invariance not certified"
        if res["max_distance"] != 0.0:
            return f"polydiagonal drift {res['max_distance']!r} is not exactly 0.0"
        return None

    return check


def conjugacy_report():
    def check(rc: int, report: dict) -> str | None:
        res = report["results"]
        if rc != 0 or not res["passed"]:
            return f"exit {rc}: conjugacy of a known lift not certified"
        if not res["pointwise_max_residual"] <= POINTWISE_TOL:
            return f"pointwise residual {res['pointwise_max_residual']!r} above {POINTWISE_TOL}"
        return None

    return check


def driving_report(inj: Injection):
    want_rc = 1 if inj.feedback else 0
    want_feedback = [inj.feedback] if inj.feedback else []

    def check(rc: int, report: dict) -> str | None:
        res = report["results"]
        if rc != want_rc or res["ok"] != (not inj.feedback):
            return f"exit {rc}, expected {want_rc}"
        if res["feedback_edges"] != want_feedback or res["is_fibration"] != (not inj.feedback):
            return "feedback edges or fibration verdict differ from the construction"
        return None

    return check


def pullback_report(lift: Lift, base_exprs: dict[str, list[str]]):
    """Expression controls transport to themselves: each node gets its image's class control."""

    def check(rc: int, report: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        nodes = report["results"]["nodes"]
        if sorted(n["id"] for n in nodes) != sorted(lift.node_map):
            return "pulled-back field does not cover the lift's nodes"
        for n in nodes:
            if n["exprs"] != base_exprs[lift.node_map[n["id"]]]:
                return f"node {n['id']} did not receive its image's control"
        return None

    return check


def linear_exprs(net: Net) -> tuple[list[dict], dict[str, list[str]]]:
    """Per-class linear controls (as ``fibra.fixtures.linear_dynamics`` writes them).

    Returns the dynamics JSON classes and each node's expressions.
    """
    space = net.space()
    classes, per_node = [], {}
    for members in sorted(_classes(net).values(), key=min):
        rep = min(members)
        groups = sorted(set(space[b] for b in net.in_sources()[rep]))
        exprs = []
        for i in range(DIMS[space[rep]]):
            terms = [f"sum(u in inputs[{g}]) {{ u[{min(i, DIMS[g] - 1)}] }}" for g in groups]
            exprs.append(" + ".join(terms + [f"-x[{i}]"]))
        classes.append({"representative": rep, "exprs": exprs})
        per_node.update({a: exprs for a in members})
    return classes, per_node
