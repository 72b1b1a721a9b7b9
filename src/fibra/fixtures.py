"""Bundled worked networks, maps, and dynamics used by the demos and the test suite."""

from __future__ import annotations

from collections.abc import Callable

from .dynamics import VirtualVectorField, per_class_field, signature_at
from .expr_dsl import ControlSignature, parse_control
from .graphs import Network, NetworkMap, PhaseSpace, R1, R2, network
from .input_trees import symmetry_groupoid


def g3(space: PhaseSpace = R1) -> Network:
    """Three nodes, a 2-cycle between 1 and 2, and a tail edge into 3."""
    return network(
        [("1", space), ("2", space), ("3", space)],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3")],
    )


def g3_mixed(tail_space: PhaseSpace = R2) -> Network:
    """Same shape as g3 but the tail node carries a different space."""
    return network(
        [("1", R1), ("2", R1), ("3", tail_space)],
        [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3")],
    )


def loop_net(space: PhaseSpace = R1) -> Network:
    return network([("a", space)], [("loop", "a", "a")])


def cycle2(space_a: PhaseSpace = R1, space_b: PhaseSpace = R1) -> Network:
    return network([("a", space_a), ("b", space_b)], [("ab", "a", "b"), ("ba", "b", "a")])


def four_node_multi(space: PhaseSpace = R1) -> Network:
    """Four nodes with parallel edges; automorphism orders 1, 2, 1, 6."""
    return network(
        [("1", space), ("2", space), ("3", space), ("4", space)],
        [
            ("alpha", "1", "2"),
            ("beta", "1", "2"),
            ("gamma", "2", "3"),
            ("delta", "1", "4"),
            ("epsilon", "3", "4"),
            ("zeta", "3", "4"),
        ],
    )


def funnel4(space: PhaseSpace = R1, sink_space: PhaseSpace | None = None) -> Network:
    """Two sources feeding a hub that double-feeds a sink."""
    sink = sink_space if sink_space is not None else space
    return network(
        [("1", space), ("2", space), ("3", space), ("4", sink)],
        [("e13", "1", "3"), ("e23", "2", "3"), ("e34a", "3", "4"), ("e34b", "3", "4")],
    )


def string_graph(n: int, odd_space: PhaseSpace = R1, even_space: PhaseSpace = R2) -> Network:
    """2n nodes in a line with a 2-cycle at the head; odd/even nodes alternate spaces."""
    if n < 2:
        raise ValueError("string graph needs n >= 2")
    nodes = [(str(k), odd_space if k % 2 == 1 else even_space) for k in range(1, 2 * n + 1)]
    edges = [("b21", "2", "1"), ("f12", "1", "2")]
    edges += [(f"f{k}{k + 1}", str(k), str(k + 1)) for k in range(2, 2 * n)]
    return network(nodes, edges)


def broadcast10(space: PhaseSpace = R1) -> Network:
    """The g3 core broadcasting to seven downstream nodes; every node has one in-edge."""
    nodes = [(str(k), space) for k in range(1, 11)]
    edges = [
        ("e12", "1", "2"),
        ("e21", "2", "1"),
        ("e23", "2", "3"),
        ("e14", "1", "4"),
        ("e25", "2", "5"),
        ("e36", "3", "6"),
        ("e37", "3", "7"),
        ("e28", "2", "8"),
        ("e19", "1", "9"),
        ("e110", "1", "10"),
    ]
    return network(nodes, edges)


def join3(space: PhaseSpace = R1) -> Network:
    """Two sources joined into one sink."""
    return network(
        [("a1", space), ("a2", space), ("b", space)],
        [("g", "a1", "b"), ("d", "a2", "b")],
    )


def chain3(space: PhaseSpace = R1) -> Network:
    """A double edge a => b followed by b -> c."""
    return network(
        [("a", space), ("b", space), ("c", space)],
        [("gp", "a", "b"), ("dp", "a", "b"), ("bc", "b", "c")],
    )


def double_edge(space: PhaseSpace = R1) -> Network:
    return network([("a", space), ("b", space)], [("e1", "a", "b"), ("e2", "a", "b")])


# --- maps --------------------------------------------------------------------


def g3_to_loop(space: PhaseSpace = R1) -> NetworkMap:
    dom, cod = g3(space), loop_net(space)
    return NetworkMap(dom, cod, {"1": "a", "2": "a", "3": "a"}, {"a": "loop", "b": "loop", "c": "loop"})


def g3_to_c2(space: PhaseSpace = R1) -> NetworkMap:
    dom, cod = g3(space), cycle2(space, space)
    return NetworkMap(dom, cod, {"1": "a", "2": "b", "3": "a"}, {"a": "ab", "b": "ba", "c": "ba"})


def c2_into_g3(space: PhaseSpace = R1) -> NetworkMap:
    dom, cod = cycle2(space, space), g3(space)
    return NetworkMap(dom, cod, {"a": "1", "b": "2"}, {"ab": "a", "ba": "b"})


def c2_into_g3_mixed(tail_space: PhaseSpace = R2) -> NetworkMap:
    """Injective fibration whose essential image misses the differently-typed tail node."""
    dom, cod = cycle2(R1, R1), g3_mixed(tail_space)
    return NetworkMap(dom, cod, {"a": "1", "b": "2"}, {"ab": "a", "ba": "b"})


def g3_into_ten(space: PhaseSpace = R1) -> NetworkMap:
    dom, cod = g3(space), broadcast10(space)
    return NetworkMap(dom, cod, {"1": "1", "2": "2", "3": "3"}, {"a": "e12", "b": "e21", "c": "e23"})


def string_to_cycle(n: int, odd_space: PhaseSpace = R1, even_space: PhaseSpace = R2) -> NetworkMap:
    dom = string_graph(n, odd_space, even_space)
    cod = cycle2(odd_space, even_space)
    node_map = {str(k): "a" if k % 2 == 1 else "b" for k in range(1, 2 * n + 1)}
    edge_map = {"b21": "ba", "f12": "ab"}
    for k in range(2, 2 * n):
        edge_map[f"f{k}{k + 1}"] = "ba" if k % 2 == 0 else "ab"
    return NetworkMap(dom, cod, node_map, edge_map)


def fork_to_chain(space: PhaseSpace = R1) -> NetworkMap:
    """Non-surjective, non-injective fibration; factors through the double edge."""
    dom, cod = join3(space), chain3(space)
    return NetworkMap(dom, cod, {"a1": "a", "a2": "a", "b": "b"}, {"g": "gp", "d": "dp"})


def double_collapse(space: PhaseSpace = R1) -> NetworkMap:
    """Collapse of the double edge onto the loop; not a fibration (two lifts at b)."""
    dom, cod = double_edge(space), loop_net(space)
    return NetworkMap(dom, cod, {"a": "a", "b": "a"}, {"e1": "loop", "e2": "loop"})


# --- dynamics ----------------------------------------------------------------


def _per_class_dynamics(net: Network, exprs_of: Callable[[ControlSignature], list[str]]) -> VirtualVectorField:
    """One expression control per groupoid class, its expressions read off the class signature."""
    controls = {}
    for rep in symmetry_groupoid(net).representatives():
        sig = signature_at(net, rep)
        controls[rep] = parse_control(exprs_of(sig), sig)
    return per_class_field(net, controls)


def linear_dynamics(net: Network) -> VirtualVectorField:
    """One linear control per class: coordinate-wise sum of inputs minus own state."""

    def exprs(sig):
        out = []
        for i in range(sig.root.dim):
            terms = [f"sum(u in inputs[{name}]) {{ u[{min(i, dim - 1)}] }}" for name, (dim, _) in sig.groups().items()]
            out.append(" + ".join([*terms, f"-x[{i}]"]))
        return out

    return _per_class_dynamics(net, exprs)


def kuramoto_dynamics(net: Network, omega: float = 0.5, coupling: float = 1.0) -> VirtualVectorField:
    """Phase-oscillator dynamics on an all-circle network."""

    def exprs(sig):
        if any(not s.is_circle for s in (sig.root, *sig.inputs)):
            raise ValueError("kuramoto dynamics requires circle phase spaces everywhere")
        coupled = f" + {coupling!r} * sum(u in inputs[S1]) {{ sin(u[0] - x[0]) }}" if sig.inputs else ""
        return [f"{omega!r}{coupled}"]

    return _per_class_dynamics(net, exprs)


def zero_dynamics(net: Network) -> VirtualVectorField:
    return _per_class_dynamics(net, lambda sig: ["0"] * sig.root.dim)
