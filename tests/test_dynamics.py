import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fibra
from fibra import (
    ControlExpr,
    ControlSignature,
    FibrationRequired,
    GlobalField,
    NetworkMap,
    PreconditionError,
    R1,
    R2,
    RawControl,
    SignatureMismatch,
    certify_conjugacy,
    check_fibration,
    check_invariance,
    ctrl_transport,
    enumerate_tree_isos,
    eval_control,
    identity_map,
    interconnect,
    lift_to_nodes,
    network,
    parse_control,
    per_class_field,
    per_node_field,
    pullback,
    pullback_kernel_check,
    signature_at,
    symmetry_groupoid,
)
from fibra import fixtures, graphs
from fibra.dynamics import VirtualVectorField, _vanishes_on_samples
from fibra.sampling import sample_space, sample_state, sample_states

from util import (
    R1_TRIANGLE,
    expected_dependencies,
    random_network,
    random_surjective_fibration,
    reference_dependency_matrix,
)


def linear_ctrl(sig):
    terms = [f"sum(u in inputs[{name}]) {{ u[0] }}" for name in sig.groups()]
    terms.append("-x[0]")
    return parse_control([" + ".join(terms)], sig)


def test_lift_to_nodes_single_class():
    net = fixtures.g3()
    g = symmetry_groupoid(net)
    assert g.representatives() == ("1",)
    ctrl = linear_ctrl(signature_at(net, "1"))
    w = lift_to_nodes(net, {"1": ctrl})
    assert w.mode == "per_node"
    assert all(w.controls[a] is ctrl for a in "123")  # expr transport is the identity


def test_lift_to_nodes_broadcast():
    net = fixtures.broadcast10()
    g = symmetry_groupoid(net)
    ctrl = linear_ctrl(signature_at(net, g.representatives()[0]))
    w = lift_to_nodes(net, {g.representatives()[0]: ctrl})
    assert len(w.controls) == 10


def test_lift_to_nodes_two_classes():
    net = fixtures.funnel4()
    c1 = linear_ctrl(signature_at(net, "1"))
    c3 = linear_ctrl(signature_at(net, "3"))
    w = lift_to_nodes(net, {"1": c1, "3": c3})
    assert w.controls["2"] is c1 and w.controls["4"] is c3


def test_lift_rejects_signature_mismatch():
    net = fixtures.funnel4()
    wrong = linear_ctrl(signature_at(net, "1"))  # no inputs; class of 3 has two
    with pytest.raises(SignatureMismatch):
        lift_to_nodes(net, {"1": wrong, "3": wrong})


def test_transport_identity_is_identity():
    net = fixtures.four_node_multi()
    iso = enumerate_tree_isos(net, "4", "4")[0]  # identity comes first
    assert iso.is_identity
    sig = signature_at(net, "4")
    raw = RawControl(sig, lambda x, ins: ins[0][1] - x)
    moved = ctrl_transport(iso, raw)
    tree = fibra.input_tree(net, "4")
    rng = np.random.default_rng(0)
    for _ in range(5):
        root = sample_space(sig.root, rng)
        ins = [(l.edge_id, l.leaf_type, sample_space(l.leaf_type, rng)) for l in tree.leaves]
        assert np.array_equal(eval_control(raw, root, ins), eval_control(moved, root, ins))


def test_transport_swaps_raw_control_inputs():
    net = fixtures.double_edge()
    sig = signature_at(net, "b")
    pick_first = RawControl(sig, lambda x, ins: ins[0][1])  # leaves ordered e1, e2
    swap = [i for i in enumerate_tree_isos(net, "b", "b") if not i.is_identity][0]
    moved = ctrl_transport(swap, pick_first)
    root = np.array([0.0])
    ins = [("e1", R1, np.array([10.0])), ("e2", R1, np.array([20.0]))]
    assert eval_control(pick_first, root, ins)[0] == 10.0
    assert eval_control(moved, root, ins)[0] == 20.0  # re-indexed through the swap


def test_transport_respects_composition():
    net = fixtures.four_node_multi()
    isos = enumerate_tree_isos(net, "4", "4")
    sigma, tau = isos[1], isos[4]
    sig = signature_at(net, "4")
    raw = RawControl(sig, lambda x, ins: np.array([ins[0][1][0] - 2 * ins[1][1][0] + 3 * ins[2][1][0]]))
    two_steps = ctrl_transport(tau, ctrl_transport(sigma, raw))
    one_step = ctrl_transport(sigma.then(tau), raw)
    # a move is data: one tuple of (label, edge id read) pairs beside the base's own callable
    assert two_steps == one_step and two_steps.fn is raw.fn and len(two_steps.reads) == 3
    assert ctrl_transport(sigma, raw) == ctrl_transport(sigma, raw) != raw
    tree = fibra.input_tree(net, "4")
    rng = np.random.default_rng(1)
    for _ in range(10):
        root = sample_space(sig.root, rng)
        ins = [(l.edge_id, l.leaf_type, sample_space(l.leaf_type, rng)) for l in tree.leaves]
        assert np.array_equal(eval_control(two_steps, root, ins), eval_control(one_step, root, ins))


def _moved_to_b():
    """The all-R1 3-cycle a -> b -> c -> a of one class, and a raw control moved from a to b, which reads e0."""
    net = R1_TRIANGLE
    raw = RawControl(signature_at(net, "a"), lambda x, ins: ins[0][1] - x)
    return net, raw, per_class_field(net, {"a": raw}).control_at("b")


@pytest.mark.parametrize(
    "place, message",
    [
        (
            lambda net, raw, moved: interconnect(net, per_node_field(net, {"a": raw, "b": moved, "c": moved})),
            r"control at node 'c' reads edge ids \['e0'\], expected \['e1'\]",
        ),
        (
            lambda net, raw, moved: per_class_field(net, {"a": moved}),
            r"control at class representative 'a' reads edge ids \['e0'\], expected \['e2'\]",
        ),
        (
            lambda net, raw, moved: eval_control(moved, np.zeros(1), [("e1", R1, np.ones(1))]),
            r"control at its labelled inputs reads edge ids \['e0'\], expected \['e1'\]",
        ),
        (
            lambda net, raw, moved: check_invariance(moved, "c", net, trials=2),
            r"control at node 'c' reads edge ids \['e0'\], expected \['e1'\]",
        ),
        (
            lambda net, raw, moved: ctrl_transport(enumerate_tree_isos(net, "c", "a")[0], moved),
            r"control at the source 'c' of an isomorphism reads edge ids \['e0'\], expected \['e1'\]",
        ),
    ],
    ids=["per-node-field", "per-class-representative", "eval-control", "check-invariance", "transport"],
)
def test_a_misplaced_moved_control_is_refused_where_it_is_placed(place, message):
    # a moved raw control reads the in-edge ids it was moved to; every entry point that places it
    # at another node refuses it there, before any call, naming the node or the inputs
    net, raw, moved = _moved_to_b()
    with pytest.raises(SignatureMismatch, match=f"^{message}$"):
        place(net, raw, moved)
    # placed where it was moved to, it reads b's input
    w = per_node_field(net, {"a": raw, "b": moved, "c": per_class_field(net, {"a": raw}).control_at("c")})
    assert interconnect(net, w)(np.array([1.0, 2.0, 4.0])).tolist() == [3.0, -1.0, -2.0]
    assert check_invariance(moved, "b", net, trials=2) == 0.0


def test_interconnect_double_edge_passes_source_twice():
    net = fixtures.double_edge()
    sig_a, sig_b = signature_at(net, "a"), signature_at(net, "b")
    w = per_node_field(
        net,
        {
            "a": RawControl(sig_a, lambda x, ins: -x),
            "b": RawControl(sig_b, lambda x, ins: ins[0][1] + ins[1][1] + x),
        },
    )
    X = interconnect(net, w)
    out = X(np.array([3.0, 10.0]))  # order: a, b
    assert out[0] == -3.0
    assert out[1] == 3.0 + 3.0 + 10.0  # b receives x twice


def test_interconnect_chain():
    net = fixtures.chain3()
    w = fixtures.linear_dynamics(net)
    X = interconnect(net, w)
    x = np.array([2.0, 5.0, 11.0])  # a, b, c
    # a has no inputs: -x_a; b receives a twice; c receives b
    assert np.array_equal(X(x), [-2.0, 2.0 + 2.0 - 5.0, 5.0 - 11.0])


def test_interconnect_g3_linear_hand_values():
    net = fixtures.g3()
    X = interconnect(net, fixtures.linear_dynamics(net))
    x = np.array([1.0, 4.0, 9.0])
    assert np.array_equal(X(x), [4.0 - 1.0, 1.0 - 4.0, 4.0 - 9.0])


def test_interconnect_input_order_is_edge_id_lexicographic():
    net = network(
        [("a", R1), ("b", R1), ("c", R1)],
        [("z", "a", "c"), ("b2", "b", "c")],  # in-edges of c sorted: b2, z
    )
    sig = signature_at(net, "c")
    probe = RawControl(sig, lambda x, ins: np.array([10.0 * ins[0][1][0] + ins[1][1][0]]))
    w = per_node_field(
        net,
        {
            "a": RawControl(signature_at(net, "a"), lambda x, ins: -x),
            "b": RawControl(signature_at(net, "b"), lambda x, ins: -x),
            "c": probe,
        },
    )
    X = interconnect(net, w)
    out = X(np.array([1.0, 2.0, 0.0]))
    assert out[2] == 10.0 * 2.0 + 1.0  # b2 (from b) comes before z (from a)


def generic_field(net, seed):
    # distinct positive weights so no edge contribution can cancel
    rng = np.random.default_rng(seed)
    controls = {}
    for a in net.graph.nodes:
        sig = signature_at(net, a)
        weights = rng.uniform(2.0, 3.0, size=len(net.in_edges(a)))

        def fn(x, ins, w=weights):
            out = -x.copy()
            for wk, (_, state) in zip(w, ins):
                out = out + wk * state.sum()
            return out

        controls[a] = RawControl(sig, fn)
    return per_node_field(net, controls)


def test_dependency_matches_graph_structure():
    rng = random.Random(53)
    for trial in range(10):
        net = random_network(rng, max_nodes=5, max_edges=6, spaces=(R1, fibra.R2))
        # the structural bound holds for any field built by interconnection
        X_lin = interconnect(net, fixtures.linear_dynamics(net))
        x0 = sample_state(X_lin.index, np.random.default_rng(7))
        expected = expected_dependencies(net)
        for a, seen in reference_dependency_matrix(X_lin, x0).items():
            assert seen <= expected[a]
        # a generic field realises every structural dependency exactly
        X_gen = interconnect(net, generic_field(net, seed=trial))
        assert reference_dependency_matrix(X_gen, x0) == expected


def test_modularity_same_class_same_component_up_to_reindexing():
    net = fixtures.broadcast10()
    w = fixtures.linear_dynamics(net)
    X = interconnect(net, w)
    idx = X.index
    x = sample_state(idx, np.random.default_rng(11))
    out = X(x)
    # every node's component is input - own; check the shared functional form
    for a in net.graph.nodes:
        (e,) = net.in_edges(a)
        assert out[idx.slice_of(a)][0] == pytest.approx(x[idx.slice_of(e.src)][0] - x[idx.slice_of(a)][0])


def test_pullback_collapse_assigns_image_controls():
    psi = fixtures.g3_to_c2()
    w_prime = fixtures.linear_dynamics(psi.codomain)
    pulled = pullback(psi, w_prime)
    assert pulled.mode == "per_class"
    X = interconnect(psi.domain, pulled)
    x = np.array([1.0, 4.0, 9.0])
    assert np.array_equal(X(x), [4.0 - 1.0, 1.0 - 4.0, 4.0 - 9.0])


def test_pullback_identity_map_keeps_controls():
    net = fixtures.g3()
    w = fixtures.linear_dynamics(net)
    pulled = pullback(identity_map(net), w)
    X, Y = interconnect(net, w), interconnect(net, pulled)
    x = sample_state(X.index, np.random.default_rng(3))
    assert np.array_equal(X(x), Y(x))


def test_pullback_string_graph_alternates_controls():
    m = fixtures.string_to_cycle(2)
    w_prime = fixtures.linear_dynamics(m.codomain)
    pulled = pullback(m, w_prime)
    X = interconnect(m.domain, pulled)
    idx = X.index
    x = sample_state(idx, np.random.default_rng(4))
    out = X(x)
    # odd nodes run the cycle's a-control, even nodes the b-control (first coord: input - own)
    for k in range(1, 5):
        a = str(k)
        (e,) = m.domain.in_edges(a)
        own = x[idx.slice_of(a)]
        src = x[idx.slice_of(e.src)]
        assert out[idx.slice_of(a)][0] == pytest.approx(src[0] - own[0])


def test_pullback_preserves_per_node_mode():
    psi = fixtures.g3_to_c2()
    w_prime = fixtures.linear_dynamics(psi.codomain)
    per_node = lift_to_nodes(psi.codomain, dict(w_prime.controls))
    pulled = pullback(psi, per_node)
    assert pulled.mode == "per_node"
    assert set(pulled.controls) == {"1", "2", "3"}


def _positional_raw(sig):
    """A raw control that reads its inputs by position and by edge id, so it is not symmetric in same-type inputs."""

    def fn(x, ins):
        return -x + sum(
            (k + 1.0) * float(state @ np.arange(1.0, state.size + 1)) + ord(eid[-1])
            for k, (eid, state) in enumerate(ins)
        )

    return RawControl(sig, fn)


def _two_into_one():
    """a1 and a2 lie over a and read b and c in opposite edge-id orders; b and c share a class."""
    cod = network([("a", R1), ("b", R1), ("c", R1)], [("e1", "b", "a"), ("e2", "c", "a")])
    dom = network(
        [("a1", R1), ("a2", R1), ("b", R1), ("c", R1)],
        [("f1", "b", "a1"), ("f2", "c", "a1"), ("g1", "c", "a2"), ("g2", "b", "a2")],
    )
    node_map = {"a1": "a", "a2": "a", "b": "b", "c": "c"}
    m = NetworkMap(dom, cod, node_map, {"f1": "e1", "f2": "e2", "g1": "e2", "g2": "e1"})
    controls = {
        "a": RawControl(signature_at(cod, "a"), lambda x, ins: ins[0][1] - 2.0 * ins[1][1]),  # u_first - 2 u_second
        "b": parse_control(["-x[0]"], signature_at(cod, "b")),
    }
    return m, controls


def test_pullback_of_an_asymmetric_raw_class_control_is_conjugate():
    # the per-class pullback moved a's raw control to a2 along the domain class, not along a2's own
    # induced isomorphism, and certify_conjugacy read 5.72 and 0.87 where the per-node lift read 0.0
    m, controls = _two_into_one()
    assert check_fibration(m).is_fibration
    assert symmetry_groupoid(m.domain).blocks == (("a1", "a2"), ("b", "c"))
    w = per_class_field(m.codomain, controls)
    pulled = pullback(m, w)
    assert pulled.mode == "per_node"
    # at x_b = 1, x_c = 0 node a2 reads b through g2, which lies over e1: 1 - 2 * 0
    assert interconnect(m.domain, pulled)(np.array([0.0, 0.0, 1.0, 0.0]))[1] == 1.0
    for field in (w, lift_to_nodes(m.codomain, controls)):
        report = certify_conjugacy(m, field, samples=50, T=1.0, h=1e-2)
        assert (report.pointwise_max_residual, report.flow_max_deviation) == (0.0, 0.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_pullback_of_a_class_field_is_the_pullback_of_its_lift(seed, raw_share):
    rng = random.Random(seed)
    m = random_surjective_fibration(rng)  # its domain edges are named in random order
    controls = {}
    for rep in symmetry_groupoid(m.codomain).representatives():
        sig = signature_at(m.codomain, rep)
        raw = rng.random() < raw_share
        controls[rep] = _positional_raw(sig) if raw else fixtures.linear_dynamics(m.codomain).controls[rep]
    w = per_class_field(m.codomain, controls)
    pulled, lifted = pullback(m, w), pullback(m, lift_to_nodes(m.codomain, controls))
    expressions = all(isinstance(c, ControlExpr) for c in controls.values())
    assert pulled.mode == ("per_class" if expressions else "per_node")
    X, Y = interconnect(m.domain, pulled), interconnect(m.domain, lifted)
    states = sample_states(X.index, np.random.default_rng(seed), 3)
    with np.errstate(all="ignore"):  # as the field's callers set it
        assert X(states).tobytes() == Y(states).tobytes()
        assert all(X(x).tobytes() == Y(x).tobytes() for x in states)
    report = certify_conjugacy(m, w, samples=5, seed=seed % 1000, T=0.02, h=0.01)
    assert (report.pointwise_max_residual, report.flow_max_deviation) == (0.0, 0.0)


def test_pullback_requires_fibration():
    m = fixtures.double_collapse()
    w_prime = fixtures.linear_dynamics(m.codomain)
    with pytest.raises(FibrationRequired):
        pullback(m, w_prime)


def test_pullback_is_linear_at_samples():
    psi = fixtures.g3_to_c2()
    cod = psi.codomain
    sig = signature_at(cod, "a")
    w1 = per_class_field(cod, {"a": parse_control(["sum(u in inputs[R1]) { u[0] }"], sig)})
    w2 = per_class_field(cod, {"a": parse_control(["-x[0]"], sig)})
    combo = per_class_field(
        cod, {"a": parse_control(["2 * sum(u in inputs[R1]) { u[0] } + 3 * (-x[0])"], sig)}
    )
    X1 = interconnect(psi.domain, pullback(psi, w1))
    X2 = interconnect(psi.domain, pullback(psi, w2))
    Xc = interconnect(psi.domain, pullback(psi, combo))
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = sample_state(X1.index, rng)
        assert np.allclose(Xc(x), 2 * X1(x) + 3 * X2(x), atol=1e-14)


def test_pullback_of_invariant_field_is_invariant():
    rng = random.Random(59)
    for _ in range(10):
        m = random_surjective_fibration(rng)
        w_prime = fixtures.linear_dynamics(m.codomain)
        pulled = pullback(m, w_prime)
        assert pulled.mode == "per_class"
        for a in m.domain.graph.nodes:
            assert check_invariance(pulled.control_at(a), a, m.domain, trials=20, seed=3) == 0.0


def test_check_invariance_reports_nan_residual():
    # exp overflows to inf for x[0] > 0.71 and 0 * inf is NaN; a NaN residual must not read as 0.0
    net = fixtures.g3_to_c2().codomain
    ctrl = parse_control(["0 * exp(1000 * x[0]) + sum(u in inputs[R1]) { u[0] }"], signature_at(net, "a"))
    assert math.isnan(check_invariance(ctrl, "a", net, trials=50))


def test_nan_control_does_not_vanish():
    # NaN wherever x[0] > 0.71, about 15% of the samples: it must not count as vanishing
    net = fixtures.g3_to_c2().codomain
    ctrl = parse_control(["0 * exp(1000 * x[0])"], signature_at(net, "a"))
    assert not _vanishes_on_samples(ctrl, net, "a", 200, np.random.default_rng(0), 0.0)
    zero = parse_control(["0 * exp(x[0])"], signature_at(net, "a"))
    assert _vanishes_on_samples(zero, net, "a", 200, np.random.default_rng(0), 0.0)


def test_nan_derivative_counts_as_dependency():
    net = fixtures.g3_to_c2().codomain
    body = ["sum(u in inputs[R1]) { 0 * exp(1000 * u[0]) }"]
    field = interconnect(net, per_node_field(net, {a: parse_control(body, signature_at(net, a)) for a in "ab"}))
    x = np.full(2, 0.9)
    with np.errstate(all="ignore"):  # a direct call leaves numpy's error state to its caller
        assert np.isnan(field(x)).all()
    assert reference_dependency_matrix(field, x) == {"a": {"a", "b"}, "b": {"a", "b"}}


def test_pullback_kernel_vanishing_off_essential_image():
    m = fixtures.c2_into_g3_mixed()
    cod = m.codomain
    g = symmetry_groupoid(cod)
    assert g.representatives() == ("1", "3")
    zero_core = parse_control(["0"], signature_at(cod, "1"))
    tail_only = parse_control(["x[0]", "x[1] + 1"], signature_at(cod, "3"))
    w_prime = per_class_field(cod, {"1": zero_core, "3": tail_only})
    pulled = pullback(m, w_prime)
    # the pulled-back field vanishes identically even though w' does not
    X = interconnect(m.domain, pulled)
    rng = np.random.default_rng(9)
    for _ in range(50):
        assert np.array_equal(X(sample_state(X.index, rng)), np.zeros(X.index.total_dim))
    assert pullback_kernel_check(m, w_prime, samples=50, seed=0)


def test_pullback_kernel_nonzero_on_essential_image():
    m = fixtures.c2_into_g3_mixed()
    cod = m.codomain
    core = parse_control(["sum(u in inputs[R1]) { u[0] } - x[0]"], signature_at(cod, "1"))
    tail_zero = parse_control(["0", "0"], signature_at(cod, "3"))
    w_prime = per_class_field(cod, {"1": core, "3": tail_zero})
    pulled = pullback(m, w_prime)
    X = interconnect(m.domain, pulled)
    rng = np.random.default_rng(10)
    assert any(np.abs(X(sample_state(X.index, rng))).max() > 1e-6 for _ in range(20))
    assert pullback_kernel_check(m, w_prime, samples=50, seed=0)


def test_pullback_kernel_essentially_surjective_only_zero():
    m = fixtures.g3_into_ten()
    generic = fixtures.linear_dynamics(m.codomain)
    assert pullback_kernel_check(m, generic, samples=50, seed=0)
    zero = fixtures.zero_dynamics(m.codomain)
    assert pullback_kernel_check(m, zero, samples=50, seed=0)


def test_pullback_respects_composition():
    # embedding then collapse composes to the identity on the 2-cycle
    tau, psi = fixtures.c2_into_g3(), fixtures.g3_to_c2()
    composite = fibra.compose_maps(tau, psi)
    assert composite.node_map == {"a": "a", "b": "b"}
    w = fixtures.linear_dynamics(psi.codomain)
    one_step = pullback(composite, w)
    two_steps = pullback(tau, pullback(psi, w))
    X1 = interconnect(tau.domain, one_step)
    X2 = interconnect(tau.domain, two_steps)
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = sample_state(X1.index, rng)
        assert np.array_equal(X1(x), X2(x))


def test_global_field_rejects_wrong_dimension():
    net = fixtures.g3()
    X = interconnect(net, fixtures.linear_dynamics(net))
    with pytest.raises(PreconditionError):
        X(np.zeros(7))


def test_a_field_takes_its_classes_from_its_network():
    # a split groupoid gave a and b different controls, and the identity fibration then
    # failed to certify; the network's own groupoid gives all three nodes one control
    net, controls = _split_three_cycle()
    w = lift_to_nodes(net, {"a": controls["b"]})
    assert set(w.controls) == set("abc") and len({id(c) for c in w.controls.values()}) == 1
    report = certify_conjugacy(identity_map(net), per_class_field(net, {"a": controls["b"]}), samples=20, T=0.1, h=0.01)
    assert report.pointwise_max_residual == 0.0 and report.flow_max_deviation == 0.0


def test_each_network_builds_its_groupoid_once(monkeypatch):
    built = []
    rounds = graphs.refinement_rounds
    monkeypatch.setattr(graphs, "refinement_rounds", lambda net, colour: built.append(net) or rounds(net, colour))
    m = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(m.codomain)
    certify_conjugacy(m, w, samples=3, seed=1, T=0.02, h=0.01)
    assert pullback_kernel_check(m, w, samples=3)
    assert len(built) == 2 and built[0] is m.codomain and built[1] is m.domain
    assert symmetry_groupoid(m.domain) is symmetry_groupoid(m.domain) is pullback(m, w).groupoid
    assert len(built) == 2


def test_field_reads_every_signature_from_its_network():
    # the field takes no signatures from its caller, so none can hide a mis-signed control
    net, sig = fixtures.g3(), ControlSignature(R1, ())
    controls = {"1": parse_control(["-x[0]"], sig)}
    with pytest.raises(TypeError):
        VirtualVectorField(net, "per_class", controls, {"1": sig})
    with pytest.raises(SignatureMismatch, match=r"^control at class representative '1' has signature \(R1; \[\]\)"):
        VirtualVectorField(net, "per_class", controls)


def test_field_keeps_its_own_copy_of_the_controls():
    net = fixtures.g3()
    controls = {"1": _g3_linear_control("1")}
    w = per_class_field(net, controls)
    controls["2"] = controls["1"]
    assert set(w.controls) == {"1"}


def test_per_node_field_requires_every_node():
    net = fixtures.g3()
    sig = signature_at(net, "1")
    with pytest.raises(PreconditionError):
        per_node_field(net, {"1": linear_ctrl(sig)})


def _field_lacking_an_input_type():
    """g3_mixed with a control at the R2 tail whose signature reads R2 inputs, where its input is R1."""
    net = fixtures.g3_mixed()
    controls = {a: linear_ctrl(signature_at(net, a)) for a in ("1", "2")}
    controls["3"] = parse_control(["sum(u in inputs[R2]) { u[0] }", "0"], ControlSignature(R2, (R2,)))
    return VirtualVectorField(net, "per_node", controls)


def _transport_a_non_control():
    swap = [i for i in enumerate_tree_isos(fixtures.double_edge(), "b", "b") if not i.is_identity][0]
    return ctrl_transport(swap, "not a control")


def _per_node_pullback_kernel_check():
    m = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(m.codomain)
    return pullback_kernel_check(m, lift_to_nodes(m.codomain, w.controls))


def _split_three_cycle():
    """The 3-cycle a -> b -> c -> a, one groupoid class, with controls keyed as if it split into {a}, {b, c}."""
    net = network([(a, R1) for a in "abc"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
    sig = signature_at(net, "a")
    controls = {"a": linear_ctrl(sig), "b": parse_control(["2 * sum(u in inputs[R1]) { u[0] } - x[0]"], sig)}
    return net, controls


def _g3_linear_control(a):
    return linear_ctrl(signature_at(fixtures.g3(), a))


FAILURE_PATHS = {
    "per-class-field-keyed-by-a-non-representative": (
        lambda: per_class_field(fixtures.g3(), {a: _g3_linear_control(a) for a in "12"}),
        PreconditionError, "controls keyed by non-representatives: ['2']",
    ),
    "per-node-field-keyed-by-an-unknown-node": (
        lambda: per_node_field(fixtures.g3(), {a: _g3_linear_control("1") for a in ["1", "2", "3", "zz", "y"]}),
        PreconditionError, "controls keyed by unknown node ids: ['y', 'zz']",
    ),
    "field-of-an-unknown-mode": (
        lambda: VirtualVectorField(fixtures.g3(), "per_edge", {}), PreconditionError, "unknown field mode 'per_edge'",
    ),
    "lift-along-a-split-groupoid": (
        lambda: lift_to_nodes(*_split_three_cycle()),
        PreconditionError, "controls keyed by non-representatives: ['b']",
    ),
    "control-at-an-unknown-node-of-a-per-node-field": (
        lambda: per_node_field(fixtures.g3(), {a: _g3_linear_control(a) for a in "123"}).control_at("zz"),
        PreconditionError, "unknown node id 'zz'",
    ),
    "control-at-an-unknown-node-of-a-per-class-field": (
        lambda: fixtures.linear_dynamics(fixtures.g3()).control_at("zz"), PreconditionError, "unknown node id 'zz'",
    ),
    "global-field-of-another-network": (
        lambda: GlobalField(fixtures.cycle2(), fixtures.linear_dynamics(fixtures.g3())),
        PreconditionError, "virtual vector field was built for a different network",
    ),
    "signature-lacks-an-input-type": (
        _field_lacking_an_input_type,
        SignatureMismatch, "control at node '3' has signature (R2; ['R2']), expected (R2; ['R1'])",
    ),
    "pullback-of-a-field-on-another-network": (
        lambda: pullback(fixtures.g3_to_c2(), fixtures.linear_dynamics(fixtures.g3())),
        PreconditionError, "field is not defined on the codomain of the map",
    ),
    "check-invariance-root-space-mismatch": (
        lambda: check_invariance(parse_control(["0", "0"], ControlSignature(R2, ())), "1", fixtures.g3()),
        SignatureMismatch, "control for root space R2 at node '1'",
    ),
    "pullback-kernel-check-of-a-per-node-field": (
        _per_node_pullback_kernel_check, PreconditionError, "pullback_kernel_check expects a per-class field",
    ),
    "transport-of-a-non-control": (_transport_a_non_control, TypeError, "not a control: 'not a control'"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_PATHS))
def test_failure_path(case):
    call, exc, message = FAILURE_PATHS[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
