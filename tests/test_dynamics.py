import math
import random

import numpy as np
import pytest

import fibra
from fibra import (
    FibrationRequired,
    PreconditionError,
    R1,
    RawControl,
    SignatureMismatch,
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
from fibra import fixtures
from fibra.dynamics import _vanishes_on_samples
from fibra.numerics import dependency_matrix, expected_dependencies
from fibra.sampling import sample_space, sample_state

from util import random_network, random_surjective_fibration


def linear_ctrl(sig):
    terms = [f"sum(u in inputs[{name}]) {{ u[0] }}" for name in sig.groups()]
    terms.append("-x[0]")
    return parse_control([" + ".join(terms)], sig)


def test_lift_to_nodes_single_class():
    net = fixtures.g3()
    g = symmetry_groupoid(net)
    assert g.representatives() == ("1",)
    ctrl = linear_ctrl(signature_at(net, "1"))
    w = lift_to_nodes(g, {"1": ctrl})
    assert w.mode == "per_node"
    assert all(w.controls[a] is ctrl for a in "123")  # expr transport is the identity


def test_lift_to_nodes_broadcast():
    net = fixtures.broadcast10()
    g = symmetry_groupoid(net)
    ctrl = linear_ctrl(signature_at(net, g.representatives()[0]))
    w = lift_to_nodes(g, {g.representatives()[0]: ctrl})
    assert len(w.controls) == 10


def test_lift_to_nodes_two_classes():
    net = fixtures.funnel4()
    g = symmetry_groupoid(net)
    c1 = linear_ctrl(signature_at(net, "1"))
    c3 = linear_ctrl(signature_at(net, "3"))
    w = lift_to_nodes(g, {"1": c1, "3": c3})
    assert w.controls["2"] is c1 and w.controls["4"] is c3


def test_lift_rejects_signature_mismatch():
    net = fixtures.funnel4()
    g = symmetry_groupoid(net)
    wrong = linear_ctrl(signature_at(net, "1"))  # no inputs; class of 3 has two
    with pytest.raises(SignatureMismatch):
        lift_to_nodes(g, {"1": wrong, "3": wrong})


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
    tree = fibra.input_tree(net, "4")
    rng = np.random.default_rng(1)
    for _ in range(10):
        root = sample_space(sig.root, rng)
        ins = [(l.edge_id, l.leaf_type, sample_space(l.leaf_type, rng)) for l in tree.leaves]
        assert np.array_equal(eval_control(two_steps, root, ins), eval_control(one_step, root, ins))


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
        for a, seen in dependency_matrix(X_lin, x0).items():
            assert seen <= expected[a]
        # a generic field realises every structural dependency exactly
        X_gen = interconnect(net, generic_field(net, seed=trial))
        assert dependency_matrix(X_gen, x0) == expected


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
    per_node = lift_to_nodes(symmetry_groupoid(psi.codomain), dict(w_prime.controls))
    pulled = pullback(psi, per_node)
    assert pulled.mode == "per_node"
    assert set(pulled.controls) == {"1", "2", "3"}


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
    assert np.isnan(field(x)).all()
    assert dependency_matrix(field, x) == {"a": {"a", "b"}, "b": {"a", "b"}}


def test_pullback_kernel_vanishing_off_essential_image():
    m = fixtures.c2_into_g3_mixed()
    cod = m.codomain
    g = symmetry_groupoid(cod)
    assert g.representatives() == ("1", "3")
    zero_core = parse_control(["0"], signature_at(cod, "1"))
    tail_only = parse_control(["x[0]", "x[1] + 1"], signature_at(cod, "3"))
    w_prime = per_class_field(cod, {"1": zero_core, "3": tail_only}, g)
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


def test_per_node_field_requires_every_node():
    net = fixtures.g3()
    sig = signature_at(net, "1")
    with pytest.raises(PreconditionError):
        per_node_field(net, {"1": linear_ctrl(sig)})
