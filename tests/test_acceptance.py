"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

import numpy as np

import fibra
from fibra import (
    R1,
    R2,
    S1,
    check_fibration,
    check_invariance,
    coarsest_balanced,
    interconnect,
    parse_control,
    per_class_field,
    phase_space_map,
    pullback,
    pullback_kernel_check,
    signature_at,
    symmetry_groupoid,
    verify_conjugacy_flow,
    verify_conjugacy_pointwise,
    verify_driving_decomposition,
    verify_polydiagonal_invariance,
)
from fibra import fixtures
from fibra.sampling import sample_state

from util import (
    all_phase_homogeneous_partitions,
    naive_is_fibration,
    oracle_balanced,
    random_network,
)


@contextmanager
def criterion(num, name, limit=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    within = limit is None or elapsed <= limit
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if within else 'FAIL'} ({elapsed:.2f}s)")
    assert within, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"


def test_criterion_01_fibration_suite():
    with criterion(1, "fibration-suite", limit=1.0):
        to_loop = check_fibration(fixtures.g3_to_loop())
        assert to_loop.is_fibration and to_loop.surjective_on_nodes
        to_c2 = check_fibration(fixtures.g3_to_c2())
        assert to_c2.is_fibration and to_c2.surjective_on_nodes
        embedding = check_fibration(fixtures.c2_into_g3())
        assert embedding.is_fibration and embedding.injective_on_nodes
        collapse = check_fibration(fixtures.double_collapse())
        assert not collapse.is_fibration
        assert any(f.node == "b" and f.lift_count == 2 for f in collapse.failures)


def test_criterion_02_balanced_quotient_suite():
    with criterion(2, "balanced-quotient-suite", limit=60.0):
        for n in (2, 3):
            partition, quotient, projection = coarsest_balanced(fixtures.string_graph(n))
            odd = tuple(str(k) for k in range(1, 2 * n + 1) if k % 2 == 1)
            even = tuple(str(k) for k in range(1, 2 * n + 1) if k % 2 == 0)
            assert partition.blocks == (odd, even)
            # quotient shape: two nodes with exactly one edge each way
            assert len(quotient.graph.nodes) == 2
            assert sorted((e.src, e.tgt) for e in quotient.graph.edges) == [("1", "2"), ("2", "1")]
            assert quotient.space("1") == R1 and quotient.space("2") == R2
            assert check_fibration(projection).is_fibration

        rng = random.Random(2024)
        for k in range(200):
            # trial mix: single-space graphs exercise the full partition lattice
            spaces = (R1,) if k % 2 == 0 else (R1, R2, S1)
            net = random_network(rng, max_nodes=6, max_edges=8, spaces=spaces)
            computed, _, projection = coarsest_balanced(net)
            assert naive_is_fibration(projection)
            balanced = [
                p for p in all_phase_homogeneous_partitions(net) if oracle_balanced(net, p)
            ]
            assert any(p.blocks == computed.blocks for p in balanced)
            for p in balanced:
                assert p.refines(computed)


def test_criterion_03_groupoid_suite():
    with criterion(3, "groupoid-suite", limit=1.0):
        same = symmetry_groupoid(fixtures.funnel4())
        assert same.blocks == (("1", "2"), ("3", "4"))
        mixed = symmetry_groupoid(fixtures.funnel4(R1, R2))
        assert mixed.blocks == (("1", "2"), ("3",), ("4",))
        four = fixtures.four_node_multi()
        counts = [len(fibra.enumerate_tree_isos(four, a, a)) for a in "1234"]
        assert counts == [1, 2, 1, 6]  # explicit enumeration
        ten = fixtures.broadcast10()
        broadcast = symmetry_groupoid(ten)
        assert len(broadcast.blocks) == 1
        assert {fibra.aut_order(fibra.input_tree(ten, a)) for a in ten.graph.nodes} == {1}


CONJUGACY_PAIRS = [
    ("g3-to-loop/linear", lambda: (fixtures.g3_to_loop(), fixtures.linear_dynamics(fixtures.loop_net()))),
    ("g3-to-c2/linear", lambda: (fixtures.g3_to_c2(), fixtures.linear_dynamics(fixtures.cycle2()))),
    ("c2-into-g3/linear", lambda: (fixtures.c2_into_g3(), fixtures.linear_dynamics(fixtures.g3()))),
    ("c2-into-g3-mixed/linear", lambda: (fixtures.c2_into_g3_mixed(), fixtures.linear_dynamics(fixtures.g3_mixed()))),
    ("g3-into-ten/linear", lambda: (fixtures.g3_into_ten(), fixtures.linear_dynamics(fixtures.broadcast10()))),
    ("string2/linear", lambda: (fixtures.string_to_cycle(2), fixtures.linear_dynamics(fixtures.cycle2(R1, R2)))),
    ("string3/linear", lambda: (fixtures.string_to_cycle(3), fixtures.linear_dynamics(fixtures.cycle2(R1, R2)))),
    ("fork-to-chain/linear", lambda: (fixtures.fork_to_chain(), fixtures.linear_dynamics(fixtures.chain3()))),
    ("g3-to-loop-s1/kuramoto", lambda: (fixtures.g3_to_loop(S1), fixtures.kuramoto_dynamics(fixtures.loop_net(S1)))),
    ("g3-to-c2-s1/kuramoto", lambda: (fixtures.g3_to_c2(S1), fixtures.kuramoto_dynamics(fixtures.cycle2(S1, S1)))),
    ("string2-s1/kuramoto", lambda: (fixtures.string_to_cycle(2, S1, S1), fixtures.kuramoto_dynamics(fixtures.cycle2(S1, S1)))),
]


def test_criterion_04_intertwining_pointwise():
    with criterion(4, "intertwining-pointwise", limit=5.0):
        for name, build in CONJUGACY_PAIRS:
            m, w = build()
            residual = verify_conjugacy_pointwise(m, w, samples=1000, seed=0)
            assert residual <= 1e-12, f"{name}: residual {residual}"
        # the linear collapse case in coordinates: both sides are
        # (x_b - x_a, x_a - x_b, x_b - x_a)
        psi = fixtures.g3_to_c2()
        w = fixtures.linear_dynamics(psi.codomain)
        p = phase_space_map(psi)
        x = np.array([2.0, -3.0])  # (x_a, x_b)
        expect = np.array([-5.0, 5.0, -5.0])
        lhs = p.differential(interconnect(psi.codomain, w)(x))
        rhs = interconnect(psi.domain, pullback(psi, w))(p(x))
        assert np.array_equal(lhs, expect) and np.array_equal(rhs, expect)


def test_criterion_05_flow_commutation():
    with criterion(5, "flow-commutation", limit=30.0):
        linear_cases = [
            (fixtures.g3_to_loop(), fixtures.linear_dynamics(fixtures.loop_net()), np.array([0.8])),
            (fixtures.g3_to_c2(), fixtures.linear_dynamics(fixtures.cycle2()), np.array([0.4, -0.9])),
            (fixtures.c2_into_g3(), fixtures.linear_dynamics(fixtures.g3()), np.array([0.4, -0.9, 0.2])),
        ]
        for m, w, x0 in linear_cases:
            assert verify_conjugacy_flow(m, w, x0, T=1.0, h=1e-3) <= 1e-8
        kuramoto = fixtures.string_to_cycle(2, S1, S1)
        wk = fixtures.kuramoto_dynamics(kuramoto.codomain)
        deviation = verify_conjugacy_flow(kuramoto, wk, np.array([0.1, 2.0]), T=10.0, h=1e-3)
        assert deviation <= 1e-6


def test_criterion_06_synchrony_invariance():
    with criterion(6, "synchrony-invariance", limit=30.0):
        phi = fixtures.g3_to_loop()
        w_loop = fixtures.linear_dynamics(fixtures.loop_net())
        diagonal_drift = verify_polydiagonal_invariance(
            phi, w_loop, np.array([0.7, 0.7, 0.7]), T=10.0, h=1e-3
        )
        assert diagonal_drift <= 1e-9
        psi = fixtures.g3_to_c2()
        w_c2 = fixtures.linear_dynamics(fixtures.cycle2())
        partial_drift = verify_polydiagonal_invariance(
            psi, w_c2, np.array([0.3, -1.0, 0.3]), T=10.0, h=1e-3
        )
        assert partial_drift <= 1e-9


def test_criterion_07_driving_decomposition():
    with criterion(7, "driving-decomposition", limit=30.0):
        tau = fixtures.c2_into_g3()
        report = verify_driving_decomposition(tau, fixtures.linear_dynamics(fixtures.g3()), samples=20, seed=0)
        assert report.ok and report.pointwise_max_residual == 0.0
        incl = fixtures.g3_into_ten()
        report = verify_driving_decomposition(
            incl, fixtures.linear_dynamics(fixtures.broadcast10()), samples=20, seed=0
        )
        assert report.ok and report.pointwise_max_residual == 0.0


def test_criterion_08_pullback_kernel():
    with criterion(8, "pullback-kernel", limit=30.0):
        # essential image misses the retyped tail node
        m = fixtures.c2_into_g3_mixed()
        cod = m.codomain
        assert fibra.essential_image(m) != cod.graph.node_set
        off_image = per_class_field(
            cod,
            {
                "1": parse_control(["0"], signature_at(cod, "1")),
                "3": parse_control(["x[0] + 1", "x[1] - 2"], signature_at(cod, "3")),
            },
        )
        pulled = pullback(m, off_image)
        X = interconnect(m.domain, pulled)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert np.array_equal(X(sample_state(X.index, rng)), np.zeros(X.index.total_dim))
        assert pullback_kernel_check(m, off_image, samples=100, seed=0)

        # essentially surjective inclusion: only the zero field pulls back to zero
        incl = fixtures.g3_into_ten()
        assert fibra.essential_image(incl) == incl.codomain.graph.node_set
        generic = fixtures.linear_dynamics(incl.codomain)
        Xg = interconnect(incl.domain, pullback(incl, generic))
        assert any(
            np.abs(Xg(sample_state(Xg.index, rng))).max() > 1e-6 for _ in range(50)
        )
        assert pullback_kernel_check(incl, generic, samples=100, seed=0)
        zero = fixtures.zero_dynamics(incl.codomain)
        Xz = interconnect(incl.domain, pullback(incl, zero))
        for _ in range(100):
            assert np.array_equal(Xz(sample_state(Xz.index, rng)), np.zeros(Xz.index.total_dim))
        assert pullback_kernel_check(incl, zero, samples=100, seed=0)


def test_criterion_09_rk4_order():
    with criterion(9, "rk4-order", limit=30.0):
        net = fibra.network([("a", R1)], [("loop", "a", "a")])
        ctrl = parse_control(["sum(u in inputs[R1]) { u[0] }"], signature_at(net, "a"))
        X = interconnect(net, per_class_field(net, {"a": ctrl}))
        hs = [1e-1, 1e-2, 1e-3]
        errs = []
        for h in hs:
            traj = fibra.integrate(X, np.array([1.0]), T=1.0, h=h)
            errs.append(abs(traj.states[-1][0] - np.e))
        slope = float(np.polyfit(np.log10(hs), np.log10(errs), 1)[0])
        assert abs(slope - 4.0) <= 0.2, f"slope {slope}"


def test_criterion_10_invariance_by_construction():
    with criterion(10, "invariance-by-construction", limit=30.0):
        four_r = fixtures.four_node_multi()
        four_s = fixtures.four_node_multi(S1)
        cases = [
            (four_r, "4", parse_control(
                ["sum(u in inputs[R1]) { exp(u[0]) * sin(u[0] - x[0]) }"], signature_at(four_r, "4"))),
            (four_r, "2", parse_control(
                ["mean(u in inputs[R1]) { u[0]^3 - x[0] }"], signature_at(four_r, "2"))),
            (four_s, "4", parse_control(
                ["sum(u in inputs[S1]) { sin(u[0] - x[0]) }"], signature_at(four_s, "4"))),
            (four_s, "2", parse_control(
                ["mean(u in inputs[S1]) { cos(u[0]) } * sin(x[0])"], signature_at(four_s, "2"))),
        ]
        total = 0
        for net, node, ctrl in cases:
            residual = check_invariance(ctrl, node, net, trials=2500, seed=17)
            assert residual == 0.0
            total += 2500
        assert total == 10_000
