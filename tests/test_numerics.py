import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fibra
from fibra import (
    IntegrationFault,
    PreconditionError,
    R1,
    RawControl,
    S1,
    certify_conjugacy,
    check_invariance,
    integrate,
    interconnect,
    network,
    parse_control,
    per_class_field,
    pullback_kernel_check,
    signature_at,
    symmetry_groupoid,
    verify_conjugacy_flow,
    verify_conjugacy_pointwise,
    verify_driving_decomposition,
    verify_polydiagonal_invariance,
)
from fibra import fixtures
from fibra.errors import EvaluationFault

from util import random_network, reference_integrate


def growth_field():
    # one self-loop node running du/dt = u
    net = network([("a", R1)], [("loop", "a", "a")])
    ctrl = parse_control(["sum(u in inputs[R1]) { u[0] }"], signature_at(net, "a"))
    return interconnect(net, per_class_field(net, {"a": ctrl}))


def test_integrate_zero_field_constant():
    net = fixtures.g3()
    X = interconnect(net, fixtures.zero_dynamics(net))
    traj = integrate(X, np.array([1.0, 2.0, 3.0]), T=2.0, h=0.1)
    assert traj.states.shape == (21, 3)
    assert np.array_equal(traj.states[0], traj.states[-1])


def test_integrate_exponential_growth():
    traj = integrate(growth_field(), np.array([1.0]), T=1.0, h=1e-3)
    assert len(traj.times) == 1001
    assert traj.states[-1][0] == pytest.approx(math.e, abs=1e-8)


def test_integrate_step_snapping():
    traj = integrate(growth_field(), np.array([1.0]), T=10.0, h=1e-3)
    assert len(traj.times) == 10_001  # no float-fuzz extra step
    traj = integrate(growth_field(), np.array([1.0]), T=0.25, h=0.1)
    assert len(traj.times) == 4  # ceil(2.5) = 3 steps


def test_integrate_zero_horizon():
    traj = integrate(growth_field(), np.array([4.0]), T=0.0, h=0.1)
    assert traj.states.shape == (1, 1)


def test_integrate_faults_on_blowup():
    net = network([("a", R1)], [("loop", "a", "a")])
    ctrl = parse_control(["sum(u in inputs[R1]) { u[0]^3 }"], signature_at(net, "a"))
    X = interconnect(net, per_class_field(net, {"a": ctrl}))
    with pytest.raises(IntegrationFault) as err:
        integrate(X, np.array([10.0]), T=10.0, h=0.5)
    assert err.value.step >= 1


def test_integrate_validates_arguments():
    X = growth_field()
    with pytest.raises(PreconditionError):
        integrate(X, np.array([1.0]), T=1.0, h=0.0)
    with pytest.raises(PreconditionError):
        integrate(X, np.array([1.0]), T=-1.0, h=0.1)
    with pytest.raises(PreconditionError):
        integrate(X, np.array([1.0, 2.0]), T=1.0, h=0.1)


@pytest.mark.parametrize(
    "T, h", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (1e300, 1e-300)]
)
def test_integrate_refuses_non_finite_horizon_or_step(T, h):
    net = fixtures.g3()
    X = interconnect(net, fixtures.linear_dynamics(net))
    with pytest.raises(PreconditionError):
        integrate(X, np.zeros(3), T=T, h=h)


# --- the in-place RK4 loop against the loop it replaced -------------------------------
# Each control adds a coordinate fold over every input group to a term in its own
# state; the starts reach the float maximum, where states blow up at different
# steps or, as a sum over the state overflows, stay finite.


def _fold_field(net, term):
    """Per class: ``term`` of each root coordinate plus a coordinate fold over each input group."""
    controls = {}
    for rep in symmetry_groupoid(net).representatives():
        sig = signature_at(net, rep)
        exprs = []
        for i in range(sig.root.dim):
            folds = [f"sum(u in inputs[{g}]) {{ u[{min(i, dim - 1)}] }}" for g, (dim, _) in sig.groups().items()]
            exprs.append(" + ".join([*folds, term.format(i=i)]))
        controls[rep] = parse_control(exprs, sig)
    return interconnect(net, per_class_field(net, controls))


def _trajectory(integrator, field, x0, T, h):
    """The times and states as bytes, or the fault that stopped them: ``sin`` faults on an infinite stage."""
    try:
        traj = integrator(field, x0, T, h)
    except (IntegrationFault, EvaluationFault) as fault:
        return type(fault), str(fault)
    return traj.times.tobytes(), traj.states.tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["-x[{i}]", "x[{i}]^2", "1e300 * x[{i}]", "3.0 * sin(x[{i}])"]),
    st.sampled_from([1.0, 1e150, 1e307, 1e308]),
    st.integers(0, 8),
)
def test_integrate_matches_reference_loop(seed, term, scale, steps):
    net = random_network(random.Random(seed))
    field = _fold_field(net, term)
    x0 = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, field.index.total_dim)
    x0[: seed % 3] = scale  # some coordinates at the scale itself, so sums over the state overflow
    with np.errstate(all="ignore"):  # the old loop's stage arithmetic warns on overflow
        expected = _trajectory(reference_integrate, field, x0, 0.5 * steps, 0.5)
    # bare: pytest turns a RuntimeWarning from the new loop into an error
    assert _trajectory(integrate, field, x0, 0.5 * steps, 0.5) == expected


def test_integrate_stays_finite_where_the_state_sum_overflows():
    # two nodes feeding each other stay at 1e308: every state is finite, the sum over one is not
    net = network([("a", R1), ("b", R1)], [("e1", "a", "b"), ("e2", "b", "a")])
    field = _fold_field(net, "-x[{i}]")
    x0 = np.array([1e308, 1e308])
    with np.errstate(all="ignore"):
        assert np.add.reduce(x0) == math.inf
    traj = integrate(field, x0, 0.05, 0.01)
    assert traj.states.tolist() == [[1e308, 1e308]] * 6
    assert _trajectory(integrate, field, x0, 0.05, 0.01) == _trajectory(reference_integrate, field, x0, 0.05, 0.01)


def _negative_count_calls():
    psi, tau, m = fixtures.g3_to_c2(), fixtures.c2_into_g3(), fixtures.g3_into_ten()
    w = fixtures.linear_dynamics(psi.codomain)
    return {
        "certify_conjugacy": lambda: certify_conjugacy(psi, w, samples=-3, T=1.0, h=0.1),
        "verify_conjugacy_pointwise": lambda: verify_conjugacy_pointwise(psi, w, samples=-3),
        "verify_driving_decomposition": lambda: verify_driving_decomposition(
            tau, fixtures.linear_dynamics(tau.codomain), samples=-2
        ),
        "check_invariance": lambda: check_invariance(w.control_at("a"), "a", psi.codomain, trials=-1),
        "pullback_kernel_check": lambda: pullback_kernel_check(
            m, fixtures.linear_dynamics(m.codomain), samples=-1
        ),
    }


@pytest.mark.parametrize("name", sorted(_negative_count_calls()))
def test_negative_sample_count_is_refused(name):
    with pytest.raises(PreconditionError, match="must be non-negative"):
        _negative_count_calls()[name]()


def test_rk4_order_on_exponential():
    hs = [1e-1, 1e-2, 1e-3]
    errs = []
    for h in hs:
        traj = integrate(growth_field(), np.array([1.0]), T=1.0, h=h)
        errs.append(abs(traj.states[-1][0] - math.e))
    slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


def test_g3_linear_diagonal_is_invariant():
    net = fixtures.g3()
    X = interconnect(net, fixtures.linear_dynamics(net))
    traj = integrate(X, np.array([0.7, 0.7, 0.7]), T=5.0, h=1e-2)
    spread = traj.states.max(axis=1) - traj.states.min(axis=1)
    assert spread.max() <= 1e-12


def test_conjugacy_pointwise_linear_exact():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    assert verify_conjugacy_pointwise(psi, w, samples=200, seed=0) == 0.0


def test_conjugacy_pointwise_hand_values():
    # both sides equal (x_b - x_a, x_a - x_b, x_b - x_a) for the linear control
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    p = fibra.phase_space_map(psi)
    Y = interconnect(psi.codomain, w)
    X = interconnect(psi.domain, fibra.pullback(psi, w))
    xp = np.array([0.3, -1.2])  # (x_a, x_b)
    lhs = p.differential(Y(xp))
    rhs = X(p(xp))
    expect = np.array([-1.2 - 0.3, 0.3 + 1.2, -1.2 - 0.3])
    assert np.array_equal(lhs, expect)
    assert np.array_equal(rhs, expect)


def test_conjugacy_pointwise_identity_map():
    net = fixtures.g3()
    w = fixtures.linear_dynamics(net)
    assert verify_conjugacy_pointwise(fibra.identity_map(net), w, samples=100, seed=1) == 0.0


def test_conjugacy_pointwise_kuramoto_string():
    m = fixtures.string_to_cycle(2, S1, S1)
    w = fixtures.kuramoto_dynamics(m.codomain)
    assert verify_conjugacy_pointwise(m, w, samples=1000, seed=2) <= 1e-12


def test_conjugacy_pointwise_random_fibrations():
    # the intertwining identity is exact in coordinates for expression
    # controls, on any generated fibration
    import random as _random

    from util import random_injective_fibration, random_surjective_fibration

    rng = _random.Random(71)
    for _ in range(15):
        for m in (random_surjective_fibration(rng), random_injective_fibration(rng)):
            w = fixtures.linear_dynamics(m.codomain)
            assert verify_conjugacy_pointwise(m, w, samples=40, seed=6) == 0.0


def test_conjugacy_flow_zero_field():
    psi = fixtures.g3_to_c2()
    w = fixtures.zero_dynamics(psi.codomain)
    assert verify_conjugacy_flow(psi, w, np.array([1.0, 2.0]), T=1.0, h=0.1) == 0.0


def test_conjugacy_flow_linear():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    dev = verify_conjugacy_flow(psi, w, np.array([0.4, -0.9]), T=1.0, h=1e-3)
    assert dev <= 1e-8


def test_conjugacy_flow_kuramoto_string():
    m = fixtures.string_to_cycle(2, S1, S1)
    w = fixtures.kuramoto_dynamics(m.codomain)
    dev = verify_conjugacy_flow(m, w, np.array([0.1, 2.0]), T=10.0, h=1e-3)
    assert dev <= 1e-6


def test_certify_conjugacy_report():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    report = certify_conjugacy(psi, w, samples=50, seed=9, T=1.0, h=1e-2)
    assert report.pointwise_max_residual <= 1e-12
    assert report.flow_max_deviation <= 1e-8
    again = certify_conjugacy(psi, w, samples=50, seed=9, T=1.0, h=1e-2)
    assert report == again  # reproducible from the seed


def test_polydiagonal_invariance_full_diagonal():
    phi = fixtures.g3_to_loop()
    w = fixtures.linear_dynamics(phi.codomain)
    drift = verify_polydiagonal_invariance(phi, w, np.array([0.7, 0.7, 0.7]), T=10.0, h=1e-3)
    assert drift <= 1e-10


def test_polydiagonal_invariance_partial_synchrony():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    x0 = np.array([0.3, -1.0, 0.3])  # x1 = x3 only
    drift = verify_polydiagonal_invariance(psi, w, x0, T=10.0, h=1e-3)
    assert drift <= 1e-10


def test_polydiagonal_rejects_off_subspace_start():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    with pytest.raises(PreconditionError):
        verify_polydiagonal_invariance(psi, w, np.array([0.3, -1.0, 0.8]), T=1.0, h=0.1)


def test_driving_decomposition_cycle_in_g3():
    tau = fixtures.c2_into_g3()
    w = fixtures.linear_dynamics(tau.codomain)
    report = verify_driving_decomposition(tau, w, samples=10, seed=0)
    assert report.ok
    assert report.feedback_edges == ()
    assert report.pointwise_max_residual == 0.0
    exact = verify_driving_decomposition(tau, w, samples=10, seed=0, tol=0.0)
    assert exact.ok and exact.pointwise_max_residual == 0.0  # passes on <=, as the conjugacy checks do


def test_driving_decomposition_fails_on_a_finite_residual_above_tol():
    # a raw control whose value counts its own calls is no function of its inputs: the domain and the
    # restricted codomain fields disagree by a finite amount, and that residual alone fails the report
    tau = fixtures.c2_into_g3()
    calls = itertools.count(1)
    w = per_class_field(tau.codomain, {"1": RawControl(signature_at(tau.codomain, "1"), lambda x, u: [next(calls)])})
    report = verify_driving_decomposition(tau, w, samples=5, seed=0)
    assert report.is_fibration and report.feedback_edges == ()
    assert math.isfinite(report.pointwise_max_residual) and report.pointwise_max_residual > 1e-8
    assert not report.ok


def test_driving_decomposition_core_in_broadcast():
    m = fixtures.g3_into_ten()
    w = fixtures.linear_dynamics(m.codomain)
    report = verify_driving_decomposition(m, w, samples=10, seed=1)
    assert report.ok and report.pointwise_max_residual == 0.0


def test_driving_decomposition_detects_feedback():
    # an injection with a back-edge from outside the image is not a
    # fibration, and the combinatorial check names the offending edge
    cod = network(
        [("a", R1), ("b", R1), ("z", R1)],
        [("ab", "a", "b"), ("ba", "b", "a"), ("za", "z", "a")],
    )
    dom = fixtures.cycle2()
    m = fibra.NetworkMap(dom, cod, {"a": "a", "b": "b"}, {"ab": "ab", "ba": "ba"})
    assert not fibra.check_fibration(m).is_fibration  # za has no lift at a
    w = fixtures.linear_dynamics(cod)
    report = verify_driving_decomposition(m, w, samples=5, seed=0)
    assert not report.ok
    assert not report.is_fibration
    assert report.feedback_edges == ("za",)
    assert report.pointwise_max_residual is None


def test_driving_decomposition_requires_injective():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    with pytest.raises(PreconditionError):
        verify_driving_decomposition(psi, w)


def test_driving_decomposition_raw_control_dependence_detected():
    # a raw control at an out-of-image node cannot leak into the image, but a
    # *claimed* driving structure with an actual feedback edge must fail
    cod = network(
        [("a", R1), ("b", R1), ("z", R1)],
        [("ab", "a", "b"), ("ba", "b", "a"), ("az", "a", "z")],
    )
    dom = fixtures.cycle2()
    m = fibra.NetworkMap(dom, cod, {"a": "a", "b": "b"}, {"ab": "ab", "ba": "ba"})
    assert fibra.check_fibration(m).is_fibration
    w = fixtures.linear_dynamics(cod)
    report = verify_driving_decomposition(m, w, samples=10, seed=2)
    assert report.ok  # az feeds forward, away from the image
