"""Controls bound once per node against the per-call path they replaced.

``GlobalField``, ``bind_control``, ``eval_control`` and ``evaluate`` must give bitwise
what the per-call evaluator and the scalar tree walk in ``util`` give, for
expression, raw and transported controls; the driving check must fail
exactly on the injections that are not fibrations and read the restriction
conjugacy on those that are; and the sampled checks, which make all their
draws as one batch, must reach the verdicts of the per-sample loops.
Each property draws one seed, from which ``util.Seeded`` builds its case: a
planted network (mixed R1/R2/S1 spaces, self-loops, parallel edges, isolated
nodes, deep class splits, lifts, inputs out of typed order), a field on it
and its states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fibra import (
    ControlExpr,
    GlobalField,
    NetworkMap,
    R1,
    R2,
    RawControl,
    S1,
    SignatureMismatch,
    TreeIso,
    check_fibration,
    check_invariance,
    ctrl_transport,
    enumerate_tree_isos,
    euclidean,
    eval_control,
    evaluate,
    fixtures,
    input_tree,
    integrate,
    network,
    parse_control,
    per_class_field,
    per_node_field,
    pullback,
    signature_at,
    symmetry_groupoid,
    total_phase_space,
    verify_driving_decomposition,
)
from fibra import dynamics, expr_dsl
from fibra.dynamics import VirtualVectorField, _vanishes_on_samples, bind_control
from fibra.errors import EvaluationFault, IntegrationFault
from fibra.expr_dsl import (
    ControlSignature, _canonical_order, compile_control, group_positions, stack_columns,
)
from fibra.sampling import sample_state, sample_states

from util import (
    BOUND,
    FOLD_VALUES,
    FOLDS,
    GRAMMAR,
    VALUES,
    WIDE,
    cases,
    random_injection,
    random_injective_fibration,
    random_lift,
    random_network,
    random_surjective_fibration,
    raw_control,
    reference_bind,
    reference_canonical_witness,
    reference_check_invariance,
    reference_eval_control,
    reference_evaluate,
    reference_field,
    reference_integrate,
    reference_pointwise_residual,
    reference_transport,
    reference_vanishes_on_samples,
)

SPACES = (R1, R2, S1)
MAX_NODES = 5  # these tests evaluate controls node by node, so their networks stay small


def labelled_inputs(net, a, x, index):
    return [(l.edge_id, l.leaf_type, x[index.slice_of(l.source_node)]) for l in input_tree(net, a).leaves]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(cases())
def test_field_and_eval_control_match_per_call_path(case):
    net = case.network(MAX_NODES)
    w = case.field(net)
    field, reference = GlobalField(net, w), reference_field(net, w)
    rng = case.rng()
    for _ in range(3):
        x = sample_state(field.index, rng)
        assert same_bits(field(x), reference(x))
        for a in net.graph.nodes:
            root, inputs = x[field.index.slice_of(a)], labelled_inputs(net, a, x, field.index)
            ctrl = w.control_at(a)
            assert same_bits(eval_control(ctrl, root, inputs), reference_eval_control(ctrl, root, inputs))


@pytest.mark.parametrize(
    "make",
    [lambda: fixtures.string_graph(8), fixtures.broadcast10, fixtures.g3_mixed],
    ids=["string16", "broadcast10", "g3-mixed"],
)
def test_a_raw_class_is_one_unit_built_without_transport(make):
    # the canonical isomorphism pairs a class's same-type inputs by position in edge-id order, the order
    # each member's inputs are gathered in, so a build moves no control and binds each class once
    net = make()
    classes = symmetry_groupoid(net).blocks
    w = per_class_field(net, {b[0]: raw_control(signature_at(net, b[0]), net) for b in classes})
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in [(dynamics, "canonical_isos"), (dynamics, "_transported"), (VirtualVectorField, "control_at")]:
            original = getattr(owner, name)
            patch.setattr(owner, name, lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
        field = GlobalField(net, w)
    assert calls == []
    assert len(field._units) == len(classes) < len(net.graph.nodes)
    reference = reference_field(net, w)
    states = sample_states(field.index, np.random.default_rng(0), 3)
    for x, row in zip(states, field(states)):
        assert same_bits(row, reference(x)) and same_bits(field(x), row)


@given(cases())
def test_evaluate_matches_per_call_path(case):
    net, rng = case.network(MAX_NODES), case.rng()
    for a in net.graph.nodes:
        ctrl = case.expression(signature_at(net, a))
        leaves = input_tree(net, a).leaves
        leaves = case.sample(leaves, len(leaves))
        for _ in range(3):
            root = rng.uniform(-2, 2, ctrl.signature.root.dim)
            inputs = [(case.choice([l.leaf_type, l.leaf_type.name]), rng.uniform(-2, 2, l.leaf_type.dim)) for l in leaves]
            assert same_bits(evaluate(ctrl, root, inputs), reference_evaluate(ctrl, root, inputs))


def test_transported_kinds_are_covered():
    net = network([("a", R1), ("b", R1)], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "b")])
    sig = signature_at(net, "b")
    swap = [i for i in enumerate_tree_isos(net, "b", "b") if not i.is_identity]
    raw = raw_control(sig, net)
    moved = ctrl_transport(swap[0], ctrl_transport(swap[1], raw))
    assert type(moved) is RawControl and moved.signature == sig
    # an expression, and any control along an identity, transport to themselves
    expr = parse_control(["sum(u in inputs[R1]) { u[0] * 3.0 } - x[0]"], sig)
    assert ctrl_transport(swap[0], expr) is expr
    assert ctrl_transport(enumerate_tree_isos(net, "b", "b")[0], raw) is raw
    w = per_node_field(net, {"a": raw_control(signature_at(net, "a"), net), "b": moved})
    x = np.array([0.25, -0.75])
    assert same_bits(GlobalField(net, w)(x), reference_field(net, w)(x))
    inputs = labelled_inputs(net, "b", x, total_phase_space(net))
    for ctrl in (moved, expr):
        assert same_bits(eval_control(ctrl, x[1:], inputs), reference_eval_control(ctrl, x[1:], inputs))


# --- transport against a hand-relabelled oracle --------------------------------------


def _typed_out_of_id_order():
    """Node b reads S1, R1, R1, S1 inputs in edge-id order: typed order e2, e3, e1, e4."""
    return network(
        [("a", R1), ("s", S1), ("b", R1)],
        [("e1", "s", "b"), ("e2", "a", "b"), ("e3", "b", "b"), ("e4", "s", "b"), ("e5", "b", "a")],
    )


def _agree(ctrl, hand, net, a, rng, trials=3):
    """``ctrl`` through ``eval_control`` and ``hand`` through the per-call path give the same bits at random states."""
    index = total_phase_space(net)
    for _ in range(trials):
        x = sample_state(index, rng)
        root, inputs = x[index.slice_of(a)], labelled_inputs(net, a, x, index)
        assert same_bits(eval_control(ctrl, root, inputs), reference_eval_control(hand, root, inputs))


@given(cases())
def test_transport_matches_hand_relabelling(case):
    net = _typed_out_of_id_order() if case.random() < 0.5 else case.network(MAX_NODES)
    a = case.choice(sorted(net.graph.nodes))
    raw = raw_control(signature_at(net, a), net)
    sigma, tau = (case.choice(enumerate_tree_isos(net, a, a, cap=math.inf)) for _ in range(2))
    rng = case.rng()
    _agree(ctrl_transport(sigma, raw), reference_transport(sigma, raw), net, a, rng)
    twice = ctrl_transport(tau, ctrl_transport(sigma, raw))
    _agree(twice, reference_transport(tau, reference_transport(sigma, raw)), net, a, rng)
    composed = {k: tau.leaf_bijection[v] for k, v in sigma.leaf_bijection.items()}  # sigma then tau, by hand
    _agree(twice, reference_transport(TreeIso(a, a, composed), raw), net, a, rng)


def test_transport_reads_the_base_order_not_the_typed_order():
    # the swap of b's two S1 inputs moves e1's state to e4 and back; the R1 inputs stay
    net = _typed_out_of_id_order()
    pick = RawControl(signature_at(net, "b"), lambda x, ins: np.array([ins[0][1][0] - 10.0 * ins[3][1][0]]))
    # enumerated, so its bijection lists the leaves in typed order
    exchange = {"e1": "e4", "e2": "e2", "e3": "e3", "e4": "e1"}
    swap = next(i for i in enumerate_tree_isos(net, "b", "b") if i.leaf_bijection == exchange)
    ins = [(f"e{k}", space, np.array([float(k)])) for k, space in enumerate([S1, R1, R1, S1], 1)]
    assert eval_control(pick, np.zeros(1), ins)[0] == 1.0 - 40.0
    assert eval_control(ctrl_transport(swap, pick), np.zeros(1), ins)[0] == 4.0 - 10.0


@given(cases())
def test_pullback_of_raw_class_fields_matches_hand_relabelling(case):
    m = random_surjective_fibration(case)
    cod, groupoid = m.codomain, symmetry_groupoid(m.codomain)
    controls = {r: raw_control(signature_at(cod, r), cod) for r in groupoid.representatives()}
    pulled = pullback(m, per_class_field(cod, controls))
    rng = case.rng()
    for a in m.domain.graph.nodes:
        # the representative's leaves -> its class member b's, by position in each typed block -> a's, through
        # the edge map
        b = m.node_map[a]
        r = groupoid.block_id(b)
        to_b = reference_canonical_witness(cod, r, b).leaf_bijection
        to_a = {m.edge_map[e.edge_id]: e.edge_id for e in m.domain.in_edges(a)}
        hand = reference_transport(TreeIso(r, a, {k: to_a[v] for k, v in to_b.items()}), controls[r])
        _agree(pulled.control_at(a), hand, m.domain, a, rng, trials=2)


# --- boundary checks ----------------------------------------------------------------


def _kuramoto_node():
    net = network([("a", S1), ("b", S1), ("c", R2)], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "c", "b")])
    sig = signature_at(net, "b")
    expr = parse_control(["sum(u in inputs[S1]) { sin(u[0] - x[0]) } + sum(v in inputs[R2]) { v[1] }"], sig)
    ins = [("e1", S1, np.array([0.5])), ("e2", S1, np.array([1.5])), ("e3", R2, np.array([1.0, 2.0]))]
    return net, sig, expr, ins


def test_wrong_root_dimension_raises():
    swap = TreeIso("b", "b", {"e1": "e2", "e2": "e1", "e3": "e3"})
    net, sig, expr, ins = _kuramoto_node()
    for ctrl in (expr, raw_control(sig, net), ctrl_transport(swap, raw_control(sig, net))):
        with pytest.raises(SignatureMismatch, match="root state has dimension 2"):
            eval_control(ctrl, np.zeros(2), ins)
    with pytest.raises(SignatureMismatch, match="root state"):
        evaluate(expr, np.zeros(2), [(space, state) for _, space, state in ins])


def test_wrong_input_dimension_raises():
    net, sig, expr, ins = _kuramoto_node()
    bad = ins[:2] + [("e3", R2, np.array([1.0, 2.0, 3.0]))]
    for ctrl in (expr, raw_control(sig, net)):  # raw inputs are checked at the boundary too
        with pytest.raises(SignatureMismatch, match="dimension 3"):
            eval_control(ctrl, np.zeros(1), bad)
    with pytest.raises(SignatureMismatch, match="input of type R2 has dimension 3"):
        evaluate(expr, np.zeros(1), [(space, state) for _, space, state in bad])


def test_unknown_input_type_raises():
    _, _, expr, ins = _kuramoto_node()
    bad = ins + [("e9", R1, np.array([0.0]))]
    with pytest.raises(SignatureMismatch, match="input of type R1 not in signature groups"):
        eval_control(expr, np.zeros(1), bad)
    with pytest.raises(SignatureMismatch, match="input of type R1 not in signature groups"):
        evaluate(expr, np.zeros(1), [("R1", np.zeros(1))])


def test_field_rejects_control_of_wrong_root_space():
    net, *_ = _kuramoto_node()
    w = per_node_field(net, {a: raw_control(signature_at(net, a), net) for a in net.graph.nodes})
    wrong = RawControl(signature_at(net, "c"), lambda x, ins: x)  # R2 root at S1 node b
    with pytest.raises(SignatureMismatch):
        GlobalField(net, VirtualVectorField(net, "per_node", {**w.controls, "b": wrong}))


# --- joint field -------------------------------------------------------------------


def _fibration(case):
    """A lift of a planted network, a random injective fibration, or the identity of a planted or an all-circle
    network."""
    kind = case.randrange(4)
    if kind == 0:
        return random_lift(case, case.network(2))
    if kind == 1:
        return random_injective_fibration(case)
    net = case.network(MAX_NODES) if kind == 2 else random_network(case, spaces=(S1,))
    return NetworkMap(net, net, {a: a for a in net.graph.nodes}, {e.edge_id: e.edge_id for e in net.graph.edges})


class _Counted:
    """A field that counts its calls."""

    def __init__(self, field):
        self.field, self.index, self.calls = field, field.index, 0

    def __call__(self, x):
        self.calls += 1
        return self.field(x)


def _integrated(field, x0):
    """The trajectory over three steps, or where the first fault stopped it.

    A fault is (the field calls made, the failing one included; whether the
    state was not finite).  A step makes four calls, and a fault inside a call,
    such as ``sin`` of an infinite stage, comes before the check that ends it.
    """
    counted = _Counted(field)
    try:
        with np.errstate(all="ignore"):  # raw controls may overflow, in every path alike
            return integrate(counted, x0, 0.03, 0.01)
    except (EvaluationFault, IntegrationFault) as fault:
        return counted.calls, isinstance(fault, IntegrationFault)


@given(cases())
def test_joint_field_matches_each_side_alone(case):
    """``[codomain | domain]`` gives each side's own bits, also when integrated.

    The domain side holds the pullback, as certification builds it, or a field
    drawn on its own; an identity map's sides share their node ids.
    """
    m = _fibration(case)
    w = case.field(m.codomain)
    w_domain = case.field(m.domain) if case.random() < 0.5 else pullback(m, w)
    sides = [(m.codomain, w), (m.domain, w_domain)]
    field = GlobalField(m.codomain, w, sides[1])
    split = total_phase_space(m.codomain).total_dim
    columns = [slice(None, split), slice(split, None)]
    references = [reference_field(net, v) for net, v in sides]
    assert field.index.order == tuple(
        (i, a) for i, (net, _) in enumerate(sides) for a in total_phase_space(net).order
    )
    assert field.index.total_dim == split + total_phase_space(m.domain).total_dim
    states = sample_states(field.index, case.rng(), case.randint(1, 4))
    batch = field(states)
    for x, row in zip(states, batch):
        assert same_bits(field(x), row)
        for reference, part in zip(references, columns):
            assert same_bits(row[part], reference(x[part]))
    joint = _integrated(field, states[0])
    alone = [_integrated(reference, states[0][part]) for reference, part in zip(references, columns)]
    faults = [side for side in alone if isinstance(side, tuple)]
    if faults:  # one trajectory stops at the first fault of either side
        assert joint == min(faults)
    else:
        for side, part in zip(alone, columns):
            assert same_bits(joint.states[:, part], side.states)


# --- driving check -------------------------------------------------------------------


@given(cases())
def test_driving_verdict_is_the_fibration_test_and_its_residual_the_conjugacy(case):
    feedback = case.random() < 0.5
    m = random_injection(case, feedback)
    raw = case.random() < 0.5
    controls = {}
    for rep in symmetry_groupoid(m.codomain).representatives():
        sig = signature_at(m.codomain, rep)
        controls[rep] = raw_control(sig, m.codomain) if raw else case.expression(sig)
    w = per_class_field(m.codomain, controls)
    samples = case.randint(0, 5)
    report = verify_driving_decomposition(m, w, samples=samples, seed=case.randint(0, 1000))
    is_fibration = check_fibration(m).is_fibration
    assert is_fibration is not feedback  # a feedback edge has no lift
    assert report.is_fibration is is_fibration and report.feedback_edges == (("fb",) if feedback else ())
    assert report.ok is is_fibration
    if not is_fibration:
        assert report.pointwise_max_residual is None
    elif raw:
        assert report.pointwise_max_residual <= 1e-12
    else:
        assert report.pointwise_max_residual == 0.0


def test_driving_with_raw_control_at_feedback_source():
    # image {a, b}; c feeds b (feedback) and has a raw control; d is outside and unreached
    cod = network(
        [("a", R1), ("b", R2), ("c", R1), ("d", S1)],
        [("e1", "a", "b"), ("e2", "c", "b"), ("e3", "d", "c"), ("e4", "b", "d"), ("e5", "c", "c")],
    )
    dom = network([("a", R1), ("b", R2)], [("e1", "a", "b")])
    m = NetworkMap(dom, cod, {"a": "a", "b": "b"}, {"e1": "e1"})
    controls = {a: raw_control(signature_at(cod, a), cod) for a in symmetry_groupoid(cod).representatives()}
    w = per_class_field(cod, controls)
    report = verify_driving_decomposition(m, w, samples=4, seed=3)
    assert report.feedback_edges == ("e2",) and not report.ok
    assert report.pointwise_max_residual is None
    # without the feedback edge the inclusion is a fibration, and restriction intertwines the raw fields
    cod2 = network(list(cod.phase.items()), [(e.edge_id, e.src, e.tgt) for e in cod.graph.edges if e.edge_id != "e2"])
    m2 = NetworkMap(dom, cod2, m.node_map, m.edge_map)
    w2 = per_class_field(cod2, {a: raw_control(signature_at(cod2, a), cod2) for a in symmetry_groupoid(cod2).representatives()})
    report2 = verify_driving_decomposition(m2, w2, samples=4, seed=3)
    assert report2.feedback_edges == () and report2.ok
    assert report2.pointwise_max_residual == reference_pointwise_residual(m2, w2, samples=4, seed=3) <= 1e-12


# --- batched kernels against the scalar tree walk ------------------------------------
# Compiled controls run a whole batch of nodes in one pass.  Every construct of
# the grammar is drawn: all eight functions, ``^`` with negative exponents and
# overflow, ``mean``, nested aggregators, constants that overflow, and input
# states drawn from a pool with ties, -0.0 and 0.0.  Outputs must match the
# tree walk bit for bit; a fault must raise the same class, and in a batch of
# one the same message.


def outcome(fn, *args, message=True):
    """The output's bits, or the exception class (and message) it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc), str(exc) if message else None
    return out.dtype, out.shape, out.tobytes()


@given(cases())
def test_bind_and_evaluate_match_tree_walk(case):
    inputs = case.choices(SPACES, k=case.randint(0, 5))
    sig = ControlSignature(case.choice(SPACES), tuple(inputs))
    ctrl = case.expression(sig, GRAMMAR)
    types = case.sample(inputs, len(inputs))
    if types and case.random() < 0.5:
        types = types[1:]  # a group may go missing, where mean faults
    root = case.values(VALUES, sig.root.dim)
    states = [case.values(VALUES, t.dim) for t in types]
    pairs = list(zip(types, states))
    assert outcome(evaluate, ctrl, root, pairs) == outcome(reference_bind(ctrl, types), root, states)
    assert outcome(evaluate, ctrl, root, pairs) == outcome(reference_evaluate, ctrl, root, pairs)


@given(cases())
def test_field_matches_tree_walk(case):
    net = case.network(MAX_NODES)
    w = case.field(net, GRAMMAR)
    field, reference = GlobalField(net, w), reference_field(net, w)
    for _ in range(3):
        x = case.values(VALUES, field.index.total_dim)
        with np.errstate(all="ignore"):  # as the field's callers set it
            assert outcome(field, x, message=False) == outcome(reference, x, message=False)


def test_large_batch_matches_tree_walk():
    # 300 nodes share one control: three R1 and three R2 inputs each, drawn with
    # repeats (parallel edges, so tied inputs) from sources that have no inputs
    rng = np.random.default_rng(7)
    sources = [(f"s{i}", R1 if i % 2 else R2) for i in range(20)]
    r1 = [a for a, s in sources if s is R1]
    r2 = [a for a, s in sources if s is R2]
    targets = [f"t{i:03d}" for i in range(300)]
    edges = [
        (f"e{t}{k}", str(src), t)
        for t in targets
        for k, src in enumerate([*rng.choice(r1, 3), *rng.choice(r2, 3)])
    ]
    net = network(sources + [(t, R1) for t in targets], edges)
    g = symmetry_groupoid(net)
    assert len(g.block_of("t000")) == 300
    body = (
        "sum(u in inputs[R1]) { exp(u[0]) * tanh(x[0] - u[0]) + tan(u[0]) }"
        " + mean(v in inputs[R2]) { sin(v[0]) * cos(v[1]) + log(1 + v[1]^2) + sqrt(abs(v[0])) }"
        " + sum(u in inputs[R1]) { sum(v in inputs[R2]) { u[0] * v[1] - v[0] / 3 } }"
        " + (x[0] + 3)^-2 + (x[0] * 1000)^3"
    )
    controls = {rep: parse_control(["-x[0]"] * net.space(rep).dim, signature_at(net, rep)) for rep in g.representatives()}
    controls[g.block_id("t000")] = parse_control([body], signature_at(net, "t000"))
    w = per_class_field(net, controls)
    field, reference = GlobalField(net, w), reference_field(net, w)
    for _ in range(4):
        x = sample_state(field.index, rng)
        x[rng.random(x.size) < 0.2] = -0.0
        assert same_bits(field(x), reference(x))


def _nan_last(state):
    """Sort key: by value, coordinate by coordinate, with a NaN coordinate after every number."""
    return [(math.isnan(c), 0.0 if math.isnan(c) else c) for c in state.tolist()]


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.nan]), min_size=dim, max_size=dim),
                     min_size=0, max_size=40),
            min_size=1, max_size=4,
        ).filter(lambda ms: len({len(m) for m in ms}) == 1).map(lambda ms: (dim, ms))
    )
)
def test_canonical_order_is_stable_sort_by_value(case):
    dim, members = case
    values = np.array(members, dtype=float).reshape(len(members), len(members[0]), dim)
    expected = np.array([sorted(m, key=_nan_last) for m in values]).reshape(values.shape)
    assert same_bits(_canonical_order(values), expected)


# --- coordinate folds and the groups they leave unsorted -------------------------------
# ``sum(u in inputs[G]) { u[i] }`` and its ``mean`` fold column i of the group array, and
# a group read only by such folds is sorted only when it holds three or more inputs.
# Two-input groups of dim 1 and 2 are drawn with ties, -0.0 and 0.0, +-inf and sums
# that overflow, beside aggregates whose bodies are not a coordinate and nested ones.


def run_with(ctrl, roots, groups):
    """One call of the control's kernel, bound to the groups' input counts and under the error state its
    callers set, as one (m, d_root) array."""
    with np.errstate(all="ignore"):
        return stack_columns(compile_control(ctrl, [g.shape[1] for g in groups])(roots, groups), len(roots))


@given(cases())
def test_coordinate_folds_match_tree_walk(case):
    counts = {R1: case.randint(0, 3), R2: case.randint(0, 3)}
    inputs = tuple(s for s, n in counts.items() for _ in range(n))
    sig = ControlSignature(case.choice([R1, R2]), inputs)
    groups = sig.groups()
    if not groups:
        return
    ctrl = case.expression(sig, FOLDS)
    types = case.sample(inputs, len(inputs))
    if case.random() < 0.5:  # a group may go missing, where mean faults
        gone = case.choice(sorted(groups))
        types = [t for t in types if t.name != gone]
    m = case.randint(1, 4)
    roots = case.values(FOLD_VALUES, m, sig.root.dim)
    members = [[case.values(FOLD_VALUES, t.dim) for t in types] for _ in range(m)]
    batch = [
        np.array([[states[i] for i in pos] for states in members]).reshape(m, len(pos), dim)
        for pos, (dim, _) in zip(group_positions(sig, types), groups.values())
    ]
    walk = reference_bind(ctrl, types)
    rows = [outcome(walk, root, states) for root, states in zip(roots, members)]
    got = outcome(run_with, ctrl, roots, batch)
    if isinstance(rows[0][0], type):  # only an empty mean faults, at every member alike
        assert got == rows[0]
    else:
        assert got[2] == b"".join(row[2] for row in rows)


@pytest.mark.parametrize("op", ["sum", "mean"])
def test_three_input_fold_is_sorted(op):
    # 1 + 1e-16 rounds to 1, so the sum of these three depends on their order
    ctrl = parse_control([f"{op}(u in inputs[R1]) {{ u[0] }}"], ControlSignature(R1, (R1, R1, R1)))
    states = [np.array([1.0]), np.array([1e-16]), np.array([-1.0])]
    out = run_with(ctrl, np.zeros((1, 1)), [np.array(states).reshape(1, 3, 1)])
    assert same_bits(out[0], reference_bind(ctrl, [R1] * 3)(np.zeros(1), states))
    assert out[0, 0] != (0.0 + 1.0 + 1e-16 - 1.0) / (3 if op == "mean" else 1)


@pytest.mark.parametrize("op", ["sum", "mean"])
def test_two_input_group_read_by_another_body_is_sorted(op):
    # past +-0.2 an input makes a NaN, of one sign bit for a positive input and the other for a negative one, and
    # a sum of two NaNs keeps the first one's bits: a group of two that a body other than a coordinate reads is
    # sorted, as the tree walk sorts it
    body = "-(u[0] * 1e308 * 10.0 - 1e308 * 10.0) + (u[0] * 1e308 * 10.0 + 1e308 * 10.0)"
    ctrl = parse_control([f"{op}(u in inputs[R1]) {{ {body} }}"], ControlSignature(R1, (R1, R1)))
    states = [np.array([0.5]), np.array([-0.5])]
    out = run_with(ctrl, np.zeros((1, 1)), [np.array(states).reshape(1, 2, 1)])
    assert same_bits(out[0], reference_bind(ctrl, [R1, R1])(np.zeros(1), states))
    with np.errstate(all="ignore"):
        first, second = (-(u * 1e308 * 10.0 - 1e308 * 10.0) + (u * 1e308 * 10.0 + 1e308 * 10.0) for u in np.array([0.5, -0.5]))
    assert math.isnan(first) and math.isnan(second) and (first + second).tobytes() != (second + first).tobytes()


def _sorted_groups(monkeypatch, source, inputs):
    """The (count, dim) of each group array a kernel sorts, the same at each of three calls of one kernel.

    The kernel is bound once, to the signature's input counts, and that takes the one sort decision.
    """
    seen, decisions = [], []

    def counted(values):
        seen[-1].append(values.shape[1:])
        return _canonical_order(values)

    decide = expr_dsl._groups_to_sort
    monkeypatch.setattr(expr_dsl, "_canonical_order", counted)
    monkeypatch.setattr(expr_dsl, "_groups_to_sort", lambda *args: decisions.append(args) or decide(*args))
    sig = ControlSignature(R1, inputs)
    groups = [np.zeros((2, count, dim)) for dim, count in sig.groups().values()]
    kernel = compile_control(parse_control([source], sig), [count for _, count in sig.groups().values()])
    for _ in range(3):
        seen.append([])
        kernel(np.zeros((2, 1)), groups)
    assert len(decisions) == 1 and seen[0] == seen[1] == seen[2]
    return seen[0]


def test_only_visible_order_is_sorted(monkeypatch):
    two = (R1, R1, R2, R2)
    folds = "sum(u in inputs[R1]) { u[0] } + mean(v in inputs[R2]) { v[1] }"
    assert _sorted_groups(monkeypatch, folds, two) == []
    assert _sorted_groups(monkeypatch, folds, (R1, R1, R1, R2, R2)) == [(3, 1)]
    assert _sorted_groups(monkeypatch, folds + " + sum(v in inputs[R2]) { v[1] * x[0] }", two) == [(2, 2)]
    nested = "sum(u in inputs[R1]) { sum(v in inputs[R2]) { v[0] } }"  # the outer body is no coordinate
    assert _sorted_groups(monkeypatch, nested, two) == [(2, 1)]
    outer = "sum(u in inputs[R1]) { sum(v in inputs[R2]) { u[0] } }"  # the inner body reads the outer variable
    assert _sorted_groups(monkeypatch, outer, two) == [(2, 1), (2, 2)]
    # the counts bound, not the arrays of a call, decide what is sorted and added: bound to two inputs
    # per group, the fold adds the first two of three, unsorted (sorted, it would add -1.0 and 1e-16)
    kernel = compile_control(parse_control([folds], ControlSignature(R1, two)), [2, 2])
    three = np.array([1.0, 1e-16, -1.0]).reshape(1, 3, 1)
    with np.errstate(all="ignore"):
        column = kernel(np.zeros((1, 1)), [three, np.zeros((1, 2, 2))])[0]
    assert column[0] == 0.0 + 1.0 + 1e-16


# NaNs with distinct payloads, so the order in which two of them are added shows in the bits
NANS = np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000003], dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("op", ["sum", "mean"])
def test_two_input_fold_of_dim_one_gives_the_sorted_bits_on_every_state(op):
    # a stable sort swaps two inputs only when at most one is NaN, which then propagates either way
    pool = np.concatenate([NANS, [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 1e308]])
    pairs = np.array([(a, b) for a in pool for b in pool]).reshape(-1, 2, 1)
    ctrl = parse_control([f"{op}(u in inputs[R1]) {{ u[0] }}"], ControlSignature(R1, (R1, R1)))
    roots = np.zeros((len(pairs), 1))
    assert same_bits(run_with(ctrl, roots, [pairs]), run_with(ctrl, roots, [_canonical_order(pairs)]))


FAULTS = [
    ("1 / (x[0] - x[0])", "division by zero"),
    ("(x[0] - x[0])^-2", "zero raised to a negative power"),
    ("log(-1 - x[0]^2)", "log fault"),
    ("sqrt(-1 - x[0]^2)", "sqrt fault"),
    ("sin(1e999 * (1 + x[0]^2))", "sin fault"),
    ("cos(1e999 * (1 + x[0]^2))", "cos fault"),
    ("mean(u in inputs[R1]) { u[0] }", "mean of empty group"),
]


@pytest.mark.parametrize("source, message", FAULTS)
def test_fault_message_matches_tree_walk(source, message):
    sig = ControlSignature(R1, (R1,))
    ctrl = parse_control([source], sig)
    root = np.array([0.25])
    fault = outcome(evaluate, ctrl, root, [])
    assert fault[0] is EvaluationFault and message in fault[1]
    assert fault == outcome(reference_bind(ctrl, []), root, [])


def test_overflow_gives_signed_infinity():
    ctrl = parse_control(["exp(1000 + x[0])", "(-1000 - x[1]^2)^401"], ControlSignature(R2, ()))
    root = np.array([0.5, 0.0])
    out = evaluate(ctrl, root, [])
    assert out.tolist() == [np.inf, -np.inf]
    assert same_bits(out, reference_bind(ctrl, [])(root, []))


# --- sin and cos as numpy ufuncs ---------------------------------------------------------
# On finite input the kernels call np.sin and np.cos, whose SIMD loops depend on the
# CPU and the numpy version.  The gate: each member gets the bits of math.sin and
# math.cos wherever it sits in an array and however the array is strided.  Any other
# input takes the math.* path, so ±inf faults as in the tree walk and NaN stays NaN.

R3 = euclidean(3)


def periodic(func, space=R3):
    """``func`` of each root coordinate, as a control with no inputs."""
    return parse_control([f"{func}(x[{i}])" for i in range(space.dim)], ControlSignature(space, ()))


def run(kernel, roots):
    """One kernel call with no inputs, under the error state its callers set, as one (m, d_root) array."""
    with np.errstate(all="ignore"):
        return stack_columns(kernel(roots, []), len(roots))


@pytest.mark.parametrize("func", ["sin", "cos"])
@given(case=cases())
def test_sin_cos_match_tree_walk(func, case):
    ctrl = periodic(func)
    walk = reference_bind(ctrl, [])
    roots = case.values(WIDE, case.randint(1, 24), 3)
    assert same_bits(run(compile_control(ctrl, []), roots), np.array([walk(root, []) for root in roots]))
    assert same_bits(evaluate(ctrl, roots[0], []), walk(roots[0], []))


@given(cases())
def test_field_batch_with_sin_cos_matches_tree_walk(case):
    net = case.network(MAX_NODES)
    w = case.field(net)
    field, reference = GlobalField(net, w), reference_field(net, w)
    states = case.values((*WIDE, 1e6), case.randint(1, 4), field.index.total_dim)
    with np.errstate(all="ignore"):  # as the field's callers set it
        rows = [outcome(reference, x, message=False) for x in states]
        batch = outcome(field, states, message=False)
        alone = [outcome(field, x, message=False) for x in states]
    if any(row[0] is EvaluationFault for row in rows):
        assert batch[0] is EvaluationFault
    else:
        assert batch[2] == b"".join(row[2] for row in rows)
        assert alone == rows


@pytest.mark.parametrize("func", ["sin", "cos"])
def test_sin_cos_bits_do_not_depend_on_position(func):
    rng = np.random.default_rng(11)
    pool = np.concatenate([
        rng.uniform(-10.0, 10.0, 300),
        rng.uniform(-1e6, 1e6, 100),
        np.ldexp(rng.uniform(-1.0, 1.0, 200), rng.integers(-1074, 1024, 200)),
        np.arange(-40, 41) * (math.pi / 4),
        [0.0, -0.0, 5e-324, 1e22, 2.0**1023],
    ])
    rng.shuffle(pool)
    contiguous, strided = compile_control(periodic(func, R1), []), compile_control(periodic(func), [])
    singletons = np.concatenate([run(contiguous, pool[k:k + 1, np.newaxis]) for k in range(pool.size)]).ravel()
    assert same_bits(singletons, np.array([getattr(math, func)(v) for v in pool.tolist()]))
    for offset in range(17):
        for length in range(1, 65):
            window = slice(offset, offset + length)
            assert same_bits(run(contiguous, pool[window, np.newaxis]).ravel(), singletons[window])
            window = slice(offset, offset + 3 * length)  # read as v[0::3], v[1::3] and v[2::3]
            assert same_bits(run(strided, pool[window].reshape(length, 3)).ravel(), singletons[window])


@pytest.mark.parametrize("func", ["sin", "cos"])
def test_nonfinite_member_takes_scalar_path(func):
    ctrl = periodic(func, R1)
    kernel, walk = compile_control(ctrl, []), reference_bind(ctrl, [])
    roots = np.array([[0.5], [-2.0], [math.inf], [3.0]])
    fault = outcome(run, kernel, roots)
    assert fault[0] is EvaluationFault and f"{func} fault" in fault[1]
    assert fault == outcome(walk, roots[2], [])
    roots[2] = math.nan
    out = run(kernel, roots)
    assert math.isnan(out[2, 0])
    assert same_bits(out, np.array([walk(root, []) for root in roots]))


# --- one kernel shape for every control kind -----------------------------------------
# bind_control returns a batch kernel for expression and raw controls alike, raw ones
# moved along automorphisms once, twice or not at all; each row of a batch is what
# the per-call path gives for that member alone.


@given(cases())
def test_bind_control_rows_match_each_member_alone(case):
    net = case.network(MAX_NODES)
    a = case.choice(sorted(net.graph.nodes))
    sig = signature_at(net, a)
    ctrl = case.moved(net, a, case.expression(sig, GRAMMAR) if case.random() < 0.5 else raw_control(sig, net))
    slots = [(e.edge_id, net.space(e.src)) for e in net.in_edges(a)]
    slots = case.sample(slots, len(slots))
    m = case.randint(1, 3)
    roots = case.values(VALUES, m, sig.root.dim)
    members = [[case.values(VALUES, s.dim) for _, s in slots] for _ in range(m)]
    groups = [
        np.array([[states[i] for i in pos] for states in members]).reshape(m, len(pos), dim)
        for pos, (dim, _) in zip(group_positions(sig, [s for _, s in slots]), sig.groups().values())
    ]
    with np.errstate(all="ignore"):  # as the field's callers set it, for both sides
        alone = [
            outcome(reference_eval_control, ctrl, root, [(eid, s, x) for (eid, s), x in zip(slots, states)], message=False)
            for root, states in zip(roots, members)
        ]
        faults = {o[0] for o in alone if isinstance(o[0], type)}
        try:
            out = stack_columns(bind_control(ctrl, slots)(roots, groups), m)
        except Exception as exc:  # the class is what is compared
            assert type(exc) in faults
            return
    assert not faults
    assert [outcome(np.copy, row) for row in out] == alone


# --- sampled checks in one batch -----------------------------------------------------


def _invariance_cases():
    four = fixtures.four_node_multi()
    sig4, sig2 = signature_at(four, "4"), signature_at(four, "2")
    c2 = fixtures.g3_to_c2().codomain
    return {
        "expression": (four, "4", parse_control(["mean(u in inputs[R1]) { exp(u[0]) } - tanh(x[0])"], sig4)),
        "asymmetric-raw": (four, "4", RawControl(sig4, lambda x, ins: ins[0][1] - x)),
        "symmetric-raw": (four, "2", RawControl(sig2, lambda x, ins: ins[0][1] + ins[1][1] - 2 * x)),
        # exp overflows to inf for x[0] > 0.71, and 0 * inf is NaN
        "nan": (c2, "a", parse_control(
            ["0 * exp(1000 * x[0]) + sum(u in inputs[R1]) { u[0] }"], signature_at(c2, "a"))),
    }


@pytest.mark.parametrize("case", ["expression", "asymmetric-raw", "symmetric-raw", "nan"])
def test_check_invariance_verdict_matches_per_trial_loop(case):
    net, a, ctrl = _invariance_cases()[case]
    residual = check_invariance(ctrl, a, net, trials=200, seed=4)
    reference = reference_check_invariance(ctrl, a, net, trials=200, seed=4)
    if case == "expression":
        assert residual == reference == 0.0
    elif case == "asymmetric-raw":
        assert residual > 1e-3 and reference > 1e-3
    elif case == "symmetric-raw":
        assert residual <= 1e-12 and reference <= 1e-12
    else:
        assert math.isnan(residual) and math.isnan(reference)


@pytest.mark.parametrize(
    "source, vanishes", [("0 * exp(x[0])", True), ("x[0]", False), ("0 * exp(1000 * x[0])", False)]
)
def test_vanishes_on_samples_matches_per_sample_loop(source, vanishes):
    net = fixtures.g3_to_c2().codomain
    ctrl = parse_control([source], signature_at(net, "a"))
    for rng_seed in range(3):
        assert _vanishes_on_samples(ctrl, net, "a", 100, np.random.default_rng(rng_seed), 0.0) is vanishes
        assert reference_vanishes_on_samples(ctrl, net, "a", 100, np.random.default_rng(rng_seed), 0.0) is vanishes


def test_sampled_checks_raise_a_fault_at_any_sample():
    # the first draw has x[0] > 0, where the control does not vanish and the per-sample
    # loop stops; log faults at the later draws with x[0] < 0
    net = fixtures.g3_to_c2().codomain
    ctrl = parse_control(["x[0] + log(x[0])"], signature_at(net, "a"))
    with pytest.raises(EvaluationFault, match="log fault"):
        _vanishes_on_samples(ctrl, net, "a", 50, np.random.default_rng(0), 0.0)
    with pytest.raises(EvaluationFault, match="log fault"):
        check_invariance(ctrl, "a", net, trials=50)


# --- kernels bound to their unit's input counts ---------------------------------------
# A field binds each unit's kernel once, to the input counts its gathers fix, and writes
# each returned column through that coordinate's own index.  On random networks with
# R1, R2 and S1 nodes, 0-3 inputs per group (groups that only coordinate folds read and
# groups whose order shows), raw, transported and expression controls side by side, one
# state and a batch of states, and starts that overflow: the bits, the fault messages and
# the fault steps of the per-call path and of the RK4 loop it replaced.  Every expression
# control of a field may carry the same faulting term at the same place, so the message
# does not depend on which member faults first.


def bound_outcome(fn, *args):
    """The output's bits, a trajectory's bits, or the class, message and step of the fault it raised."""
    try:
        out = fn(*args)
    except IntegrationFault as fault:
        return IntegrationFault, fault.step
    except EvaluationFault as exc:
        return EvaluationFault, str(exc)
    out = getattr(out, "states", out)
    return out.shape, out.tobytes()


@given(cases())
def test_bound_field_matches_per_call_path_and_rk4_loop(case):
    net = random_surjective_fibration(case).domain  # a lift of a random_network, so units hold several members
    w = case.field(net, BOUND)
    field, reference = GlobalField(net, w), reference_field(net, w)
    index = field.index
    states = sample_states(index, case.rng(), case.randint(1, 3))
    states[:, ~index.circle_mask()] *= case.choice([1.0, 1e150, 1e308])
    with np.errstate(all="ignore"):  # as the field's callers set it
        rows = [bound_outcome(reference, x) for x in states]
        alone = [bound_outcome(field, x) for x in states]
        batch = bound_outcome(field, states)
    assert alone == rows
    faults = [row for row in rows if row[0] is EvaluationFault]
    assert batch == (faults[0] if faults else (states.shape, b"".join(row[1] for row in rows)))
    # each node's kernel, bound to its own slots, on all the states as one batch of members
    for a in net.graph.nodes:
        ctrl, edges = w.control_at(a), net.in_edges(a)
        slots = [(e.edge_id, net.space(e.src)) for e in edges]
        positions = group_positions(ctrl.signature, [space for _, space in slots])
        roots = states[:, index.slice_of(a)]
        groups = [
            np.stack([states[:, index.slice_of(edges[k].src)] for k in pos], axis=1).reshape(len(states), len(pos), -1)
            for pos in positions
        ]
        with np.errstate(all="ignore"):
            if isinstance(ctrl, ControlExpr):
                walk = reference_bind(ctrl, [space for _, space in slots])
                want = [
                    bound_outcome(walk, root, [x[index.slice_of(e.src)] for e in edges])
                    for root, x in zip(roots, states)
                ]
            else:
                want = [
                    bound_outcome(reference_eval_control, ctrl, root, [(e.edge_id, space, x[index.slice_of(e.src)])
                                                                        for e, (_, space) in zip(edges, slots)])
                    for root, x in zip(roots, states)
                ]
            got = bound_outcome(lambda: stack_columns(bind_control(ctrl, slots)(roots, groups), len(states)))
        member_faults = [row for row in want if row[0] is EvaluationFault]
        if member_faults:
            assert got == member_faults[0]
        else:
            assert got == ((len(states), roots.shape[1]), b"".join(row[1] for row in want))
    # the RK4 loop: the same trajectory bits, or the same fault at the same step
    with np.errstate(all="ignore"):  # the reference loop leaves the error state to its caller
        expected = bound_outcome(reference_integrate, reference, states[0], 0.05, 0.01)
    assert bound_outcome(integrate, field, states[0], 0.05, 0.01) == expected
