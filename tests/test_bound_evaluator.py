"""Controls bound once per node against the per-call path they replaced.

``GlobalField``, ``bind``, ``eval_control`` and ``evaluate`` must give bitwise
what the per-call evaluator and the scalar tree walk in ``util`` give, for
expression, raw and transported controls, and the driving check, which
perturbs only feedback-edge sources, must report the same residual as the loop
over every coordinate outside the image.  Networks are generated with mixed R1/R2/S1 spaces, self-loops,
parallel edges and isolated nodes.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fibra import (
    GlobalField,
    NetworkMap,
    R1,
    R2,
    RawControl,
    S1,
    SignatureMismatch,
    TransportedControl,
    ctrl_transport,
    enumerate_tree_isos,
    eval_control,
    evaluate,
    input_tree,
    iso_count,
    network,
    parse_control,
    per_class_field,
    per_node_field,
    signature_at,
    symmetry_groupoid,
    total_phase_space,
    verify_driving_decomposition,
)
from fibra.dynamics import VirtualVectorField
from fibra.errors import EvaluationFault
from fibra.expr_dsl import FUNCTIONS, ControlSignature, _canonical_order, bind
from fibra.sampling import sample_state

from util import (
    reference_bind,
    reference_driving_residual,
    reference_eval_control,
    reference_evaluate,
    reference_field,
)

SPACES = (R1, R2, S1)


def _edges(draw, n):
    """Random (src, tgt) pairs among nodes 0..n-1, plus one self-loop and one parallel edge."""
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    v = draw(st.integers(0, n - 1))
    return pairs + [(v, v), draw(st.sampled_from(pairs + [(v, v)]))]


def _build(nodes, pairs, draw):
    """Network with node ids n0.. and shuffled edge ids."""
    edge_ids = draw(st.permutations([f"e{k}" for k in range(len(pairs))]))
    return network(nodes, [(eid, f"n{s}", f"n{t}") for eid, (s, t) in zip(edge_ids, pairs)])


@st.composite
def networks(draw):
    """Up to four wired nodes and one isolated node, of mixed spaces."""
    n = draw(st.integers(1, 4))
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=n + 1, max_size=n + 1))
    return _build([(f"n{i}", s) for i, s in enumerate(spaces)], _edges(draw, n), draw)


def expr_control(draw, sig):
    """Per component: a root term plus aggregates over each input group, nested or not."""
    groups = sig.groups()
    components = []
    for i in range(sig.root.dim):
        terms = [draw(st.sampled_from([f"-x[{i}]", f"0.5 * x[{i}]^2", f"cos(x[{i}])"]))]
        for name, (dim, count) in groups.items():
            j = draw(st.integers(0, dim - 1))
            choices = [
                f"sum(u in inputs[{name}]) {{ sin(u[{j}] - x[{i}]) }}",
                f"sum(u in inputs[{name}]) {{ u[{j}] * 1000.0 + tanh(u[0]) }}",
                f"sum(u in inputs[{name}]) {{ sum(v in inputs[{name}]) {{ u[{j}] * v[0] - v[{j}] }} }}",
            ]
            if count:
                choices.append(f"mean(u in inputs[{name}]) {{ u[{j}] }}")
            terms.append(draw(st.sampled_from(choices)))
        components.append(" + ".join(terms))
    return parse_control(components, sig)


def raw_control(sig):
    """Depends on the order and the ids of its inputs, and differently on each coordinate."""

    def fn(x, ins):
        acc = sum(
            (k + 1.0) * float(state @ np.arange(1.0, state.size + 1)) + ord(eid[-1])
            for k, (eid, state) in enumerate(ins)
        )
        return -x + acc

    return RawControl(sig, fn)


def class_field(draw, net, expr=expr_control):
    """Per-class field, expression or raw control per class."""
    controls = {}
    for rep in symmetry_groupoid(net).representatives():
        sig = signature_at(net, rep)
        controls[rep] = expr(draw, sig) if draw(st.booleans()) else raw_control(sig)
    return per_class_field(net, controls)


def twisted_node_field(draw, net, expr=expr_control):
    """Per-node field whose controls are moved along random automorphisms, some twice."""
    w = class_field(draw, net, expr)
    controls = {}
    for a in net.graph.nodes:
        ctrl = w.control_at(a)
        if iso_count(net, a, a) <= 120:
            for _ in range(draw(st.integers(1, 2))):
                ctrl = ctrl_transport(draw(st.sampled_from(enumerate_tree_isos(net, a, a))), ctrl)
        controls[a] = ctrl
    return per_node_field(net, controls)


def labelled_inputs(net, a, x, index):
    return [(l.edge_id, l.leaf_type, x[index.slice_of(l.source_node)]) for l in input_tree(net, a).leaves]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.data())
def test_field_and_eval_control_match_per_call_path(data):
    net = data.draw(networks())
    w = twisted_node_field(data.draw, net)
    field, reference = GlobalField(net, w), reference_field(net, w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(3):
        x = sample_state(field.index, rng)
        assert same_bits(field(x), reference(x))
        for a in net.graph.nodes:
            root, inputs = x[field.index.slice_of(a)], labelled_inputs(net, a, x, field.index)
            ctrl = w.control_at(a)
            assert same_bits(eval_control(ctrl, root, inputs), reference_eval_control(ctrl, root, inputs))


@given(st.data())
def test_evaluate_matches_per_call_path(data):
    net = data.draw(networks())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for a in net.graph.nodes:
        ctrl = expr_control(data.draw, signature_at(net, a))
        leaves = data.draw(st.permutations(input_tree(net, a).leaves))
        for _ in range(3):
            root = rng.uniform(-2, 2, ctrl.signature.root.dim)
            inputs = [
                (data.draw(st.sampled_from([l.leaf_type, l.leaf_type.name])), rng.uniform(-2, 2, l.leaf_type.dim))
                for l in leaves
            ]
            assert same_bits(evaluate(ctrl, root, inputs), reference_evaluate(ctrl, root, inputs))


def test_transported_kinds_are_covered():
    net = network([("a", R1), ("b", R1)], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "b")])
    sig = signature_at(net, "b")
    swap = [i for i in enumerate_tree_isos(net, "b", "b") if not i.is_identity]
    raw = raw_control(sig)
    moved = ctrl_transport(swap[0], ctrl_transport(swap[1], raw))
    assert isinstance(moved, TransportedControl)
    # a transported expression control, built directly
    expr = TransportedControl(
        parse_control(["sum(u in inputs[R1]) { u[0] * 3.0 } - x[0]"], sig), {"e1": "e3", "e2": "e1", "e3": "e2"}
    )
    w = per_node_field(net, {"a": raw_control(signature_at(net, "a")), "b": moved})
    x = np.array([0.25, -0.75])
    assert same_bits(GlobalField(net, w)(x), reference_field(net, w)(x))
    inputs = labelled_inputs(net, "b", x, total_phase_space(net))
    for ctrl in (moved, expr):
        assert same_bits(eval_control(ctrl, x[1:], inputs), reference_eval_control(ctrl, x[1:], inputs))


# --- boundary checks ----------------------------------------------------------------


def _kuramoto_node():
    net = network([("a", S1), ("b", S1), ("c", R2)], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "c", "b")])
    sig = signature_at(net, "b")
    expr = parse_control(["sum(u in inputs[S1]) { sin(u[0] - x[0]) } + sum(v in inputs[R2]) { v[1] }"], sig)
    ins = [("e1", S1, np.array([0.5])), ("e2", S1, np.array([1.5])), ("e3", R2, np.array([1.0, 2.0]))]
    return net, sig, expr, ins


def test_wrong_root_dimension_raises():
    _, sig, expr, ins = _kuramoto_node()
    for ctrl in (expr, raw_control(sig), TransportedControl(raw_control(sig), {"e1": "e2", "e2": "e1", "e3": "e3"})):
        with pytest.raises(SignatureMismatch, match="root state has dimension 2"):
            eval_control(ctrl, np.zeros(2), ins)
    with pytest.raises(SignatureMismatch, match="root state"):
        evaluate(expr, np.zeros(2), [(space, state) for _, space, state in ins])


def test_wrong_input_dimension_raises():
    _, sig, expr, ins = _kuramoto_node()
    bad = ins[:2] + [("e3", R2, np.array([1.0, 2.0, 3.0]))]
    for ctrl in (expr, raw_control(sig)):  # raw inputs are checked at the boundary too
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
    w = per_node_field(net, {a: raw_control(signature_at(net, a)) for a in net.graph.nodes})
    wrong = RawControl(signature_at(net, "c"), lambda x, ins: x)  # R2 root at S1 node b
    with pytest.raises(SignatureMismatch):
        GlobalField(net, VirtualVectorField(net, "per_node", {**w.controls, "b": wrong}))


# --- driving check -------------------------------------------------------------------


@st.composite
def injective_maps(draw):
    """Inclusion of a network into one with extra nodes; optionally with feedback edges."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    spaces = draw(st.lists(st.sampled_from(SPACES), min_size=n + k + 1, max_size=n + k + 1))
    base = _edges(draw, n)
    extra = draw(st.lists(st.tuples(st.integers(0, n + k), st.integers(n, n + k)), max_size=6))
    feedback = draw(st.lists(st.tuples(st.integers(n, n + k), st.integers(0, n - 1)), max_size=3))
    cod = _build([(f"n{i}", s) for i, s in enumerate(spaces)], base + extra + feedback, draw)
    image = {f"n{i}" for i in range(n)}
    dom_edges = [e for e in cod.graph.edges if e.src in image and e.tgt in image]
    dom = network([(a, cod.space(a)) for a in sorted(image)], [(e.edge_id, e.src, e.tgt) for e in dom_edges])
    return NetworkMap(dom, cod, {a: a for a in image}, {e.edge_id: e.edge_id for e in dom_edges})


@given(st.data())
def test_driving_residual_matches_loop_over_all_outside_coordinates(data):
    m = data.draw(injective_maps())
    w = class_field(data.draw, m.codomain)
    seed = data.draw(st.integers(0, 1000))
    report = verify_driving_decomposition(m, w, samples=3, seed=seed)
    assert report.fd_max_residual == reference_driving_residual(m, w, samples=3, seed=seed, fd_step=1e-6)


def test_driving_with_raw_control_at_feedback_source():
    # image {a, b}; c feeds b (feedback) and has a raw control; d is outside and unreached
    cod = network(
        [("a", R1), ("b", R2), ("c", R1), ("d", S1)],
        [("e1", "a", "b"), ("e2", "c", "b"), ("e3", "d", "c"), ("e4", "b", "d"), ("e5", "c", "c")],
    )
    dom = network([("a", R1), ("b", R2)], [("e1", "a", "b")])
    m = NetworkMap(dom, cod, {"a": "a", "b": "b"}, {"e1": "e1"})
    controls = {a: raw_control(signature_at(cod, a)) for a in symmetry_groupoid(cod).representatives()}
    w = per_class_field(cod, controls)
    report = verify_driving_decomposition(m, w, samples=4, seed=3)
    assert report.feedback_edges == ("e2",) and not report.ok
    assert report.fd_max_residual > 0.0
    assert report.fd_max_residual == reference_driving_residual(m, w, samples=4, seed=3, fd_step=1e-6)
    # without the feedback edge nothing is perturbed, and the old loop agrees on 0.0
    cod2 = network(list(cod.phase.items()), [(e.edge_id, e.src, e.tgt) for e in cod.graph.edges if e.edge_id != "e2"])
    m2 = NetworkMap(dom, cod2, m.node_map, m.edge_map)
    w2 = per_class_field(cod2, {a: raw_control(signature_at(cod2, a)) for a in symmetry_groupoid(cod2).representatives()})
    report2 = verify_driving_decomposition(m2, w2, samples=4, seed=3)
    assert report2.feedback_edges == () and report2.fd_max_residual == 0.0
    assert reference_driving_residual(m2, w2, samples=4, seed=3, fd_step=1e-6) == 0.0


# --- batched kernels against the scalar tree walk ------------------------------------
# Compiled controls run a whole batch of nodes in one pass.  Every construct of
# the grammar is drawn: all eight functions, ``^`` with negative exponents and
# overflow, ``mean``, nested aggregators, constants that overflow, and input
# states drawn from a pool with ties, -0.0 and 0.0.  Outputs must match the
# tree walk bit for bit; a fault must raise the same class, and in a batch of
# one the same message.

FUNCS = sorted(FUNCTIONS)
VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -3.0, 700.0]) | st.floats(-4.0, 4.0)


def expr_source(draw, sig, depth=4, scope=()):
    """One random component over the whole grammar; it may fault."""
    groups = sig.groups()
    kinds = ["num", "root"] + (["var"] if scope else [])
    if depth:
        kinds += ["neg", "func", "binop", "pow"] + (["agg"] if groups and len(scope) < 2 else [])
    kind = draw(st.sampled_from(kinds))

    def sub():
        return expr_source(draw, sig, depth - 1, scope)

    if kind == "num":
        return draw(st.sampled_from(["0.0", "0.5", "2.0", "1000.0", "1e999"]))
    if kind == "root":
        return f"x[{draw(st.integers(0, sig.root.dim - 1))}]"
    if kind == "var":
        var, group = draw(st.sampled_from(scope))
        return f"{var}[{draw(st.integers(0, groups[group][0] - 1))}]"
    if kind == "neg":
        return f"-({sub()})"
    if kind == "func":
        return f"{draw(st.sampled_from(FUNCS))}({sub()})"
    if kind == "binop":
        return f"({sub()}) {draw(st.sampled_from('+-*/'))} ({sub()})"
    if kind == "pow":
        return f"({sub()})^{draw(st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 400, 401]))}"
    group = draw(st.sampled_from(sorted(groups)))
    var = "uv"[len(scope)]
    body = expr_source(draw, sig, depth - 1, scope + ((var, group),))
    return f"{draw(st.sampled_from(['sum', 'mean']))}({var} in inputs[{group}]) {{ {body} }}"


def any_expr_control(draw, sig):
    return parse_control([expr_source(draw, sig) for _ in range(sig.root.dim)], sig)


def outcome(fn, *args, message=True):
    """The output's bits, or the exception class (and message) it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc), str(exc) if message else None
    return out.dtype, out.shape, out.tobytes()


@given(st.data())
def test_bind_and_evaluate_match_tree_walk(data):
    draw = data.draw
    inputs = draw(st.lists(st.sampled_from(SPACES), max_size=5))
    sig = ControlSignature(draw(st.sampled_from(SPACES)), tuple(inputs))
    ctrl = any_expr_control(draw, sig)
    types = draw(st.permutations(inputs))
    if types and draw(st.booleans()):
        types = types[1:]  # a group may go missing, where mean faults
    root = np.array(draw(st.lists(VALUES, min_size=sig.root.dim, max_size=sig.root.dim)))
    states = [np.array(draw(st.lists(VALUES, min_size=t.dim, max_size=t.dim))) for t in types]
    assert outcome(bind(ctrl, types), root, states) == outcome(reference_bind(ctrl, types), root, states)
    pairs = list(zip(types, states))
    assert outcome(evaluate, ctrl, root, pairs) == outcome(reference_evaluate, ctrl, root, pairs)


@given(st.data())
def test_field_matches_tree_walk(data):
    net = data.draw(networks())
    w = twisted_node_field(data.draw, net, any_expr_control)
    field, reference = GlobalField(net, w), reference_field(net, w)
    for _ in range(3):
        x = np.array(data.draw(st.lists(VALUES, min_size=field.index.total_dim, max_size=field.index.total_dim)))
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
    assert len(g.class_of("t000").members) == 300
    body = (
        "sum(u in inputs[R1]) { exp(u[0]) * tanh(x[0] - u[0]) + tan(u[0]) }"
        " + mean(v in inputs[R2]) { sin(v[0]) * cos(v[1]) + log(1 + v[1]^2) + sqrt(abs(v[0])) }"
        " + sum(u in inputs[R1]) { sum(v in inputs[R2]) { u[0] * v[1] - v[0] / 3 } }"
        " + (x[0] + 3)^-2 + (x[0] * 1000)^3"
    )
    controls = {rep: parse_control(["-x[0]"] * net.space(rep).dim, signature_at(net, rep)) for rep in g.representatives()}
    controls[g.class_of("t000").representative] = parse_control([body], signature_at(net, "t000"))
    w = per_class_field(net, controls, g)
    field, reference = GlobalField(net, w), reference_field(net, w)
    for _ in range(4):
        x = sample_state(field.index, rng)
        x[rng.random(x.size) < 0.2] = -0.0
        assert same_bits(field(x), reference(x))


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.lists(
            st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), min_size=dim, max_size=dim),
                     min_size=0, max_size=40),
            min_size=1, max_size=4,
        ).filter(lambda ms: len({len(m) for m in ms}) == 1).map(lambda ms: (dim, ms))
    )
)
def test_canonical_order_is_stable_sort_by_value(case):
    dim, members = case
    values = np.array(members, dtype=float).reshape(len(members), len(members[0]), dim)
    expected = np.array([sorted(m, key=np.ndarray.tolist) for m in values]).reshape(values.shape)
    assert same_bits(_canonical_order(values), expected)


FAULTS = [
    ("1 / (x[0] - x[0])", "division by zero"),
    ("(x[0] - x[0])^-2", "zero raised to a negative power"),
    ("log(-1 - x[0]^2)", "log fault"),
    ("sqrt(-1 - x[0]^2)", "sqrt fault"),
    ("sin(1e999 * (1 + x[0]^2))", "sin fault"),
    ("mean(u in inputs[R1]) { u[0] }", "mean of empty group"),
]


@pytest.mark.parametrize("source, message", FAULTS)
def test_fault_message_matches_tree_walk(source, message):
    sig = ControlSignature(R1, (R1,))
    ctrl = parse_control([source], sig)
    root = np.array([0.25])
    fault = outcome(bind(ctrl, []), root, [])
    assert fault[0] is EvaluationFault and message in fault[1]
    assert fault == outcome(reference_bind(ctrl, []), root, [])


def test_overflow_gives_signed_infinity():
    ctrl = parse_control(["exp(1000 + x[0])", "(-1000 - x[1]^2)^401"], ControlSignature(R2, ()))
    root = np.array([0.5, 0.0])
    out = bind(ctrl, [])(root, [])
    assert out.tolist() == [np.inf, -np.inf]
    assert same_bits(out, reference_bind(ctrl, [])(root, []))
