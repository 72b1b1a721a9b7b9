"""Build-once certification against the eager and per-sample code it replaced.

The groupoid keys nodes on typed in-degree counts and builds no witness;
``enumerate_tree_isos`` unranks isomorphisms on access; a field
evaluates a batch of states in one pass; the certification checks draw and
evaluate their samples in chunked batches and build each side once.  Each
must give what the eager, materialised or per-sample code in ``util`` gives.
Networks come from ``util.networks``, or from a ``util.Seeded`` case with a
field on the network: mixed R1/R2/S1 spaces, self-loops, parallel edges,
isolated nodes, deep class splits, lifts and inputs out of typed order.
"""

import gc
import itertools
import math
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fibra
from fibra import (
    ControlSignature,
    FibrationRequired,
    GlobalField,
    PreconditionError,
    R1,
    R2,
    S1,
    SignatureMismatch,
    VirtualVectorField,
    aut_order,
    canonical_isos,
    certify_conjugacy,
    check_fibration,
    enumerate_tree_isos,
    input_tree,
    interconnect,
    iso_count,
    lift_to_nodes,
    network,
    parse_control,
    per_class_field,
    pullback,
    signature_at,
    symmetry_groupoid,
    total_phase_space,
    verify_conjugacy_flow,
    verify_conjugacy_pointwise,
    verify_driving_decomposition,
)
from fibra import dynamics, fibrations, fixtures, numerics
from fibra.expr_dsl import stack_columns
from fibra.sampling import sample_states

from util import (
    cases,
    expected_dependencies,
    networks,
    random_injective_fibration,
    random_network,
    random_surjective_fibration,
    reference_certify_conjugacy,
    reference_dependency_matrix,
    reference_enumerate_tree_isos,
    reference_flow_deviation,
    reference_pointwise_residual,
    reference_sample_state,
    reference_symmetry_groupoid,
    reference_units,
)


# --- groupoid ----------------------------------------------------------------------


@given(networks())
def test_groupoid_matches_eager_construction(net):
    g = symmetry_groupoid(net)
    classes, orders = reference_symmetry_groupoid(net)
    assert g.blocks == tuple(ms for _, ms, _ in classes)
    assert {a: aut_order(input_tree(net, g.block_id(a))) for a in orders} == orders  # a class shares one order
    for rep, members, witnesses in classes:
        isos = canonical_isos(net, members, rep)
        assert [iso.source for iso in isos] == list(members)
        for iso in isos:
            assert iso == witnesses[iso.source]
            assert list(iso.leaf_bijection.items()) == list(witnesses[iso.source].leaf_bijection.items())
        assert canonical_isos(net, reversed(members), rep) == isos[::-1]
        for other in set(net.graph.nodes) - set(members):
            with pytest.raises(PreconditionError, match=f"^input trees of {other!r} and {rep!r} are not"):
                canonical_isos(net, [other], rep)
        with pytest.raises(PreconditionError, match="^unknown node id 'no-such-node'$"):
            canonical_isos(net, [*members, "no-such-node"], rep)


@given(networks())
def test_iso_count_matches_the_counter_rule(net):
    classes, orders = reference_symmetry_groupoid(net)
    rep_of = {a: rep for rep, members, _ in classes for a in members}
    for a, b in itertools.product(net.graph.nodes, repeat=2):
        assert iso_count(net, a, b) == (orders[a] if rep_of[a] == rep_of[b] else 0)


def _random_lift(seed: int, n: int) -> fibra.NetworkMap:
    """A fibration of ``n`` nodes onto a random base: node i lies over base node i mod |base|."""
    rng = random.Random(seed)
    base = random_network(rng, max_nodes=4, max_edges=6)
    over = {f"d{i}": base.graph.nodes[i % len(base.graph.nodes)] for i in range(n)}
    fiber: dict = {}
    for a, b in over.items():
        fiber.setdefault(b, []).append(a)
    edges = [(f"{a}/{e.edge_id}", rng.choice(fiber[e.src]), a) for a, b in over.items() for e in base.in_edges(b)]
    lift = network([(a, base.space(b)) for a, b in over.items()], edges)
    return fibra.NetworkMap(lift, base, over, {eid: eid.split("/")[1] for eid, _, _ in edges})


@pytest.mark.parametrize("make_map", [fixtures.g3_to_c2, lambda: _random_lift(5, 200)], ids=["g3-to-c2", "lift-200"])
def test_networks_are_freed_without_the_cyclic_collector(make_map):
    # each network keeps its groupoid, and the groupoid holds no network back
    gc.collect()
    gc.disable()
    try:
        m = make_map()
        w_prime = fixtures.linear_dynamics(m.codomain)
        assert len(m.domain.graph.nodes) in (3, 200) and check_fibration(m).is_fibration
        symmetry_groupoid(m.domain)
        lifted = lift_to_nodes(m.codomain, w_prime.controls)
        field = interconnect(m.domain, pullback(m, w_prime))
        field(np.zeros(field.index.total_dim))
        certify_conjugacy(m, lifted, samples=3, seed=1, T=0.02, h=0.01)
        refs = [weakref.ref(m.domain), weakref.ref(m.codomain)]
        del m, w_prime, lifted, field
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# --- lazy isomorphism sequence ---------------------------------------------------


@given(cases())
def test_enumerated_isos_match_materialised_list(case):
    net = case.network()
    a, b = case.choice(net.graph.nodes), case.choice(net.graph.nodes)
    if iso_count(net, a, b) > 720:
        return
    lazy, eager = enumerate_tree_isos(net, a, b), reference_enumerate_tree_isos(net, a, b)
    assert len(lazy) == len(eager)
    assert lazy == eager and eager == lazy and list(lazy) == eager
    assert [lazy[i] for i in range(len(lazy))] == eager
    assert [lazy[i] for i in range(-len(lazy), 0)] == eager
    step = case.choice([1, 2, -1, -3])
    assert lazy[1:5:step] == eager[1:5:step] and lazy[::step] == eager[::step]
    for bad in (len(lazy), -len(lazy) - 1):
        with pytest.raises(IndexError):
            lazy[bad]
    if eager:
        assert lazy != eager[:-1] and lazy != eager[::-1] + [eager[0]]


def test_enumerated_isos_unrank_deep_in_a_large_block():
    edges = [(f"e{i}", "a", "b") for i in range(10)] + [("f0", "c", "b"), ("f1", "c", "b")]
    net = network([("a", R1), ("b", R1), ("c", R2)], edges)
    with pytest.raises(fibra.EnumerationCapExceeded):
        enumerate_tree_isos(net, "b", "b")  # 10! * 2! > 10^6: the cap is checked at the call
    lazy = enumerate_tree_isos(net, "b", "b", cap=10**8)
    assert len(lazy) == math.factorial(10) * 2
    r1, r2 = [f"e{i}" for i in range(10)], ["f0", "f1"]
    combos = ((p1, p2) for p1 in itertools.permutations(r1) for p2 in itertools.permutations(r2))
    eager = [dict(zip(r1 + r2, [*p1, *p2])) for p1, p2 in itertools.islice(combos, 5000)]
    rng = random.Random(3)
    for k in [0, 1, 2, 4999] + rng.sample(range(5000), 20):
        assert lazy[k].leaf_bijection == eager[k]
    assert list(lazy[-1].leaf_bijection.values()) == r1[::-1] + r2[::-1]
    assert list(lazy[-2].leaf_bijection.values()) == r1[::-1] + r2


# --- sample batches --------------------------------------------------------------


@given(cases())
def test_field_rows_equal_single_state_calls(case):
    net = case.network()
    field = GlobalField(net, case.field(net))
    rows = case.randint(1, 5)
    states = sample_states(field.index, case.rng(), rows)
    batch = field(states)
    assert batch.shape == states.shape
    for x, row in zip(states, batch):
        assert row.tobytes() == field(x).tobytes()
    n = field.index.total_dim
    for shape in [(n + 1,), (rows, n + 1), (1, rows, n), ()]:
        with pytest.raises(PreconditionError):
            field(np.zeros(shape))


def _outcome(build):
    """What a construction gives, or the type and message of what it raises."""
    try:
        return build()
    except (SignatureMismatch, PreconditionError) as exc:
        return type(exc), str(exc)


def _same_units(units, expected, x):
    """Unit by unit: bit-equal gathers, output columns that write the root gather's coordinates, and
    bit-equal kernel outputs at the rows of ``x``, also through the root key of a one-state call."""
    assert len(units) == len(expected)
    coords = np.arange(x.shape[1])
    for (root, key, kernel, gathers, columns), (ref_root, ref_kernel, ref_gathers) in zip(units, expected):
        assert root.shape == ref_root.shape and root.tobytes() == ref_root.tobytes()
        assert [(g.shape, g.tobytes()) for g in gathers] == [(g.shape, g.tobytes()) for g in ref_gathers]
        assert [coords[c].tolist() for c in columns] == ref_root.T.tolist()
        for state in x:
            assert state[key].tobytes() == state[ref_root].tobytes()
            with np.errstate(all="ignore"):
                got = stack_columns(kernel(state[key], [state[g] for g in gathers]), len(root))
                want = stack_columns(ref_kernel(state[ref_root], [state[g] for g in ref_gathers]), len(root))
            assert got.tobytes() == want.tobytes()


@given(cases())
def test_field_units_match_the_per_node_loop(case):
    net = case.network()
    w = case.field(net)
    field = GlobalField(net, w)
    x = sample_states(field.index, case.rng(), 2)
    _same_units(field._units, reference_units(net, w.mode, w.controls), x)


@given(cases())
def test_field_reports_a_signature_mismatch_as_the_per_node_loop(case):
    # controls handed to other classes or nodes than their own: the field refuses them when
    # built exactly where the per-node loop does, with the same exception, at the same node,
    # for the same reason (a signature, or a moved raw control placed at other in-edges than
    # it reads), once the nodes are listed in layout order, the order both check them in;
    # what builds gives the loop's units bit for bit
    net = case.network()
    net = network([(a, net.space(a)) for a in sorted(net.graph.nodes)], [(e.edge_id, e.src, e.tgt) for e in net.graph.edges])
    w = case.field(net)
    keys = sorted(w.controls)
    # as often, controls change hands only among keys of one signature, where a moved raw
    # control meets other in-edge ids than the ones it reads
    kind = (lambda k: signature_at(net, k)) if case.random() < 0.5 else (lambda k: None)
    moved = {}
    for k in keys:
        if k not in moved:
            group = [j for j in keys if kind(j) == kind(k)]
            moved.update(zip(group, case.sample([w.controls[j] for j in group], len(group))))
    got = _outcome(lambda: GlobalField(net, VirtualVectorField(net, w.mode, moved)))
    want = _outcome(lambda: reference_units(net, w.mode, moved))
    if isinstance(want, tuple):
        node = want[1].rpartition(" at node ")[2]
        reason = "reads edge ids" if want[1].startswith("moved control") else "has signature"
        assert got[0] is want[0] is SignatureMismatch and f" {node} {reason} " in got[1]
    else:
        _same_units(got._units, want, sample_states(got.index, np.random.default_rng(0), 2))


def test_field_reports_the_first_mismatched_node_of_a_class():
    # the class {a, c} reads an R2 and an S1 input, in edge-id order S1 first at a and R2 first at c
    net = network(
        [("a", R1), ("b", R1), ("c", R1), ("r", R2), ("s", S1)],
        [("e1", "s", "a"), ("e2", "r", "a"), ("e3", "r", "c"), ("e4", "s", "c"), ("e5", "b", "b")],
    )
    exprs = {"a": ["-x[0]"], "b": ["-x[0]"], "r": ["-x[0]", "x[1]"], "s": ["-x[0]"]}
    w = per_class_field(net, {rep: parse_control(src, signature_at(net, rep)) for rep, src in exprs.items()})
    wrong = {**w.controls, "a": w.controls["b"]}
    with pytest.raises(SignatureMismatch, match=r"^input of type S1 not in signature groups \['R1'\] at node 'a'$"):
        reference_units(net, "per_class", wrong)
    with pytest.raises(
        SignatureMismatch,
        match=r"^control at class representative 'a' has signature \(R1; \['R1'\]\), expected \(R1; \['R2', 'S1'\]\)$",
    ):
        per_class_field(net, wrong)
    wrong = {**w.controls, "a": w.controls["r"]}
    with pytest.raises(SignatureMismatch, match=r"^control for root space R2 at node 'a'$"):
        reference_units(net, "per_class", wrong)
    with pytest.raises(SignatureMismatch, match=r"^control at class representative 'a' has signature \(R2; "):
        per_class_field(net, wrong)


@given(networks())
def test_signature_at_reads_the_input_tree(net):
    for a in net.graph.nodes:
        tree = input_tree(net, a)
        assert signature_at(net, a) == ControlSignature(tree.root_type, tuple(l.leaf_type for l in tree.leaves))
    for read in (signature_at, input_tree):
        with pytest.raises(PreconditionError, match="^unknown node id 'zz'$"):
            read(net, "zz")


@given(cases())
def test_batched_draws_equal_sequential_draws(case):
    net, seed, count = case.network(), case.getrandbits(32), case.randint(0, 7)
    index = total_phase_space(net)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = np.concatenate([sample_states(index, rng, k) for k in (count, 3, 1)])
    expected = [reference_sample_state(index, ref) for _ in range(count + 4)]
    assert batch.tobytes() == np.array(expected).reshape(batch.shape).tobytes()
    assert rng.random() == ref.random()


def _spy_calls(monkeypatch):
    """Record every batch of states the fields are called on."""
    calls = []
    original = GlobalField.__call__

    def spy(self, x):
        calls.append((self, np.array(x)))
        return original(self, x)

    monkeypatch.setattr(GlobalField, "__call__", spy)
    return calls


@pytest.mark.parametrize("samples, rows", [(10, 3), (9, 3), (7, 1), (4, 4), (5, 6)])
def test_pointwise_draws_in_chunks_of_bounded_size(monkeypatch, samples, rows):
    m = fixtures.string_to_cycle(3, R1, R2)
    w = fixtures.linear_dynamics(m.codomain)
    split = total_phase_space(m.codomain).total_dim  # each call is on joint [codomain | domain] states
    width = split + total_phase_space(m.domain).total_dim
    monkeypatch.setattr(numerics, "CHUNK_FLOATS", rows * width)
    calls = _spy_calls(monkeypatch)
    verify_conjugacy_pointwise(m, w, samples=samples, seed=11)
    assert all(x.shape[1] == width for _, x in calls)
    codomain_calls = [x[:, :split] for _, x in calls]
    sizes = [len(x) for x in codomain_calls]
    assert sizes == [min(rows, samples - k) for k in range(0, samples, rows)]
    rng = np.random.default_rng(11)
    expected = np.array([reference_sample_state(total_phase_space(m.codomain), rng) for _ in range(samples)])
    assert np.concatenate(codomain_calls).tobytes() == expected.tobytes()


def outcome(fn, *args):
    try:
        return fn(*args)
    except fibra.FibraError as exc:
        return type(exc)


# NaN where exp overflows (x[0] > 0.71), so a sample-by-sample mix-up can show
NAN_PRONE = "0 * exp(1000 * x[{i}]) + sum(u in inputs[R1]) {{ u[0] }} - x[{i}]"


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([1, 2, 5, 2**20]))
@settings(max_examples=40)
def test_certify_conjugacy_matches_per_sample_loops(seed, samples, rows):
    rng = random.Random(seed)
    m = random_surjective_fibration(rng)
    controls = {}
    for rep in symmetry_groupoid(m.codomain).representatives():
        sig = signature_at(m.codomain, rep)
        src = NAN_PRONE if sig.root == R1 and R1 in sig.inputs and rng.random() < 0.5 else "-x[{i}]"
        controls[rep] = parse_control([src.format(i=i) for i in range(sig.root.dim)], sig)
    w = per_class_field(m.codomain, controls)
    width = max(total_phase_space(m.domain).total_dim, total_phase_space(m.codomain).total_dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "CHUNK_FLOATS", rows * width)
        report = outcome(certify_conjugacy, m, w, samples, seed % 1000, 0.03, 0.01)
    expected = outcome(reference_certify_conjugacy, m, w, samples, seed % 1000, 0.03, 0.01)
    if isinstance(expected, tuple):
        report = (report.pointwise_max_residual, report.flow_max_deviation)
    assert repr(report) == repr(expected)  # NaN included; a flow fault raises the same class
    assert repr(verify_conjugacy_pointwise(m, w, samples, seed % 1000)) == repr(
        reference_pointwise_residual(m, w, samples, seed % 1000)
    )
    x0 = reference_sample_state(total_phase_space(m.codomain), np.random.default_rng(seed))
    assert repr(outcome(verify_conjugacy_flow, m, w, x0, 0.03, 0.01)) == repr(
        outcome(reference_flow_deviation, m, w, x0, 0.03, 0.01)
    )


def test_flow_starts_at_the_given_state():
    m = fixtures.g3_to_c2()
    ctrl = parse_control([NAN_PRONE.format(i=0)], signature_at(m.codomain, "a"))
    w = per_class_field(m.codomain, {"a": ctrl})
    assert verify_conjugacy_flow(m, w, np.array([0.1, -0.2]), 0.03, 0.01) == 0.0
    with pytest.raises(fibra.IntegrationFault):  # the field is NaN where x[0] > 0.71
        verify_conjugacy_flow(m, w, np.array([0.9, -0.2]), 0.03, 0.01)


# blows up in finite time, sooner from a larger start
BLOW_UP = "x[0] * x[0] * 50 + sum(u in inputs[R1]) { u[0] }"


@pytest.mark.parametrize("x0, h", [([1.0, 0.5], 1e-3), ([0.2, -0.1], 1e-3), ([3.0, 3.0], 1e-2)])
def test_flow_fault_names_the_step_of_the_two_pass_flows(x0, h):
    """The sides are conjugate bit for bit, so the joint trajectory faults where the codomain's alone did."""
    m = fixtures.g3_to_c2()
    w = per_class_field(m.codomain, {"a": parse_control([BLOW_UP], signature_at(m.codomain, "a"))})
    with np.errstate(all="ignore"), pytest.raises(fibra.IntegrationFault) as expected:
        reference_flow_deviation(m, w, np.array(x0), 1.0, h)
    assert expected.value.step > 1
    for run in (
        lambda: certify_conjugacy(m, w, samples=3, seed=0, T=1.0, h=h, x0_prime=np.array(x0)),
        lambda: verify_conjugacy_flow(m, w, np.array(x0), 1.0, h),
    ):
        with np.errstate(all="ignore"), pytest.raises(fibra.IntegrationFault) as got:
            run()
        assert got.value.step == expected.value.step and str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "check",
    [
        lambda m, w: certify_conjugacy(m, w, samples=-1),
        lambda m, w: verify_conjugacy_pointwise(m, w, samples=-1),
    ],
    ids=["certify_conjugacy", "verify_conjugacy_pointwise"],
)
def test_fibration_is_checked_before_the_sample_count(check):
    m = fixtures.double_collapse()
    with pytest.raises(FibrationRequired):
        check(m, fixtures.linear_dynamics(m.codomain))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 2**20]))
@settings(max_examples=40)
def test_driving_and_dependencies_match_coordinate_loops(seed, rows):
    # the batched residual is the per-sample loop's, and the loop over every coordinate finds no image
    # component that reacts to a node outside the image
    rng = random.Random(seed)
    m = random_injective_fibration(rng)
    sources = [
        "-x[{i}] + sum(u in inputs[{t}]) {{ u[{j}] * u[0] + sin(x[{i}]) }}",
        "x[{i}] * sum(u in inputs[{t}]) {{ cos(u[{j}]) }}",
    ]
    controls = {}
    for rep in symmetry_groupoid(m.codomain).representatives():
        sig = signature_at(m.codomain, rep)
        if sig.inputs and rng.random() < 0.7:
            t = sig.inputs[0]
            src = rng.choice(sources)
            exprs = [src.format(i=i, t=t.name, j=min(i, t.dim - 1)) for i in range(sig.root.dim)]
        else:
            exprs = [f"-x[{i}]" for i in range(sig.root.dim)]
        controls[rep] = parse_control(exprs, sig)
    w = per_class_field(m.codomain, controls)
    field = GlobalField(m.codomain, w)
    width = total_phase_space(m.codomain).total_dim + total_phase_space(m.domain).total_dim
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "CHUNK_FLOATS", rows * width)
        report = verify_driving_decomposition(m, w, samples=2, seed=seed % 1000)
    assert report.ok and report.pointwise_max_residual == reference_pointwise_residual(m, w, 2, seed % 1000)
    x0 = reference_sample_state(field.index, np.random.default_rng(seed))
    deps, structural = reference_dependency_matrix(field, x0), expected_dependencies(m.codomain)
    image = set(m.node_map.values())
    assert all(deps[a] <= structural[a] and (a not in image or deps[a] <= image) for a in deps)


def test_driving_builds_its_field_only_on_a_fibration(monkeypatch):
    built = []
    original_init = GlobalField.__init__
    monkeypatch.setattr(
        GlobalField, "__init__", lambda self, *parts: built.append(parts) or original_init(self, *parts)
    )
    host = network([("a", R1), ("b", R1)], [("f", "b", "a")])
    fed = fibra.NetworkMap(network([("a", R1)], []), host, {"a": "a"}, {})
    for m, feedback, builds in ((fixtures.c2_into_g3(), (), 1), (fed, ("f",), 0)):
        built.clear()
        w = fixtures.linear_dynamics(m.codomain)
        report = verify_driving_decomposition(m, w, samples=3, seed=0)
        assert (report.feedback_edges, len(built)) == (feedback, builds)
        expected = reference_pointwise_residual(m, w, 3, 0) if builds else None
        assert report.pointwise_max_residual == expected
    for m in (fixtures.c2_into_g3(), fed):
        with pytest.raises(PreconditionError, match="^virtual vector field was built for a different network$"):
            verify_driving_decomposition(m, fixtures.linear_dynamics(fixtures.cycle2()))


def test_certify_conjugacy_builds_one_joint_field(monkeypatch):
    m = fixtures.string_to_cycle(3, R1, R2)
    w = fixtures.linear_dynamics(m.codomain)
    checks, fields, compiled, kernel_calls = [], [], [], []
    for module in (numerics, dynamics, fibrations):
        original = module.check_fibration
        monkeypatch.setattr(module, "check_fibration", lambda nmap, _f=original: checks.append(nmap) or _f(nmap))
    original_init = GlobalField.__init__
    monkeypatch.setattr(
        GlobalField, "__init__", lambda self, *parts: fields.append(parts) or original_init(self, *parts)
    )
    original_compile = dynamics.compile_control

    def compile_counted(ctrl, counts):
        compiled.append(ctrl)
        kernel = original_compile(ctrl, counts)
        return lambda roots, groups: kernel_calls.append(ctrl) or kernel(roots, groups)

    monkeypatch.setattr(dynamics, "compile_control", compile_counted)
    calls = _spy_calls(monkeypatch)
    report = certify_conjugacy(m, w, samples=20, seed=1, T=0.05, h=0.01)
    assert len(checks) == 1
    [(codomain, codomain_field, (domain, domain_field))] = fields  # one field, [codomain | domain]
    assert codomain is m.codomain and codomain_field is w and domain is m.domain
    assert set(domain_field.controls.values()) <= set(w.controls.values())  # the pullback shares the controls
    assert sorted(map(id, compiled)) == sorted(map(id, w.controls.values()))  # each compiled once
    assert len(calls) == 1 + 4 * 5  # one batch of samples, then four stages a step
    # each call runs every class's kernel once, for the members of both sides
    assert Counter(map(id, kernel_calls)) == {id(ctrl): len(calls) for ctrl in w.controls.values()}
    assert report.pointwise_max_residual == 0.0 and report.flow_max_deviation == 0.0
