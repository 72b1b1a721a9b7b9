"""The flat-state gathers of ``StateIndex`` against the per-node slice loops they replaced.

``PhaseSpaceMap``, ``coordinate_distance``, ``Polydiagonal.violation``,
``sample_state`` and ``circle_mask`` must give bitwise what the loops kept in
``util`` give.  Networks come from ``util.networks``: they mix R1/R2/S1
nodes, have a self-loop and an isolated node, and list their nodes out of
layout order; circle coordinate pairs are equal, about pi apart, or apart by
multiples of 2pi.  On a ``(samples, D)`` batch, the first three must give
bitwise what one call per row gives.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fibra import (
    GlobalField,
    Graph,
    Network,
    NetworkMap,
    Partition,
    Polydiagonal,
    PreconditionError,
    R1,
    R2,
    RawControl,
    S1,
    certify_conjugacy,
    circle_distance,
    coordinate_distance,
    identity_map,
    integrate,
    interconnect,
    network,
    per_node_field,
    phase_space_map,
    polydiagonal_of,
    pullback,
    sample_state,
    signature_at,
    total_phase_space,
    validate_network,
    verify_polydiagonal_invariance,
)
from fibra import fixtures, graphs

from util import (
    LONE_NODE,
    R1_TRIANGLE,
    networks,
    reference_circle_distance,
    reference_circle_mask,
    reference_coordinate_distance,
    reference_phase_space_map,
    reference_sample_state,
    reference_states,
    reference_violation,
)

TWO_PI = 2.0 * np.pi
# Offsets between two angles: equal, about +-pi, and multiples of 2pi, each
# also a rounding error away.
SPECIAL_OFFSETS = [
    0.0, np.pi, -np.pi, TWO_PI, -TWO_PI, 3 * TWO_PI, -5 * TWO_PI, np.pi + 2 * TWO_PI, -np.pi - TWO_PI,
]


def offsets(draw, size):
    special = st.tuples(st.sampled_from(SPECIAL_OFFSETS), st.sampled_from([0.0, 1e-15, -1e-13, 1e-9])).map(sum)
    both = st.one_of(st.just(0.0), special, st.floats(-4.0, 4.0))
    return np.array(draw(st.lists(both, min_size=size, max_size=size)), dtype=float)


def states(draw, size):
    """Generic floats below 4 in magnitude, on a finer grid than 2pi's, so argument order shows in rounding."""
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-3.0, 3.0, size)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_max(values):
    """The max of per-row results, 0.0 for no rows; NaN if any is NaN."""
    return np.float64(np.max(values, initial=0.0))


@given(st.data())
def test_phase_space_map_matches_slice_copy(data):
    cod = data.draw(networks())
    cod_ids = list(cod.graph.nodes)
    images = data.draw(st.lists(st.sampled_from(cod_ids), min_size=1, max_size=8))
    dom = network([(f"d{i}", cod.space(b)) for i, b in enumerate(images)], [])
    m = NetworkMap(dom, cod, {f"d{i}": b for i, b in enumerate(images)}, {})
    p = phase_space_map(m)
    x = states(data.draw, p.codomain_index.total_dim)
    assert same_bits(p(x), reference_phase_space_map(m)(x))
    assert same_bits(p.differential(x), reference_phase_space_map(m)(x))
    batch = states(data.draw, (data.draw(st.integers(0, 3)), p.codomain_index.total_dim))
    rows = np.array([p(row) for row in batch]).reshape(len(batch), p.domain_index.total_dim)
    assert same_bits(p(batch), rows)
    assert same_bits(p.differential(batch), rows)


@given(st.data())
def test_coordinate_distance_matches_per_node_loop(data):
    index = total_phase_space(data.draw(networks()))
    x = states(data.draw, index.total_dim)
    y = x + offsets(data.draw, index.total_dim)
    mask = index.circle_mask()
    y_circles = np.where(mask, y, x)  # the circle coordinates alone set the maximum
    for a, b in ((x, y), (y, x), (x, y_circles), (y_circles, x)):
        new, old = coordinate_distance(a, b, index), reference_coordinate_distance(a, b, index)
        assert same_bits(np.float64(new), np.float64(old))
    assert same_bits(mask, reference_circle_mask(index))
    old = [reference_circle_distance(float(a), float(b)) for a, b in zip(x[mask], y[mask])]
    assert same_bits(circle_distance(x[mask], y[mask]), np.array(old, dtype=float))
    xs = states(data.draw, (data.draw(st.integers(0, 3)), index.total_dim))
    ys = xs + np.array([offsets(data.draw, index.total_dim) for _ in xs]).reshape(xs.shape)
    for a, b in ((xs, ys), (ys, xs), (xs, np.where(mask, ys, xs))):
        per_row = [coordinate_distance(u, v, index) for u, v in zip(a, b)]
        assert same_bits(np.float64(coordinate_distance(a, b, index)), row_max(per_row))


def test_circle_mask_is_a_copy_and_nan_propagates():
    index = total_phase_space(network([("a", S1), ("b", R2), ("c", R1)], []))
    mask = index.circle_mask()
    mask[:] = True
    assert index.circle_mask().tolist() == [True, False, False, False]
    x = np.zeros(4)
    for j in range(4):
        y = x.copy()
        y[j] = np.nan
        assert math.isnan(coordinate_distance(x, y, index))
        assert math.isnan(coordinate_distance(np.stack([x, x, x]), np.stack([x, y, x]), index))


@pytest.mark.parametrize("samples", [0, 1, 3])
def test_batch_readers_on_an_empty_layout(samples):
    # D = 0: no node, so no coordinate; every row is the empty state
    net = network([], [])
    index = total_phase_space(net)
    x = np.zeros((samples, 0))
    assert same_bits(phase_space_map(identity_map(net))(x), x)
    assert same_bits(GlobalField(net, per_node_field(net, {}))(x), x)
    assert coordinate_distance(x, x, index) == 0.0
    assert Polydiagonal(net, Partition(()), index).violation(x) == 0.0


class _Subclass(np.ndarray):
    pass


# ways to hand a state over: (name, array of float64 values -> the object passed)
STATE_FORMS = [
    ("float64", lambda a: a),
    ("strided float64", lambda a: np.repeat(a, 2, axis=-1)[..., ::2] if a.ndim else a),
    ("big-endian float64", lambda a: a.astype(">f8")),
    ("float32", lambda a: a.astype(np.float32)),
    ("int64", lambda a: a.astype(np.int64)),
    ("bool", lambda a: a > 0),
    ("ndarray subclass", lambda a: a.view(_Subclass)),
    ("nested list", lambda a: a.tolist()),
    ("Python float", lambda a: float(a.flat[0]) if a.size else 0.0),
]


@pytest.mark.parametrize("form", [form for _, form in STATE_FORMS], ids=[name for name, _ in STATE_FORMS])
@given(
    st.integers(0, 3),
    st.lists(st.integers(0, 4), max_size=3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_states_takes_and_refuses_what_asarray_and_the_shape_test_do(form, dim, shape, fits, seed):
    index = total_phase_space(network([(f"v{i}", R1) for i in range(dim)], []))
    if shape and fits:
        shape[-1] = dim
    x = form(np.random.default_rng(seed).uniform(-3.0, 3.0, shape))
    try:
        expected = reference_states(index, x)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            index.states(x)
        return
    got = index.states(x)
    assert type(got) is np.ndarray and same_bits(got, expected)
    assert (got is x) == (expected is x)


@st.composite
def polydiagonals(draw):
    """A random phase-homogeneous partition, a state on its polydiagonal, and offsets for the members."""
    net = draw(networks())
    labels = {a: (net.space(a).name, draw(st.integers(0, 1))) for a in net.graph.nodes}
    blocks: dict = {}
    for a, key in labels.items():
        blocks.setdefault(key, []).append(a)
    pd = Polydiagonal(net, Partition(blocks.values()), total_phase_space(net))
    base = states(draw, pd.index.total_dim)
    x = base.copy()
    for block in pd.partition.blocks:
        ref = pd.index.slice_of(block[0])
        for a in block[1:]:
            x[pd.index.slice_of(a)] = base[ref]
    moved = offsets(draw, pd.index.total_dim)
    moved[pd.index.gather(b[0] for b in pd.partition.blocks)] = 0.0  # members move, representatives stay
    return pd, x, moved


@given(polydiagonals(), st.integers(0, 3))
def test_polydiagonal_violation_matches_per_block_loop(case, samples):
    pd, on, moved = case
    for x in (on, on + moved):
        assert same_bits(np.float64(pd.violation(x)), np.float64(reference_violation(pd, x)))
    batch = np.stack([on + moved, on, on - moved])[:samples]
    assert same_bits(np.float64(pd.violation(batch)), row_max([pd.violation(x) for x in batch]))


def test_polydiagonal_violation_on_circle_blocks_matches_per_block_loop():
    # the argument order of the circle distance shows in about 2% of such states
    net = network([("a", S1), ("b", S1), ("c", S1), ("d", S1), ("e", R2), ("f", R2)], [])
    pd = Polydiagonal(net, Partition([["a", "b", "c"], ["d"], ["e", "f"]]), total_phase_space(net))
    rng = np.random.default_rng(5)
    special = np.array(SPECIAL_OFFSETS)
    for _ in range(2000):
        rep = rng.uniform(-3.0, 3.0)
        x = np.array([rep, rep, rep, rng.uniform(-3.0, 3.0), 0.5, -0.5, 0.5, -0.5])
        near_special = rng.choice(special, 2) + rng.uniform(-1e-9, 1e-9, 2)
        x[1:3] += np.where(rng.random(2) < 0.5, near_special, rng.uniform(-4.0, 4.0, 2))
        x[6:] += rng.uniform(-0.1, 0.1, 2)
        assert same_bits(np.float64(pd.violation(x)), np.float64(reference_violation(pd, x)))


@pytest.mark.parametrize("dynamics, space", [(fixtures.linear_dynamics, R1), (fixtures.kuramoto_dynamics, S1)])
def test_polydiagonal_invariance_is_the_max_over_the_trajectory(dynamics, space):
    # a start 1e-10 off the subspace, inside the tolerance, gives a drift that is not 0.0
    psi = fixtures.string_to_cycle(4, space, space)
    w = dynamics(psi.codomain)
    pd = polydiagonal_of(psi)
    x0 = phase_space_map(psi)(np.array([3.0, -2.5]))
    x0[-1] += 1e-10
    traj = integrate(interconnect(psi.domain, pullback(psi, w)), x0, T=1.0, h=1e-2)
    drift = verify_polydiagonal_invariance(psi, w, x0, T=1.0, h=1e-2)
    assert drift > 0.0
    assert same_bits(np.float64(drift), row_max([reference_violation(pd, x) for x in traj.states]))


@given(networks(), st.integers(0, 2**32 - 1))
@example(LONE_NODE, 0)
@example(R1_TRIANGLE, 0)
def test_sample_state_makes_the_per_node_draws(net, seed):
    index = total_phase_space(net)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert same_bits(sample_state(index, new), reference_sample_state(index, old))
    assert new.random() == old.random()


@given(st.lists(networks(), min_size=1, max_size=3))
@example([LONE_NODE, R1_TRIANGLE])
def test_joint_layout_reads_each_part_as_a_mapping(nets):
    indexes = [total_phase_space(net) for net in nets]
    joint = graphs.StateIndex.joint(indexes)
    slices, spaces, off = {}, {}, 0
    for i, index in enumerate(indexes):
        for a in index.order:
            start, length = index.slices[a]
            slices[i, a], spaces[i, a] = (off + start, length), index.spaces[a]
        off += index.total_dim
    assert joint.total_dim == off
    for mapping, expected in [(joint.slices, slices), (joint.spaces, spaces)]:
        assert list(mapping) == list(joint.order) == list(expected)
        assert len(mapping) == len(expected)
        assert dict(mapping.items()) == expected
        a = indexes[0].order[0]
        for key in [a, (a,), (0, a, 0), 7, (len(nets), a), (0, "zz"), (None, a)]:  # not (part, node)
            assert key not in mapping
            with pytest.raises(KeyError) as caught:
                mapping[key]
            assert caught.value.args == (key,)


def test_repeated_node_id_has_no_layout():
    # the constructor stays permissive so that validation can list the repeat; a
    # layout would give both ids one slice and leave two coordinates unwritten
    net = network([("a", R1), ("a", R2), ("b", R1)], [("e1", "a", "b")])
    for _ in range(2):  # on every call: a failed layout is not kept
        with pytest.raises(PreconditionError, match="node id 'a' repeated"):
            total_phase_space(net)
    with pytest.raises(PreconditionError, match="node id 'a' repeated"):
        GlobalField(net, per_node_field(net, {a: RawControl(signature_at(net, a), lambda x, ins: x) for a in "ab"}))
    # the layout names the node validation names first: 'b' repeats first in listing order, 'a' in sorted order
    net = Network(Graph(("b", "a", "b", "a"), ()), {"a": R1, "b": R1})
    assert [(v.kind, v.subject) for v in validate_network(net)] == [("duplicate-node", "b"), ("duplicate-node", "a")]
    with pytest.raises(PreconditionError) as caught:
        total_phase_space(net)
    assert str(caught.value) == "node id 'b' repeated: a state layout needs distinct node ids"


def test_each_network_builds_its_layout_once(monkeypatch):
    built = []
    layout = graphs.StateIndex
    monkeypatch.setattr(graphs, "StateIndex", lambda *fields: built.append(fields[0]) or layout(*fields))
    m = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(m.codomain)
    certify_conjugacy(m, w, samples=3, seed=1, T=0.02, h=0.01)
    assert sorted(built) == sorted([total_phase_space(m.domain).order, total_phase_space(m.codomain).order])
    m, built[:] = fixtures.g3_to_c2(), []
    x0 = np.array([0.1, -0.2, 0.1])
    assert verify_polydiagonal_invariance(m, fixtures.linear_dynamics(m.codomain), x0, 0.02, 0.01) == 0.0
    assert built == [total_phase_space(m.domain).order]
    assert total_phase_space(m.domain) is total_phase_space(m.domain)
    twin = network([(a, m.domain.space(a)) for a in m.domain.graph.nodes], [])
    assert total_phase_space(twin) == total_phase_space(m.domain)
    assert total_phase_space(twin) is not total_phase_space(m.domain)
