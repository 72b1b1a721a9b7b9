import copy
import dataclasses
import inspect
import pickle
import random
import re

import numpy as np
import pytest

from fibra import (
    Edge,
    Graph,
    Network,
    NetworkMap,
    PhaseSpace,
    PreconditionError,
    R1,
    R2,
    S1,
    Violation,
    check_network_map,
    compose_maps,
    coordinate_distance,
    euclidean,
    identity_map,
    integrate,
    interconnect,
    network,
    phase_space_map,
    polydiagonal_of,
    total_phase_space,
    validate_network,
)
from fibra import fixtures

from util import random_map_onto, random_network


def test_phase_space_structural_equality():
    assert euclidean(2) == PhaseSpace("R", 2)
    assert euclidean(2) != euclidean(3)
    assert S1 != R1
    assert S1.name == "S1" and euclidean(3).name == "R3"


def test_phase_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        PhaseSpace("R", 0)
    with pytest.raises(ValueError):
        PhaseSpace("S1", 2)
    with pytest.raises(ValueError):
        PhaseSpace("T2", 1)


def test_edge_is_a_frozen_slotted_value():
    e = Edge("e1", "a", "b")
    assert e == Edge("e1", "a", "b") and hash(e) == hash(Edge("e1", "a", "b"))
    assert e != Edge("e1", "b", "a")
    assert repr(e) == "Edge(edge_id='e1', src='a', tgt='b')"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(e, protocol)) == e
    assert copy.deepcopy(e) == e and copy.copy(e) == e
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.src = "z"
    assert not hasattr(e, "__dict__")


def test_edge_constructor_keeps_the_dataclass_contract():
    # Edge's own __init__ takes what a generated one takes and builds the same value
    fields = dataclasses.fields(Edge)
    assert [(f.name, f.type, f.init, f.default, f.kw_only) for f in fields] == [
        (name, kind, True, dataclasses.MISSING, False)
        for name, kind in (("edge_id", "EdgeId"), ("src", "NodeId"), ("tgt", "NodeId"))
    ]
    parameters = inspect.signature(Edge).parameters
    assert [(p.name, p.kind, p.default, p.annotation) for p in parameters.values()] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty, f.type) for f in fields
    ]
    e = Edge("e1", "a", "b")
    assert Edge(tgt="b", edge_id="e1", src="a") == Edge("e1", src="a", tgt="b") == e
    assert (e.edge_id, e.src, e.tgt) == ("e1", "a", "b")
    assert dataclasses.asdict(e) == {"edge_id": "e1", "src": "a", "tgt": "b"}
    assert dataclasses.astuple(e) == ("e1", "a", "b")
    moved = dataclasses.replace(e, src="z")
    assert moved == Edge("e1", "z", "b") and e == Edge("e1", "a", "b")
    assert dataclasses.replace(e) == e and dataclasses.replace(e) is not e
    with pytest.raises(TypeError):
        Edge("e1", "a")
    with pytest.raises(TypeError):
        Edge("e1", "a", "b", "c")
    with pytest.raises(TypeError):
        Edge("e1", "a", tgt="b", weight=1)
    with pytest.raises(TypeError):
        dataclasses.replace(e, weight=1)


def test_validate_wellformed_g3():
    assert validate_network(fixtures.g3()) == []


def test_validate_dangling_source():
    net = network([("a", R1)], [("e", "ghost", "a")])
    violations = validate_network(net)
    assert [v.kind for v in violations] == ["dangling-src"]
    assert violations[0].subject == "e"


def test_validate_duplicate_edge_id():
    net = network([("a", R1), ("b", R1)], [("e", "a", "b"), ("e", "b", "a")])
    kinds = {v.kind for v in validate_network(net)}
    assert "duplicate-edge" in kinds


def test_validate_duplicate_node_and_missing_phase():
    g = Graph(("a", "a"), (Edge("e", "a", "a"),))
    net = Network(g, {})
    kinds = {v.kind for v in validate_network(net)}
    assert {"duplicate-node", "missing-phase"} <= kinds


def test_check_map_ok_for_collapse_onto_cycle():
    assert check_network_map(fixtures.g3_to_c2()) == []


def test_check_map_flags_source_mismatch():
    psi = fixtures.g3_to_c2()
    bad = NetworkMap(psi.domain, psi.codomain, dict(psi.node_map),
                     {**psi.edge_map, "a": "ba"})  # edge a: 1 -> 2 sent to b -> a
    violations = check_network_map(bad)
    assert [v.kind for v in violations] == ["homomorphism"]
    assert violations[0].subject == "a"
    # a mismatch at the target alone: edge ba: b -> a sent to c: 2 -> 3, whose source is b's image
    iota = fixtures.c2_into_g3()
    bad = NetworkMap(iota.domain, iota.codomain, dict(iota.node_map), {**iota.edge_map, "ba": "c"})
    assert check_network_map(bad) == [
        Violation("homomorphism", "ba", "edge 'ba': endpoints map to ('2','1') but its image 'c' runs ('2','3')")
    ]


def test_check_map_flags_phase_mismatch():
    dom = network([("1", R2)], [])
    cod = network([("a", euclidean(3))], [])
    violations = check_network_map(NetworkMap(dom, cod, {"1": "a"}, {}))
    assert [(v.kind, v.subject) for v in violations] == [("phase", "1")]


def test_check_map_flags_unmapped_items():
    dom = network([("1", R1), ("2", R1)], [("e", "1", "2")])
    cod = network([("a", R1)], [("l", "a", "a")])
    violations = check_network_map(NetworkMap(dom, cod, {"1": "a"}, {}))
    kinds = {v.kind for v in violations}
    assert {"unmapped-node", "unmapped-edge"} <= kinds


def test_total_phase_space_dims_and_slices():
    net = network([("a", R2), ("b", euclidean(3))], [])
    idx = total_phase_space(net)
    assert idx.total_dim == 5
    assert idx.slices["a"] == (0, 2)
    assert idx.slices["b"] == (2, 3)
    assert idx.order == ("a", "b")


def test_total_phase_space_single_node():
    idx = total_phase_space(network([("a", R1)], []))
    assert idx.total_dim == 1


def test_total_phase_space_string_graph():
    # odd nodes R1, even nodes R2: 1 + 2 + 1 + 2
    idx = total_phase_space(fixtures.string_graph(2))
    assert idx.total_dim == 6


def test_total_phase_space_deterministic():
    net = network([("b", R1), ("a", R2)], [])
    idx1, idx2 = total_phase_space(net), total_phase_space(net)
    assert idx1 == idx2
    assert idx1.order == ("a", "b")  # lexicographic, not listing order


def test_state_index_slices_cover_everything():
    rng = random.Random(3)
    for _ in range(20):
        net = random_network(rng, max_nodes=6, max_edges=4)
        idx = total_phase_space(net)
        seen = []
        for a in idx.order:
            off, length = idx.slices[a]
            assert length == net.space(a).dim
            seen.extend(range(off, off + length))
        assert seen == list(range(idx.total_dim))


def test_wrap_angle_and_circle_distance():
    from fibra import circle_distance, wrap_angle

    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)  # range is (-pi, pi]
    assert circle_distance(0.1, 0.1 + 2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert circle_distance(-0.1, 0.1) == pytest.approx(0.2)
    assert circle_distance(0.0, np.pi) == pytest.approx(np.pi)


def test_pack_unpack_roundtrip():
    net = network([("a", R2), ("b", R1)], [])
    idx = total_phase_space(net)
    by_node = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    x = idx.pack(by_node)
    assert np.array_equal(x, [1.0, 2.0, 3.0])
    out = idx.unpack(x)
    assert np.array_equal(out["a"], by_node["a"])


def test_phase_space_map_diagonal():
    # two discrete nodes collapsed onto one
    dom = network([("a", R2), ("b", R2)], [])
    cod = network([("c", R2)], [])
    m = NetworkMap(dom, cod, {"a": "c", "b": "c"}, {})
    p = phase_space_map(m)
    x = np.array([1.5, -2.0])
    assert np.array_equal(p(x), [1.5, -2.0, 1.5, -2.0])


def test_phase_space_map_projection():
    # one node included at a of a two-node graph
    dom = network([("c", R1)], [])
    cod = network([("a", R1), ("b", R1)], [])
    m = NetworkMap(dom, cod, {"c": "a"}, {})
    p = phase_space_map(m)
    assert np.array_equal(p(np.array([7.0, 9.0])), [7.0])


def test_phase_space_map_identity():
    net = fixtures.g3()
    p = phase_space_map(identity_map(net))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(p(x), x)
    assert np.array_equal(p.differential(x), x)


def test_phase_space_map_rejects_invalid():
    dom = network([("1", R2)], [])
    cod = network([("a", euclidean(3))], [])
    with pytest.raises(PreconditionError):
        phase_space_map(NetworkMap(dom, cod, {"1": "a"}, {}))


@pytest.mark.parametrize("shape", [(3,), (1, 1, 2)])
def test_phase_space_map_rejects_a_wrong_shape_state(shape):
    p = phase_space_map(fixtures.g3_to_c2())
    message = f"state has shape {shape}, expected (2,) or (samples, 2)"
    with pytest.raises(PreconditionError, match=re.escape(message)):
        p(np.zeros(shape))


@pytest.mark.parametrize("shape", [(2,), (1, 3), (2, 3)])
def test_state_checks_reject_a_wrong_shape_state(shape):
    # integrate takes one state; a batch is a wrong shape there
    message = re.escape(f"state has shape {shape}, expected (3,)")
    g3 = fixtures.g3()
    field = interconnect(g3, fixtures.linear_dynamics(g3))
    with pytest.raises(PreconditionError, match=message):
        integrate(field, np.zeros(shape), T=0.02, h=0.01)


def _batch_readers():
    """The four readers of a state or a (samples, D) batch, each on a layout of D = 3."""
    g3 = fixtures.g3()
    index = total_phase_space(g3)
    return {
        "field": interconnect(g3, fixtures.linear_dynamics(g3)),
        "phase_space_map": phase_space_map(identity_map(g3)),
        "coordinate_distance(x, .)": lambda x: coordinate_distance(x, np.zeros(3), index),
        "coordinate_distance(., y)": lambda y: coordinate_distance(np.zeros(3), y, index),
        "violation": polydiagonal_of(fixtures.g3_to_c2()).violation,
    }


@pytest.mark.parametrize("shape", [(2,), (), (3, 2), (1, 1, 3)])
def test_batch_readers_reject_a_wrong_shape_state_with_one_message(shape):
    message = re.escape(f"state has shape {shape}, expected (3,) or (samples, 3)")
    for read in _batch_readers().values():
        with pytest.raises(PreconditionError, match=message):
            read(np.zeros(shape))


@pytest.mark.parametrize("shape", [(3,), (0, 3), (1, 3), (2, 3)])
def test_batch_readers_take_a_state_or_a_batch(shape):
    g3, x = fixtures.g3(), np.zeros(shape)
    assert interconnect(g3, fixtures.linear_dynamics(g3))(x).shape == shape
    assert phase_space_map(identity_map(g3))(x).shape == shape
    assert coordinate_distance(x, x, total_phase_space(g3)) == 0.0
    assert polydiagonal_of(fixtures.g3_to_c2()).violation(x) == 0.0


@pytest.mark.parametrize("x_shape, y_shape", [((3,), (1, 3)), ((2, 3), (3,)), ((1, 3), (2, 3)), ((0, 3), (1, 3))])
def test_coordinate_distance_rejects_states_of_two_shapes(x_shape, y_shape):
    message = re.escape(f"states have shapes {x_shape} and {y_shape}, expected one shape")
    with pytest.raises(PreconditionError, match=message):
        coordinate_distance(np.zeros(x_shape), np.zeros(y_shape), total_phase_space(fixtures.g3()))


def test_compose_identity_right_and_left():
    psi = fixtures.g3_to_c2()
    assert compose_maps(identity_map(psi.domain), psi).node_map == psi.node_map
    assert compose_maps(psi, identity_map(psi.codomain)).edge_map == psi.edge_map


def test_compose_requires_matching_middle():
    psi = fixtures.g3_to_c2()
    with pytest.raises(PreconditionError):
        compose_maps(psi, psi)


def test_contravariant_functoriality_randomized():
    # total-state map of a composite equals the maps applied in reverse order
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        c = random_network(rng, max_nodes=4, max_edges=5)
        m2 = random_map_onto(rng, c, max_nodes=4, max_edges=5)  # B -> C
        m1 = random_map_onto(rng, m2.domain, max_nodes=4, max_edges=5)  # A -> B
        composite = compose_maps(m1, m2)
        p1, p2, pc = phase_space_map(m1), phase_space_map(m2), phase_space_map(composite)
        v = np.arange(1.0, pc.codomain_index.total_dim + 1.0)
        assert np.array_equal(pc(v), p1(p2(v)))
        checked += 1
    assert checked == 40


def test_surjective_map_gives_injective_coordinates():
    rng = random.Random(11)
    for _ in range(30):
        cod = random_network(rng, max_nodes=3, max_edges=3)
        m = random_map_onto(rng, cod, max_nodes=5, max_edges=4)
        if set(m.node_map.values()) != set(cod.graph.nodes):
            continue
        p = phase_space_map(m)
        g = np.random.default_rng(3)
        x, y = g.normal(size=p.codomain_index.total_dim), g.normal(size=p.codomain_index.total_dim)
        assert not np.array_equal(x, y)
        assert not np.array_equal(p(x), p(y))


def test_injective_map_gives_surjective_coordinates():
    # every domain vector is hit: construct the preimage by writing slices back
    rng = random.Random(13)
    for _ in range(30):
        cod = random_network(rng, max_nodes=5, max_edges=4)
        m = random_map_onto(rng, cod, max_nodes=3, max_edges=3)
        values = list(m.node_map.values())
        if len(set(values)) != len(values):
            continue
        p = phase_space_map(m)
        g = np.random.default_rng(5)
        target = g.normal(size=p.domain_index.total_dim)
        x = np.zeros(p.codomain_index.total_dim)
        for a in p.domain_index.order:
            x[p.codomain_index.slice_of(m.node_map[a])] = target[p.domain_index.slice_of(a)]
        assert np.allclose(p(x), target)
