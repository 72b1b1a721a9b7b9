import numpy as np
import pytest

import fibra
from fibra import InputError, R1, R2, S1, total_phase_space
from fibra import fixtures
from fibra.jsonio import (
    class_dynamics_from_json,
    class_dynamics_to_json,
    map_from_json,
    map_to_json,
    network_from_json,
    network_to_json,
    node_dynamics_to_json,
    partition_from_json,
    partition_to_json,
    space_from_json,
    state_from_json,
)


def test_network_roundtrip():
    net = fixtures.string_graph(2)
    back = network_from_json(network_to_json(net))
    assert back.is_same(net)


def test_network_schema_shapes():
    obj = {
        "nodes": [
            {"id": "a", "space": {"kind": "R", "dim": 2}},
            {"id": "b", "space": {"kind": "S1"}},
        ],
        "edges": [{"id": "e", "src": "a", "tgt": "b"}],
    }
    net = network_from_json(obj)
    assert net.space("a") == R2 and net.space("b") == S1


def test_network_rejects_malformed():
    with pytest.raises(InputError):
        network_from_json({"nodes": []})
    with pytest.raises(InputError):
        network_from_json({"nodes": [{"id": "a"}], "edges": []})
    with pytest.raises(InputError):
        network_from_json({"nodes": [{"id": "a", "space": {"kind": "R", "dim": 0}}], "edges": []})
    with pytest.raises(InputError):
        space_from_json({"kind": "sphere"})


def test_map_roundtrip():
    m = fixtures.g3_to_c2()
    back = map_from_json(map_to_json(m), m.domain, m.codomain)
    assert back.node_map == dict(m.node_map)
    assert back.edge_map == dict(m.edge_map)


def test_partition_roundtrip_normalizes():
    p = partition_from_json({"blocks": [["3", "1"], ["2"]]})
    assert p.blocks == (("1", "3"), ("2",))
    assert partition_to_json(p) == {"blocks": [["1", "3"], ["2"]]}


def test_class_dynamics_roundtrip():
    net = fixtures.cycle2()  # same space both sides: a single class
    w = fixtures.linear_dynamics(net)
    obj = class_dynamics_to_json(w)
    assert {c["representative"] for c in obj["classes"]} == {"a"}
    back = class_dynamics_from_json(obj, net)
    X, Y = fibra.interconnect(net, w), fibra.interconnect(net, back)
    x = np.array([0.5, -2.0])
    assert np.array_equal(X(x), Y(x))

    mixed = fixtures.cycle2(R1, R2)  # distinct spaces: two classes
    obj = class_dynamics_to_json(fixtures.linear_dynamics(mixed))
    assert {c["representative"] for c in obj["classes"]} == {"a", "b"}


def test_class_dynamics_rejects_bad_expressions():
    net = fixtures.cycle2()
    with pytest.raises(InputError):
        class_dynamics_from_json({"classes": [{"representative": "a", "exprs": ["u[0]"]}]}, net)
    twice = [{"representative": "a", "exprs": ["-x[0]"]}, {"representative": "a", "exprs": ["5"]}]
    with pytest.raises(InputError, match="representative 'a' is listed twice"):
        class_dynamics_from_json({"classes": twice}, net)


def test_node_dynamics_export_after_pullback():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    pulled = fibra.pullback(psi, w)
    obj = node_dynamics_to_json(pulled)
    assert [entry["id"] for entry in obj["nodes"]] == ["1", "2", "3"]
    exprs = {entry["id"]: entry["exprs"] for entry in obj["nodes"]}
    assert exprs["1"] == exprs["3"]  # both carry the image node's control


def test_state_from_json_flat_and_by_node():
    idx = total_phase_space(fixtures.string_graph(2))
    flat = state_from_json({"flat": [1, 2, 3, 4, 5, 6]}, idx)
    assert flat.tolist() == [1, 2, 3, 4, 5, 6]
    by_node = state_from_json(
        {"by_node": {"1": [1], "2": [2, 3], "3": [4], "4": [5, 6]}}, idx
    )
    assert np.array_equal(flat, by_node)
    with pytest.raises(InputError):
        state_from_json({"flat": [1, 2]}, idx)
    with pytest.raises(InputError):
        state_from_json({"by_node": {"1": [1]}}, idx)
    with pytest.raises(InputError):
        state_from_json({}, idx)
