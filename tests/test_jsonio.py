import contextlib
import copy
import io
import json
import math
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fibra
from fibra import InputError, R1, R2, S1, total_phase_space, validate_network
from fibra import dynamics, fixtures
from fibra.cli import main
from fibra.jsonio import (
    MAX_DIM,
    class_dynamics_from_json,
    class_dynamics_to_json,
    dumps,
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

from util import reference_network_from_json, reference_state_from_json, reference_validate_network


@pytest.mark.parametrize(
    "net, circles",
    [
        (fixtures.string_graph(2), 0),
        (fixtures.string_graph(2, S1, S1), 4),
        (fixtures.g3_mixed(), 0),
        (fixtures.funnel4(R1, R2), 0),
    ],
    ids=["string2", "string2-s1", "g3-mixed", "funnel4-mixed"],
)
def test_network_roundtrip(net, circles):
    obj = network_to_json(net)
    assert network_from_json(obj).is_same(net)
    assert sum(node["space"] == {"kind": "S1"} for node in obj["nodes"]) == circles


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


def test_space_dim_is_at_most_max_dim():
    assert space_from_json({"kind": "R", "dim": MAX_DIM}).dim == MAX_DIM
    for dim in (MAX_DIM + 1, 10**19, 10**400):
        with pytest.raises(InputError, match=f"^space: dim must be at most {MAX_DIM}$"):
            space_from_json({"kind": "R", "dim": dim})


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


def test_class_dynamics_checks_each_signature_against_the_network():
    net = fixtures.string_graph(3)  # R1 and R2 nodes: two classes
    obj = class_dynamics_to_json(fixtures.linear_dynamics(net))
    reps = [c["representative"] for c in obj["classes"]]
    w = class_dynamics_from_json(obj, net)
    assert len(reps) == 2 and all(w.controls[r].signature == fibra.signature_at(net, r) for r in reps)
    wrong = fibra.parse_control(["-x[0]", "-x[1]"], fibra.ControlSignature(R2, ()))
    r1 = next(r for r in reps if net.space(r) == R1)
    with pytest.raises(fibra.SignatureMismatch, match=re.escape(f"control at class representative {r1!r} has")):
        dynamics.VirtualVectorField(net, "per_class", {**w.controls, r1: wrong})
    missing = {"classes": [c for c in obj["classes"] if c["representative"] != r1]}
    with pytest.raises(InputError, match=re.escape(f"dynamics: no control for class of {r1!r}")):
        class_dynamics_from_json(missing, net)


def test_class_dynamics_builds_each_representative_signature_once(monkeypatch):
    net = network_from_json(network_to_json(fixtures.string_graph(3)))  # two classes, no signature built yet
    obj = class_dynamics_to_json(fixtures.linear_dynamics(fixtures.string_graph(3)))
    built = []
    signature = dynamics.ControlSignature
    monkeypatch.setattr(dynamics, "ControlSignature", lambda *args: built.append(args[0]) or signature(*args))
    w = class_dynamics_from_json(obj, net)
    assert sorted(w.controls) == sorted(c["representative"] for c in obj["classes"])
    assert built == [net.space(r) for r in w.controls]  # one per representative: parsed, then checked


def test_node_dynamics_export_after_pullback():
    psi = fixtures.g3_to_c2()
    w = fixtures.linear_dynamics(psi.codomain)
    pulled = fibra.pullback(psi, w)
    obj = node_dynamics_to_json(pulled)
    assert [entry["id"] for entry in obj["nodes"]] == ["1", "2", "3"]
    exprs = {entry["id"]: entry["exprs"] for entry in obj["nodes"]}
    assert exprs["1"] == exprs["3"]  # both carry the image node's control


def test_node_dynamics_prints_each_control_once(monkeypatch):
    m = fixtures.string_to_cycle(6)
    pulled = fibra.pullback(m, fixtures.linear_dynamics(m.codomain))
    expected = [{"id": a, "exprs": list(pulled.control_at(a).sources())} for a in sorted(m.domain.graph.nodes)]
    printed = []
    sources = fibra.ControlExpr.sources
    monkeypatch.setattr(fibra.ControlExpr, "sources", lambda ctrl: printed.append(ctrl) or sources(ctrl))
    obj = node_dynamics_to_json(pulled)
    assert obj == {"nodes": expected}
    assert len(printed) == len({id(c) for c in pulled.controls.values()}) < len(expected)
    by_control = {}
    for entry in obj["nodes"]:  # nodes that share a control each get a list of their own
        lists = by_control.setdefault(id(pulled.control_at(entry["id"])), [])
        assert all(entry["exprs"] is not other for other in lists)
        lists.append(entry["exprs"])
    assert max(map(len, by_control.values())) > 1


def _per_node_linear_g3():
    w = fixtures.linear_dynamics(fixtures.g3())
    return fibra.lift_to_nodes(w.network, w.controls)


def _raw_controls(net):
    return {a: fibra.RawControl(fibra.signature_at(net, a), lambda x, ins: x) for a in net.graph.nodes}


EXPORT_FAULTS = {
    "class-form-of-a-per-node-field": (
        lambda: class_dynamics_to_json(_per_node_linear_g3()), "only per-class dynamics have a class JSON form",
    ),
    "class-form-of-a-raw-control": (
        lambda: class_dynamics_to_json(fibra.per_class_field(fixtures.g3(), {"1": _raw_controls(fixtures.g3())["1"]})),
        "opaque controls cannot be serialized",
    ),
    "node-form-of-a-raw-control": (
        lambda: node_dynamics_to_json(fibra.per_node_field(fixtures.g3(), _raw_controls(fixtures.g3()))),
        "opaque controls cannot be serialized",
    ),
}


@pytest.mark.parametrize("case", sorted(EXPORT_FAULTS))
def test_export_rejects_what_has_no_json_form(case):
    call, message = EXPORT_FAULTS[case]
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


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
    with pytest.raises(InputError, match="state: unknown node 'zzz'"):
        state_from_json({"by_node": {"1": [1], "2": [2, 3], "3": [4], "4": [5, 6], "zzz": [1.0]}}, idx)


COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, math.inf, math.nan, 10**400, True, None, "1", [1.0]]),
)
BY_NODE = st.dictionaries(
    st.sampled_from(["1", "2", "3", "4", "zz"]),
    st.one_of(st.lists(COORDINATE, max_size=3), st.sampled_from([None, 1.0, "x", {}])),
)


@given(st.one_of(BY_NODE.map(lambda d: {"by_node": d}), st.lists(COORDINATE, max_size=7).map(lambda v: {"flat": v})))
def test_state_from_json_matches_the_per_node_loader(obj):
    # string_graph(2) lays out node 1 (R1), 2 (R2), 3 (R1), 4 (R2)
    idx = total_phase_space(fixtures.string_graph(2))

    def outcome(load):
        try:
            x = load(obj, idx)
        except InputError as exc:
            return str(exc)
        return x.dtype, x.shape, x.tobytes()

    assert outcome(state_from_json) == outcome(reference_state_from_json)


def test_state_from_json_checks_missing_then_coordinates_then_unknown():
    idx = total_phase_space(fixtures.string_graph(2))
    cases = [
        ({"2": [1], "zz": [1.0]}, "state: missing node '1'"),
        ({"1": [1], "2": [1], "zz": [1.0]}, "state: node '2' must be a list of 2 finite numbers"),
        ({"1": [1], "2": [2, 3], "3": [True], "4": [5, 6]}, "state: node '3' must be a list of 1 finite numbers"),
        ({"zz": [1.0], "1": [1], "2": [2, 3], "3": [4], "4": [5, 6]}, "state: unknown node 'zz'"),
    ]
    for by_node, message in cases:
        with pytest.raises(InputError) as exc:
            state_from_json({"by_node": by_node}, idx)
        assert str(exc.value) == message


# --- the one-pass loader against the loader it replaced ------------------------------

NODE_IDS = st.sampled_from(["a", "b", "c"])  # few ids, so duplicate and dangling ones occur
SPACES_JSON = st.sampled_from([{"kind": "S1"}, {"kind": "R", "dim": 1}, {"kind": "R", "dim": 2}, {"kind": "S1", "dim": 3}])
NODE_JSON = st.builds(lambda i, space: {"id": i, "space": dict(space)}, NODE_IDS, SPACES_JSON)
EDGE_JSON = st.builds(lambda i, s, t: {"id": i, "src": s, "tgt": t}, st.sampled_from(["e0", "e1"]), NODE_IDS, NODE_IDS)
NETWORK_JSON = st.builds(lambda n, e: {"nodes": n, "edges": e}, st.lists(NODE_JSON, max_size=4), st.lists(EDGE_JSON, max_size=4))
# a field's value retyped: a bool, an int, a float, None, a string, a list or a nested object
RETYPED = st.sampled_from([True, False, 1, 0, 1.0, None, "1", ["a"], [], {"id": "a"}, {}])
R1_NODE = {"id": "a", "space": {"kind": "R", "dim": 1}}


@st.composite
def network_values(draw):
    """A well-formed network object, or one with a single field dropped, retyped, or its object given as a
    Mapping that is not a dict.

    A node or edge is changed in a copy appended to its list, so an unchanged
    twin comes before it: a loader that reuses what it read for an entry that
    compares equal (``True == 1 == 1.0``) is caught.
    """
    obj = draw(NETWORK_JSON)
    how = draw(st.sampled_from(["none", "drop", "retype", "mapping"]))
    if how == "none":
        return obj
    where = draw(st.sampled_from(["network", "node", "space", "edge"]))
    target = obj
    if where != "network":
        entries = obj["edges" if where == "edge" else "nodes"]
        twin = draw(st.sampled_from(entries)) if entries else draw(EDGE_JSON if where == "edge" else NODE_JSON)
        entries.append(copy.deepcopy(twin))
        target = entries[-1]["space"] if where == "space" else entries[-1]
    if how == "mapping":
        if where == "network":
            return types.MappingProxyType(obj)
        if where == "space":
            entries[-1]["space"] = types.MappingProxyType(target)
        else:
            entries[-1] = types.MappingProxyType(target)
        return obj
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
    else:
        target[key] = draw(RETYPED)
    return obj


def _outcome(load, obj):
    try:
        net = load(obj)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return net, dict(net.phase)


@given(network_values())
@example({"nodes": [R1_NODE, {"id": "b", "space": {"kind": "R", "dim": True}}], "edges": []})
@example({"nodes": [R1_NODE, {"id": "b", "space": {"kind": "R", "dim": 1.0}}], "edges": []})
@example({"nodes": [R1_NODE], "edges": [{"id": "e", "src": "a", "tgt": "a"}, {"id": 1, "src": "a", "tgt": "a"}]})
def test_network_loader_matches_reference(obj):
    got, want = _outcome(network_from_json, obj), _outcome(reference_network_from_json, obj)
    assert got == want
    assert got[0] is InputError or isinstance(got[0], fibra.Network)


# one bad entry after 10^4 well-formed edges: the message that names it, or the violations it makes
LONG_TAIL = {
    "non-dict": (["e", "a", "b"], "network edge: missing key 'id'"),
    "missing-src": ({"id": "x", "tgt": "a"}, "network edge: missing key 'src'"),
    "int-id": ({"id": 7, "src": "a", "tgt": "b"}, "network edge: id, src, tgt must be strings"),
    "repeated-id": ({"id": "e17", "src": "c", "tgt": "a"}, [("duplicate-edge", "e17")]),
    "unknown-target": ({"id": "x", "src": "a", "tgt": "zz"}, [("dangling-tgt", "x")]),
}


@pytest.mark.parametrize("bad", sorted(LONG_TAIL))
def test_network_loader_names_one_bad_entry_after_many_good_ones(bad):
    entry, expected = LONG_TAIL[bad]
    good = [{"id": f"e{k}", "src": "abc"[k % 3], "tgt": "abc"[(k + 1) % 3]} for k in range(10**4)]
    obj = {"nodes": [{"id": a, "space": {"kind": "R", "dim": 1}} for a in "abc"], "edges": good + [entry]}
    got, want = _outcome(network_from_json, obj), _outcome(reference_network_from_json, obj)
    assert got == want
    if isinstance(expected, str):
        assert got == (InputError, expected)
    else:
        assert validate_network(got[0]) == reference_validate_network(want[0])
        assert [(v.kind, v.subject) for v in validate_network(got[0])] == expected


@given(network_values())
def test_network_files_never_escape_main(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_text(json.dumps(obj, default=dict), encoding="utf-8")
    for command in ["validate", "groupoid"]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path)])
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


# --- the report writer against json.dumps ----------------------------------------------

TRICKY_TEXT = st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r\b\f", "é漢字😀", "\u2028", ""])
TEXT = st.one_of(st.text(max_size=6), TRICKY_TEXT)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), FLOATS, TEXT)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_dumps_matches_json(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_writes_an_int_too_long_to_print_as_its_hex_string():
    # json.dumps raises ValueError past the digit limit; dumps writes "0x..." there and keeps every shorter int
    limit = sys.get_int_max_str_digits()
    longest, too_long = 10**limit - 1, 10**limit
    assert dumps([longest, -longest]) == json.dumps([longest, -longest], indent=2)
    with pytest.raises(ValueError):
        json.dumps(too_long)
    text = dumps({"n": too_long, "m": [-too_long]})
    assert json.loads(text) == {"n": hex(too_long), "m": [hex(-too_long)]}
    assert int(json.loads(text)["n"], 16) == too_long and sys.get_int_max_str_digits() == limit


NOT_REPORTS = {
    "set": {1},
    "frozenset": frozenset(),
    "int-key": {1: "a"},
    "nested-none-key": {"a": {None: 1}},
    "float-key-in-list": [{"a": 1, 2.5: 0}],
    "tuple-key": {(1,): 2},
    "bytes": b"x",
    "object": [object()],
    "numpy-int": {"a": np.int64(1)},
}


@pytest.mark.parametrize("value", NOT_REPORTS.values(), ids=NOT_REPORTS.keys())
def test_dumps_refuses_sets_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dumps(value)



# --- every loaded file of a command fuzzed through main ----------------------------

# the files of valid commands on the map g3 -> c2 with linear dynamics, by name
FUZZ_FILES = {
    "dom": network_to_json(fixtures.g3()),
    "cod": network_to_json(fixtures.cycle2()),
    "map": map_to_json(fixtures.g3_to_c2()),
    "dynamics": class_dynamics_to_json(fixtures.linear_dynamics(fixtures.cycle2())),
    "partition": {"blocks": [["1", "3"], ["2"]]},
    "state": {"flat": [0.1, 0.2]},
    "domain-state": {"by_node": {"1": [0.1], "2": [0.2], "3": [0.1]}},
}
HORIZON = ["--T", "0.02", "--h", "0.01"]
# the commands that read each fuzzed file, which stands at "*"
FUZZ_COMMANDS = {
    "map": [["check-fibration", "dom", "cod", "*"], ["verify", "driving", "dom", "cod", "*", "dynamics", "--samples", "2"]],
    "partition": [["balanced", "--check", "*", "dom"]],
    "dynamics": [["pullback", "dom", "cod", "map", "*"], ["simulate", "cod", "*", "--x0", "state", *HORIZON]],
    "state": [
        ["simulate", "cod", "dynamics", "--x0", "*", *HORIZON],
        ["verify", "conjugacy", "dom", "cod", "map", "dynamics", "--x0", "*", "--samples", "2", *HORIZON],
    ],
    "domain-state": [["verify", "polydiagonal", "dom", "cod", "map", "dynamics", "--x0", "*", *HORIZON]],
}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# node and edge ids and coordinates of these files: a value replaced by one of them often still loads
NEAR_VALUES = st.sampled_from(["1", "2", "3", "a", "b", "ab", "ba", "c", 0.5, -1.0, 1e308, 2, ["1", "3"], [0.5]])


@st.composite
def fuzzed_files(draw):
    """A file name and an arbitrary JSON value, or that file's valid object with one value in it replaced."""
    name = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    if draw(st.booleans()):
        return name, draw(JSON_VALUES)
    new = draw(st.one_of(NEAR_VALUES, JSON_VALUES))
    obj = copy.deepcopy(FUZZ_FILES[name])
    paths, stack = [], [()]
    while stack:
        path = stack.pop()
        paths.append(path)
        value = _at(obj, path)
        keys = value.keys() if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
        stack.extend(path + (k,) for k in keys)
    path = draw(st.sampled_from(paths))
    if not path:
        return name, new
    _at(obj, path[:-1])[path[-1]] = new
    return name, obj


def _run_fuzzed(root, name, obj) -> None:
    """Write ``obj`` as the file ``name`` and run every command reading it: exit 0, 1 or 2, and ``error:`` for 2."""
    fuzzed = root / "fuzzed.json"
    fuzzed.write_text(json.dumps(obj), encoding="utf-8")
    for command in FUZZ_COMMANDS[name]:
        argv = [str(fuzzed) if a == "*" else str(root / f"{a}.json") if a in FUZZ_FILES else a for a in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: "), argv


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, obj in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    return root


@given(fuzzed_files())
def test_loaded_files_never_escape_main(fuzz_root, fuzzed):
    _run_fuzzed(fuzz_root, *fuzzed)


EXPRESSION_PIECES = st.sampled_from(
    ["sum", "mean", "(", ")", "u", " in ", "inputs", "[", "R1", "S1", "]", "{", "}", "u[0]", "x[0]", "x[1]",
     "+", "-", "*", "/", "^", "2", "-1", "0", ".5", "1e400", "sin", "exp", "log", "sqrt", "é", "\n"]
)


@given(st.one_of(st.text(max_size=20), st.lists(EXPRESSION_PIECES, max_size=16).map("".join)))
def test_expression_text_never_escapes_main(fuzz_root, text):
    dynamics = copy.deepcopy(FUZZ_FILES["dynamics"])
    dynamics["classes"][0]["exprs"] = [text]
    _run_fuzzed(fuzz_root, "dynamics", dynamics)
