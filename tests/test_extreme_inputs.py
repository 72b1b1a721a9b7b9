"""Every command on valid inputs at the extremes: each run exits 0, 1 or 2 in bounded time.

The networks have ids with ``:``, non-ASCII ids and a 10^4-character id;
in-degrees 0, 1 and 1600 (whose automorphism order has more digits than
Python prints); self-loops and parallel edges; a 300-node doubled-edge chain;
and nodes in R^500.  Each is run with its identity map, its linear dynamics
and states at +-1e308 and at subnormal values.  Integers of 5000 digits, more
than ``int()`` reads under Python's default limit, sit in a JSON file and in
an expression, and a space's ``dim`` of 10^19 or of 400 digits, too large for
any state array, in a network.  A run may hold or fail; it never lets an exception out of
``main``, and its stderr is empty or one ``error: ...`` line.
"""

import json
import time
import warnings

import pytest

from fibra import R1, euclidean, fixtures, identity_map, network
from fibra.cli import _COMMANDS, main
from fibra.jsonio import class_dynamics_to_json, map_to_json, network_to_json

from util import doubled_edge_chain

SECONDS_PER_RUN = 5.0  # the slowest run, R^500's verify conjugacy, took 0.15 s on a 2-core x86-64 host
HUGE_INT = "9" * 5000


def _odd_ids():
    long_id = "n" * 10**4
    nodes = [("a:b", R1), ("a", R1), ("b:c", R1), ("é∂", R1), (long_id, R1)]
    edges = [
        ("b:c", "a", "a:b"), ("c", "a:b", "a"), ("loop", "a", "a"), ("loop:2", "a", "a"),
        ("∑", "é∂", long_id), ("∑:", "é∂", long_id), ("e" * 10**4, long_id, "b:c"),
    ]
    return network(nodes, edges)


def _star(n=1600):
    return network([("root", R1)] + [(f"l{i}", R1) for i in range(n)], [(f"e{i}", f"l{i}", "root") for i in range(n)])


NETWORKS = {
    "odd-ids": _odd_ids,
    "star-1600": _star,
    "doubled-chain-300": lambda: doubled_edge_chain(300),
    "r500": lambda: network([("a", euclidean(500)), ("b", euclidean(500))], [("e", "a", "b"), ("f", "b", "b")]),
}
STATES = {"max": [1e308, -1e308], "subnormal": [5e-324, -2.5e-308]}


def _write(path, texts):
    """Each JSON text written to ``path / name``; the paths by name."""
    for name, text in texts.items():
        (path / name).write_text(text, encoding="utf-8")
    return {name: str(path / name) for name in texts}


def _argvs(f, states):
    """Every command once on the files ``f``, each state-reading one at each of ``states``."""
    maps = [f["net"], f["net"], f["map"]]
    short = ["--T", "0.02", "--h", "0.01"]
    argvs = [
        ["validate", f["net"]],
        ["input-trees", f["net"]],
        ["groupoid", f["net"]],
        ["balanced", "--coarsest", f["net"]],
        ["balanced", "--check", f["singletons"], f["net"]],
        ["quotient", f["net"]],
        *[[command, *maps] for command in ("check-map", "check-fibration", "factorize", "essential-image")],
        ["pullback", *maps, f["dyn"]],
        ["verify", "conjugacy", *maps, f["dyn"], "--samples", "2", *short],
        ["verify", "driving", *maps, f["dyn"], "--samples", "2"],
    ]
    for state in states:
        argvs.append(["simulate", f["net"], f["dyn"], "--x0", f[state], *short])
        argvs.append(["verify", "polydiagonal", *maps, f["dyn"], "--x0", f[state], *short])
    assert {" ".join(a[:2]) if a[0] == "verify" else a[0] for a in argvs} == {c[0] for c in _COMMANDS}
    return argvs


def _network_argvs(path, net):
    """Every command on ``net``, its identity map and its linear dynamics, at both extreme states."""
    objs = {
        "net": network_to_json(net),
        "map": map_to_json(identity_map(net)),
        "dyn": class_dynamics_to_json(fixtures.linear_dynamics(net)),
        "singletons": {"blocks": [[a] for a in net.graph.nodes]},
    }
    dim = sum(s.dim for s in net.phase.values())
    for name, values in STATES.items():
        objs[name] = {"flat": [values[i % 2] for i in range(dim)]}
    return _argvs(_write(path, {name: json.dumps(obj) for name, obj in objs.items()}), STATES)


def _dim_argvs(path, dim):
    """Every command on a one-node network in R^``dim``, a dim no state array can hold."""
    texts = {
        "net": '{"nodes": [{"id": "a", "space": {"kind": "R", "dim": ' + dim + '}}], "edges": []}',
        "map": json.dumps({"nodes": {"a": "a"}, "edges": {}}),
        "dyn": json.dumps({"classes": [{"representative": "a", "exprs": ["x[0]"]}]}),
        "singletons": json.dumps({"blocks": [["a"]]}),
        "x0": json.dumps({"flat": [0.0]}),
    }
    return _argvs(_write(path, texts), ["x0"])


def _literals(path):
    """Each 5000-digit integer, in a network, in a state and in an expression, through the commands that read it."""
    g3 = fixtures.g3()
    texts = {
        "dim.json": '{"nodes": [{"id": "a", "space": {"kind": "R", "dim": ' + HUGE_INT + '}}], "edges": []}',
        "x0.json": '{"flat": [0, 0, ' + HUGE_INT + "]}",
        "g3.json": json.dumps(network_to_json(g3)),
        "map.json": json.dumps(map_to_json(identity_map(g3))),
        "dyn.json": json.dumps(class_dynamics_to_json(fixtures.linear_dynamics(g3))),
        "power.json": json.dumps({"classes": [{"representative": "1", "exprs": ["x[0]^" + HUGE_INT]}]}),
        "index.json": json.dumps({"classes": [{"representative": "1", "exprs": ["x[" + "0" * 5000 + "]"]}]}),
    }
    f = _write(path, texts)
    maps = [f["g3.json"], f["g3.json"], f["map.json"]]
    short = ["--T", "0.02", "--h", "0.01"]
    argvs = [["validate", f["dim.json"]], ["simulate", f["g3.json"], f["dyn.json"], "--x0", f["x0.json"], *short]]
    for dyn in (f["power.json"], f["index.json"]):
        argvs += [
            ["simulate", f["g3.json"], dyn, "--x0", f["x0.json"], *short],
            ["pullback", *maps, dyn],
            ["verify", "conjugacy", *maps, dyn, "--samples", "2", *short],
            ["verify", "polydiagonal", *maps, dyn, "--x0", f["x0.json"], *short],
            ["verify", "driving", *maps, dyn, "--samples", "2"],
        ]
    return argvs


def _run(capsys, argv, out):
    """Exit code, stderr and seconds of one run; a warning counts as a stderr line of its own."""
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, err, seconds


def _holds_or_refuses(capsys, argv, out):
    code, err, seconds = _run(capsys, argv, out)
    assert code in (0, 1, 2), argv
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), (argv, err)
    assert seconds < SECONDS_PER_RUN, (argv, seconds)
    return code


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_every_command_on_an_extreme_network_exits_0_1_or_2(tmp_path, capsys, name):
    for argv in _network_argvs(tmp_path, NETWORKS[name]()):
        _holds_or_refuses(capsys, argv, tmp_path / "report")


def test_every_reader_of_a_5000_digit_integer_exits_2(tmp_path, capsys):
    for argv in _literals(tmp_path):
        assert _holds_or_refuses(capsys, argv, tmp_path / "report") == 2, argv


@pytest.mark.parametrize("dim", [str(10**19), "9" * 400], ids=["1e19", "400-digits"])
def test_every_command_on_a_dim_no_array_holds_exits_2(tmp_path, capsys, dim):
    for argv in _dim_argvs(tmp_path, dim):
        assert _holds_or_refuses(capsys, argv, tmp_path / "report") == 2, argv
