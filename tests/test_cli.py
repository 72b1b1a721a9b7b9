import csv
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fibra
from fibra import (
    R1, R2, NetworkMap, PreconditionError, aut_order, canonical_isos, fixtures, input_tree, network, signature_at,
    total_phase_space,
)
from fibra.cli import build_parser, main
from fibra.jsonio import class_dynamics_to_json, map_to_json, network_to_json, partition_to_json

from util import (
    SPACES,
    naive_is_fibration,
    random_lift,
    random_map_onto,
    reference_coarsest_balanced,
    reference_symmetry_groupoid,
)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write, tmp_path


@pytest.fixture(autouse=True)
def canonical_reports(monkeypatch):
    """Every JSON report a command writes is the text ``json.dumps`` gives for the value it parses to."""
    write = fibra.cli._write

    def checked(out, text):
        if text.startswith("{"):  # a report, not a CSV trajectory
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        write(out, text)

    monkeypatch.setattr(fibra.cli, "_write", checked)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


NAN_PRONE_EXPR = "0 * exp(1000 * x[0]) + sum(u in inputs[R1]) { u[0] }"


def test_validate_ok(files, capsys):
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    code, out, _ = run_cli(capsys, ["validate", net])
    assert code == 0
    report = report_of(out)
    assert report["command"] == "validate"
    assert report["results"]["violations"] == []
    assert report["inputs"][0]["sha256"]


def test_validate_bad_network_exits_1(files, capsys):
    write, _ = files
    obj = network_to_json(fixtures.g3())
    obj["edges"][0]["src"] = "ghost"
    net = write("bad.json", obj)
    code, out, _ = run_cli(capsys, ["validate", net])
    assert code == 1
    assert [(v["kind"], v["subject"]) for v in report_of(out)["results"]["violations"]] == [("dangling-src", "a")]
    # validate lists every violation, in order; every other command refuses the first (see MALFORMED_NETWORKS)
    net = write("bad2.json", MALFORMED_NETWORKS["duplicate-node-and-unknown-source"][0])
    code, out, _ = run_cli(capsys, ["validate", net])
    assert code == 1
    violations = report_of(out)["results"]["violations"]
    assert [(v["kind"], v["subject"]) for v in violations] == [("duplicate-node", "a"), ("dangling-src", "f")]


MALFORMED_JSON = {
    "broken": b"{not json",
    "not-utf8": b'\xff\xfe{"nodes": [], "edges": []}',
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED_JSON))
def test_malformed_json_exits_2(files, capsys, malformed):
    _, tmp = files
    path = tmp / "broken.json"
    path.write_bytes(MALFORMED_JSON[malformed])
    code, out, err = run_cli(capsys, ["validate", str(path)])
    assert_malformed(code, out, err)
    assert err.startswith(f"error: {path} is not valid JSON: ")


def test_an_integer_too_long_to_read_exits_2_naming_its_file(files, capsys):
    # 5000 digits, more than json.loads reads under Python's default limit of 4300: as a network's dim and as
    # a coordinate of --x0
    write, tmp = files
    huge = "9" * 5000
    net, x0 = tmp / "net.json", tmp / "x0.json"
    net.write_text('{"nodes": [{"id": "a", "space": {"kind": "R", "dim": ' + huge + '}}], "edges": []}')
    x0.write_text('{"flat": [0, 0, ' + huge + "]}")
    g3 = write("g3.json", network_to_json(fixtures.g3()))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(fixtures.g3())))
    for path, argv in ((net, ["validate", str(net)]), (x0, ["simulate", g3, dyn, "--x0", str(x0), "--T", "0.1", "--h", "0.1"])):
        code, out, err = run_cli(capsys, argv)
        assert_malformed(code, out, err)
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit (4300 digits)") and err.count("\n") == 1


@pytest.mark.parametrize(
    "exprs, message",
    [
        (["x[0]^" + "9" * 20], "line 1, column 6: exponent has too many digits"),
        (["x[0]^" + "9" * 5000], "line 1, column 6: exponent has too many digits"),
        (["-x[0]", "x[0]"], "2 components for root space R1"),
    ],
    ids=["syntax", "syntax-5000-digits", "component-count"],
)
def test_a_dynamics_expression_error_names_its_file_and_class(files, capsys, exprs, message):
    # every command that reads a dynamics file; the codomains c2 and g3 are each one class of R1 nodes
    write, _ = files
    x0 = write("x0.json", {"flat": [0.0, 0.0, 0.0]})
    runs = [
        (fixtures.g3_to_c2(), "a", lambda maps, dyn: ["pullback", *maps, dyn]),
        (fixtures.g3_to_c2(), "a", lambda maps, dyn: ["verify", "conjugacy", *maps, dyn]),
        (fixtures.g3_to_c2(), "a", lambda maps, dyn: ["verify", "polydiagonal", *maps, dyn, "--x0", x0]),
        (fixtures.c2_into_g3(), "1", lambda maps, dyn: ["verify", "driving", *maps, dyn]),
        (fixtures.c2_into_g3(), "1", lambda maps, dyn: ["simulate", maps[1], dyn, "--x0", x0, "--T", "0.1", "--h", "0.1"]),
    ]
    for m, rep, argv in runs:
        dyn = write("dyn.json", {"classes": [{"representative": rep, "exprs": exprs}]})
        code, out, err = run_cli(capsys, argv(map_files(write, m), dyn))
        assert_malformed(code, out, err)
        assert err == f"error: {dyn}: dynamics class {rep!r}: {message}\n"


# --x0 files for g3 (three R1 nodes "1", "2", "3"), each with one bad coordinate
MALFORMED_STATES = {
    "string": '{"flat": ["a", 0, 0]}',
    "nested-list": '{"flat": [[1.0, 2.0], 0, 0]}',
    "string-node-state": '{"by_node": {"1": "ab", "2": [0], "3": [0]}}',
    "nan": '{"flat": [NaN, 0, 0]}',
    "infinity": '{"flat": [0, -Infinity, 0]}',
    "overflowing-literal": '{"flat": [1e999, 0, 0]}',
    "huge-integer": '{"flat": [0, 0, 1' + "0" * 400 + "]}",
    "null": '{"by_node": {"1": [0], "2": [null], "3": [0]}}',
    "boolean": '{"flat": [true, 0, 0]}',
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED_STATES))
def test_malformed_state_exits_2(files, capsys, malformed):
    write, tmp = files
    net = fixtures.g3()
    netp = write("g3.json", network_to_json(net))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(net)))
    x0 = tmp / "x0.json"
    x0.write_text(MALFORMED_STATES[malformed], encoding="utf-8")
    code, out, err = run_cli(capsys, ["simulate", netp, dyn, "--x0", str(x0), "--T", "0.5", "--h", "0.1"])
    assert code == 2
    assert out == ""
    assert "must be a list of" in err and "finite numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify polydiagonal"])
def test_state_naming_an_unknown_node_exits_2(files, capsys, command):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom, cod = write("g3.json", network_to_json(m.domain)), write("c2.json", network_to_json(m.codomain))
    x0 = write("x0.json", {"by_node": {"1": [0.25], "2": [-1.5], "3": [0.25], "zzz": [1.0]}})
    if command == "simulate":
        dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.domain)))
        argv = ["simulate", dom, dyn, "--x0", x0, "--T", "0.1", "--h", "0.1"]
    else:
        dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
        argv = ["verify", "polydiagonal", dom, cod, write("m.json", map_to_json(m)), dyn, "--x0", x0]
    code, out, err = run_cli(capsys, argv)
    assert_malformed(code, out, err)
    assert err == "error: state: unknown node 'zzz'\n"


def test_simulate_deeply_nested_expression_exits_2(files, capsys):
    write, _ = files
    net = fixtures.g3()
    netp = write("g3.json", network_to_json(net))
    nested = "(" * 5000 + "x[0]" + ")" * 5000
    dyn = write("dyn.json", {"classes": [{"representative": "1", "exprs": [nested]}]})
    x0 = write("x0.json", {"flat": [1.0, 1.0, 1.0]})
    code, _, err = run_cli(capsys, ["simulate", netp, dyn, "--x0", x0, "--T", "0.5", "--h", "0.1"])
    assert code == 2
    assert "nested deeper than" in err


# command line (after the command's files) and FIBRA_SEED, each malformed: a
# number that is not finite or out of range, a horizon too long to hold, a bad seed
HORIZONS = [["--T", "nan"], ["--T", "inf"], ["--h", "nan"], ["--h", "inf"], ["--h", "0"],
            ["--T", "1e300", "--h", "1e-300"], ["--T", "1e12", "--h", "1e-3"]]
BAD_NUMBERS = (
    [(["simulate", *flags], None) for flags in HORIZONS]
    + [(["verify", "conjugacy", *flags], None) for flags in HORIZONS]
    + [
        (["verify", "conjugacy", "--samples", "-3"], None),
        (["verify", "conjugacy", "--tol", "nan"], None),
        (["verify", "conjugacy", "--flow-tol", "nan"], None),
        (["verify", "conjugacy", "--seed", "-1"], None),
        (["verify", "driving", "--seed", "-1"], None),
        (["verify", "driving", "--tol", "nan"], None),
        (["validate"], "abc"),
        (["verify", "conjugacy"], "-1"),
    ]
)


@pytest.mark.parametrize(
    "argv, env_seed", BAD_NUMBERS, ids=[" ".join(a) + (f" FIBRA_SEED={e}" if e else "") for a, e in BAD_NUMBERS]
)
def test_malformed_number_exits_2(files, capsys, monkeypatch, argv, env_seed):
    write, _ = files
    if env_seed is not None:
        monkeypatch.setenv("FIBRA_SEED", env_seed)
    m = fixtures.c2_into_g3() if "driving" in argv else fixtures.g3_to_c2()
    dom, cod = write("dom.json", network_to_json(m.domain)), write("cod.json", network_to_json(m.codomain))
    if argv[0] == "simulate":  # on g3; the later --T and --h win
        dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.domain)))
        x0 = write("x0.json", {"flat": [0.1, 0.2, 0.3]})
        argv = ["simulate", dom, dyn, "--x0", x0, "--T", "0.5", "--h", "0.1", *argv[1:]]
    elif argv[0] == "verify":
        dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
        argv = [*argv[:2], dom, cod, write("m.json", map_to_json(m)), dyn, *argv[2:]]
    else:
        argv = [*argv, dom]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error" in err and "Traceback" not in err


def _conjugacy_argv(write, T, h="1"):
    m = fixtures.g3_to_c2()  # 3 domain and 2 codomain coordinates
    dom, cod = write("dom.json", network_to_json(m.domain)), write("cod.json", network_to_json(m.codomain))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    return ["verify", "conjugacy", dom, cod, write("m.json", map_to_json(m)), dyn,
            "--samples", "2", "--T", str(T), "--h", h]


@pytest.mark.parametrize("T, code", [(18, 0), (19, 2)])
def test_conjugacy_horizon_counts_both_sides(files, capsys, monkeypatch, T, code):
    """One joint trajectory holds (steps + 1) rows of 2 + 3 coordinates: 20 * 5 fits 100 floats, 21 * 5 does not."""
    write, _ = files
    monkeypatch.setattr(fibra.cli, "MAX_TRAJECTORY_FLOATS", 100)  # 21 * 3 would fit: the larger side alone
    got, out, err = run_cli(capsys, _conjugacy_argv(write, T))
    assert got == code
    if code:
        assert out == "" and f"--T/--h gives {T:.3g} steps of 5 coordinates: over 100 floats" in err
    else:
        assert report_of(out)["results"]["T"] == T


def test_conjugacy_horizon_boundary_at_the_real_cap(files, capsys):
    """(26843543 + 2) * 5 <= 2**27 < (26843544 + 2) * 5; the larger side alone (3) fits both."""
    args = build_parser().parse_args(["verify", "conjugacy", "d", "c", "m", "w", "--T", "26843543", "--h", "1"])
    fibra.cli._check_horizon(args, 5)
    write, _ = files
    code, out, err = run_cli(capsys, _conjugacy_argv(write, 26843544))
    assert code == 2 and out == ""
    assert "--T/--h gives 2.68e+07 steps of 5 coordinates" in err


def test_polydiagonal_horizon_counts_only_the_integrated_domain(files, capsys):
    """cycle2 into a 1000-node codomain: only the 2 domain coordinates are integrated, so 10^6 steps fit."""
    write, _ = files
    cod = network([("a", R1), ("b", R1), *((f"z{i}", R1) for i in range(998))], [("ab", "a", "b"), ("ba", "b", "a")])
    m = NetworkMap(fixtures.cycle2(), cod, {"a": "a", "b": "b"}, {"ab": "ab", "ba": "ba"})
    argv = [
        "verify", "polydiagonal", *map_files(write, m),
        write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(cod))),
        "--x0", write("x0.json", {"flat": [0.5, 0.5]}), "--h", "0.001",
    ]
    for T in ("1", "1000"):  # the map is not surjective, whatever the horizon
        assert run_cli(capsys, [*argv, "--T", T]) == (1, "", "error: polydiagonal_of requires a surjective fibration\n")
    refused = f"error: --T/--h gives 1e+15 steps of 2 coordinates: over {2**27} floats\n"
    assert run_cli(capsys, [*argv, "--T", "1e12"]) == (2, "", refused)


R1_JSON = {"kind": "R", "dim": 1}
MALFORMED_NETWORKS = {
    "unknown-source": (
        {"nodes": [{"id": "a", "space": R1_JSON}], "edges": [{"id": "e", "src": "zz", "tgt": "a"}]},
        "edge 'e' has unknown source 'zz'",
    ),
    "duplicate-node": (
        {"nodes": [{"id": "a", "space": R1_JSON}, {"id": "a", "space": R1_JSON}], "edges": []},
        "node id 'a' repeated",
    ),
    "duplicate-node-and-unknown-source": (
        {
            "nodes": [{"id": a, "space": R1_JSON} for a in "aba"],
            "edges": [{"id": "e", "src": "a", "tgt": "b"}, {"id": "f", "src": "zz", "tgt": "b"}],
        },
        "node id 'a' repeated",
    ),
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED_NETWORKS))
@pytest.mark.parametrize(
    "command",
    ["balanced --coarsest", "balanced --check", "quotient", "groupoid", "input-trees", "simulate", "check-fibration"],
)
def test_malformed_network_exits_2_naming_the_violation(files, capsys, command, malformed):
    write, _ = files
    obj, message = MALFORMED_NETWORKS[malformed]
    bad = write("bad.json", obj)
    good = write("g3.json", network_to_json(fixtures.g3()))
    argv = {
        "balanced --coarsest": ["balanced", "--coarsest", bad],
        "balanced --check": ["balanced", "--check", write("p.json", {"blocks": [["a"]]}), bad],
        "quotient": ["quotient", bad],
        "groupoid": ["groupoid", bad],
        "input-trees": ["input-trees", bad],
        "simulate": [
            "simulate", bad, write("dyn.json", {"classes": [{"representative": "a", "exprs": ["-x[0]"]}]}),
            "--x0", write("x0.json", {"flat": [1.0]}), "--T", "0.1", "--h", "0.1",
        ],
        "check-fibration": ["check-fibration", good, bad, write("m.json", {"nodes": {}, "edges": {}})],
    }[command]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"{bad}: invalid network: {message}" in err
    assert "Traceback" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["validate", "/nonexistent/net.json"])
    assert code == 2


def test_check_fibration_motivating_maps(files, capsys):
    write, _ = files
    g3 = write("g3.json", network_to_json(fixtures.g3()))
    loop = write("loop.json", network_to_json(fixtures.loop_net()))
    c2 = write("c2.json", network_to_json(fixtures.cycle2()))
    phi = write("phi.json", map_to_json(fixtures.g3_to_loop()))
    psi = write("psi.json", map_to_json(fixtures.g3_to_c2()))
    tau = write("tau.json", map_to_json(fixtures.c2_into_g3()))

    code, out, _ = run_cli(capsys, ["check-fibration", g3, loop, phi])
    assert code == 0
    assert report_of(out)["results"]["surjective_on_nodes"]

    code, out, _ = run_cli(capsys, ["check-fibration", g3, c2, psi])
    assert code == 0

    code, out, _ = run_cli(capsys, ["check-fibration", c2, g3, tau])
    assert code == 0
    assert report_of(out)["results"]["injective_on_nodes"]


def test_check_fibration_collapse_fails_with_detail(files, capsys):
    write, _ = files
    dom = write("double.json", network_to_json(fixtures.double_edge()))
    cod = write("loop.json", network_to_json(fixtures.loop_net()))
    bad = write("collapse.json", map_to_json(fixtures.double_collapse()))
    code, out, _ = run_cli(capsys, ["check-fibration", dom, cod, bad])
    assert code == 1
    failures = report_of(out)["results"]["failures"]
    assert {"node": "b", "codomain_edge": "loop", "lift_count": 2} in failures


def test_check_map_reports_violations(files, capsys):
    write, _ = files
    psi = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(psi.domain))
    cod = write("c2.json", network_to_json(psi.codomain))
    code, out, _ = run_cli(capsys, ["check-map", dom, cod, write("psi.json", map_to_json(psi))])
    assert (code, report_of(out)["results"]) == (0, {"violations": []})
    broken = dict(map_to_json(psi))
    broken["edges"] = {**broken["edges"], "a": "ba"}
    bad = write("bad_map.json", broken)
    code, out, _ = run_cli(capsys, ["check-map", dom, cod, bad])
    assert code == 1
    assert report_of(out)["results"]["violations"][0]["kind"] == "homomorphism"


def test_balanced_coarsest_string_graph(files, capsys):
    write, _ = files
    net = write("string4.json", network_to_json(fixtures.string_graph(2)))
    code, out, _ = run_cli(capsys, ["balanced", "--coarsest", net])
    assert code == 0
    results = report_of(out)["results"]
    assert results["blocks"] == [["1", "3"], ["2", "4"]]
    assert len(results["quotient"]["nodes"]) == 2


def test_balanced_check_partition(files, capsys):
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    good = write("p1.json", {"blocks": [["1", "3"], ["2"]]})
    bad = write("p2.json", {"blocks": [["2", "3"], ["1"]]})
    code, out, _ = run_cli(capsys, ["balanced", "--check", good, net])
    assert code == 0 and report_of(out)["results"]["balanced"]
    code, out, _ = run_cli(capsys, ["balanced", "--check", bad, net])
    assert code == 1
    results = report_of(out)["results"]
    assert results["balanced"] is False and {results["witness"]["left"], results["witness"]["right"]} == {"2", "3"}


@pytest.mark.parametrize(
    "blocks", [[["1", "2", "3"], ["3"]], [["1", "3"]], [["1", "3"], ["2"], ["9"]]], ids=["repeated", "missing", "extra"]
)
def test_balanced_check_rejects_a_partition_not_listing_each_node_once(files, capsys, blocks):
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    partition = write("p.json", {"blocks": blocks})
    code, out, err = run_cli(capsys, ["balanced", "--check", partition, net])
    assert (code, out, err) == (2, "", f"error: {partition}: partition does not list each node exactly once\n")


def test_balanced_check_refuses_a_block_that_mixes_phase_spaces(files, capsys):
    write, _ = files
    net = write("g3_mixed.json", network_to_json(fixtures.g3_mixed(fibra.R2)))
    partition = write("p.json", {"blocks": [["1", "2", "3"]]})
    code, out, err = run_cli(capsys, ["balanced", "--check", partition, net])
    assert (code, out, err) == (2, "", f"error: {partition}: block '1' mixes phase spaces\n")


def test_quotient_command(files, capsys):
    write, _ = files
    net = write("funnel.json", network_to_json(fixtures.funnel4()))
    code, out, _ = run_cli(capsys, ["quotient", net])
    assert code == 0
    results = report_of(out)["results"]
    assert results["partition"]["blocks"] == [["1", "2"], ["3"], ["4"]]


def test_input_trees_and_groupoid(files, capsys):
    write, _ = files
    net = write("four.json", network_to_json(fixtures.four_node_multi()))
    code, out, _ = run_cli(capsys, ["input-trees", net])
    assert code == 0
    trees = {t["root"]: t for t in report_of(out)["results"]["trees"]}
    assert [l["edge"] for l in trees["4"]["leaves"]] == ["delta", "epsilon", "zeta"]

    code, out, _ = run_cli(capsys, ["groupoid", net])
    assert code == 0
    results = report_of(out)["results"]
    assert results["aut_orders"] == {"1": 1, "2": 2, "3": 1, "4": 6}

    # g3: one class of three single-input nodes, each with its witness at the representative's edge b
    net = write("g3.json", network_to_json(fixtures.g3()))
    code, out, _ = run_cli(capsys, ["input-trees", net])
    assert code == 0 and [t["root"] for t in report_of(out)["results"]["trees"]] == ["1", "2", "3"]
    code, out, _ = run_cli(capsys, ["groupoid", net])
    assert code == 0
    assert report_of(out)["results"] == {
        "classes": [
            {
                "representative": "1",
                "members": ["1", "2", "3"],
                "witnesses": {"1": {"b": "b"}, "2": {"a": "b"}, "3": {"c": "b"}},
            }
        ],
        "aut_orders": {"1": 1, "2": 1, "3": 1},
    }


def test_an_automorphism_order_too_long_to_print_is_reported_in_hex(files, capsys):
    # a root fed by 2000 R1 leaves: |Aut(root)| = 2000! has 5736 digits, more than Python prints by default
    n = 2000
    star = network([("root", R1)] + [(f"l{i}", R1) for i in range(n)], [(f"e{i}", f"l{i}", "root") for i in range(n)])
    write, _ = files
    path = write("star.json", network_to_json(star))
    code, out, err = run_cli(capsys, ["groupoid", path])
    assert (code, err) == (0, "")
    orders = report_of(out)["results"]["aut_orders"]
    assert int(orders.pop("root"), 16) == math.factorial(n) and set(orders.values()) == {1}
    code, out, err = run_cli(capsys, ["input-trees", path])
    assert (code, err) == (0, "")
    root = next(t for t in report_of(out)["results"]["trees"] if t["root"] == "root")
    assert int(root["aut_order"], 16) == math.factorial(n)
    with pytest.raises(fibra.EnumerationCapExceeded) as exc:
        fibra.enumerate_tree_isos(star, "root", "root")
    assert str(exc.value) == "more than 1000000 isomorphisms: over the enumeration cap"
    assert (exc.value.count, exc.value.cap) == (math.factorial(n), 10**6)


SPACE = st.sampled_from([fibra.R1, fibra.R2, fibra.S1])


@given(
    st.one_of(
        st.builds(fixtures.four_node_multi, SPACE),
        st.builds(fixtures.funnel4, SPACE, SPACE),
        st.builds(fixtures.string_graph, st.integers(2, 6), SPACE, SPACE),
    )
)
@settings(max_examples=30)
def test_groupoid_report_witnesses_match_the_reference(net):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "net.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(network_to_json(net)), encoding="utf-8")
        assert main(["groupoid", str(path), "--out", str(out)]) == 0
        classes = json.loads(out.read_text(encoding="utf-8"))["results"]["classes"]
    assert classes == [
        {
            "representative": rep,
            "members": list(members),
            "witnesses": {m: dict(w.leaf_bijection) for m, w in witnesses.items()},
        }
        for rep, members, witnesses in reference_symmetry_groupoid(net)[0]
    ]


def _mixed_base(rng: random.Random) -> fibra.Network:
    """Nodes ``s`` with no in-edge, ``t`` with one and ``h`` with three or more from R1 and S1 sources.

    Up to two more nodes and up to four more edges, none into ``s`` or ``t``, are drawn at random.
    """
    extra = [f"x{i}" for i in range(rng.randint(0, 2))]
    nodes = [("s", R1), ("u", fibra.S1), ("t", rng.choice(SPACES)), ("h", rng.choice(SPACES))]
    nodes += [(a, rng.choice(SPACES)) for a in extra]
    names = [a for a, _ in nodes]
    edges = [("e0", "s", "h"), ("e1", "u", "h"), ("e2", "s", "h"), ("e3", rng.choice(names), "t")]
    edges += [(f"f{j}", rng.choice(names), rng.choice(["h", "u", *extra])) for j in range(rng.randint(0, 4))]
    return network(nodes, edges)


def _report(argv: list[str], out: Path) -> tuple[int, dict]:
    """Exit code and results of one command, whose report text must be the canonical JSON text."""
    code = main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, report["results"]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_structure_commands_match_the_oracles(seed):
    """``groupoid``, ``balanced --coarsest``, ``quotient`` and ``check-fibration`` through ``main``.

    The networks are lifts of ``_mixed_base``, so class members have 0, 1 and
    3 or more in-edges of mixed source spaces, listed in an edge-id order of
    their own; the maps are such a lift and a random map that need not be a
    fibration.
    """
    rng = random.Random(seed)
    base = _mixed_base(rng)
    lift, other = random_lift(rng, base), random_map_onto(rng, base)
    net = lift.domain
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, obj in [
            ("net", network_to_json(net)), ("base", network_to_json(base)), ("lift", map_to_json(lift)),
            ("other", network_to_json(other.domain)), ("other.map", map_to_json(other)),
        ]:
            files[name] = tmp / f"{name}.json"
            files[name].write_text(json.dumps(obj), encoding="utf-8")
        net_file, out = str(files["net"]), tmp / "report.json"

        classes, orders = reference_symmetry_groupoid(net)
        assert orders == {a: aut_order(input_tree(net, a)) for a in net.graph.nodes}
        assert _report(["groupoid", net_file], out) == (0, {
            "classes": [
                {
                    "representative": rep,
                    "members": list(members),
                    "witnesses": {m: dict(w.leaf_bijection) for m, w in witnesses.items()},
                }
                for rep, members, witnesses in classes
            ],
            "aut_orders": dict(sorted(orders.items())),
        })

        partition, quotient, projection = reference_coarsest_balanced(net)
        expected = {"quotient": network_to_json(quotient), "projection": map_to_json(projection)}
        assert _report(["balanced", "--coarsest", net_file], out) == (
            0, {"blocks": [list(b) for b in partition.blocks], **expected}
        )
        code, results = _report(["quotient", net_file], out)
        assert (code, results) == (0, {"partition": partition_to_json(partition), **expected})
        # the quotient report's projection is a fibration onto its quotient, and its partition is balanced
        for name in ("quotient", "projection", "partition"):
            files[name] = tmp / f"{name}.json"
            files[name].write_text(json.dumps(results[name]), encoding="utf-8")
        code, results = _report(["check-fibration", net_file, str(files["quotient"]), str(files["projection"])], out)
        assert (code, results["is_fibration"], results["surjective_on_nodes"]) == (0, True, True)
        assert _report(["balanced", "--check", str(files["partition"]), net_file], out) == (0, {"balanced": True})

        for domain, m, name in ((files["net"], lift, "lift"), (files["other"], other, "other.map")):
            code, results = _report(["check-fibration", str(domain), str(files["base"]), str(files[name])], out)
            assert results["is_fibration"] == naive_is_fibration(m) == (not results["failures"])
            assert code == (0 if results["is_fibration"] else 1)

    # a source outside the target's class keeps its message; so does a node of no class
    hub = next(a for a in net.graph.nodes if lift.node_map[a] == "h")
    source = next(a for a in net.graph.nodes if lift.node_map[a] == "s")
    with pytest.raises(PreconditionError, match=re.escape(f"input trees of {source!r} and {hub!r} are not isomorphic")):
        canonical_isos(net, [hub, source], hub)
    with pytest.raises(PreconditionError, match="unknown node id 'zz'"):
        canonical_isos(net, [hub, "zz"], hub)


def test_factorize_command(files, capsys):
    write, _ = files
    m = fixtures.fork_to_chain()
    dom = write("join.json", network_to_json(m.domain))
    cod = write("chain.json", network_to_json(m.codomain))
    mp = write("map.json", map_to_json(m))
    code, out, _ = run_cli(capsys, ["factorize", dom, cod, mp])
    assert code == 0
    results = report_of(out)["results"]
    assert {n["id"] for n in results["image"]["nodes"]} == {"a", "b"}
    assert results["surjection"]["nodes"] == {"a1": "a", "a2": "a", "b": "b"}


def test_factorize_non_fibration_exits_1(files, capsys):
    write, _ = files
    m = fixtures.double_collapse()
    dom = write("d.json", network_to_json(m.domain))
    cod = write("l.json", network_to_json(m.codomain))
    mp = write("m.json", map_to_json(m))
    code, _, err = run_cli(capsys, ["factorize", dom, cod, mp])
    assert code == 1
    assert "fibration" in err


def test_essential_image_command(files, capsys):
    write, _ = files
    m = fixtures.g3_into_ten()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("ten.json", network_to_json(m.codomain))
    mp = write("incl.json", map_to_json(m))
    code, out, _ = run_cli(capsys, ["essential-image", dom, cod, mp])
    assert code == 0
    results = report_of(out)["results"]
    assert results["essentially_surjective"]
    assert len(results["essential_image"]) == 10
    # the inclusion of the 2-cycle misses g3_mixed's tail node, which is in R2
    code, out, _ = run_cli(capsys, ["essential-image", *map_files(write, fixtures.c2_into_g3_mixed())])
    results = report_of(out)["results"]
    assert (code, results["essential_image"], results["essentially_surjective"]) == (0, ["1", "2"], False)


def test_pullback_command(files, capsys):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    code, out, _ = run_cli(capsys, ["pullback", dom, cod, mp, dyn])
    assert code == 0
    nodes = report_of(out)["results"]["nodes"]
    assert [n["id"] for n in nodes] == ["1", "2", "3"]
    assert nodes[0]["exprs"] == nodes[2]["exprs"]


def test_simulate_writes_csv(files, capsys, tmp_path):
    write, _ = files
    net = fixtures.g3()
    netp = write("g3.json", network_to_json(net))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(net)))
    x0 = write("x0.json", {"flat": [1.0, 1.0, 1.0]})
    out_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys,
        ["simulate", netp, dyn, "--x0", x0, "--T", "0.5", "--h", "0.1", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,1[0],2[0],3[0]"
    assert len(lines) == 7  # header + 6 states
    assert lines[1].startswith("0.0,1.0,1.0,1.0")


# node ids that a CSV header must quote (a comma, a double quote and LF, a CR), one it must not, and one
# that is not ASCII
CSV_IDS = ["a,b", 'c"d\ne', "f\rg", "plain", "\u00e9"]


def _csv_ids_argv(write):
    """``simulate`` of a mixed R1/R2 network whose node ids are ``CSV_IDS``, and its CSV header."""
    net = network([(a, space) for a, space in zip(CSV_IDS, [R1, R2, R1, R1, R2])], [("e", "a,b", 'c"d\ne')])
    index = total_phase_space(net)
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(net)))
    x0 = write("x0.json", {"flat": [0.5] * index.total_dim})
    header = ["t", *(f"{a}[{i}]" for a in index.order for i in range(index.spaces[a].dim))]
    return ["simulate", write("net.json", network_to_json(net)), dyn, "--x0", x0, "--T", "0.3", "--h", "0.1"], header


def test_simulate_quotes_the_header_fields_that_need_it(files, capsys, tmp_path):
    write, _ = files
    argv, header = _csv_ids_argv(write)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == header and len(rows) == 5
    assert all(len(row) == len(header) for row in rows)
    assert out.startswith('t,"a,b[0]","c""d\ne[0]","c""d\ne[1]","f\rg[0]",plain[0],\u00e9[0],\u00e9[1]\n0.0,')
    assert run_cli(capsys, [*argv, "--out", str(tmp_path / "traj.csv")])[0] == 0
    assert (tmp_path / "traj.csv").read_bytes() == out.encode("utf-8")


def test_simulate_writes_utf8_whatever_the_stdout_encoding(files, tmp_path):
    write, _ = files
    argv, header = _csv_ids_argv(write)
    src = str(Path(fibra.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "fibra.cli", *argv], capture_output=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main([*argv, "--out", str(tmp_path / "traj.csv")]) == 0
    assert proc.stdout == (tmp_path / "traj.csv").read_bytes()
    assert next(csv.reader(io.StringIO(proc.stdout.decode("utf-8"), newline=""))) == header


def test_simulate_faults_on_a_blow_up_and_not_at_the_float_maximum(files, capsys):
    write, _ = files
    c2 = write("c2.json", network_to_json(fixtures.cycle2()))

    def simulate(expr, a, b, T, h):
        dyn = write("dyn.json", {"classes": [{"representative": "a", "exprs": [expr]}]})
        x0 = write("x0.json", {"by_node": {"a": [a], "b": [b]}})
        return run_cli(capsys, ["simulate", c2, dyn, "--x0", x0, "--T", T, "--h", h])

    # x' = x^2 + u from (0.5, -0.25) leaves the floats at step 21; stdout gets no partial CSV
    assert simulate("x[0] * x[0] + sum(u in inputs[R1]) { u[0] }", 0.5, -0.25, "10", "0.1") == (
        1, "", "error: non-finite state at step 21\n"
    )
    # x' = u - x from the float maximum: the sum of a state overflows, but each state stays at 1e308, so there
    # is no fault and no warning (this suite raises on one)
    code, out, err = simulate("sum(u in inputs[R1]) { u[0] } - x[0]", 1e308, 1e308, "0.05", "0.01")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "0.05,1e+308,1e+308"


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_written_exits_2(files, capsys, target):
    write, tmp = files
    out, reason = {
        "missing-directory": (str(tmp / "missing" / "r.json"), "No such file or directory"),
        "directory": (str(tmp), "Is a directory"),
    }[target]
    net = fixtures.g3()
    netp = write("g3.json", network_to_json(net))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(net)))
    x0 = write("x0.json", {"flat": [1.0, 1.0, 1.0]})
    for argv in (["validate", netp], ["simulate", netp, dyn, "--x0", x0, "--T", "0.1", "--h", "0.1"]):
        assert run_cli(capsys, [*argv, "--out", out]) == (2, "", f"error: cannot write {out}: {reason}\n")


def test_verify_conjugacy_command(files, capsys):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    code, out, _ = run_cli(
        capsys,
        ["verify", "conjugacy", dom, cod, mp, dyn, "--samples", "50", "--T", "1.0", "--h", "0.01"],
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["passed"]
    assert results["pointwise_max_residual"] <= 1e-12


def test_verify_polydiagonal_command(files, capsys):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    x0 = write("x0.json", {"flat": [0.25, -1.5, 0.25]})
    code, out, _ = run_cli(
        capsys,
        ["verify", "polydiagonal", dom, cod, mp, dyn, "--x0", x0, "--T", "2.0", "--h", "0.01"],
    )
    assert code == 0
    assert report_of(out)["results"]["passed"]


def test_verify_driving_command(files, capsys):
    write, _ = files
    m = fixtures.c2_into_g3()
    dom = write("c2.json", network_to_json(m.domain))
    cod = write("g3.json", network_to_json(m.codomain))
    mp = write("tau.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    code, out, _ = run_cli(capsys, ["verify", "driving", dom, cod, mp, dyn, "--samples", "5"])
    assert code == 0
    results = report_of(out)["results"]
    assert results["ok"] and results["feedback_edges"] == [] and results["pointwise_max_residual"] == 0.0


def test_driving_exit_code_is_the_fibration_verdict(files, capsys):
    # the restriction residual of linear dynamics is exactly 0.0, so no --samples or --tol moves the verdict
    write, _ = files
    cod = fibra.network(
        [("a", fibra.R1), ("b", fibra.R1), ("z", fibra.R1)], [("ab", "a", "b"), ("ba", "b", "a"), ("za", "z", "a")]
    )
    feedback = fibra.NetworkMap(fixtures.cycle2(), cod, {"a": "a", "b": "b"}, {"ab": "ab", "ba": "ba"})
    for k, (m, expected) in enumerate([(fixtures.c2_into_g3(), 0), (feedback, 1)]):
        argv = [
            "verify", "driving",
            write(f"dom{k}.json", network_to_json(m.domain)),
            write(f"cod{k}.json", network_to_json(m.codomain)),
            write(f"map{k}.json", map_to_json(m)),
            write(f"dyn{k}.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain))),
        ]
        for options in (["--samples", "0"], ["--samples", "3", "--tol", "0"], ["--tol", "1e300"]):
            code, out, _ = run_cli(capsys, argv + options)
            results = report_of(out)["results"]
            assert code == expected
            assert results["ok"] is (expected == 0)
            assert results["pointwise_max_residual"] == (0.0 if expected == 0 else None)
            assert results["feedback_edges"] == ([] if expected == 0 else ["za"])
            assert "fd_max_residual" not in results and "fd_step" not in results
    with pytest.raises(SystemExit):
        main(["verify", "driving", "--help"])
    assert "On a map that is not a fibration the residual is null" in " ".join(capsys.readouterr().out.split())


def test_verify_conjugacy_nan_residual_fails(files, capsys):
    # exp overflows to inf for x[0] > 0.71 and 0 * inf is NaN at such samples; the flow stays below it
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", {"classes": [{"representative": "a", "exprs": [NAN_PRONE_EXPR]}]})
    x0 = write("x0.json", {"flat": [0.1, -0.2]})
    code, out, _ = run_cli(
        capsys,
        ["verify", "conjugacy", dom, cod, mp, dyn, "--samples", "50", "--x0", x0, "--T", "0.1", "--h", "0.01"],
    )
    assert code == 1
    results = report_of(out)["results"]
    assert math.isnan(results["pointwise_max_residual"]) and not results["passed"]
    assert results["flow_max_deviation"] == 0.0


# g3_to_c2 map and dynamics files, each with one malformed entry
MAP_COMMANDS = ["check-map", "check-fibration", "essential-image", "factorize", "pullback", "verify"]
MALFORMED_MAPS = {
    "node-image-list": lambda m: m["nodes"].update({"1": ["a"]}),
    "node-image-dict": lambda m: m["nodes"].update({"1": {"id": "a"}}),
    "edge-image-list": lambda m: m["edges"].update({"a": ["ab"]}),
    "edge-image-dict": lambda m: m["edges"].update({"a": {"id": "ab"}}),
    "node-image-number": lambda m: m["nodes"].update({"1": 7}),
    "unknown-node-key": lambda m: m["nodes"].update({"ghost": "a"}),
    "unknown-edge-key": lambda m: m["edges"].update({"ghost": "ab"}),
}
MALFORMED_DYNAMICS = {
    "representative-list": {"classes": [{"representative": ["a"], "exprs": ["-x[0]"]}]},
    "representative-dict": {"classes": [{"representative": {"id": "a"}, "exprs": ["-x[0]"]}]},
    "representative-number": {"classes": [{"representative": 1, "exprs": ["-x[0]"]}]},
    "representative-repeated": {
        "classes": [{"representative": "a", "exprs": ["-x[0]"]}, {"representative": "a", "exprs": ["5"]}]
    },
}


def map_command_argv(write, command, mp, dyn):
    m = fixtures.g3_to_c2()
    paths = [write("g3.json", network_to_json(m.domain)), write("c2.json", network_to_json(m.codomain)), mp]
    if command == "pullback":
        return ["pullback", *paths, dyn]
    if command == "verify":
        return ["verify", "conjugacy", *paths, dyn, "--samples", "5", "--T", "0.02", "--h", "0.01"]
    return [command, *paths]


def assert_malformed(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("malformed", sorted(MALFORMED_MAPS))
@pytest.mark.parametrize("command", MAP_COMMANDS)
def test_malformed_map_exits_2(files, capsys, command, malformed):
    write, _ = files
    obj = map_to_json(fixtures.g3_to_c2())
    MALFORMED_MAPS[malformed](obj)
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(fixtures.cycle2())))
    assert_malformed(*run_cli(capsys, map_command_argv(write, command, write("m.json", obj), dyn)))


@pytest.mark.parametrize("malformed", sorted(MALFORMED_DYNAMICS))
@pytest.mark.parametrize("command", ["pullback", "verify"])
def test_malformed_dynamics_exits_2(files, capsys, command, malformed):
    write, _ = files
    mp = write("m.json", map_to_json(fixtures.g3_to_c2()))
    dyn = write("dyn.json", MALFORMED_DYNAMICS[malformed])
    assert_malformed(*run_cli(capsys, map_command_argv(write, command, mp, dyn)))


@pytest.mark.parametrize("dim", [True, False, 1.0, "1", 0])
def test_non_integer_space_dim_exits_2(files, capsys, dim):
    write, _ = files
    net = write("net.json", {"nodes": [{"id": "a", "space": {"kind": "R", "dim": dim}}], "edges": []})
    code, out, err = run_cli(capsys, ["validate", net])
    assert_malformed(code, out, err)
    assert "dim must be a positive integer" in err


def test_verify_conjugacy_on_empty_network_holds(files, capsys):
    write, _ = files
    empty = write("empty.json", {"nodes": [], "edges": []})
    mp = write("m.json", {"nodes": {}, "edges": {}})
    dyn = write("dyn.json", {"classes": []})
    code, out, _ = run_cli(capsys, ["verify", "conjugacy", empty, empty, mp, dyn, "--samples", "10"])
    assert code == 0
    results = report_of(out)["results"]
    assert results["pointwise_max_residual"] == 0.0 and results["flow_max_deviation"] == 0.0
    assert results["passed"]


def test_parser_is_built_once_per_process(files, capsys, monkeypatch):
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    run_cli(capsys, ["validate", net])
    monkeypatch.setattr(fibra.cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    first = run_cli(capsys, ["validate", net])
    second = run_cli(capsys, ["groupoid", net])
    assert first[0] == 0 and second[0] == 0
    assert report_of(first[1])["command"] == "validate" and report_of(second[1])["command"] == "groupoid"


# each command's argv up to and including its required options; no file is opened
MAP_ARGS = ["d.json", "c.json", "m.json"]
BASE_ARGV = {
    **{c: [c, "n.json"] for c in ["validate", "input-trees", "groupoid", "quotient"]},
    **{c: [c, *MAP_ARGS] for c in ["check-map", "check-fibration", "factorize", "essential-image"]},
    "pullback": ["pullback", *MAP_ARGS, "w.json"],
    "balanced": ["balanced", "--coarsest", "n.json"],
    "simulate": ["simulate", "n.json", "w.json", "--x0", "x.json", "--T", "1", "--h", "0.1"],
    "verify conjugacy": ["verify", "conjugacy", *MAP_ARGS, "w.json"],
    "verify polydiagonal": ["verify", "polydiagonal", *MAP_ARGS, "w.json", "--x0", "x.json"],
    "verify driving": ["verify", "driving", *MAP_ARGS, "w.json"],
}
OPTION_VALUES = {"--seed": "3", "--out": "r.json", "--samples": "5", "--tol": "1e-9", "--x0": "x.json",
                 "--T": "1", "--h": "0.1", "--flow-tol": "1e-8", "--fd-step": "1e-6"}
REPORT_ONLY = ["--seed", "--out"]
READ_OPTIONS = {
    **{c: REPORT_ONLY for c in BASE_ARGV},
    "simulate": ["--x0", "--T", "--h", "--out"],
    "verify conjugacy": ["--samples", "--tol", "--x0", "--T", "--h", "--flow-tol", "--seed", "--out"],
    "verify polydiagonal": ["--x0", "--tol", "--T", "--h", "--seed", "--out"],
    "verify driving": ["--samples", "--tol", "--seed", "--out"],
}
# (command, option) pairs that every command accepted before each declared only the options it reads,
# and --fd-step, which verify driving read while its residual came from finite differences
UNREAD_OPTIONS = [
    *[(c, o) for c in READ_OPTIONS if READ_OPTIONS[c] == REPORT_ONLY for o in ["--samples", "--tol"]],
    *[("simulate", o) for o in ["--seed", "--samples", "--tol"]],
    ("verify conjugacy", "--fd-step"),
    *[("verify polydiagonal", o) for o in ["--samples", "--flow-tol", "--fd-step"]],
    *[("verify driving", o) for o in ["--x0", "--T", "--h", "--flow-tol", "--fd-step"]],
]


@pytest.mark.parametrize("command", sorted(READ_OPTIONS))
def test_command_reads_its_options(command):
    argv = BASE_ARGV[command] + [a for o in READ_OPTIONS[command] for a in (o, OPTION_VALUES[o])]
    args = build_parser().parse_args(argv)
    assert all(getattr(args, o[2:].replace("-", "_")) is not None for o in READ_OPTIONS[command])


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[f"{c} {o}" for c, o in UNREAD_OPTIONS])
def test_unread_option_exits_2(capsys, command, option):
    assert len(UNREAD_OPTIONS) == 32
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(BASE_ARGV[command] + [option, OPTION_VALUES[option]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fibra ")]
    assert len(lines) == 15
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


MALFORMED_PARTITIONS = {
    "node-listed-twice": {"blocks": [["1", "2", "3"], ["3"]]},
    "non-string-member": {"blocks": [[1, "2"], ["3"]]},
    "missing-node": {"blocks": [["1", "2"]]},
    "extra-node": {"blocks": [["1", "2"], ["3", "4"]]},
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED_PARTITIONS))
def test_balanced_check_malformed_partition_exits_2(files, capsys, malformed):
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    partition = write("p.json", MALFORMED_PARTITIONS[malformed])
    code, out, err = run_cli(capsys, ["balanced", "--check", partition, net])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def map_files(write, m, map_obj=None) -> list[str]:
    """Domain, codomain and map files of ``m``; ``map_obj`` replaces the map's JSON."""
    return [
        write("dom.json", network_to_json(m.domain)),
        write("cod.json", network_to_json(m.codomain)),
        write("map.json", map_to_json(m) if map_obj is None else map_obj),
    ]


def _outside_codomain():
    """g3_to_c2 with a node image and an edge image that name no codomain node or edge."""
    obj = map_to_json(fixtures.g3_to_c2())
    obj["nodes"]["1"] = "zz"
    obj["edges"]["c"] = "zz"
    return obj


def _with_dynamics(dyn_obj):
    """``pullback`` along g3_to_c2 with this dynamics file."""
    return lambda write: ["pullback", *map_files(write, fixtures.g3_to_c2()), write("dyn.json", dyn_obj)]


def _simulate_g3_mixed(write):
    net = fixtures.g3_mixed()
    dyn = {"classes": [{"representative": "1", "exprs": ["-x[0]"]}]}
    x0 = write("x0.json", {"flat": [0.0] * 4})
    netp = write("net.json", network_to_json(net))
    return ["simulate", netp, write("dyn.json", dyn), "--x0", x0, "--T", "0.1", "--h", "0.1"]


def _verify_collapse(write):
    m = fixtures.double_collapse()
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    return ["verify", "conjugacy", *map_files(write, m), dyn, "--samples", "2", "--T", "0.01", "--h", "0.01"]


def _simulate_by_node_list(write):
    net = fixtures.g3()
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(net)))
    x0 = write("x0.json", {"by_node": [[0.0], [0.0], [0.0]]})
    return ["simulate", write("net.json", network_to_json(net)), dyn, "--x0", x0, "--T", "0.1", "--h", "0.1"]


# Failure paths no other test runs: (argv builder, exit code, stream, substrings of that stream)
FAILURE_PATHS = {
    "check-fibration-invalid-map": (
        lambda write: ["check-fibration", *map_files(write, fixtures.g3_to_c2(), _outside_codomain())],
        1, "out", ['"is_fibration": false', '"kind": "bad-node-image"', '"kind": "bad-edge-image"'],
    ),
    "check-map-images-outside-codomain": (
        lambda write: ["check-map", *map_files(write, fixtures.g3_to_c2(), _outside_codomain())],
        1, "out", ['"kind": "bad-node-image"', '"kind": "bad-edge-image"'],
    ),
    "verify-conjugacy-not-a-fibration": (
        _verify_collapse, 1, "err", ["error: conjugacy certification requires a fibration"],
    ),
    "dynamics-unknown-representative": (
        _with_dynamics({"classes": [{"representative": "zz", "exprs": ["-x[0]"]}]}),
        2, "err", ["/dyn.json: dynamics: unknown node id 'zz'\n"],
    ),
    "dynamics-missing-class": (_simulate_g3_mixed, 2, "err", ["no control for class of '3'"]),
    "dynamics-classes-not-a-list": (
        _with_dynamics({"classes": {"representative": "a", "exprs": ["-x[0]"]}}),
        2, "err", ["/dyn.json: dynamics: 'classes' must be a list\n"],
    ),
    "dynamics-non-string-expr": (
        _with_dynamics({"classes": [{"representative": "a", "exprs": [1.5]}]}),
        2, "err", ["/dyn.json: dynamics class: 'exprs' must be a list of strings\n"],
    ),
    "map-nodes-a-list": (
        lambda write: ["check-map", *map_files(write, fixtures.g3_to_c2(), {"nodes": [], "edges": {}})],
        2, "err", ["error: map: 'nodes' and 'edges' must be objects"],
    ),
    "partition-blocks-a-string": (
        lambda write: [
            "balanced", "--check", write("p.json", {"blocks": "123"}), write("g3.json", network_to_json(fixtures.g3()))
        ],
        2, "err", ["error: partition: 'blocks' must be a list of lists"],
    ),
    "state-by-node-a-list": (_simulate_by_node_list, 2, "err", ["error: state: 'by_node' must be an object"]),
}


@pytest.mark.parametrize("case", sorted(FAILURE_PATHS))
def test_failure_path(files, capsys, case):
    argv, expected_code, stream, texts = FAILURE_PATHS[case]
    write, _ = files
    code, out, err = run_cli(capsys, argv(write))
    assert code == expected_code
    for text in texts:
        assert text in {"out": out, "err": err}[stream]
    assert "Traceback" not in err
    if expected_code == 2:
        assert_malformed(code, out, err)


def _count_map_checks(monkeypatch) -> list:
    """Record every ``check_network_map`` call, whichever fibra module makes it."""
    calls = []
    original = fibra.graphs.check_network_map

    def counted(m):
        calls.append(m)
        return original(m)

    for module in (fibra.graphs, fibra.fibrations, fibra.cli):
        monkeypatch.setattr(module, "check_network_map", counted)
    return calls


MAP_CHECK_COMMANDS = {
    "check-fibration": lambda write, m, dyn: ["check-fibration", *map_files(write, m)],
    "factorize": lambda write, m, dyn: ["factorize", *map_files(write, m)],
    "pullback": lambda write, m, dyn: ["pullback", *map_files(write, m), dyn],
    "verify conjugacy": lambda write, m, dyn: [
        "verify", "conjugacy", *map_files(write, m), dyn, "--samples", "3", "--T", "0.02", "--h", "0.01"
    ],
    "verify polydiagonal": lambda write, m, dyn: [
        "verify", "polydiagonal", *map_files(write, m), dyn,
        "--x0", write("x0.json", {"flat": [0.25, -1.5, 0.25]}), "--T", "0.02", "--h", "0.01",
    ],
    "verify driving": lambda write, m, dyn: ["verify", "driving", *map_files(write, m), dyn, "--samples", "2"],
}


def test_conjugacy_whose_samples_overflow_prints_only_its_fault(files, capsys):
    # the pointwise batch runs under the one error state certify_conjugacy enters, so numpy warns of
    # nothing (under this suite's filter a warning would raise); the flow faults at its first step
    write, _ = files
    m = fixtures.g3_to_c2()
    dyn = write("dyn.json", {"classes": [
        {"representative": "a", "exprs": ["1e308 * (10 * x[0]) + sum(u in inputs[R1]) { u[0] }"]}
    ]})
    argv = ["verify", "conjugacy", *map_files(write, m), dyn, "--samples", "5", "--T", "0.05", "--h", "0.01"]
    assert run_cli(capsys, argv) == (1, "", "error: non-finite state at step 1\n")


def test_driving_whose_differences_overflow_prints_no_warning(files, capsys):
    # on a fibration both sides of the restriction overflow to inf, so a residual is inf - inf: NaN under
    # the error state the pointwise batch enters, so numpy warns of nothing and the check fails, as verify
    # conjugacy's does; on a map with a feedback edge no field is built and the residual is null
    write, _ = files
    overflow = "1e308 * (10 * x[0]) + sum(u in inputs[R1]) { 1e308 * (10 * u[0]) }"
    host = network([("a", R1), ("s", R1)], [("e1", "s", "a"), ("e2", "a", "a")])
    fed = NetworkMap(network([("a", R1)], [("f", "a", "a")]), host, {"a": "a"}, {"f": "e2"})
    for m, feedback in ((fixtures.c2_into_g3(), []), (fed, ["e1"])):
        dyn = write("dyn.json", {"classes": [
            {"representative": r, "exprs": [overflow if signature_at(m.codomain, r).inputs else "-x[0]"]}
            for r in fibra.symmetry_groupoid(m.codomain).representatives()
        ]})
        code, out, err = run_cli(capsys, ["verify", "driving", *map_files(write, m), dyn, "--samples", "2"])
        assert (code, err) == (1, "")
        results = report_of(out)["results"]
        assert results["feedback_edges"] == feedback and results["is_fibration"] is (feedback == [])
        residual = results["pointwise_max_residual"]
        assert residual is None if feedback else math.isnan(residual)


@pytest.mark.parametrize("command", sorted(MAP_CHECK_COMMANDS))
def test_each_command_checks_its_map_once(files, capsys, monkeypatch, command):
    write, _ = files
    m = fixtures.c2_into_g3() if command == "verify driving" else fixtures.g3_to_c2()
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    calls = _count_map_checks(monkeypatch)
    code, _, err = run_cli(capsys, MAP_CHECK_COMMANDS[command](write, m, dyn))
    assert (code, err) == (0, "")
    assert len(calls) == 1


@pytest.mark.parametrize("command", [["balanced", "--coarsest"], ["quotient"]], ids=["balanced --coarsest", "quotient"])
def test_quotient_commands_check_no_map(files, capsys, monkeypatch, command):
    # a balanced partition's projection is a fibration by construction, so no command re-proves it
    write, _ = files
    net = write("g3.json", network_to_json(fixtures.g3()))
    calls = _count_map_checks(monkeypatch)
    code, _, err = run_cli(capsys, [*command, net])
    assert (code, err) == (0, "")
    assert calls == []


@pytest.mark.parametrize("command", [["balanced", "--coarsest"], ["quotient"]], ids=["balanced --coarsest", "quotient"])
def test_quotient_commands_refuse_colliding_edge_ids(files, capsys, command):
    # block "a" with edge "b:c" and block "a:b" with edge "c" both join to the quotient edge id "a:b:c"
    write, _ = files
    net = write("net.json", network_to_json(
        network([("a", R1), ("a:b", R1), ("x", R1)], [("b:c", "x", "a"), ("c", "x", "a:b"), ("d", "x", "a:b")])
    ))
    code, out, err = run_cli(capsys, [*command, net])
    assert (code, out) == (1, "")
    assert err == "error: quotient edge id 'a:b:c' would name two edges: block ids and edge ids joined by ':' collide\n"


def test_reports_are_byte_identical(files, capsys, tmp_path):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "conjugacy", dom, cod, mp, dyn, "--samples", "20", "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_env_override(files, capsys, monkeypatch):
    write, _ = files
    m = fixtures.g3_to_c2()
    dom = write("g3.json", network_to_json(m.domain))
    cod = write("c2.json", network_to_json(m.codomain))
    mp = write("psi.json", map_to_json(m))
    dyn = write("dyn.json", class_dynamics_to_json(fixtures.linear_dynamics(m.codomain)))
    monkeypatch.setenv("FIBRA_SEED", "7")
    code, out, _ = run_cli(capsys, ["verify", "conjugacy", dom, cod, mp, dyn, "--samples", "5"])
    assert code == 0
    assert report_of(out)["seed"] == 7


def test_fixture_catalog_is_wellformed():
    from fibra import R1, R2, S1, check_fibration, check_network_map, validate_network

    f = fixtures
    nets = [
        *(f.g3(), f.g3(S1), f.g3_mixed(), f.loop_net(), f.loop_net(S1), f.cycle2(), f.cycle2(S1, S1)),
        *(f.four_node_multi(), f.funnel4(), f.funnel4(R1, R2), f.broadcast10(), f.join3(), f.chain3()),
        *(f.string_graph(2), f.string_graph(3), f.string_graph(2, S1, S1), f.double_edge()),
    ]
    fibrations = [
        *(f.g3_to_loop(), f.g3_to_c2(), f.c2_into_g3(), f.c2_into_g3_mixed(), f.g3_into_ten()),
        *(f.string_to_cycle(2), f.string_to_cycle(3), f.fork_to_chain()),
        *(f.g3_to_c2(S1), f.g3_to_loop(S1), f.string_to_cycle(2, S1, S1)),
    ]
    for net in nets:
        assert validate_network(net) == [], net.graph.nodes
    for m in [*fibrations, f.double_collapse()]:
        assert check_network_map(m) == [], m.node_map
    for m in fibrations:
        assert check_fibration(m).is_fibration, m.node_map
    assert not check_fibration(f.double_collapse()).is_fibration
    linear_on = [f.loop_net(), f.cycle2(), f.g3(), f.broadcast10(), f.chain3(), f.cycle2(R1, R2)]
    kuramoto_on = [f.cycle2(S1, S1), f.loop_net(S1)]
    for w in [*map(f.linear_dynamics, linear_on), *map(f.kuramoto_dynamics, kuramoto_on)]:
        assert w.mode == "per_class" and set(w.controls) == set(w.groupoid.representatives())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fixtures.string_graph(1), "string graph needs n >= 2"),
        (
            lambda: fixtures.kuramoto_dynamics(fixtures.cycle2()),
            "kuramoto dynamics requires circle phase spaces everywhere",
        ),
    ],
    ids=["string-graph-of-one", "kuramoto-on-euclidean-nodes"],
)
def test_fixture_rejects_bad_arguments(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_console_entry_point():
    # exercised through the module path so a missing console script cannot hide;
    # the child imports the same fibra as this process, installed or not
    src = str(Path(fibra.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fibra.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "fibra" in proc.stdout


def test_structure_commands_never_load_numpy(files, capsys):
    """A fresh process runs every structure command without importing numpy, and writes the same bytes."""
    write, tmp = files
    m = fixtures.g3_to_c2()
    net = write("g3.json", network_to_json(m.domain))
    maps = map_files(write, m)
    partition = write("partition.json", {"blocks": [["1", "2"], ["3"]]})
    argvs = [
        ["validate", net],
        ["check-map", *maps],
        ["check-fibration", *maps],
        ["input-trees", net],
        ["groupoid", net],
        ["balanced", net, "--coarsest"],
        ["balanced", net, "--check", partition],
        ["quotient", net],
        ["factorize", *maps],
        ["essential-image", *maps],
    ]
    code = (
        "import json, sys\n"
        "from fibra.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
        "assert 'numpy' not in sys.modules, 'a structure command imported numpy'\n"
    )
    child = [argv + ["--out", str(tmp / f"child{k}.json")] for k, argv in enumerate(argvs)]
    src = str(Path(fibra.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(child)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes = [main(argv + ["--out", str(tmp / f"here{k}.json")]) for k, argv in enumerate(argvs)]
    assert json.loads(proc.stdout) == codes == [0] * len(argvs)
    for k in range(len(argvs)):
        assert (tmp / f"child{k}.json").read_bytes() == (tmp / f"here{k}.json").read_bytes()
