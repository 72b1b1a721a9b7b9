import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibra
from fibra import fixtures
from fibra.cli import main
from fibra.jsonio import class_dynamics_to_json, map_to_json, network_to_json


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write, tmp_path


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
    assert report_of(out)["results"]["violations"]


def test_malformed_json_exits_2(files, capsys):
    _, tmp = files
    path = tmp / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    assert "error" in err


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
    assert report_of(out)["results"]["witness"]


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
    assert results["ok"] and results["feedback_edges"] == []


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
    from fibra import Network, NetworkMap, check_fibration, check_network_map, validate_network
    from fibra.dynamics import VirtualVectorField

    cat = fixtures.catalog()
    assert cat
    nets = {k: v for k, v in cat.items() if isinstance(v, Network)}
    maps = {k: v for k, v in cat.items() if isinstance(v, NetworkMap)}
    dyns = {k: v for k, v in cat.items() if isinstance(v, VirtualVectorField)}
    assert nets and maps and dyns
    for name, net in nets.items():
        assert validate_network(net) == [], name
    for name, m in maps.items():
        assert check_network_map(m) == [], name
    for name in fixtures.FIBRATION_MAPS:
        assert check_fibration(cat[name]).is_fibration, name
    assert not check_fibration(cat["double-collapse"]).is_fibration
    assert set(cat["motivating"]) == {"g3", "loop", "c2", "to-loop", "to-c2", "into-g3"}


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
