"""Workload plans: seeded inputs written as JSON, and the commands that read them.

Every command reads input files of its own.  Each round of a run builds a
fresh input set from the run seed and the round number, so every command
meets its graphs for the first time, as a fresh ``fibra`` process would.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracles

# Sizes are node counts (lifts), chain lengths, string-graph n, or
# (base, outside) node counts.  A run makes max(2, round(seconds /
# ROUND_SECONDS[w])) rounds; FULL sizes make one round take about that long
# with fibra 0.1.0 on a 2-core x86-64 machine.  SMOKE runs in well under a second.
# Repeated sizes put a block of like commands where cmd_p50_s and cmd_tail_s
# fall, so those order statistics do not jump between two command sizes from
# one run to the next.
FULL = {
    "refine": {
        "coarsest": [200, 225, 250, 275, 300, 325, 350, 400, 450],
        "quotient": [200, 260, 320],
        "groupoid": [200, 250, 300, 350, 400, 450, 500, 600, 1000, 1000],
        "fibration": [200, 250, 300, 350, 400, 450, 500, 1000, 1000],
        "chain_coarsest": [8, 9, 10, 11, 12, 13, 14],
        "chain_quotient": [9, 10, 11, 12],
    },
    "flow": {
        "string": [50, 65, 80, 100, 115, 115, 115, 115, 115, 150, 200],
        "polydiagonal": [200, 200, 200],
        "steps": 25,
        "h": 0.01,
    },
    "certify": {
        "conjugacy": [50, 90, 130, 210, 275, 275, 275],
        "samples": 15,
        "steps": 5,
        "h": 0.01,
        "driving": [(10, 30), (14, 42), (14, 42), (14, 42), (14, 42), (20, 60)],
        "pullback": [60, 120, 180, 240, 300],
    },
}
SMOKE = {
    "refine": {
        "coarsest": [40],
        "quotient": [40],
        "groupoid": [40],
        "fibration": [40],
        "chain_coarsest": [6],
        "chain_quotient": [6],
    },
    "flow": {"string": [4], "polydiagonal": [40], "steps": 4, "h": 0.01},
    "certify": {
        "conjugacy": [40],
        "samples": 3,
        "steps": 2,
        "h": 0.01,
        "driving": [(4, 6), (4, 6)],
        "pullback": [40],
    },
}
ROUND_SECONDS = {"refine": 10.0, "flow": 7.5, "certify": 4.5}
WORK_UNITS = {
    "refine": ("edges_per_s", "edges/s", "input edges processed"),
    "flow": ("node_steps_per_s", "node-steps/s", "nodes x RK4 steps"),
    "certify": ("verdicts_per_s", "verdicts/s", "correct verdicts"),
}
KURAMOTO = (0.5, 1.0)  # natural frequency, coupling


@dataclass
class Command:
    cid: str
    argv: list[str]  # fibra.cli.main arguments, without --out
    suffix: str  # ".json" report or ".csv" trajectory
    work: float
    check: Callable[[int, object], str | None]

    def output(self, text: str):
        return json.loads(text) if self.suffix == ".json" else text


class InputWriter:
    """Turns generator output into fibra objects and JSON files under ``root``."""

    def __init__(self, fibra, root: Path, seed: list[int]):
        self.fibra = fibra
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.structures = itertools.count()
        root.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, obj) -> str:
        path = self.root / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def lift(self, n: int, spaces=("R1", "R2", "S1")) -> gen.Lift:
        """The next lift of the plan; its base wiring depends on its position, not the seed."""
        return gen.random_lift(self.rng, n, spaces, next(self.structures))

    def network(self, net: gen.Net):
        spaces = {"R1": self.fibra.R1, "R2": self.fibra.R2, "S1": self.fibra.S1}
        return self.fibra.network([(a, spaces[s]) for a, s in net.nodes], net.edges)

    def net_file(self, name: str, net: gen.Net) -> str:
        return self._write(name, self.fibra.jsonio.network_to_json(self.network(net)))

    def map_files(self, name: str, dom: gen.Net, cod: gen.Net, node_map, edge_map) -> list[str]:
        d, c = self.network(dom), self.network(cod)
        m = self.fibra.NetworkMap(d, c, node_map, edge_map)
        return [
            self._write(f"{name}.dom.json", self.fibra.jsonio.network_to_json(d)),
            self._write(f"{name}.cod.json", self.fibra.jsonio.network_to_json(c)),
            self._write(f"{name}.map.json", self.fibra.jsonio.map_to_json(m)),
        ]

    def dynamics_file(self, name: str, classes: list[dict]) -> str:
        return self._write(name, {"classes": classes})

    def state_file(self, name: str, by_node: dict) -> str:
        return self._write(name, {"by_node": by_node})


def build(workload: str, fibra, root: Path, seed: list[int], smoke: bool) -> list[Command]:
    """The workload's commands on inputs drawn from ``seed`` (the run seed and
    the round number), written under ``root``."""
    sizes = (SMOKE if smoke else FULL)[workload]
    b = InputWriter(fibra, root, seed)
    return {"refine": _refine, "flow": _flow, "certify": _certify}[workload](b, sizes)


def _refine(b: InputWriter, sizes) -> list[Command]:
    cmds = []
    for kind, argv0 in (("coarsest", ["balanced", "--coarsest"]), ("quotient", ["quotient"])):
        for i, n in enumerate(sizes[kind]):
            lift = b.lift(n)
            path = b.net_file(f"{kind}{i}.json", lift.total)
            check = oracles.coarsest_report(lift.total, lift.fibers)
            cmds.append(Command(f"{kind}{i}-n{n}", argv0 + [path], ".json", len(lift.total.edges), check))
    for i, n in enumerate(sizes["groupoid"]):
        lift = b.lift(n)
        path = b.net_file(f"groupoid{i}.json", lift.total)
        cmds.append(
            Command(f"groupoid{i}-n{n}", ["groupoid", path], ".json", len(lift.total.edges),
                    oracles.groupoid_report(lift.total))
        )
    for i, n in enumerate(sizes["fibration"]):
        lift = b.lift(n)
        paths = b.map_files(f"fibration{i}", lift.total, lift.base, lift.node_map, lift.edge_map)
        work = len(lift.total.edges) + len(lift.base.edges)
        cmds.append(
            Command(f"fibration{i}-n{n}", ["check-fibration", *paths], ".json", work,
                    oracles.fibration_report())
        )
    for kind, argv0 in (("chain_coarsest", ["balanced", "--coarsest"]), ("chain_quotient", ["quotient"])):
        for i, n in enumerate(sizes[kind]):
            chain = gen.doubled_chain(b.rng, n)
            path = b.net_file(f"{kind}{i}.json", chain)
            cmds.append(
                Command(f"{kind}{i}-n{n}", argv0 + [path], ".json", len(chain.edges),
                        oracles.coarsest_report(chain))
            )
    return cmds


def _horizon(steps: int, h: float) -> list[str]:
    return ["--T", repr(steps * h), "--h", repr(h)]


def _flow(b: InputWriter, sizes) -> list[Command]:
    steps, h = sizes["steps"], sizes["h"]
    omega, coupling = KURAMOTO
    cmds = []
    for i, n in enumerate(sizes["string"]):
        net = gen.all_circle_string(n)
        x0 = gen.state_by_node(b.rng, net)
        rep = min(a for a, _ in net.nodes)
        expr = f"{omega!r} + {coupling!r} * sum(u in inputs[S1]) {{ sin(u[0] - x[0]) }}"
        argv = [
            "simulate",
            b.net_file(f"string{i}.json", net),
            b.dynamics_file(f"string{i}.dyn.json", [{"representative": rep, "exprs": [expr]}]),
            "--x0", b.state_file(f"string{i}.x0.json", x0),
            *_horizon(steps, h),
        ]
        check = oracles.simulate_csv(x0, steps, h, omega, coupling)
        cmds.append(Command(f"simulate{i}-n{2 * n}", argv, ".csv", 2 * n * steps, check))
    for i, n in enumerate(sizes["polydiagonal"]):
        lift = b.lift(n, ("R1", "R2"))
        classes, _ = oracles.linear_exprs(lift.base)
        base_x = gen.state_by_node(b.rng, lift.base)
        argv = [
            "verify", "polydiagonal",
            *b.map_files(f"poly{i}", lift.total, lift.base, lift.node_map, lift.edge_map),
            b.dynamics_file(f"poly{i}.dyn.json", classes),
            "--x0", b.state_file(f"poly{i}.x0.json", {x: base_x[v] for x, v in lift.node_map.items()}),
            *_horizon(steps, h),
        ]
        work = len(lift.total.nodes) * steps
        cmds.append(Command(f"polydiagonal{i}-n{n}", argv, ".json", work, oracles.polydiagonal_report()))
    return cmds


def _certify(b: InputWriter, sizes) -> list[Command]:
    cmds = []
    for i, n in enumerate(sizes["conjugacy"]):
        lift = b.lift(n)
        classes, _ = oracles.linear_exprs(lift.base)
        argv = [
            "verify", "conjugacy",
            *b.map_files(f"conj{i}", lift.total, lift.base, lift.node_map, lift.edge_map),
            b.dynamics_file(f"conj{i}.dyn.json", classes),
            "--samples", str(sizes["samples"]), "--seed", str(i),
            *_horizon(sizes["steps"], sizes["h"]),
        ]
        cmds.append(Command(f"conjugacy{i}-n{n}", argv, ".json", 1, oracles.conjugacy_report()))
    for i, (n_base, n_out) in enumerate(sizes["driving"]):
        inj = gen.injection(b.rng, n_base, n_out, with_feedback=i % 2 == 1)
        classes, _ = oracles.linear_exprs(inj.host)
        argv = [
            "verify", "driving",
            *b.map_files(f"drive{i}", inj.base, inj.host, inj.node_map, inj.edge_map),
            b.dynamics_file(f"drive{i}.dyn.json", classes),
            "--samples", "1", "--seed", str(i),
        ]
        cid = f"driving{i}-n{n_base}+{n_out}{'-feedback' if inj.feedback else ''}"
        cmds.append(Command(cid, argv, ".json", 1, oracles.driving_report(inj)))
    for i, n in enumerate(sizes["pullback"]):
        lift = b.lift(n)
        classes, per_node = oracles.linear_exprs(lift.base)
        argv = [
            "pullback",
            *b.map_files(f"pull{i}", lift.total, lift.base, lift.node_map, lift.edge_map),
            b.dynamics_file(f"pull{i}.dyn.json", classes),
        ]
        cmds.append(Command(f"pullback{i}-n{n}", argv, ".json", 1, oracles.pullback_report(lift, per_node)))
    return cmds
