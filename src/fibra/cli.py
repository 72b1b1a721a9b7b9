"""Command-line front end: JSON in, JSON reports out, CSV for trajectories.

Exit codes: 0 when the checked property holds (or the computation succeeds),
1 when it fails, 2 on malformed input.  Every command but ``validate`` treats
a network with a structural violation (see ``validate_network``) as malformed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .dynamics import interconnect, pullback
from .errors import FibraError, InputError
from .fibrations import (
    check_fibration,
    coarsest_balanced,
    essential_image,
    factorize,
    is_balanced,
)
from .graphs import Network, check_network_map, total_phase_space, validate_network
from .input_trees import aut_order, input_tree, symmetry_groupoid
from .jsonio import (
    class_dynamics_from_json,
    map_from_json,
    map_to_json,
    network_from_json,
    network_to_json,
    node_dynamics_to_json,
    partition_from_json,
    partition_to_json,
    read_json,
    state_from_json,
)
from .numerics import (
    certify_conjugacy,
    integrate,
    verify_driving_decomposition,
    verify_polydiagonal_invariance,
)


# Most floats one trajectory may hold (1 GiB); a longer horizon is malformed input.
MAX_TRAJECTORY_FLOATS = 2**27


def _at_least(kind: type, low: float, strict: bool = False):
    """An argparse type: a finite ``kind`` that is >= ``low`` (> ``low`` when ``strict``)."""

    def parse(text: str):
        value = kind(text)
        if not (low < value if strict else low <= value) or value == math.inf:  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be finite and {'>' if strict else '>='} {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _seed(args) -> int:
    """``--seed``, else the FIBRA_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("FIBRA_SEED", "0")
    try:
        return _at_least(int, 0)(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"FIBRA_SEED={text!r}: {exc}") from None


def _check_horizon(args, *nets: Network) -> None:
    """Refuse ``--T``/``--h`` when a trajectory on one of ``nets`` would hold more than MAX_TRAJECTORY_FLOATS."""
    width = max([1] + [sum(space.dim for space in net.phase.values()) for net in nets])
    steps = args.T / args.h  # inf when it overflows
    if (steps + 2.0) * width > MAX_TRAJECTORY_FLOATS:
        raise InputError(f"--T/--h gives {steps:.3g} steps of {width} coordinates: over {MAX_TRAJECTORY_FLOATS} floats")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_at_least(int, 0), default=None, help="PRNG seed (default 0, or FIBRA_SEED)")
    p.add_argument("--samples", type=_at_least(int, 0), default=1000, help="number of random samples")
    p.add_argument("--tol", type=_at_least(float, 0.0), default=None, help="tolerance (per-command default)")
    p.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fibra", description=__doc__)
    top.add_argument("--version", action="version", version=f"fibra {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check network invariants")
    p.add_argument("network")
    _add_common(p)

    p = sub.add_parser("check-map", help="check homomorphism + phase compatibility")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    _add_common(p)

    p = sub.add_parser("check-fibration", help="unique-lift check plus classification")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    _add_common(p)

    p = sub.add_parser("input-trees", help="emit every node's input tree")
    p.add_argument("network")
    _add_common(p)

    p = sub.add_parser("groupoid", help="isomorphism classes, witnesses, automorphism orders")
    p.add_argument("network")
    _add_common(p)

    p = sub.add_parser("balanced", help="coarsest balanced partition, or check one")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coarsest", action="store_true")
    group.add_argument("--check", action="store_true")
    p.add_argument("paths", nargs="+", help="--coarsest: net.json | --check: partition.json net.json")
    _add_common(p)

    p = sub.add_parser("quotient", help="coarsest quotient network and projection")
    p.add_argument("network")
    _add_common(p)

    p = sub.add_parser("factorize", help="surjection-then-injection factorization of a fibration")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    _add_common(p)

    p = sub.add_parser("essential-image", help="codomain nodes seen by the map up to input-tree iso")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    _add_common(p)

    p = sub.add_parser("pullback", help="pull per-class dynamics back along a fibration")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    p.add_argument("dynamics")
    _add_common(p)

    p = sub.add_parser("simulate", help="integrate dynamics, write a CSV trajectory")
    p.add_argument("network")
    p.add_argument("dynamics")
    p.add_argument("--x0", required=True, help="state JSON path")
    p.add_argument("--T", type=_at_least(float, 0.0), required=True)
    p.add_argument("--h", type=_at_least(float, 0.0, strict=True), required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="numerical certification suites")
    p.add_argument("suite", choices=["conjugacy", "polydiagonal", "driving"])
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("map")
    p.add_argument("dynamics")
    p.add_argument("--x0", default=None, help="state JSON path (codomain state for conjugacy)")
    p.add_argument("--T", type=_at_least(float, 0.0), default=1.0)
    p.add_argument("--h", type=_at_least(float, 0.0, strict=True), default=1e-3)
    p.add_argument("--flow-tol", type=_at_least(float, 0.0), default=1e-8)
    p.add_argument("--fd-step", type=_at_least(float, 0.0, strict=True), default=1e-6)
    _add_common(p)

    return top


def _hash_file(path: str) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return ""


def _load_network(path: str) -> Network:
    """Read a network file; its first structural violation is malformed input."""
    net = network_from_json(read_json(path))
    violations = validate_network(net)
    if violations:
        raise InputError(f"{path}: invalid network: {violations[0].message}")
    return net


def _load_map(args) -> tuple:
    domain = _load_network(args.domain)
    codomain = _load_network(args.codomain)
    nmap = map_from_json(read_json(args.map), domain, codomain)
    return domain, codomain, nmap


def _violations_json(violations) -> list[dict]:
    return [dataclasses.asdict(v) for v in violations]


def _dispatch(args, seed: int) -> tuple[dict, bool, list[str]]:
    """Returns (results payload, property holds, input paths)."""
    command = args.command

    if command == "validate":
        net = network_from_json(read_json(args.network))
        violations = validate_network(net)
        return {"violations": _violations_json(violations)}, not violations, [args.network]

    if command == "check-map":
        _, _, nmap = _load_map(args)
        violations = check_network_map(nmap)
        return (
            {"violations": _violations_json(violations)},
            not violations,
            [args.domain, args.codomain, args.map],
        )

    if command == "check-fibration":
        _, _, nmap = _load_map(args)
        violations = check_network_map(nmap)
        if violations:
            return (
                {"violations": _violations_json(violations), "is_fibration": False},
                False,
                [args.domain, args.codomain, args.map],
            )
        report = check_fibration(nmap)
        return dataclasses.asdict(report), report.is_fibration, [args.domain, args.codomain, args.map]

    if command == "input-trees":
        net = _load_network(args.network)
        trees = []
        for a in sorted(net.graph.nodes):
            t = input_tree(net, a)
            trees.append(
                {
                    "root": t.root,
                    "root_space": t.root_type.name,
                    "aut_order": aut_order(t),
                    "leaves": [
                        {"edge": l.edge_id, "source": l.source_node, "space": l.leaf_type.name}
                        for l in t.leaves
                    ],
                }
            )
        return {"trees": trees}, True, [args.network]

    if command == "groupoid":
        net = _load_network(args.network)
        g = symmetry_groupoid(net)
        classes = [
            {
                "representative": c.representative,
                "members": list(c.members),
                "witnesses": {m: dict(c.witnesses[m].leaf_bijection) for m in c.members},
            }
            for c in g.classes
        ]
        return (
            {"classes": classes, "aut_orders": dict(sorted(g.aut_orders.items()))},
            True,
            [args.network],
        )

    if command == "balanced":
        if args.coarsest:
            if len(args.paths) != 1:
                raise InputError("balanced --coarsest expects one network path")
            net = _load_network(args.paths[0])
            partition, quotient, projection = coarsest_balanced(net)
            return (
                {
                    "blocks": [list(b) for b in partition.blocks],
                    "quotient": network_to_json(quotient),
                    "projection": map_to_json(projection),
                },
                True,
                list(args.paths),
            )
        if len(args.paths) != 2:
            raise InputError("balanced --check expects partition.json then net.json")
        partition = partition_from_json(read_json(args.paths[0]))
        net = _load_network(args.paths[1])
        if sorted(a for b in partition.blocks for a in b) != sorted(net.graph.nodes):
            raise InputError(f"{args.paths[0]}: partition does not list each network node exactly once")
        ok, witness = is_balanced(net, partition)
        payload: dict = {"balanced": ok}
        if witness is not None:
            payload["witness"] = dataclasses.asdict(witness)
        return payload, ok, list(args.paths)

    if command == "quotient":
        net = _load_network(args.network)
        partition, quotient, projection = coarsest_balanced(net)
        return (
            {
                "partition": partition_to_json(partition),
                "quotient": network_to_json(quotient),
                "projection": map_to_json(projection),
            },
            True,
            [args.network],
        )

    if command == "factorize":
        _, _, nmap = _load_map(args)
        surjection, injection = factorize(nmap)
        return (
            {
                "image": network_to_json(surjection.codomain),
                "surjection": map_to_json(surjection),
                "injection": map_to_json(injection),
            },
            True,
            [args.domain, args.codomain, args.map],
        )

    if command == "essential-image":
        _, codomain, nmap = _load_map(args)
        essim = essential_image(nmap)
        return (
            {
                "image": sorted(set(nmap.node_map.values())),
                "essential_image": sorted(essim),
                "essentially_surjective": essim == codomain.graph.node_set,
            },
            True,
            [args.domain, args.codomain, args.map],
        )

    if command == "pullback":
        _, codomain, nmap = _load_map(args)
        w_prime = class_dynamics_from_json(read_json(args.dynamics), codomain)
        pulled = pullback(nmap, w_prime)
        return (
            node_dynamics_to_json(pulled),
            True,
            [args.domain, args.codomain, args.map, args.dynamics],
        )

    if command == "simulate":
        net = _load_network(args.network)
        _check_horizon(args, net)
        field = interconnect(net, class_dynamics_from_json(read_json(args.dynamics), net))
        x0 = state_from_json(read_json(args.x0), field.index)
        traj = integrate(field, x0, args.T, args.h)
        header = ["t"]
        for a in field.index.order:
            dim = field.index.spaces[a].dim
            header += [f"{a}[{i}]" for i in range(dim)]
        lines = [",".join(header)]
        for k in range(traj.states.shape[0]):
            row = [repr(float(traj.times[k]))] + [repr(float(v)) for v in traj.states[k]]
            lines.append(",".join(row))
        csv_text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).write_text(csv_text, encoding="utf-8")
        else:
            sys.stdout.write(csv_text)
        return {}, True, [args.network, args.dynamics, args.x0]

    if command == "verify":
        domain, codomain, nmap = _load_map(args)
        if args.suite != "driving":
            _check_horizon(args, domain, codomain)
        w_prime = class_dynamics_from_json(read_json(args.dynamics), codomain)
        paths = [args.domain, args.codomain, args.map, args.dynamics]
        if args.suite == "conjugacy":
            tol = args.tol if args.tol is not None else 1e-12
            x0p = None
            if args.x0 is not None:
                x0p = state_from_json(read_json(args.x0), total_phase_space(codomain))
                paths.append(args.x0)
            report = certify_conjugacy(
                nmap, w_prime, samples=args.samples, seed=seed, T=args.T, h=args.h, x0_prime=x0p
            )
            ok = report.pointwise_max_residual <= tol and report.flow_max_deviation <= args.flow_tol
            payload = dataclasses.asdict(report)
            payload.update(tol=tol, flow_tol=args.flow_tol, passed=ok)
            return payload, ok, paths
        if args.suite == "polydiagonal":
            tol = args.tol if args.tol is not None else 1e-9
            if args.x0 is None:
                raise InputError("verify polydiagonal requires --x0")
            x0 = state_from_json(read_json(args.x0), total_phase_space(nmap.domain))
            paths.append(args.x0)
            distance = verify_polydiagonal_invariance(nmap, w_prime, x0, args.T, args.h, tol_sync=tol)
            ok = distance <= tol
            return (
                {"max_distance": distance, "T": args.T, "h": args.h, "tol": tol, "passed": ok},
                ok,
                paths,
            )
        tol = args.tol if args.tol is not None else 1e-8
        report = verify_driving_decomposition(
            nmap, w_prime, samples=args.samples, seed=seed, fd_step=args.fd_step, tol=tol
        )
        payload = dataclasses.asdict(report)
        payload["tol"] = tol
        return payload, report.ok, paths

    raise InputError(f"unknown command {command!r}")


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process; parsing leaves it unchanged
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        seed = _seed(args)
        results, ok, paths = _dispatch(args, seed)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FibraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command != "simulate":
        report = {
            "artifact_version": __version__,
            "command": args.command,
            "inputs": [{"path": p, "sha256": _hash_file(p)} for p in paths],
            "seed": seed,
            "results": results,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
