"""Command-line front end: JSON in, JSON reports out, CSV for trajectories.

Exit codes: 0 when the checked property holds (or the computation succeeds),
1 when it fails, 2 on malformed input.  Every command but ``validate`` treats
a network with a structural violation (see ``validate_network``) as malformed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import FibraError, InputError, PreconditionError
from .fibrations import (
    check_fibration,
    coarsest_balanced,
    essential_image,
    factorize,
    is_balanced,
)
from .graphs import Network, NetworkMap, check_network_map, total_phase_space, validate_network
from .input_trees import aut_order, canonical_isos, input_tree, symmetry_groupoid
from .jsonio import (
    class_dynamics_from_json,
    dumps,
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

# The structure commands never load numpy: the commands that build dynamics
# import dynamics, numerics and numpy where they run.


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


def _check_horizon(args, width: int) -> None:
    """Refuse ``--T``/``--h`` when a trajectory of ``width`` coordinates would hold more than MAX_TRAJECTORY_FLOATS."""
    width = max(1, width)
    steps = args.T / args.h  # inf when it overflows
    if (steps + 2.0) * width > MAX_TRAJECTORY_FLOATS:
        raise InputError(f"--T/--h gives {steps:.3g} steps of {width} coordinates: over {MAX_TRAJECTORY_FLOATS} floats")


def _option(*flags: str, **kwargs):
    """One option of a command: ``flags`` and ``kwargs`` as ``add_argument`` takes them."""
    return lambda parser: parser.add_argument(*flags, **kwargs)


SEED = _option("--seed", type=_at_least(int, 0), help="PRNG seed (default 0, or FIBRA_SEED)")
OUT = _option("--out", help="write the output here instead of stdout")
SAMPLES = _option("--samples", type=_at_least(int, 0), default=1000, help="number of random samples")
FLOW_TOL = _option("--flow-tol", type=_at_least(float, 0.0), default=1e-8, help="flow deviation tolerance")


def _tol(default: float):
    return _option("--tol", type=_at_least(float, 0.0), default=default, help=f"tolerance (default {default:g})")


def _horizon(T: float | None = None, h: float | None = None):
    """``--T`` and ``--h``, each required when it has no default."""

    def add(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--T", type=_at_least(float, 0.0), default=T, required=T is None, help="time horizon")
        parser.add_argument(
            "--h", type=_at_least(float, 0.0, strict=True), default=h, required=h is None, help="RK4 step size"
        )

    return add


def _coarsest_or_check(parser: argparse.ArgumentParser) -> None:
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--coarsest", action="store_true", help="compute the coarsest balanced partition")
    mode.add_argument("--check", metavar="PARTITION", help="check this partition JSON file")


# Every command, declared once by ``_command`` on the function that runs it, in
# --help order: (name, summary, file arguments, options, run).  A two-word name
# such as "verify conjugacy" is a suite of the first word.  ``run(args, read)``
# reads each input file through ``read`` (path -> parsed JSON, recorded in the
# report's ``inputs``) and returns (results, property holds); results of None
# mean the command wrote its own output and there is no report.  The docstring
# of ``run``, if it has one, is the description its command's --help prints.
_COMMANDS: list[tuple] = []
_SUITES_HELP = {"verify": "numerical certification suites"}
MAP_FILES = "domain codomain map"


def _command(name: str, summary: str, files: str, *options):
    def declare(run):
        _COMMANDS.append((name, summary, files.split(), options, run))
        return run

    return declare


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fibra", description=__doc__)
    top.add_argument("--version", action="version", version=f"fibra {__version__}")
    commands = top.add_subparsers(dest="command", required=True)
    suites = {"": commands}
    for name, summary, files, options, run in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        if group not in suites:
            suites[group] = commands.add_parser(group, help=_SUITES_HELP[group]).add_subparsers(
                dest="suite", required=True
            )
        # no abbreviations: "--h" would otherwise mean --help to a command without --h
        parser = suites[group].add_parser(leaf, help=summary, description=run.__doc__, allow_abbrev=False)
        for file in files:
            parser.add_argument(file)
        for add in options:
            add(parser)
        parser.set_defaults(run=run)
    return top


def _load_network(read, path: str) -> Network:
    """Read a network file; its first structural violation is malformed input."""
    net = network_from_json(read(path))
    violations = validate_network(net)
    if violations:
        raise InputError(f"{path}: invalid network: {violations[0].message}")
    return net


def _load_dynamics(read, path: str, net: Network):
    """Read a per-class dynamics file for ``net``; its errors name the file."""
    obj = read(path)
    try:
        return class_dynamics_from_json(obj, net)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_map(args, read) -> NetworkMap:
    domain = _load_network(read, args.domain)
    codomain = _load_network(read, args.codomain)
    return map_from_json(read(args.map), domain, codomain)


def _violations_json(violations) -> list[dict]:
    return [dataclasses.asdict(v) for v in violations]


def _write(out: str | None, text: str) -> None:
    """``text`` in UTF-8 to ``out``, or to stdout whatever its encoding (one with no byte buffer, such as an
    ``io.StringIO``, takes the text).  An ``out`` that cannot be written is malformed input."""
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:  # a missing directory, a directory, no permission: malformed input
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
    elif (raw := getattr(sys.stdout, "buffer", None)) is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        raw.write(text.encode("utf-8"))
        raw.flush()


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, with each ``"`` doubled, where it holds ``,``, ``"``, CR or LF.

    Not ``csv.writer``: before Python 3.12 it leaves a CR unquoted where lines end in LF.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@_command("validate", "check network invariants", "network", SEED, OUT)
def _validate(args, read):
    violations = validate_network(network_from_json(read(args.network)))
    return {"violations": _violations_json(violations)}, not violations


@_command("check-map", "check homomorphism + phase compatibility", MAP_FILES, SEED, OUT)
def _check_map(args, read):
    violations = check_network_map(_load_map(args, read))
    return {"violations": _violations_json(violations)}, not violations


@_command("check-fibration", "unique-lift check plus classification", MAP_FILES, SEED, OUT)
def _check_fibration(args, read):
    nmap = _load_map(args, read)
    try:
        report = check_fibration(nmap)
    except PreconditionError:  # an invalid map: list every violation
        return {"violations": _violations_json(check_network_map(nmap)), "is_fibration": False}, False
    return dataclasses.asdict(report), report.is_fibration


@_command("input-trees", "emit every node's input tree", "network", SEED, OUT)
def _input_trees(args, read):
    net = _load_network(read, args.network)
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
    return {"trees": trees}, True


@_command("groupoid", "isomorphism classes, witnesses, automorphism orders", "network", SEED, OUT)
def _groupoid(args, read):
    net = _load_network(read, args.network)
    classes, orders = [], {}
    for b in symmetry_groupoid(net).blocks:
        classes.append(
            {
                "representative": b[0],
                "members": list(b),
                "witnesses": {w.source: w.leaf_bijection for w in canonical_isos(net, b, b[0])},
            }
        )
        orders.update(dict.fromkeys(b, aut_order(input_tree(net, b[0]))))  # a class shares one order
    return {"classes": classes, "aut_orders": orders}, True


@_command("balanced", "coarsest balanced partition, or check one", "network", _coarsest_or_check, SEED, OUT)
def _balanced(args, read):
    if args.coarsest:
        partition, quotient, projection = coarsest_balanced(_load_network(read, args.network))
        return (
            {
                "blocks": [list(b) for b in partition.blocks],
                "quotient": network_to_json(quotient),
                "projection": map_to_json(projection),
            },
            True,
        )
    partition_json = read(args.check)  # before the network, the order in which the report lists its inputs
    net = _load_network(read, args.network)
    try:
        ok, witness = is_balanced(net, partition_from_json(partition_json))
    except PreconditionError as exc:  # a node listed twice, missing or extra, or a block that mixes phase spaces
        raise InputError(f"{args.check}: {exc}") from None
    payload: dict = {"balanced": ok}
    if witness is not None:
        payload["witness"] = dataclasses.asdict(witness)
    return payload, ok


@_command("quotient", "coarsest quotient network and projection", "network", SEED, OUT)
def _quotient(args, read):
    partition, quotient, projection = coarsest_balanced(_load_network(read, args.network))
    return (
        {
            "partition": partition_to_json(partition),
            "quotient": network_to_json(quotient),
            "projection": map_to_json(projection),
        },
        True,
    )


@_command("factorize", "surjection-then-injection factorization of a fibration", MAP_FILES, SEED, OUT)
def _factorize(args, read):
    surjection, injection = factorize(_load_map(args, read))
    return (
        {
            "image": network_to_json(surjection.codomain),
            "surjection": map_to_json(surjection),
            "injection": map_to_json(injection),
        },
        True,
    )


@_command("essential-image", "codomain nodes seen by the map up to input-tree iso", MAP_FILES, SEED, OUT)
def _essential_image(args, read):
    nmap = _load_map(args, read)
    essim = essential_image(nmap)
    return (
        {
            "image": sorted(set(nmap.node_map.values())),
            "essential_image": sorted(essim),
            "essentially_surjective": essim == nmap.codomain.graph.node_set,
        },
        True,
    )


@_command("pullback", "pull per-class dynamics back along a fibration", MAP_FILES + " dynamics", SEED, OUT)
def _pullback(args, read):
    from .dynamics import pullback

    nmap = _load_map(args, read)
    w_prime = _load_dynamics(read, args.dynamics, nmap.codomain)
    return node_dynamics_to_json(pullback(nmap, w_prime)), True


@_command(
    "simulate", "integrate dynamics, write a CSV trajectory", "network dynamics",
    _option("--x0", required=True, help="state JSON path"), _horizon(), OUT,
)
def _simulate(args, read):
    import numpy as np

    from .dynamics import interconnect
    from .numerics import integrate

    net = _load_network(read, args.network)
    _check_horizon(args, total_phase_space(net).total_dim)
    field = interconnect(net, _load_dynamics(read, args.dynamics, net))
    x0 = state_from_json(read(args.x0), field.index)
    traj = integrate(field, x0, args.T, args.h)
    header = ["t", *(f"{a}[{i}]" for a in field.index.order for i in range(field.index.spaces[a].dim))]
    rows = np.column_stack((traj.times, traj.states)).tolist()
    _write(args.out, "\n".join([",".join(map(_csv_field, header)), *(",".join(map(repr, row)) for row in rows)]) + "\n")
    return None, True


@_command(
    "verify conjugacy", "the fibration's coordinate map intertwines the two fields", MAP_FILES + " dynamics",
    SAMPLES, _tol(1e-12), _option("--x0", help="codomain state JSON path"), _horizon(1.0, 1e-3), FLOW_TOL, SEED, OUT,
)
def _verify_conjugacy(args, read):
    from .numerics import certify_conjugacy

    nmap = _load_map(args, read)
    codomain_index = total_phase_space(nmap.codomain)
    _check_horizon(args, codomain_index.total_dim + total_phase_space(nmap.domain).total_dim)  # one joint trajectory
    w_prime = _load_dynamics(read, args.dynamics, nmap.codomain)
    x0p = None if args.x0 is None else state_from_json(read(args.x0), codomain_index)
    report = certify_conjugacy(
        nmap, w_prime, samples=args.samples, seed=args.seed, T=args.T, h=args.h, x0_prime=x0p
    )
    ok = report.pointwise_max_residual <= args.tol and report.flow_max_deviation <= args.flow_tol
    payload = dataclasses.asdict(report)
    payload.update(tol=args.tol, flow_tol=args.flow_tol, passed=ok)
    return payload, ok


@_command(
    "verify polydiagonal", "the fibration's synchrony subspace is invariant", MAP_FILES + " dynamics",
    _option("--x0", required=True, help="domain state JSON path"), _tol(1e-9), _horizon(1.0, 1e-3), SEED, OUT,
)
def _verify_polydiagonal(args, read):
    from .numerics import verify_polydiagonal_invariance

    nmap = _load_map(args, read)
    domain_index = total_phase_space(nmap.domain)
    _check_horizon(args, domain_index.total_dim)  # only the domain is integrated
    w_prime = _load_dynamics(read, args.dynamics, nmap.codomain)
    x0 = state_from_json(read(args.x0), domain_index)
    distance = verify_polydiagonal_invariance(nmap, w_prime, x0, args.T, args.h, tol_sync=args.tol)
    ok = distance <= args.tol
    return {"max_distance": distance, "T": args.T, "h": args.h, "tol": args.tol, "passed": ok}, ok


@_command(
    "verify driving", "the image of an injective fibration is autonomous", MAP_FILES + " dynamics",
    SAMPLES, _tol(1e-8), SEED, OUT,
)
def _verify_driving(args, read):
    """The check passes when the map is a fibration (each edge into the image
    lifts uniquely, so no feedback edge runs from outside the image into it)
    and restriction to the image intertwines the two fields: the pointwise
    residual pointwise_max_residual at --samples seeded codomain states is at
    most --tol.  On a map that is not a fibration the residual is null."""
    from .numerics import verify_driving_decomposition

    nmap = _load_map(args, read)
    w_prime = _load_dynamics(read, args.dynamics, nmap.codomain)
    report = verify_driving_decomposition(nmap, w_prime, samples=args.samples, seed=args.seed, tol=args.tol)
    payload = dataclasses.asdict(report)
    payload["tol"] = args.tol
    return payload, report.ok


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process; parsing leaves it unchanged
        _parser = build_parser()
    args = _parser.parse_args(argv)
    inputs = []  # each file parsed, in read order, with the SHA-256 of the bytes parsed

    def read(path: str):
        obj, sha256 = read_json(path)
        inputs.append({"path": path, "sha256": sha256})
        return obj

    try:
        if "seed" in args:  # every command but simulate, which draws nothing and writes no report
            args.seed = _seed(args)
        results, ok = args.run(args, read)
        if results is not None:
            report = {
                "artifact_version": __version__,
                "command": args.command,
                "inputs": inputs,
                "seed": args.seed,
                "results": results,
            }
            _write(args.out, dumps(report) + "\n")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FibraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
