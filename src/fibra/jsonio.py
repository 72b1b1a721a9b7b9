"""JSON schemas for networks, maps, partitions, dynamics, and states."""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

from .dynamics import VirtualVectorField, per_class_field, signature_at
from .errors import InputError, PreconditionError
from .expr_dsl import ControlExpr, parse_control
from .fibrations import Partition
from .graphs import Edge, Graph, Network, NetworkMap, PhaseSpace, StateIndex, circle, euclidean


def read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, Mapping) or key not in obj:
        raise InputError(f"{where}: missing key {key!r}")
    return obj[key]


def space_from_json(obj: Any) -> PhaseSpace:
    kind = _require(obj, "kind", "space")
    if kind == "S1":
        return circle()
    if kind == "R":
        dim = _require(obj, "dim", "space")
        if not isinstance(dim, int) or dim < 1:
            raise InputError(f"space: dim must be a positive integer, got {dim!r}")
        return euclidean(dim)
    raise InputError(f"space: unknown kind {kind!r}")


def space_to_json(space: PhaseSpace) -> dict:
    if space.is_circle:
        return {"kind": "S1"}
    return {"kind": "R", "dim": space.dim}


def network_from_json(obj: Any) -> Network:
    nodes = _require(obj, "nodes", "network")
    edges = _require(obj, "edges", "network")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise InputError("network: 'nodes' and 'edges' must be lists")
    ids, phase = [], {}
    for entry in nodes:
        nid = _require(entry, "id", "network node")
        if not isinstance(nid, str):
            raise InputError(f"network node: id must be a string, got {nid!r}")
        ids.append(nid)
        phase[nid] = space_from_json(_require(entry, "space", "network node"))
    edge_list = []
    for entry in edges:
        eid = _require(entry, "id", "network edge")
        src = _require(entry, "src", "network edge")
        tgt = _require(entry, "tgt", "network edge")
        if not all(isinstance(v, str) for v in (eid, src, tgt)):
            raise InputError("network edge: id, src, tgt must be strings")
        edge_list.append(Edge(eid, src, tgt))
    return Network(Graph(tuple(ids), tuple(edge_list)), phase)


def network_to_json(net: Network) -> dict:
    return {
        "nodes": [{"id": a, "space": space_to_json(net.space(a))} for a in net.graph.nodes],
        "edges": [{"id": e.edge_id, "src": e.src, "tgt": e.tgt} for e in net.graph.edges],
    }


def map_from_json(obj: Any, domain: Network, codomain: Network) -> NetworkMap:
    nodes = _require(obj, "nodes", "map")
    edges = _require(obj, "edges", "map")
    if not isinstance(nodes, Mapping) or not isinstance(edges, Mapping):
        raise InputError("map: 'nodes' and 'edges' must be objects")
    return NetworkMap(domain, codomain, dict(nodes), dict(edges))


def map_to_json(m: NetworkMap) -> dict:
    return {"nodes": dict(m.node_map), "edges": dict(m.edge_map)}


def partition_from_json(obj: Any) -> Partition:
    blocks = _require(obj, "blocks", "partition")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputError("partition: 'blocks' must be a list of lists")
    if not all(isinstance(a, str) for b in blocks for a in b):
        raise InputError("partition: block members must be node id strings")
    return Partition.of(blocks)


def partition_to_json(p: Partition) -> dict:
    return {"blocks": [list(b) for b in p.blocks]}


def class_dynamics_from_json(obj: Any, net: Network) -> VirtualVectorField:
    """Per-class dynamics: one expression per output component, signatures from the representatives."""
    classes = _require(obj, "classes", "dynamics")
    if not isinstance(classes, list):
        raise InputError("dynamics: 'classes' must be a list")
    controls = {}
    try:
        for entry in classes:
            rep = _require(entry, "representative", "dynamics class")
            exprs = _require(entry, "exprs", "dynamics class")
            if not isinstance(exprs, list) or not all(isinstance(s, str) for s in exprs):
                raise InputError("dynamics class: 'exprs' must be a list of strings")
            controls[rep] = parse_control(exprs, signature_at(net, rep))
        return per_class_field(net, controls)
    except PreconditionError as exc:  # file inconsistent with the network
        raise InputError(f"dynamics: {exc}") from None


def class_dynamics_to_json(field: VirtualVectorField) -> dict:
    if field.mode != "per_class":
        raise InputError("only per-class dynamics have a class JSON form")
    classes = []
    for rep in sorted(field.controls):
        ctrl = field.controls[rep]
        if not isinstance(ctrl, ControlExpr):
            raise InputError("opaque controls cannot be serialized")
        classes.append({"representative": rep, "exprs": list(ctrl.sources())})
    return {"classes": classes}


def node_dynamics_to_json(field: VirtualVectorField) -> dict:
    """Per-node bindings; requires expression controls."""
    nodes = []
    for a in sorted(field.network.graph.nodes):
        ctrl = field.control_at(a)
        if not isinstance(ctrl, ControlExpr):
            raise InputError("opaque controls cannot be serialized")
        nodes.append({"id": a, "exprs": list(ctrl.sources())})
    return {"nodes": nodes}


def _finite_number(v: Any) -> bool:
    """A JSON number with a finite float value; booleans, null, strings and lists are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _coordinates(values: Any, dim: int, what: str) -> np.ndarray:
    if not isinstance(values, list) or len(values) != dim or not all(map(_finite_number, values)):
        raise InputError(f"state: {what} must be a list of {dim} finite numbers")
    return np.array(values, dtype=float)


def state_from_json(obj: Any, index: StateIndex) -> np.ndarray:
    """Flat state from {"flat": [...]} or {"by_node": {id: [...]}}; every coordinate a finite number."""
    if isinstance(obj, Mapping) and "flat" in obj:
        return _coordinates(obj["flat"], index.total_dim, "'flat'")
    if isinstance(obj, Mapping) and "by_node" in obj:
        by_node = obj["by_node"]
        if not isinstance(by_node, Mapping):
            raise InputError("state: 'by_node' must be an object")
        x = np.zeros(index.total_dim)
        for a in index.order:
            if a not in by_node:
                raise InputError(f"state: missing node {a!r}")
            x[index.slice_of(a)] = _coordinates(by_node[a], index.spaces[a].dim, f"node {a!r}")
        return x
    raise InputError("state: expected 'flat' or 'by_node'")
