"""JSON schemas for networks, maps, partitions, dynamics, and states."""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping, Set as AbstractSet
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import InputError, PreconditionError
from .graphs import R1, R2, S1, Graph, Network, NetworkMap, Partition, PhaseSpace, StateIndex, circle, euclidean

if TYPE_CHECKING:
    import numpy as np

    from .dynamics import VirtualVectorField

# Dynamics and state files need the numeric layers (numpy, expr_dsl,
# dynamics); their readers and writers import them where they run, so the
# structure commands never load them.


def read_json(path: str | Path) -> tuple[Any, str]:
    """The parsed UTF-8 JSON file and the SHA-256 hex digest of the bytes parsed."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an int too long to read, nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def dumps(obj: Any) -> str:
    """The text ``json.dumps(obj, indent=2, sort_keys=True)`` gives, for reports.

    Takes str-keyed dicts, lists, tuples, strings, ints, floats, bools and
    None; raises TypeError on anything else, a non-str key included.  (With
    ``indent`` set, the standard encoder runs its pure-Python generator.)
    One exception: an int with more decimal digits than
    ``sys.get_int_max_str_digits()`` allows, which ``json.dumps`` refuses with
    ``ValueError``, is written as the JSON string of its hex form (``"0x..."``),
    which ``int(s, 16)`` reads back under any limit.
    """
    return _dumps(obj, "\n")


def _dumps(obj: Any, newline: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str; a str value is encoded inline
        items = [
            encode_basestring_ascii(k) + ": " + (encode_basestring_ascii(v) if type(v) is str else _dumps(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        items = [encode_basestring_ascii(v) if type(v) is str else _dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        try:
            return int.__repr__(obj)
        except ValueError:  # more digits than sys.get_int_max_str_digits() lets Python print
            return '"' + hex(obj) + '"'
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# Most coordinates a space read from JSON may have: one state of it already
# fills 1 GiB of floats, the CLI's whole trajectory budget.
MAX_DIM = 2**27


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
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise InputError(f"space: dim must be a positive integer, got {dim!r}")
        if dim > MAX_DIM:
            raise InputError(f"space: dim must be at most {MAX_DIM}")
        return euclidean(dim)
    raise InputError(f"space: unknown kind {kind!r}")


def space_to_json(space: PhaseSpace) -> dict:
    if space.is_circle:
        return {"kind": "S1"}
    return {"kind": "R", "dim": space.dim}


def network_from_json(obj: Any) -> Network:
    """A network from {"nodes": [{"id", "space"}], "edges": [{"id", "src", "tgt"}]}, each list read once.

    A plain dict entry whose fields have their JSON types is read directly; any
    other entry goes through the checks that name what is wrong with it.  The
    edges are kept as three columns (ids, sources, targets), from which the
    graph builds its index, and its ``Edge`` objects only when they are read.
    """
    nodes = _require(obj, "nodes", "network")
    edges = _require(obj, "edges", "network")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise InputError("network: 'nodes' and 'edges' must be lists")
    ids, phase = [], {}
    # (kind, dim) -> its space, one per distinct JSON space; every network read shares the common ones, so
    # a map's phase check finds equal spaces by identity
    spaces: dict[tuple, PhaseSpace] = {("S1", None): S1, ("R", 1): R1, ("R", 2): R2}
    for entry in nodes:
        if type(entry) is dict and type(nid := entry.get("id")) is str and type(js := entry.get("space")) is dict:
            kind, dim = js.get("kind"), js.get("dim")
            if type(kind) is str and (dim is None or type(dim) is int):  # equal keys, equal spaces
                space = spaces.get((kind, dim))
                if space is None:
                    space = spaces[kind, dim] = space_from_json(js)
            else:
                space = space_from_json(js)
        else:
            nid = _node_id(entry)
            space = space_from_json(_require(entry, "space", "network node"))
        ids.append(nid)
        phase[nid] = space
    edge_ids, sources, targets = [], [], []
    for entry in edges:
        if type(entry) is dict:
            eid, src, tgt = entry.get("id"), entry.get("src"), entry.get("tgt")
            if type(eid) is not str or type(src) is not str or type(tgt) is not str:
                eid, src, tgt = _edge(entry)
        else:
            eid, src, tgt = _edge(entry)
        edge_ids.append(eid)
        sources.append(src)
        targets.append(tgt)
    return Network(Graph._from_columns(tuple(ids), edge_ids, sources, targets), phase)


def _node_id(entry: Any) -> str:
    nid = _require(entry, "id", "network node")
    if not isinstance(nid, str):
        raise InputError(f"network node: id must be a string, got {nid!r}")
    return nid


def _edge(entry: Any) -> tuple[str, str, str]:
    eid = _require(entry, "id", "network edge")
    src = _require(entry, "src", "network edge")
    tgt = _require(entry, "tgt", "network edge")
    if not all(isinstance(v, str) for v in (eid, src, tgt)):
        raise InputError("network edge: id, src, tgt must be strings")
    return eid, src, tgt


def network_to_json(net: Network) -> dict:
    graph = net.graph
    if "edges" in vars(graph):  # built from Edge objects, or its edges already read
        edges = [{"id": e.edge_id, "src": e.src, "tgt": e.tgt} for e in graph.edges]
    else:  # read from JSON, or a quotient: written from its columns, with no Edge built
        edges = [{"id": e, "src": s, "tgt": t} for e, s, t in zip(*graph._edge_columns)]
    return {"nodes": [{"id": a, "space": space_to_json(net.space(a))} for a in graph.nodes], "edges": edges}


def map_from_json(obj: Any, domain: Network, codomain: Network) -> NetworkMap:
    nodes = _require(obj, "nodes", "map")
    edges = _require(obj, "edges", "map")
    if not isinstance(nodes, Mapping) or not isinstance(edges, Mapping):
        raise InputError("map: 'nodes' and 'edges' must be objects")
    _check_images(nodes, domain.graph.node_set, "node")
    _check_images(edges, domain.graph._index.edge_pos.keys(), "edge")
    return NetworkMap(domain, codomain, dict(nodes), dict(edges))


def _check_images(images: Mapping, domain_ids: AbstractSet, what: str) -> None:
    """Every key names a domain node (edge) and every image is an id string.

    Keys and image types are compared as whole sets; the scan that names
    the first bad entry runs only where that comparison fails.
    """
    if type(images) is dict and images.keys() <= domain_ids and {*map(type, images.values())} <= {str}:
        return
    for key, image in images.items():
        if key not in domain_ids:
            raise InputError(f"map: {what} key {key!r} names no domain {what}")
        if not isinstance(image, str):
            raise InputError(f"map: image of {what} {key!r} must be an id string, got {image!r}")


def map_to_json(m: NetworkMap) -> dict:
    return {"nodes": dict(m.node_map), "edges": dict(m.edge_map)}


def partition_from_json(obj: Any) -> Partition:
    blocks = _require(obj, "blocks", "partition")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputError("partition: 'blocks' must be a list of lists")
    if not all(isinstance(a, str) for b in blocks for a in b):
        raise InputError("partition: block members must be node id strings")
    return Partition(blocks)


def partition_to_json(p: Partition) -> dict:
    return {"blocks": [list(b) for b in p.blocks]}


def class_dynamics_from_json(obj: Any, net: Network) -> VirtualVectorField:
    """Per-class dynamics: one expression per output component, signatures from the representatives."""
    from .dynamics import per_class_field, signature_at
    from .expr_dsl import parse_control

    classes = _require(obj, "classes", "dynamics")
    if not isinstance(classes, list):
        raise InputError("dynamics: 'classes' must be a list")
    controls = {}
    try:
        for entry in classes:
            rep = _require(entry, "representative", "dynamics class")
            if not isinstance(rep, str):
                raise InputError(f"dynamics class: 'representative' must be a node id string, got {rep!r}")
            if rep in controls:
                raise InputError(f"dynamics class: representative {rep!r} is listed twice")
            exprs = _require(entry, "exprs", "dynamics class")
            if not isinstance(exprs, list) or not all(isinstance(s, str) for s in exprs):
                raise InputError("dynamics class: 'exprs' must be a list of strings")
            signature = signature_at(net, rep)
            try:
                controls[rep] = parse_control(exprs, signature)
            except (InputError, PreconditionError) as exc:  # a syntax error, or a component count off the root's dim
                raise InputError(f"dynamics class {rep!r}: {exc}") from None
        return per_class_field(net, controls)
    except PreconditionError as exc:  # file inconsistent with the network
        raise InputError(f"dynamics: {exc}") from None


def class_dynamics_to_json(field: VirtualVectorField) -> dict:
    if field.mode != "per_class":
        raise InputError("only per-class dynamics have a class JSON form")
    exprs = _expression_printer()
    return {"classes": [{"representative": r, "exprs": exprs(field.controls[r])} for r in sorted(field.controls)]}


def node_dynamics_to_json(field: VirtualVectorField) -> dict:
    """Per-node bindings; requires expression controls."""
    exprs = _expression_printer()
    return {"nodes": [{"id": a, "exprs": exprs(field.control_at(a))} for a in sorted(field.network.graph.nodes)]}


def _expression_printer():
    """A function from a control to a fresh list of its component sources.

    Each distinct control is printed once per printer: the members of a class
    share their representative's control object.
    """
    from .expr_dsl import ControlExpr

    printed: dict[int, tuple[str, ...]] = {}  # id(control) -> its sources, for controls the field holds

    def exprs(ctrl) -> list[str]:
        if not isinstance(ctrl, ControlExpr):
            raise InputError("opaque controls cannot be serialized")
        sources = printed.get(id(ctrl))
        if sources is None:
            sources = printed[id(ctrl)] = ctrl.sources()
        return list(sources)

    return exprs


def _finite_number(v: Any) -> bool:
    """A JSON number with a finite float value; booleans, null, strings and lists are not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _coordinates(values: Any, dim: int, what: str) -> list:
    """``values`` checked to be a list of ``dim`` finite numbers."""
    if not isinstance(values, list) or len(values) != dim or not all(map(_finite_number, values)):
        raise InputError(f"state: {what} must be a list of {dim} finite numbers")
    return values


def state_from_json(obj: Any, index: StateIndex) -> np.ndarray:
    """Flat state from {"flat": [...]} or {"by_node": {id: [...]}}; every coordinate a finite number.

    A ``by_node`` state is checked node by node in layout order, then for
    unknown nodes, and made one array from the concatenated coordinates.
    """
    import numpy as np

    if isinstance(obj, Mapping) and "flat" in obj:
        return np.array(_coordinates(obj["flat"], index.total_dim, "'flat'"), dtype=float)
    if isinstance(obj, Mapping) and "by_node" in obj:
        by_node = obj["by_node"]
        if not isinstance(by_node, Mapping):
            raise InputError("state: 'by_node' must be an object")
        flat: list = []
        for a in index.order:
            if a not in by_node:
                raise InputError(f"state: missing node {a!r}")
            flat += _coordinates(by_node[a], index.spaces[a].dim, f"node {a!r}")
        for a in by_node:
            if a not in index.slices:
                raise InputError(f"state: unknown node {a!r}")
        return np.array(flat, dtype=float)
    raise InputError("state: expected 'flat' or 'by_node'")
