"""Virtual vector fields, control transport, interconnection, and pullback.

A virtual vector field assigns to each node a control whose arguments are the
node's own state plus one typed input per in-edge.  Interconnection feeds the
in-edge source states into those controls, yielding a genuine vector field on
the flat total state.  Along a fibration, controls transport backwards
through the induced input-tree isomorphisms; since all phase spaces here are
coordinate spaces, the root differential is the identity and transport is
pure input re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import FibrationRequired, PreconditionError, SignatureMismatch
from .expr_dsl import (
    ControlExpr,
    ControlSignature,
    Kernel,
    RawControl,
    as_state,
    bind,
    compile_control,
)
from .fibrations import check_fibration, essential_image
from .graphs import Network, NetworkMap, NodeId, PhaseSpace, total_phase_space
from .input_trees import (
    InputTree,
    SymmetryGroupoid,
    TreeIso,
    induced_tree_map,
    input_tree,
    symmetry_groupoid,
)
from .sampling import sample_space

LabelledInput = tuple[str, PhaseSpace, np.ndarray]  # (edge id, source space, state)


@dataclass(frozen=True)
class TransportedControl:
    """A control moved to another input tree by re-indexing its inputs.

    ``source_to_current`` maps the base control's leaf edge ids to leaf edge
    ids of the tree the control now lives on.
    """

    base: Union[ControlExpr, RawControl]
    source_to_current: Mapping[str, str]

    @property
    def signature(self) -> ControlSignature:
        return self.base.signature


Control = Union[ControlExpr, RawControl, TransportedControl]


def signature_at(net: Network, a: NodeId) -> ControlSignature:
    tree = input_tree(net, a)
    return ControlSignature(tree.root_type, tuple(l.leaf_type for l in tree.leaves))


def bind_control(ctrl: Control, slots: Sequence[tuple[str, PhaseSpace]]) -> Kernel:
    """Bind any control kind to its input slots (edge id, source space) once.

    Returns ``f(root, states)`` on one flat state per slot, in slot order.
    """
    if isinstance(ctrl, ControlExpr):
        return bind(ctrl, [space for _, space in slots])
    if isinstance(ctrl, RawControl):
        ids, fn, dim = tuple(eid for eid, _ in slots), ctrl.fn, ctrl.signature.root.dim
        return lambda root, states: as_state(fn(root, tuple(zip(ids, states))), dim, "raw control tangent vector")
    if isinstance(ctrl, TransportedControl):
        position = {eid: i for i, (eid, _) in enumerate(slots)}
        order = sorted(ctrl.source_to_current)
        perm = [position[ctrl.source_to_current[src]] for src in order]
        inner = bind_control(ctrl.base, [(src, slots[i][1]) for src, i in zip(order, perm)])
        return lambda root, states: inner(root, [states[i] for i in perm])
    raise TypeError(f"not a control: {ctrl!r}")


def eval_control(ctrl: Control, root: np.ndarray, inputs: Sequence[LabelledInput]) -> np.ndarray:
    """Evaluate any control kind on labelled inputs (edge id, space, state)."""
    root = as_state(root, ctrl.signature.root.dim, "root state")
    kernel = bind_control(ctrl, [(eid, space) for eid, space, _ in inputs])
    states = [as_state(state, space.dim, f"input on edge {eid!r}") for eid, space, state in inputs]
    return kernel(root, states)


def _bind_at(ctrl: Control, net: Network, a: NodeId) -> tuple[InputTree, Kernel]:
    """Bind a control to the input tree of node ``a``, checking its root space."""
    tree = input_tree(net, a)
    if ctrl.signature.root.dim != tree.root_type.dim:
        raise SignatureMismatch(f"control for root space {ctrl.signature.root.name} at node {a!r}")
    return tree, bind_control(ctrl, [(l.edge_id, l.leaf_type) for l in tree.leaves])


def ctrl_transport(iso: TreeIso, ctrl: Control) -> Control:
    """Transport a control along an input-tree isomorphism.

    Expression controls are symmetric in same-type inputs and leaf types are
    preserved, so they transport to themselves; opaque controls acquire a
    re-indexing layer.  The root differential is the identity on coordinate
    spaces.
    """
    return _transported(ctrl, lambda: iso)


def _transported(ctrl: Control, iso_of: Callable[[], TreeIso]) -> Control:
    """:func:`ctrl_transport` along ``iso_of()``, built only for controls that read it."""
    if isinstance(ctrl, ControlExpr):
        return ctrl
    iso = iso_of()
    if iso.is_identity:
        return ctrl
    if isinstance(ctrl, RawControl):
        return TransportedControl(ctrl, dict(iso.leaf_bijection))
    if isinstance(ctrl, TransportedControl):
        composed = {
            src: iso.leaf_bijection[cur] for src, cur in ctrl.source_to_current.items()
        }
        return TransportedControl(ctrl.base, composed)
    raise TypeError(f"not a control: {ctrl!r}")


def _check_signature(ctrl: Control, expected: ControlSignature, where: str) -> None:
    if ctrl.signature != expected:
        raise SignatureMismatch(
            f"control at {where} has signature ({ctrl.signature.root.name}; "
            f"{[s.name for s in ctrl.signature.inputs]}), expected ({expected.root.name}; "
            f"{[s.name for s in expected.inputs]})"
        )


@dataclass(frozen=True)
class VirtualVectorField:
    """Controls for every node, stored per node or once per groupoid class."""

    network: Network
    mode: str  # "per_node" | "per_class"
    controls: Mapping[NodeId, Control]
    groupoid: SymmetryGroupoid | None = None

    def control_at(self, a: NodeId) -> Control:
        if self.mode == "per_node":
            return self.controls[a]
        assert self.groupoid is not None
        cls = self.groupoid.class_of(a)
        ctrl = self.controls[cls.representative]
        if a == cls.representative:
            return ctrl
        return _transported(ctrl, lambda: cls.witnesses[a].inverse())


def per_node_field(net: Network, controls: Mapping[NodeId, Control]) -> VirtualVectorField:
    for a in net.graph.nodes:
        if a not in controls:
            raise PreconditionError(f"no control for node {a!r}")
        _check_signature(controls[a], signature_at(net, a), f"node {a!r}")
    return VirtualVectorField(net, "per_node", dict(controls))


def per_class_field(
    net: Network,
    controls: Mapping[NodeId, Control],
    groupoid: SymmetryGroupoid | None = None,
) -> VirtualVectorField:
    g = groupoid if groupoid is not None else symmetry_groupoid(net)
    for cls in g.classes:
        if cls.representative not in controls:
            raise PreconditionError(f"no control for class of {cls.representative!r}")
        _check_signature(
            controls[cls.representative],
            signature_at(net, cls.representative),
            f"class representative {cls.representative!r}",
        )
    extra = set(controls) - set(g.representatives())
    if extra:
        raise PreconditionError(f"controls keyed by non-representatives: {sorted(extra)}")
    return VirtualVectorField(net, "per_class", dict(controls), g)


def lift_to_nodes(g: SymmetryGroupoid, per_class: Mapping[NodeId, Control]) -> VirtualVectorField:
    """Materialise a per-class assignment as a per-node field via the stored witnesses."""
    field = per_class_field(g.network, per_class, g)
    return VirtualVectorField(
        g.network, "per_node", {a: field.control_at(a) for a in g.network.graph.nodes}
    )


class GlobalField:
    """The interconnected vector field on the flat total state of a network.

    Nodes that share one expression control and one shape of typed inputs,
    as the members of a groupoid class do, are evaluated together: one
    gather of their root and input states, one call of the compiled control,
    one scatter.  The gathers are built from the in-edge index.  Raw and
    transported controls are bound and evaluated node by node.

    A call takes one state of shape ``(total_dim,)`` or a batch of shape
    ``(samples, total_dim)``; each row of a batch gives the bits a call on
    that row alone gives.
    """

    def __init__(self, net: Network, w: VirtualVectorField):
        if not w.network.is_same(net):
            raise PreconditionError("virtual vector field was built for a different network")
        self.network = net
        self.index = index = total_phase_space(net)
        name = {a: space.name for a, space in net.phase.items()}
        # (target, kernel, input gathers), in the order of each unit's first node
        self._units: list = []
        # (id of the control, input counts per group) -> (unit, control, roots, sources per group)
        batches: dict[tuple, tuple] = {}
        slots: dict[int, dict[str, int]] = {}  # id of the control -> group name -> group position
        for a in index.order:
            ctrl = w.control_at(a)
            if ctrl.signature.root.dim != index.spaces[a].dim:
                raise SignatureMismatch(f"control for root space {ctrl.signature.root.name} at node {a!r}")
            edges = net.in_edges(a)
            if not isinstance(ctrl, ControlExpr):
                kernel = bind_control(ctrl, [(e.edge_id, net.space(e.src)) for e in edges])
                self._units.append((index.slice_of(a), kernel, [index.slice_of(e.src) for e in edges]))
                continue
            slot = slots.get(id(ctrl))
            if slot is None:
                slot = slots[id(ctrl)] = {t: g for g, t in enumerate(ctrl.signature.groups())}
            sources: list[list[NodeId]] = [[] for _ in slot]
            for e in edges:
                g = slot.get(name[e.src])
                if g is None:
                    raise SignatureMismatch(f"input of type {name[e.src]} not in signature groups {sorted(slot)}")
                sources[g].append(e.src)
            key = (id(ctrl), tuple(map(len, sources)))
            batch = batches.get(key)
            if batch is None:
                batch = batches[key] = (len(self._units), ctrl, [], [[] for _ in slot])
                self._units.append(None)
            batch[2].append(a)
            for acc, src in zip(batch[3], sources):
                acc.extend(src)
        for (_, counts), (unit, ctrl, roots, sources) in batches.items():
            m = len(roots)
            dims = [dim for dim, _ in ctrl.signature.groups().values()]
            root_gather = index.gather(roots).reshape(m, ctrl.signature.root.dim)
            input_gathers = [
                index.gather(src).reshape(m, count, dim) for src, count, dim in zip(sources, counts, dims)
            ]
            self._units[unit] = (root_gather, compile_control(ctrl), input_gathers)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.index.total_dim
        if x.shape[-1:] != (n,) or x.ndim > 2:
            raise PreconditionError(f"state has shape {x.shape}, expected ({n},) or (samples, {n})")
        out = np.empty(x.shape)
        for target, kernel, gathers in self._units:
            if isinstance(target, slice):  # a raw or transported control at one node: row by row
                for row, row_out in zip(np.atleast_2d(x), np.atleast_2d(out)):
                    row_out[target] = kernel(row[target], [row[g] for g in gathers])
            elif x.ndim == 1:  # one state, as integrate passes: the batch reshapes cost about 1 us a unit
                out[target] = kernel(x[target], [x[g] for g in gathers])
            else:  # S rows of m members are S*m members of one kernel call
                tangents = kernel(
                    x[:, target].reshape(-1, target.shape[1]),
                    [x[:, g].reshape((-1,) + g.shape[1:]) for g in gathers],
                )
                out[:, target] = tangents.reshape(x.shape[:1] + target.shape)
        return out


def interconnect(net: Network, w: VirtualVectorField) -> GlobalField:
    """Assemble node controls into a vector field: each node eats its own slice plus its in-edge source slices."""
    return GlobalField(net, w)


def pullback(m: NetworkMap, w_prime: VirtualVectorField) -> VirtualVectorField:
    """Pull a codomain virtual vector field back along a fibration.

    Each node receives the control of its image, re-indexed through the
    inverse of the induced input-tree isomorphism.  Per-class fields stay
    per-class (domain classes map into codomain classes).
    """
    if not check_fibration(m).is_fibration:
        raise FibrationRequired("pullback requires a fibration")
    return _pullback(m, w_prime)


def _pullback(m: NetworkMap, w_prime: VirtualVectorField) -> VirtualVectorField:
    """:func:`pullback` for a map its caller has already checked to be a fibration.

    Every induced input-tree map of a fibration is an isomorphism; it is
    built only for the controls that read it.
    """
    if not w_prime.network.is_same(m.codomain):
        raise PreconditionError("field is not defined on the codomain of the map")

    def pulled(a: NodeId) -> Control:
        return _transported(w_prime.control_at(m.node(a)), lambda: induced_tree_map(m, a).as_iso().inverse())

    if w_prime.mode == "per_class":
        g = symmetry_groupoid(m.domain)
        return VirtualVectorField(
            m.domain, "per_class", {r: pulled(r) for r in g.representatives()}, g
        )
    return VirtualVectorField(
        m.domain, "per_node", {a: pulled(a) for a in m.domain.graph.nodes}
    )


def check_invariance(ctrl: Control, a: NodeId, net: Network, trials: int = 200, seed: int = 0) -> float:
    """Max residual of the control under random same-type leaf permutations.

    Samples random root/input states and random elements of the node's
    automorphism group (leaf permutations); expression controls come out at
    exactly zero because aggregation is canonicalized.
    """
    tree, kernel = _bind_at(ctrl, net, a)
    groups = tree.type_groups().values()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        root = sample_space(tree.root_type, rng)
        values = {l.edge_id: sample_space(l.leaf_type, rng) for l in tree.leaves}
        sigma: dict[str, str] = {}
        for leaves in groups:
            ids = [l.edge_id for l in leaves]
            sigma.update(zip(ids, map(str, rng.permutation(ids))))
        before = kernel(root, [values[l.edge_id] for l in tree.leaves])
        after = kernel(root, [values[sigma[l.edge_id]] for l in tree.leaves])
        worst = np.maximum(worst, np.abs(before - after).max())  # unlike max(), propagates NaN
    return float(worst)


def _vanishes_on_samples(
    ctrl: Control, net: Network, a: NodeId, samples: int, rng: np.random.Generator, tol: float
) -> bool:
    """Whether the control at node ``a`` stays within ``tol`` of zero at random states."""
    tree, kernel = _bind_at(ctrl, net, a)
    for _ in range(samples):
        root = sample_space(tree.root_type, rng)
        value = np.abs(kernel(root, [sample_space(l.leaf_type, rng) for l in tree.leaves])).max()
        if not value <= tol:  # NaN does not vanish
            return False
    return True


def pullback_kernel_check(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    samples: int = 100,
    seed: int = 0,
    tol: float = 0.0,
) -> bool:
    """Numerical surrogate for the kernel description of the pullback.

    Returns True when "the pulled-back field vanishes at all samples" agrees
    with "the codomain field vanishes on every class meeting the essential
    image".
    """
    if w_prime.mode != "per_class":
        raise PreconditionError("pullback_kernel_check expects a per-class field")
    assert w_prime.groupoid is not None
    pulled = pullback(m, w_prime)
    essim = essential_image(m)
    reps = [c.representative for c in w_prime.groupoid.classes if essim.intersection(c.members)]
    rng = np.random.default_rng(seed)
    pulled_zero = all(
        _vanishes_on_samples(pulled.control_at(a), m.domain, a, samples, rng, tol)
        for a in sorted(m.domain.graph.nodes)
    )
    field_zero = all(_vanishes_on_samples(w_prime.control_at(r), m.codomain, r, samples, rng, tol) for r in reps)
    return pulled_zero == field_zero
