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
from typing import Mapping, Sequence, Union

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
    group_positions,
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


def _tree_for(ctrl: Control, net: Network, a: NodeId) -> InputTree:
    """The input tree of node ``a``, checked against the control's root space."""
    tree = input_tree(net, a)
    if ctrl.signature.root.dim != tree.root_type.dim:
        raise SignatureMismatch(f"control for root space {ctrl.signature.root.name} at node {a!r}")
    return tree


def _bind_at(ctrl: Control, net: Network, a: NodeId) -> tuple[InputTree, Kernel]:
    """Bind a control to the input tree of node ``a``, checking its root space."""
    tree = _tree_for(ctrl, net, a)
    return tree, bind_control(ctrl, [(l.edge_id, l.leaf_type) for l in tree.leaves])


def ctrl_transport(iso: TreeIso, ctrl: Control) -> Control:
    """Transport a control along an input-tree isomorphism.

    Expression controls are symmetric in same-type inputs and leaf types are
    preserved, so they transport to themselves; opaque controls acquire a
    re-indexing layer.  The root differential is the identity on coordinate
    spaces.
    """
    if isinstance(ctrl, ControlExpr) or iso.is_identity:
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
        return ctrl_transport(cls.witnesses[a].inverse(), ctrl)


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

    Nodes that share one expression control, as the members of a groupoid
    class do, are evaluated together: one gather of their root and input
    states, one call of the compiled control, one scatter.  Raw and
    transported controls are bound and evaluated node by node.
    """

    def __init__(self, net: Network, w: VirtualVectorField):
        if not w.network.is_same(net):
            raise PreconditionError("virtual vector field was built for a different network")
        self.network = net
        self.index = total_phase_space(net)
        # (target, kernel, input gathers), in the order of each unit's first node
        self._units: list = []
        batches: dict[tuple, tuple[int, ControlExpr, list]] = {}
        for a in self.index.order:
            ctrl = w.control_at(a)
            tree = _tree_for(ctrl, net, a)
            if isinstance(ctrl, ControlExpr):
                groups = group_positions(ctrl.signature, [l.leaf_type for l in tree.leaves])
                sources = [[tree.leaves[i].source_node for i in pos] for pos in groups]
                key = (id(ctrl), tuple(map(len, sources)))  # one control object, one shape of inputs
                if key not in batches:
                    batches[key] = (len(self._units), ctrl, [])
                    self._units.append(None)
                batches[key][2].append((a, sources))
            else:
                kernel = bind_control(ctrl, [(l.edge_id, l.leaf_type) for l in tree.leaves])
                in_slices = [self.index.slice_of(l.source_node) for l in tree.leaves]
                self._units.append((self.index.slice_of(a), kernel, in_slices))
        for (_, counts), (unit, ctrl, members) in batches.items():
            roots, inputs = self._gathers(ctrl, counts, members)
            self._units[unit] = (roots, compile_control(ctrl), inputs)

    def _gathers(self, ctrl: ControlExpr, counts: tuple[int, ...], members: list) -> tuple[np.ndarray, list]:
        """Flat indices of the members' roots, (m, d_root), and of each group's inputs, (m, count, dim)."""
        m = len(members)
        roots = self.index.gather(a for a, _ in members).reshape(m, ctrl.signature.root.dim)
        dims = [dim for dim, _ in ctrl.signature.groups().values()]
        inputs = [
            self.index.gather(src for _, sources in members for src in sources[g]).reshape(m, count, dim)
            for g, (count, dim) in enumerate(zip(counts, dims))
        ]
        return roots, inputs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.index.total_dim,):
            raise PreconditionError(
                f"state has shape {x.shape}, expected ({self.index.total_dim},)"
            )
        out = np.empty(self.index.total_dim)
        for target, kernel, gathers in self._units:
            out[target] = kernel(x[target], [x[g] for g in gathers])
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
    if not w_prime.network.is_same(m.codomain):
        raise PreconditionError("field is not defined on the codomain of the map")

    def pulled(a: NodeId) -> Control:
        iso = induced_tree_map(m, a).as_iso()
        return ctrl_transport(iso.inverse(), w_prime.control_at(m.node(a)))

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
