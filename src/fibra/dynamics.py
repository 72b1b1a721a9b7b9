"""Virtual vector fields, control transport, interconnection, and pullback.

A virtual vector field assigns to each node a control whose arguments are the
node's own state plus one typed input per in-edge.  Interconnection feeds the
in-edge source states into those controls, yielding a genuine vector field on
the flat total state.  Along a fibration, controls transport backwards
through the induced input-tree isomorphisms; since all phase spaces here are
coordinate spaces, the root differential is the identity and transport is
pure input re-indexing, fixed when a raw control moves: it keeps its callable
and records the edge ids it reads, which every field and binding checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Collection, Mapping, Sequence, Union

import numpy as np

from .errors import FibrationRequired, PreconditionError, SignatureMismatch
from .expr_dsl import (
    BatchKernel,
    ControlExpr,
    ControlSignature,
    RawControl,
    as_state,
    compile_control,
    group_positions,
    member_groups,
    stack_columns,
)
from .fibrations import check_fibration, essential_image
from .graphs import Network, NetworkMap, NodeId, Partition, PhaseSpace, StateIndex, gather_runs, total_phase_space
from .input_trees import TreeIso, canonical_isos, induced_tree_map, input_tree, symmetry_groupoid
from .sampling import check_count, sample_space

LabelledInput = tuple[str, PhaseSpace, np.ndarray]  # (edge id, source space, state)


Control = Union[ControlExpr, RawControl]


def signature_at(net: Network, a: NodeId) -> ControlSignature:
    """The signature of the input tree of ``a``, read from its in-edges once per network and node.

    A loader parses a class's expressions against its representative's
    signature, and the field it builds checks the control against the same
    one, which the network keeps (``Network._signatures``).
    """
    signature = net._signatures.get(a)
    if signature is None:
        if a not in net.graph.node_set:
            raise PreconditionError(f"unknown node id {a!r}")
        phase = net.phase
        inputs = tuple(phase[src] for _, src in net.graph._index.in_pairs(a))
        signature = net._signatures[a] = ControlSignature(phase[a], inputs)
    return signature


def bind_control(ctrl: Control, slots: Sequence[tuple[str, PhaseSpace]], where: str = "its slots") -> BatchKernel:
    """Bind any control kind to its input slots (edge id, source space) once.

    Returns the kernel ``f(roots, groups) -> columns`` of
    :func:`compile_control` for m members: ``roots`` is (m, d_root) and
    ``groups`` holds, per type group of the signature, the states of that
    group's slots in slot order as one (m, count, dim) array, with the counts
    the slots fix.  The result holds one column per root coordinate, an (m,)
    array or a float.  An expression control is its kernel compiled for those
    counts.  A raw control's callable is called member by member on the
    member's (edge id, state) pairs in slot order, or on a moved control's
    ``reads`` labels with the states they read (slots of other edge ids raise
    :class:`SignatureMismatch` naming ``where``), and returns the tangents.
    """
    positions = group_positions(ctrl.signature, [space for _, space in slots])
    if isinstance(ctrl, ControlExpr):
        return compile_control(ctrl, list(map(len, positions)))
    place = {i: (g, k) for g, pos in enumerate(positions) for k, i in enumerate(pos)}
    ids, at = [eid for eid, _ in slots], [place[i] for i in range(len(slots))]  # label, (group, position in it)
    if ctrl.reads is not None:  # moved: each label reads the slot of its edge id
        _check_placement(ctrl, ids, where)
        slot = dict(zip(ids, at))
        ids, at = [label for label, _ in ctrl.reads], [slot[eid] for _, eid in ctrl.reads]
    fn, dim = ctrl.fn, ctrl.signature.root.dim

    def kernel(roots: np.ndarray, groups: Sequence[np.ndarray]) -> list[np.ndarray]:
        out = np.empty((len(roots), dim))
        for i, root in enumerate(roots):
            states = tuple((eid, groups[g][i, k]) for eid, (g, k) in zip(ids, at))
            out[i] = as_state(fn(root, states), dim, "raw control tangent vector")
        return list(out.T)

    return kernel


def eval_control(ctrl: Control, root: np.ndarray, inputs: Sequence[LabelledInput]) -> np.ndarray:
    """Evaluate any control kind on labelled inputs (edge id, space, state): a kernel call for one member."""
    root = as_state(root, ctrl.signature.root.dim, "root state")
    kernel = bind_control(ctrl, [(eid, space) for eid, space, _ in inputs], "its labelled inputs")
    groups = member_groups(ctrl.signature, [(space, state) for _, space, state in inputs])
    with np.errstate(all="ignore"):
        return stack_columns(kernel(root[np.newaxis], groups), 1)[0]


def ctrl_transport(iso: TreeIso, ctrl: Control) -> Control:
    """Transport a control along an input-tree isomorphism.

    ``iso`` maps the leaf ids of the tree the control is written for to those
    of the tree it moves to.  Expression controls are symmetric in same-type
    inputs and leaf types are preserved, so they transport to themselves, as
    does any control along an identity.  A raw control keeps its signature
    and callable, and each label it passes reads the image under ``iso`` of
    the edge id it read (``RawControl.reads``), so k moves compose to one
    tuple and equal moves compare equal; one that does not read ``iso``'s
    source leaves raises :class:`SignatureMismatch`.
    """
    if isinstance(ctrl, ControlExpr) or iso.is_identity:
        return ctrl
    if not isinstance(ctrl, RawControl):
        raise TypeError(f"not a control: {ctrl!r}")
    _check_placement(ctrl, iso.leaf_bijection, f"the source {iso.source!r} of an isomorphism")
    reads = ctrl.reads if ctrl.reads is not None else [(eid, eid) for eid in sorted(iso.leaf_bijection)]
    return replace(ctrl, reads=tuple((label, iso.leaf_bijection[eid]) for label, eid in reads))


def _transported(ctrl: Control, iso_of: Callable[[], TreeIso]) -> Control:
    """:func:`ctrl_transport` along ``iso_of()``, built only for controls that read it."""
    return ctrl if isinstance(ctrl, ControlExpr) else ctrl_transport(iso_of(), ctrl)


def _check_signature(ctrl: Control, expected: ControlSignature, where: str) -> None:
    if ctrl.signature != expected:
        got, want = (f"({sig.root.name}; {[s.name for s in sig.inputs]})" for sig in (ctrl.signature, expected))
        raise SignatureMismatch(f"control at {where} has signature {got}, expected {want}")


def _check_placement(ctrl: RawControl, ids: Collection[str], where: str) -> None:
    """Refuse a moved raw control at other edge ids than the ones it reads."""
    if ctrl.reads is not None and sorted(e for _, e in ctrl.reads) != sorted(ids):
        raise SignatureMismatch(f"control at {where} reads edge ids {sorted(e for _, e in ctrl.reads)}, expected {sorted(ids)}")


@dataclass(frozen=True)
class VirtualVectorField:
    """Controls for every node, stored per node or once per class of the network's groupoid.

    Checked once, when built: the mode is known, each node (per node) or each
    class representative (per class) has a control of its own signature, a
    moved raw control reads that node's in-edges, and no control is keyed by
    any other id; every signature is read from the network.  The field keeps
    its own copy of ``controls``, so every reader can trust it.
    """

    network: Network
    mode: str  # "per_node" | "per_class"
    controls: Mapping[NodeId, Control]

    def __post_init__(self) -> None:
        net, controls = self.network, dict(self.controls)
        object.__setattr__(self, "controls", controls)
        if self.mode == "per_node":
            keys, owner, where, others = net.graph.nodes, "node", "node", "unknown node ids"
        elif self.mode == "per_class":
            keys, owner, where = self.groupoid.representatives(), "class of", "class representative"
            others = "non-representatives"
        else:
            raise PreconditionError(f"unknown field mode {self.mode!r}")
        for a in keys:
            if a not in controls:
                raise PreconditionError(f"no control for {owner} {a!r}")
            _check_signature(controls[a], signature_at(net, a), f"{where} {a!r}")
            if isinstance(controls[a], RawControl):  # an expression reads no edge ids
                _check_placement(controls[a], [e.edge_id for e in net.in_edges(a)], f"{where} {a!r}")
        extra = controls.keys() - set(keys)
        if extra:
            raise PreconditionError(f"controls keyed by {others}: {sorted(extra)}")

    @property
    def groupoid(self) -> Partition:
        """The classes of the network's groupoid, by whose block ids a per-class field's controls are keyed."""
        return symmetry_groupoid(self.network)

    def control_at(self, a: NodeId) -> Control:
        if a not in self.network.graph.node_set:
            raise PreconditionError(f"unknown node id {a!r}")
        if self.mode == "per_node":
            return self.controls[a]
        rep = self.groupoid.block_id(a)  # the identity from a representative to itself moves nothing
        return _transported(self.controls[rep], lambda: canonical_isos(self.network, [rep], a)[0])


def per_node_field(net: Network, controls: Mapping[NodeId, Control]) -> VirtualVectorField:
    return VirtualVectorField(net, "per_node", controls)


def per_class_field(net: Network, controls: Mapping[NodeId, Control]) -> VirtualVectorField:
    return VirtualVectorField(net, "per_class", controls)


def lift_to_nodes(net: Network, per_class: Mapping[NodeId, Control]) -> VirtualVectorField:
    """Materialise a per-class assignment on ``net`` as a per-node field, each control moved along its class."""
    field = per_class_field(net, per_class)
    return per_node_field(net, {a: field.control_at(a) for a in net.graph.nodes})


def _compact(index: np.ndarray) -> slice | np.ndarray:
    """A 1-D gather as the slice that reads the same coordinates, where one does; else a contiguous copy.

    A slice reads a view and writes without an index array.
    """
    index = np.ascontiguousarray(index)
    first, n = int(index[0]), len(index)
    step = int(index[1]) - first if n > 1 else 1
    if step > 0 and int(index[-1]) == first + (n - 1) * step and (n < 3 or (np.diff(index) == step).all()):
        return slice(first, first + (n - 1) * step + 1, step)
    return index


class GlobalField:
    """The interconnected vector field on the flat total state of one or more networks.

    ``GlobalField(net, w)`` is the field of one network, laid out as
    :func:`total_phase_space` lays it out.  Each further ``(network, field)``
    part follows the ones before it in the same flat state: a system on a
    disjoint union of networks is itself a network system.  ``index`` then
    keys node ``a`` of the i-th part (the first is part 0) as ``(i, a)``,
    and ``network`` is the first part's network.

    The nodes of a groupoid class share their class's control, whatever its
    kind, and form one unit bound at the class representative: the canonical
    isomorphism that moves the control within its class pairs same-type
    inputs by position in edge-id order, the order in which each member's
    inputs are gathered, so it moves no kernel position.  The nodes of a
    per-node field that share one expression control form one unit too, in
    whichever parts they lie (a pulled-back field holds the very controls of
    the field it was pulled back from); a node of a per-node field with a raw
    control, transported or not, is a unit of its own.  Each unit's
    kernel is bound once, to the input counts its gathers fix, and each call
    evaluates it with one gather of its root and one of each input group's
    states, then writes each of its columns through that coordinate's own
    index.  The gathers of all units are views of one gather, built through
    each part's own layout plus the part's offset.

    A call takes one state of shape ``(total_dim,)`` or a batch of shape
    ``(samples, total_dim)``; each row of a batch gives the bits a call on
    that row alone gives, and each part's columns give the bits that part's
    own field gives.
    """

    def __init__(self, net: Network, w: VirtualVectorField, *more: tuple[Network, VirtualVectorField]):
        parts = ((net, w), *more)
        for part_net, part_w in parts:
            if not part_w.network.is_same(part_net):
                raise PreconditionError("virtual vector field was built for a different network")
        self.network = net
        indexes = [total_phase_space(part_net) for part_net, _ in parts]
        self.index = StateIndex.joint(indexes) if more else indexes[0]
        # the id of an expression control, or the part and first node (a class's representative) of any
        # other control -> [control, slots of its first node, flat starts of its roots, flat starts of its
        # sources per group], in the order of each unit's first node; the fields have checked that each
        # node's or representative's control has its signature, which a class's members share, so the
        # nodes of one unit hold the same number of inputs per group
        units: dict = {}
        off = 0
        for i, ((part_net, part_w), part_index) in enumerate(zip(parts, indexes)):
            slices, spaces, graph_index = part_index.slices, part_index.spaces, part_net.graph._index
            if part_w.mode == "per_node":
                runs = [(part_w.controls[a], (a,)) for a in part_index.order]
            else:  # blocks come in the order of their least member, the layout order
                runs = [(part_w.controls[b[0]], b) for b in part_w.groupoid.blocks]
            for ctrl, nodes in runs:
                key = id(ctrl) if isinstance(ctrl, ControlExpr) else (i, nodes[0])
                unit = units.get(key)
                if unit is None:
                    slots = [(eid, spaces[src]) for eid, src in graph_index.in_pairs(nodes[0])]
                    unit = units[key] = [ctrl, slots, [], [[] for _ in ctrl.signature.group_index]]
                _, _, roots, sources = unit
                roots += [slices[a][0] + off for a in nodes]
                if len(sources) == 1:  # every input is of the one group
                    sources[0] += [slices[src][0] + off for a in nodes for _, src in graph_index.in_pairs(a)]
                    continue
                group = ctrl.signature.group_index
                for a in nodes:
                    for _, src in graph_index.in_pairs(a):
                        sources[group[spaces[src].name]].append(slices[src][0] + off)
            off += part_index.total_dim
        # every unit's roots, then its sources group by group, in one gather cut into views
        shapes = []
        for ctrl, _, roots, sources in units.values():
            m = len(roots)
            shapes.append((m, ctrl.signature.root.dim))
            shapes += [(m, len(src) // m, dim) for src, (dim, _) in zip(sources, ctrl.signature.groups().values())]
        starts = np.fromiter(
            chain.from_iterable(chain(roots, *sources) for _, _, roots, sources in units.values()), dtype=np.intp
        )
        lengths = np.repeat(  # each node's dim, once per node
            np.array([shape[-1] for shape in shapes], dtype=np.intp),
            np.array([math.prod(shape[:-1]) for shape in shapes], dtype=np.intp),
        )
        flat = gather_runs(starts, lengths)
        views, at = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[at : at + size].reshape(shape))
            at += size
        views.reverse()
        self._units: list = []  # (root gather, its key for one state, kernel, input gathers, output columns)
        for ctrl, slots, _, _ in units.values():
            target = views.pop()
            gathers = [views.pop() for _ in ctrl.signature.group_index]
            columns = [_compact(target[:, j]) for j in range(target.shape[1])]
            # one state reads the roots of a 1-dim expression unit as a view where its column is a slice;
            # a raw control gets copies, which its callable may change
            view = isinstance(ctrl, ControlExpr) and len(columns) == 1 and isinstance(columns[0], slice)
            key = (columns[0], np.newaxis) if view else target
            self._units.append((target, key, bind_control(ctrl, slots), gathers, columns))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The field at one state ``(total_dim,)`` or at each row of ``(samples, total_dim)``.

        Numpy's error state belongs to the caller: a kernel gives IEEE
        overflow and NaN as Python floats give them only under
        ``np.errstate(all="ignore")``, which ``integrate`` and the batch
        checks enter once around all their calls.  Called outside it, a state
        whose arithmetic overflows may make numpy warn; the values are the same.
        """
        x = self.index.states(x)
        out = np.empty(x.shape)
        if x.ndim == 1:  # one state, as integrate passes: no batch reshape
            for _, roots, kernel, gathers, columns in self._units:
                for column, value in zip(columns, kernel(x[roots], [x[g] for g in gathers])):
                    out[column] = value
            return out
        rows = x.shape[0]
        for target, _, kernel, gathers, columns in self._units:  # S rows of m members are S*m members
            values = kernel(
                x[:, target].reshape(-1, target.shape[1]), [x[:, g].reshape((-1,) + g.shape[1:]) for g in gathers]
            )
            for column, value in zip(columns, values):
                out[:, column] = value.reshape(rows, target.shape[0]) if isinstance(value, np.ndarray) else value
        return out


def interconnect(net: Network, w: VirtualVectorField) -> GlobalField:
    """Assemble node controls into a vector field: each node eats its own slice plus its in-edge source slices."""
    return GlobalField(net, w)


def pullback(m: NetworkMap, w_prime: VirtualVectorField) -> VirtualVectorField:
    """Pull a codomain virtual vector field back along a fibration.

    Each node receives the control of its image, re-indexed through the
    inverse of the induced input-tree isomorphism.  A per-class field whose
    controls are all expressions stays per-class (domain classes map into
    codomain classes, and an expression reads no input order).  A per-class
    field with any other control pulls back node by node, as its
    :func:`lift_to_nodes` does: a raw control need not be symmetric in
    same-type inputs, so each node's control moves along that node's own
    induced isomorphism, not along its class.
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
        return _transported(w_prime.control_at(m.node_map[a]), lambda: induced_tree_map(m, a).as_iso().inverse())

    if w_prime.mode == "per_class" and all(isinstance(c, ControlExpr) for c in w_prime.controls.values()):
        return per_class_field(m.domain, {r: pulled(r) for r in symmetry_groupoid(m.domain).representatives()})
    return per_node_field(m.domain, {a: pulled(a) for a in m.domain.graph.nodes})


def _sampled_at(
    ctrl: Control, net: Network, a: NodeId, count: int, rng: np.random.Generator
) -> tuple[BatchKernel, np.ndarray, list[np.ndarray]]:
    """The control bound to the input tree of node ``a``, and ``count`` random members for it.

    The roots are drawn as one block, then the inputs of each type group.
    """
    tree = input_tree(net, a)
    if ctrl.signature.root.dim != tree.root_type.dim:
        raise SignatureMismatch(f"control for root space {ctrl.signature.root.name} at node {a!r}")
    slots = [(l.edge_id, l.leaf_type) for l in tree.leaves]
    kernel = bind_control(ctrl, slots, f"node {a!r}")
    positions = group_positions(ctrl.signature, [space for _, space in slots])
    spaces = {s.name: s for s in ctrl.signature.inputs}  # one per group, in group order
    roots = sample_space(tree.root_type, rng, (count,))
    return kernel, roots, [sample_space(s, rng, (count, len(pos))) for s, pos in zip(spaces.values(), positions)]


def check_invariance(ctrl: Control, a: NodeId, net: Network, trials: int = 200, seed: int = 0) -> float:
    """Max residual of the control under random same-type leaf permutations.

    Draws every trial's root and input states, then one random permutation
    of each type group per trial, and evaluates the control on the drawn and
    on the permuted inputs in one kernel call each.  Expression controls come
    out at exactly zero because aggregation is canonicalized.
    """
    check_count(trials, "trials")
    rng = np.random.default_rng(seed)
    kernel, roots, groups = _sampled_at(ctrl, net, a, trials, rng)
    rows = np.arange(trials)[:, np.newaxis]
    permuted = [grp[rows, rng.permuted(np.tile(np.arange(grp.shape[1]), (trials, 1)), axis=1)] for grp in groups]
    with np.errstate(all="ignore"):
        drawn, moved = (stack_columns(kernel(roots, inputs), trials) for inputs in (groups, permuted))
    return float(np.abs(drawn - moved).max(initial=0.0))  # unlike max(), propagates NaN


def _vanishes_on_samples(
    ctrl: Control, net: Network, a: NodeId, samples: int, rng: np.random.Generator, tol: float
) -> bool:
    """Whether the control at node ``a`` stays within ``tol`` of zero at random states."""
    kernel, roots, groups = _sampled_at(ctrl, net, a, samples, rng)
    with np.errstate(all="ignore"):
        values = stack_columns(kernel(roots, groups), samples)
    return bool(np.abs(values).max(initial=0.0) <= tol)  # NaN does not vanish


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
    check_count(samples)
    if w_prime.mode != "per_class":
        raise PreconditionError("pullback_kernel_check expects a per-class field")
    pulled = pullback(m, w_prime)
    essim = essential_image(m)
    reps = [b[0] for b in w_prime.groupoid.blocks if essim.intersection(b)]
    rng = np.random.default_rng(seed)
    pulled_zero = all(
        _vanishes_on_samples(pulled.control_at(a), m.domain, a, samples, rng, tol)
        for a in sorted(m.domain.graph.nodes)
    )
    field_zero = all(_vanishes_on_samples(w_prime.control_at(r), m.codomain, r, samples, rng, tol) for r in reps)
    return pulled_zero == field_zero
