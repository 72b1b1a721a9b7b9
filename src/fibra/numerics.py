"""Fixed-step RK4 integration and the numerical certification suite.

Certifies, on concrete fixtures and seeded samples, that the coordinate map
induced by a fibration intertwines the interconnected vector fields: the
pointwise identity between both sides, commutation of the flows, invariance
of synchrony subspaces under surjective fibrations, and autonomy of driving
subsystems under injective ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GlobalField, VirtualVectorField, interconnect, pullback
from .errors import FibrationRequired, IntegrationFault, PreconditionError
from .fibrations import check_fibration, polydiagonal_of
from .graphs import (
    Network,
    NetworkMap,
    NodeId,
    PhaseSpaceMap,
    coordinate_distance,
    phase_space_map,
    total_phase_space,
)
from .sampling import sample_state


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step solution samples; circle coordinates stored unwrapped."""

    times: np.ndarray
    states: np.ndarray  # shape (steps + 1, total_dim)
    h: float
    integrator: str = "rk4"


def _step_count(T: float, h: float) -> int:
    q = T / h
    if abs(q - round(q)) < 1e-9:  # snap float fuzz like 10/1e-3
        return int(round(q))
    return int(math.ceil(q))


def integrate(field: GlobalField, x0: np.ndarray, T: float, h: float) -> Trajectory:
    """Classic fixed-step RK4 with ceil(T/h) steps; faults on non-finite states."""
    if h <= 0:
        raise PreconditionError("step size must be positive")
    if T < 0:
        raise PreconditionError("horizon must be non-negative")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (field.index.total_dim,):
        raise PreconditionError(
            f"initial state has shape {x.shape}, expected ({field.index.total_dim},)"
        )
    n = _step_count(T, h)
    states = np.empty((n + 1, x.shape[0]))
    states[0] = x
    for k in range(n):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise IntegrationFault(k + 1)
        states[k + 1] = x
    times = np.arange(n + 1) * h
    return Trajectory(times, states, h)


def _conjugacy_sides(m: NetworkMap, w_prime: VirtualVectorField) -> tuple[PhaseSpaceMap, GlobalField, GlobalField]:
    """The coordinate map and the fields on the two sides of the intertwining identity."""
    if not check_fibration(m).is_fibration:
        raise FibrationRequired("conjugacy certification requires a fibration")
    return phase_space_map(m), interconnect(m.codomain, w_prime), interconnect(m.domain, pullback(m, w_prime))


def verify_conjugacy_pointwise(
    m: NetworkMap, w_prime: VirtualVectorField, samples: int = 1000, seed: int = 0
) -> float:
    """Max residual between both sides of the intertwining identity at random codomain states."""
    p, codomain_field, domain_field = _conjugacy_sides(m, w_prime)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x_prime = sample_state(p.codomain_index, rng)
        lhs = p.differential(codomain_field(x_prime))
        rhs = domain_field(p(x_prime))
        worst = np.maximum(worst, np.abs(lhs - rhs).max())  # unlike max(), propagates NaN
    return float(worst)


def verify_conjugacy_flow(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    x0_prime: np.ndarray,
    T: float,
    h: float,
) -> float:
    """Max deviation over time between the mapped codomain flow and the domain flow."""
    p, codomain_field, domain_field = _conjugacy_sides(m, w_prime)
    traj_prime = integrate(codomain_field, x0_prime, T, h)
    traj = integrate(domain_field, p(np.asarray(x0_prime, dtype=float)), T, h)
    return float(
        np.max([coordinate_distance(p(xp), x, p.domain_index) for xp, x in zip(traj_prime.states, traj.states)])
    )


def verify_polydiagonal_invariance(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    x0: np.ndarray,
    T: float,
    h: float,
    tol_sync: float = 1e-9,
) -> float:
    """Max distance of the domain trajectory from the synchrony subspace of a surjective fibration."""
    pd = polydiagonal_of(m)
    x0 = np.asarray(x0, dtype=float)
    start_violation = pd.violation(x0)
    if start_violation > tol_sync:
        raise PreconditionError(
            f"initial state violates the synchrony constraints by {start_violation:.3e}"
        )
    domain_field = interconnect(m.domain, pullback(m, w_prime))
    traj = integrate(domain_field, x0, T, h)
    return float(np.max([pd.violation(x) for x in traj.states]))


def _central_differences(field: GlobalField, x: np.ndarray, nodes, step: float):
    """Yield the central-difference derivative of the field along each coordinate of the given nodes."""
    for j in field.index.gather(nodes):
        plus, minus = x.copy(), x.copy()
        plus[j] += step
        minus[j] -= step
        yield (field(plus) - field(minus)) / (2.0 * step)


def dependency_matrix(
    field: GlobalField, x0: np.ndarray, step: float = 1e-6, tol: float = 1e-8
) -> dict[NodeId, set[NodeId]]:
    """Which nodes each component reacts to, by central finite differences at x0."""
    x0 = np.asarray(x0, dtype=float)
    index = field.index
    offsets = [index.slices[a][0] for a in index.order]
    deps: dict[NodeId, set[NodeId]] = {a: set() for a in index.order}
    for c in index.order:
        for diff in _central_differences(field, x0, [c], step):
            per_node = np.maximum.reduceat(np.abs(diff), offsets)
            for a, reacts in zip(index.order, ~(per_node <= tol)):  # NaN counts as a dependency
                if reacts:
                    deps[a].add(c)
    return deps


def expected_dependencies(net: Network) -> dict[NodeId, set[NodeId]]:
    """Structural dependencies: a node and the sources of its in-edges."""
    return {
        a: {a} | {e.src for e in net.in_edges(a)} for a in net.graph.nodes
    }


@dataclass(frozen=True)
class DrivingReport:
    """Outcome of the driving-subsystem check for an injective map."""

    ok: bool
    is_fibration: bool
    feedback_edges: tuple[str, ...]
    fd_max_residual: float
    fd_step: float
    samples: int
    seed: int


def verify_driving_decomposition(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    samples: int = 20,
    seed: int = 0,
    fd_step: float = 1e-6,
    tol: float = 1e-8,
) -> DrivingReport:
    """Check that the image subsystem of an injective fibration is autonomous.

    Combinatorially: no codomain edge runs from outside the image into it.
    Numerically: perturbing any non-image coordinate leaves the field
    components at image nodes unchanged up to ``tol``.  Only the sources of
    feedback edges are perturbed: an image node's control sees only its own
    and its in-edge sources' states, so every other non-image coordinate
    leaves the image components bitwise unchanged.  Injections that fail the
    unique-lift property (e.g. because of a feedback edge) report ``ok=False``
    rather than raising.
    """
    report = check_fibration(m)
    if not report.injective_on_nodes:
        raise PreconditionError("driving decomposition requires an injective map")
    image = set(m.node_map.values())
    feedback_edges = [e for e in m.codomain.graph.edges if e.src not in image and e.tgt in image]
    feedback = tuple(sorted(e.edge_id for e in feedback_edges))
    codomain_field = interconnect(m.codomain, w_prime)
    index = codomain_field.index
    image_coords = index.gather(a for a in index.order if a in image)
    perturbed = sorted({e.src for e in feedback_edges})
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = sample_state(index, rng)
        for diff in _central_differences(codomain_field, x, perturbed, fd_step):
            worst = np.maximum(worst, np.abs(diff[image_coords]).max(initial=0.0))
    worst = float(worst)
    return DrivingReport(
        ok=report.is_fibration and (not feedback) and worst < tol,
        is_fibration=report.is_fibration,
        feedback_edges=feedback,
        fd_max_residual=worst,
        fd_step=fd_step,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class ConjugacyReport:
    """Reproducible record of a conjugacy certification run."""

    pointwise_max_residual: float
    flow_max_deviation: float
    samples: int
    seed: int
    T: float
    h: float


def certify_conjugacy(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    samples: int = 1000,
    seed: int = 0,
    T: float = 1.0,
    h: float = 1e-3,
    x0_prime: np.ndarray | None = None,
) -> ConjugacyReport:
    """Pointwise plus flow-level certification with a seeded starting state."""
    pointwise = verify_conjugacy_pointwise(m, w_prime, samples=samples, seed=seed)
    if x0_prime is None:
        x0_prime = sample_state(total_phase_space(m.codomain), np.random.default_rng(seed))
    flow = verify_conjugacy_flow(m, w_prime, x0_prime, T, h)
    return ConjugacyReport(
        pointwise_max_residual=pointwise,
        flow_max_deviation=flow,
        samples=samples,
        seed=seed,
        T=T,
        h=h,
    )
