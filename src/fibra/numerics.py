"""Fixed-step RK4 integration and the numerical certification suite.

Certifies, on concrete fixtures and seeded samples, that the coordinate map
induced by a fibration intertwines the interconnected vector fields: the
pointwise identity between both sides, commutation of the flows, invariance
of synchrony subspaces under surjective fibrations, and the restriction to
the image of an injective one, which makes that image a driving subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GlobalField, VirtualVectorField, _pullback, interconnect
from .errors import FibrationRequired, IntegrationFault, PreconditionError
from .fibrations import check_fibration, polydiagonal_of
from .graphs import NetworkMap, PhaseSpaceMap, coordinate_distance
from .sampling import check_count, sample_state, sample_states


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step solution samples; circle coordinates stored unwrapped."""

    times: np.ndarray
    states: np.ndarray  # shape (steps + 1, total_dim)
    h: float


def _step_count(T: float, h: float) -> int:
    q = T / h
    if not math.isfinite(q):
        raise PreconditionError(f"horizon {T} over step size {h} is not a finite step count")
    if abs(q - round(q)) < 1e-9:  # snap float fuzz like 10/1e-3
        return int(round(q))
    return int(math.ceil(q))


def integrate(field: GlobalField, x0: np.ndarray, T: float, h: float) -> Trajectory:
    """Classic fixed-step RK4 with ceil(T/h) steps; faults on non-finite states.

    Each step is ``x + (h/6) * (k1 + 2*k2 + 2*k3 + k4)`` with stages
    ``x + (h/2) * k1``, ``x + (h/2) * k2`` and ``x + h * k3``, in that
    operation order.  The stages are built in two buffers and each step is
    written straight into its row of the trajectory.  The arithmetic runs
    under ``np.errstate(all="ignore")``, so numpy warns of no overflow: the
    first step whose state is not finite raises :class:`IntegrationFault`.
    """
    if not (h > 0 and math.isfinite(h)):
        raise PreconditionError("step size must be positive and finite")
    if not (T >= 0 and math.isfinite(T)):
        raise PreconditionError("horizon must be non-negative and finite")
    x = field.index.state(x0)
    n = _step_count(T, h)
    states = np.empty((n + 1, x.shape[0]))
    states[0] = x
    half, sixth = 0.5 * h, h / 6.0
    stage, acc = np.empty_like(x), np.empty_like(x)
    add, mul = np.add, np.multiply  # the third argument is the output
    with np.errstate(all="ignore"):
        for k in range(n):
            x, after = states[k], states[k + 1]
            k1 = field(x)
            k2 = field(add(x, mul(half, k1, stage), stage))
            k3 = field(add(x, mul(half, k2, stage), stage))
            k4 = field(add(x, mul(h, k3, stage), stage))
            add(k1, mul(2.0, k2, acc), acc)
            add(acc, mul(2.0, k3, stage), acc)
            add(acc, k4, acc)
            add(x, mul(sixth, acc, acc), after)
            # a sum is finite only when every coordinate is; it may also overflow, so check again then
            if not (math.isfinite(add.reduce(after)) or np.isfinite(after).all()):
                raise IntegrationFault(k + 1)
    times = np.arange(n + 1) * h
    return Trajectory(times, states, h)


# Most floats one batch of sampled or perturbed states may hold per array, so
# that memory stays bounded however many samples a check draws.
CHUNK_FLOATS = 2**20


def _chunks(count: int, width: int) -> list[int]:
    """Batch sizes covering ``count`` rows of ``width`` floats, each batch at most CHUNK_FLOATS floats."""
    rows = max(1, CHUNK_FLOATS // max(1, width))
    return [min(rows, count - start) for start in range(0, count, rows)]


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
    x0 = pd.index.state(x0)
    start_violation = pd.violation(x0)
    if start_violation > tol_sync:
        raise PreconditionError(
            f"initial state violates the synchrony constraints by {start_violation:.3e}"
        )
    domain_field = interconnect(m.domain, _pullback(m, w_prime))  # polydiagonal_of checked the fibration
    traj = integrate(domain_field, x0, T, h)
    return pd.violation(traj.states)


@dataclass(frozen=True)
class DrivingReport:
    """Outcome of the driving-subsystem check for an injective map."""

    ok: bool
    is_fibration: bool
    feedback_edges: tuple[str, ...]
    pointwise_max_residual: float | None
    samples: int
    seed: int


def verify_driving_decomposition(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    samples: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> DrivingReport:
    """Check that the image subsystem of an injective fibration is autonomous.

    Combinatorially: the map is a fibration, so no codomain edge runs from
    outside the image into it (such a feedback edge has no lift); the
    feedback edges are reported either way.  Numerically: restriction to the
    image maps the codomain system onto the domain system, and the report
    holds the pointwise residual of that conjugacy at ``samples`` seeded
    codomain states, as :func:`certify_conjugacy` computes it, or None when
    the map is not a fibration.  ``ok`` holds when the map is a fibration and
    the residual is at most ``tol``; a residual of NaN, from field values
    that are not finite, fails.  Injections that are not fibrations report
    ``ok=False`` rather than raising.
    """
    check_count(samples)
    report = check_fibration(m)
    if not report.injective_on_nodes:
        raise PreconditionError("driving decomposition requires an injective map")
    if not w_prime.network.is_same(m.codomain):
        raise PreconditionError("virtual vector field was built for a different network")
    image = set(m.node_map.values())
    feedback = tuple(sorted(e.edge_id for e in m.codomain.graph.edges if e.src not in image and e.tgt in image))
    residual = None
    if report.is_fibration:
        residual = _pointwise(*_joint_field(m, w_prime), samples, seed)
    return DrivingReport(
        ok=residual is not None and residual <= tol,
        is_fibration=report.is_fibration,
        feedback_edges=feedback,
        pointwise_max_residual=residual,
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
    """Pointwise plus flow-level certification with a seeded starting state.

    Checks the fibration once and builds the coordinate map and one joint
    field ``[codomain | domain]`` once; it serves both checks.  The pulled-back
    domain field holds the codomain's class controls, so each class kernel is
    compiled once and called once per field call for both sides; every domain
    node's flow is still computed and compared.  Samples are drawn in batches
    and each batch ``x'`` is evaluated as the joint states ``[x' | p(x')]``;
    the flow integrates one joint trajectory from ``[x0' | p(x0')]``, which
    faults at the first step where either side's state is not finite.  Both
    residuals come from the columns of each side.
    """
    p, field = _checked_joint_field(m, w_prime)
    return ConjugacyReport(
        pointwise_max_residual=_pointwise(p, field, samples, seed),
        flow_max_deviation=_flow(p, field, x0_prime, seed, T, h),
        samples=samples,
        seed=seed,
        T=T,
        h=h,
    )


def _checked_joint_field(m: NetworkMap, w_prime: VirtualVectorField) -> tuple[PhaseSpaceMap, GlobalField]:
    """:func:`_joint_field`, once ``m`` is found to be a fibration."""
    if not check_fibration(m).is_fibration:
        raise FibrationRequired("conjugacy certification requires a fibration")
    return _joint_field(m, w_prime)


def _joint_field(m: NetworkMap, w_prime: VirtualVectorField) -> tuple[PhaseSpaceMap, GlobalField]:
    """The coordinate map of a fibration and the joint field ``[codomain | domain]`` that holds its pullback."""
    return PhaseSpaceMap(m), GlobalField(m.codomain, w_prime, (m.domain, _pullback(m, w_prime)))


def _pointwise(p: PhaseSpaceMap, field: GlobalField, samples: int, seed: int) -> float:
    """The pointwise residual of :func:`certify_conjugacy` on the joint field."""
    split = p.codomain_index.total_dim  # the codomain's columns come first
    check_count(samples)
    rng = np.random.default_rng(seed)
    pointwise = 0.0
    with np.errstate(all="ignore"):  # once for every batch: the field leaves numpy's error state to its caller
        for count in _chunks(samples, field.index.total_dim):
            x_prime = sample_states(p.codomain_index, rng, count)
            tangents = field(np.concatenate((x_prime, p(x_prime)), axis=1))
            lhs, rhs = p.differential(tangents[:, :split]), tangents[:, split:]
            pointwise = np.maximum(pointwise, np.abs(lhs - rhs).max(initial=0.0))  # unlike max(), propagates NaN
    return float(pointwise)


def _flow(p: PhaseSpaceMap, field: GlobalField, x0_prime, seed: int, T: float, h: float) -> float:
    """The flow deviation of :func:`certify_conjugacy` on the joint field."""
    split = p.codomain_index.total_dim
    if x0_prime is None:
        x0_prime = sample_state(p.codomain_index, np.random.default_rng(seed))
    x0_prime = p.codomain_index.state(x0_prime)
    states = integrate(field, np.concatenate((x0_prime, p(x0_prime))), T, h).states
    return float(coordinate_distance(p(states[:, :split]), states[:, split:], p.domain_index))


def verify_conjugacy_pointwise(
    m: NetworkMap, w_prime: VirtualVectorField, samples: int = 1000, seed: int = 0
) -> float:
    """Max residual of the intertwining identity at random codomain states, as ``certify_conjugacy`` reports it."""
    return _pointwise(*_checked_joint_field(m, w_prime), samples, seed)


def verify_conjugacy_flow(
    m: NetworkMap,
    w_prime: VirtualVectorField,
    x0_prime: np.ndarray,
    T: float,
    h: float,
) -> float:
    """Max deviation over time between the mapped codomain flow and the domain flow, with no samples drawn."""
    return _flow(*_checked_joint_field(m, w_prime), x0_prime, 0, T, h)
