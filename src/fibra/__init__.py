"""Coupled open systems on directed multigraphs.

Build typed networks, check and factorize graph fibrations, compute coarsest
balanced partitions and quotient networks, assemble symmetric per-class
controls into global vector fields, pull them back along fibrations, and
numerically certify that the induced coordinate maps intertwine the flows.
"""

__version__ = "0.1.0"

from .errors import (
    EnumerationCapExceeded,
    EvaluationFault,
    FibraError,
    FibrationRequired,
    InputError,
    IntegrationFault,
    PreconditionError,
    SignatureMismatch,
)
from .graphs import (
    Edge,
    Graph,
    Network,
    NetworkMap,
    PhaseSpace,
    PhaseSpaceMap,
    R1,
    R2,
    S1,
    StateIndex,
    Violation,
    check_network_map,
    circle,
    circle_distance,
    compose_maps,
    coordinate_distance,
    euclidean,
    identity_map,
    network,
    phase_space_map,
    total_phase_space,
    validate_network,
    wrap_angle,
)
from .input_trees import (
    InducedTreeMap,
    InputTree,
    IsoClass,
    Leaf,
    SymmetryGroupoid,
    TreeIso,
    aut_generators,
    aut_order,
    enumerate_tree_isos,
    induced_tree_map,
    input_tree,
    iso_count,
    symmetry_groupoid,
)
from .fibrations import (
    BalanceWitness,
    FibrationReport,
    LiftFailure,
    Partition,
    Polydiagonal,
    check_fibration,
    coarsest_balanced,
    essential_image,
    factorize,
    is_balanced,
    polydiagonal_of,
    quotient_of,
)
from .expr_dsl import (
    ControlExpr,
    ControlSignature,
    ExprSyntaxError,
    RawControl,
    evaluate,
    parse,
    parse_control,
    unparse,
)
from .dynamics import (
    GlobalField,
    TransportedControl,
    VirtualVectorField,
    check_invariance,
    ctrl_transport,
    eval_control,
    interconnect,
    lift_to_nodes,
    per_class_field,
    per_node_field,
    pullback,
    pullback_kernel_check,
    signature_at,
)
from .numerics import (
    ConjugacyReport,
    DrivingReport,
    Trajectory,
    certify_conjugacy,
    dependency_matrix,
    expected_dependencies,
    integrate,
    verify_conjugacy_flow,
    verify_conjugacy_pointwise,
    verify_driving_decomposition,
    verify_polydiagonal_invariance,
)
from .sampling import sample_space, sample_state
