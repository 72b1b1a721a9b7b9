"""Coupled open systems on directed multigraphs.

Build typed networks, check and factorize graph fibrations, compute coarsest
balanced partitions and quotient networks, assemble symmetric per-class
controls into global vector fields, pull them back along fibrations, and
numerically certify that the induced coordinate maps intertwine the flows.

Each public name, and each submodule below, loads on first access, so the
structure layer (``graphs``, ``input_trees``, ``fibrations``) runs without
importing numpy; the numeric layers (``expr_dsl``, ``dynamics``, ``numerics``,
``sampling``) load when a name from them is first used.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "EnumerationCapExceeded",
        "EvaluationFault",
        "FibraError",
        "FibrationRequired",
        "InputError",
        "IntegrationFault",
        "PreconditionError",
        "SignatureMismatch",
    ),
    "graphs": (
        "Edge",
        "Graph",
        "Network",
        "NetworkMap",
        "Partition",
        "PhaseSpace",
        "PhaseSpaceMap",
        "R1",
        "R2",
        "S1",
        "StateIndex",
        "Violation",
        "check_network_map",
        "circle",
        "circle_distance",
        "compose_maps",
        "coordinate_distance",
        "euclidean",
        "identity_map",
        "network",
        "phase_space_map",
        "total_phase_space",
        "validate_network",
        "wrap_angle",
    ),
    "input_trees": (
        "InducedTreeMap",
        "InputTree",
        "Leaf",
        "TreeIso",
        "aut_order",
        "canonical_isos",
        "enumerate_tree_isos",
        "induced_tree_map",
        "input_tree",
        "iso_count",
        "symmetry_groupoid",
    ),
    "fibrations": (
        "BalanceWitness",
        "FibrationReport",
        "LiftFailure",
        "Polydiagonal",
        "check_fibration",
        "coarsest_balanced",
        "essential_image",
        "factorize",
        "is_balanced",
        "polydiagonal_of",
        "quotient_of",
    ),
    "expr_dsl": (
        "ControlExpr",
        "ControlSignature",
        "ExprSyntaxError",
        "RawControl",
        "evaluate",
        "parse",
        "parse_control",
        "unparse",
    ),
    "dynamics": (
        "GlobalField",
        "VirtualVectorField",
        "check_invariance",
        "ctrl_transport",
        "eval_control",
        "interconnect",
        "lift_to_nodes",
        "per_class_field",
        "per_node_field",
        "pullback",
        "pullback_kernel_check",
        "signature_at",
    ),
    "numerics": (
        "ConjugacyReport",
        "DrivingReport",
        "Trajectory",
        "certify_conjugacy",
        "integrate",
        "verify_conjugacy_flow",
        "verify_conjugacy_pointwise",
        "verify_driving_decomposition",
        "verify_polydiagonal_invariance",
    ),
    "sampling": ("sample_space", "sample_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is ``name``) and keep the value here."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
