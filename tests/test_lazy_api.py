"""The public API loads on first access, and the structure layer never loads numpy.

``fibra/__init__.py`` resolves each public name from the submodule that
defines it when the name is first read.  The fresh-process checks run in a
child interpreter, since this test process has numpy and every layer loaded.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fibra

# The public names of fibra: the 90 its eager import exported, less IsoClass, dependency_matrix and
# expected_dependencies, and canonical_isos; less TransportedControl, now that a transport is a raw control.
PUBLIC_NAMES = {
    "BalanceWitness", "ConjugacyReport", "ControlExpr", "ControlSignature", "DrivingReport", "Edge",
    "EnumerationCapExceeded", "EvaluationFault", "ExprSyntaxError", "FibraError", "FibrationReport",
    "FibrationRequired", "GlobalField", "Graph", "InducedTreeMap", "InputError", "InputTree",
    "IntegrationFault", "Leaf", "LiftFailure", "Network", "NetworkMap", "Partition",
    "PhaseSpace", "PhaseSpaceMap", "Polydiagonal", "PreconditionError", "R1", "R2", "RawControl", "S1",
    "SignatureMismatch", "StateIndex", "Trajectory", "TreeIso",
    "Violation", "VirtualVectorField", "aut_order", "canonical_isos", "certify_conjugacy",
    "check_fibration", "check_invariance", "check_network_map", "circle", "circle_distance",
    "coarsest_balanced", "compose_maps", "coordinate_distance", "ctrl_transport",
    "enumerate_tree_isos", "essential_image", "euclidean", "eval_control", "evaluate",
    "factorize", "identity_map", "induced_tree_map", "input_tree", "integrate",
    "interconnect", "is_balanced", "iso_count", "lift_to_nodes", "network", "parse", "parse_control",
    "per_class_field", "per_node_field", "phase_space_map", "polydiagonal_of", "pullback",
    "pullback_kernel_check", "quotient_of", "sample_space", "sample_state", "signature_at",
    "symmetry_groupoid", "total_phase_space", "unparse", "validate_network", "verify_conjugacy_flow",
    "verify_conjugacy_pointwise", "verify_driving_decomposition", "verify_polydiagonal_invariance",
    "wrap_angle",
}


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this fibra; its stdout."""
    src = str(Path(fibra.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_public_names_once():
    assert len(fibra.__all__) == len(set(fibra.__all__))
    assert set(fibra.__all__) == PUBLIC_NAMES


def test_each_public_name_is_the_defining_module_attribute():
    wrong = []
    for name in sorted(PUBLIC_NAMES):
        value = getattr(fibra, name)
        module = sys.modules.get(getattr(value, "__module__", ""))
        if isinstance(value, types.ModuleType) or module is None or getattr(module, name, None) is not value:
            wrong.append(name)
    assert wrong == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fibra' has no attribute 'no_such_name'$"):
        fibra.no_such_name


def test_fresh_import_loads_no_numpy_and_lists_every_name():
    out = run_python(
        "import sys, fibra\n"
        "assert set(fibra.__all__) <= set(dir(fibra))\n"
        "assert {'graphs', 'numerics'} <= set(dir(fibra))\n"
        "numeric = ('numpy', 'fibra.expr_dsl', 'fibra.dynamics', 'fibra.numerics', 'fibra.sampling')\n"
        "print(sorted(m for m in numeric if m in sys.modules))\n"
    )
    assert out == "[]\n"


def test_fresh_submodule_access():
    out = run_python(
        "import fibra\n"
        "from fibra import fixtures\n"
        "print(fibra.numerics.integrate is fibra.integrate, fibra.graphs.Edge is fibra.Edge)\n"
        "print(fibra.Partition is fibra.fibrations.Partition is fibra.graphs.Partition)\n"
        "print(fixtures.g3().graph.nodes)\n"
    )
    assert out == "True True\nTrue\n('1', '2', '3')\n"
