"""A catalogue of deliberate faults that named tests must catch, and its runner.

Each entry names a file, a piece of text that occurs in it exactly once, the
text that replaces it, and the tests that must fail once it is replaced.  The
runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, first runs every named test on the unchanged copy (all must pass),
then applies each entry to a fresh copy and runs that entry's tests there.  A
mutant survives when any test named for it passes; the runner exits 1 when a
mutant survives, when an entry's text does not occur exactly once, or when a
named test fails on the unchanged copy or cannot be collected.

Run from the repository root, for every entry or for the named ones::

    python tests/mutants.py
    python tests/mutants.py transport-skips-relabelling

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; a parametrised test's id stands for all its cases


MUTANTS = (
    Mutant(
        "transport-skips-relabelling",
        "src/fibra/dynamics.py",
        "ids, at = [label for label, _ in ctrl.reads], [slot[eid] for _, eid in ctrl.reads]",
        "pass",
        (
            "tests/test_dynamics.py::test_transport_swaps_raw_control_inputs",
            "tests/test_dynamics.py::test_pullback_of_an_asymmetric_raw_class_control_is_conjugate",
            "tests/test_bound_evaluator.py::test_transport_matches_hand_relabelling",
            "tests/test_bound_evaluator.py::test_transport_reads_the_base_order_not_the_typed_order",
            "tests/test_bound_evaluator.py::test_pullback_of_raw_class_fields_matches_hand_relabelling",
        ),
    ),
    Mutant(
        "transport-keeps-the-isomorphism-order",
        "src/fibra/dynamics.py",
        "for eid in sorted(iso.leaf_bijection)]",
        "for eid in iso.leaf_bijection]",
        (
            "tests/test_dynamics.py::test_pullback_of_an_asymmetric_raw_class_control_is_conjugate",
            "tests/test_dynamics.py::test_pullback_of_a_class_field_is_the_pullback_of_its_lift",
            "tests/test_bound_evaluator.py::test_transport_matches_hand_relabelling",
            "tests/test_bound_evaluator.py::test_transport_reads_the_base_order_not_the_typed_order",
            "tests/test_bound_evaluator.py::test_pullback_of_raw_class_fields_matches_hand_relabelling",
        ),
    ),
    Mutant(
        "transport-composes-the-wrong-way",
        "src/fibra/dynamics.py",
        "reads=tuple((label, iso.leaf_bijection[eid]) for label, eid in reads)",
        "reads=tuple((label, dict(reads)[iso.leaf_bijection[label]]) for label, eid in reads)",
        (
            "tests/test_dynamics.py::test_transport_respects_composition",
            "tests/test_bound_evaluator.py::test_transport_matches_hand_relabelling",
        ),
    ),
    Mutant(
        "moved-control-placement-unchecked",
        "src/fibra/dynamics.py",
        "and sorted(e for _, e in ctrl.reads) != sorted(ids):",
        "and False:",
        (
            "tests/test_dynamics.py::test_a_misplaced_moved_control_is_refused_where_it_is_placed",
            "tests/test_build_once.py::test_field_reports_a_signature_mismatch_as_the_per_node_loop",
        ),
    ),
    Mutant(
        "class-unit-bound-at-its-last-member",
        "src/fibra/dynamics.py",
        "for e in in_edges[nodes[0]]]",
        "for e in in_edges[nodes[-1]]]",
        (
            "tests/test_build_once.py::test_field_units_match_the_per_node_loop",
            "tests/test_bound_evaluator.py::test_a_raw_class_is_one_unit_built_without_transport",
            "tests/test_bound_evaluator.py::test_field_and_eval_control_match_per_call_path",
            "tests/test_bound_evaluator.py::test_joint_field_matches_each_side_alone",
            "tests/test_dynamics.py::test_pullback_of_a_class_field_is_the_pullback_of_its_lift",
        ),
    ),
    Mutant(
        "typed-order-sorts-only-from-four-in-edges",
        "src/fibra/input_trees.py",
        "if len(in_edges) > 1 else in_edges",
        "if len(in_edges) > 3 else in_edges",
        (
            "tests/test_input_trees.py::test_groupoid_partitions_nodes_and_aut_counts",
            "tests/test_build_once.py::test_groupoid_matches_eager_construction",
            "tests/test_cli.py::test_structure_commands_match_the_oracles",
            "tests/test_bound_evaluator.py::test_joint_field_matches_each_side_alone",
        ),
    ),
    Mutant(
        "states-without-its-dtype-test",
        "src/fibra/graphs.py",
        "if x.__class__ is not array or x.dtype is not double:",
        "if x.__class__ is not array:",
        (
            "tests/test_state_index.py::test_states_takes_and_refuses_what_asarray_and_the_shape_test_do",
        ),
    ),
    Mutant(
        "circle-distance-arguments-swapped",
        "src/fibra/graphs.py",
        "dist[..., circ] = circle_distance(x[..., circ], y[..., circ])",
        "dist[..., circ] = circle_distance(y[..., circ], x[..., circ])",
        (
            "tests/test_state_index.py::test_coordinate_distance_matches_per_node_loop",
            "tests/test_state_index.py::test_polydiagonal_violation_on_circle_blocks_matches_per_block_loop",
        ),
    ),
    Mutant(
        "quotient-edge-id-guard-disabled",
        "src/fibra/fibrations.py",
        "if len({e.edge_id for e in q_edges}) < len(q_edges):",
        "if False:",
        (
            "tests/test_structure_index.py::test_colliding_quotient_edge_ids_are_refused",
            "tests/test_structure_index.py::test_colon_ids_give_a_fibration_or_a_refusal",
            "tests/test_cli.py::test_quotient_commands_refuse_colliding_edge_ids",
        ),
    ),
    Mutant(
        "driving-ok-ignores-the-residual",
        "src/fibra/numerics.py",
        "ok=residual is not None and residual <= tol,",
        "ok=residual is not None,",
        (
            "tests/test_cli.py::test_driving_whose_differences_overflow_prints_no_warning",
            "tests/test_numerics.py::test_driving_decomposition_fails_on_a_finite_residual_above_tol",
        ),
    ),
    Mutant(
        "groupoid-classes-from-the-second-round",
        "src/fibra/graphs.py",
        "colour_classes(*next(refinement_rounds(self, self.phase)))",
        "colour_classes(*[*zip(refinement_rounds(self, self.phase), range(2))][-1][0])",
        (
            "tests/test_input_trees.py::test_groupoid_two_tier_same_space",
            "tests/test_input_trees.py::test_groupoid_classes_are_the_partition_of_the_reference_classes",
            "tests/test_cli.py::test_groupoid_report_witnesses_match_the_reference",
            "tests/test_dynamics.py::test_lift_to_nodes_two_classes",
            "tests/test_build_once.py::test_groupoid_matches_eager_construction",
            "tests/test_build_once.py::test_iso_count_matches_the_counter_rule",
        ),
    ),
    Mutant(
        "control-at-without-its-node-check",
        "src/fibra/dynamics.py",
        "if a not in self.network.graph.node_set:",
        "if False:",
        (
            "tests/test_dynamics.py::test_failure_path[control-at-an-unknown-node-of-a-per-node-field]",
            "tests/test_dynamics.py::test_failure_path[control-at-an-unknown-node-of-a-per-class-field]",
        ),
    ),
    Mutant(
        "refinement-rounds-without-the-source-sort",
        "src/fibra/graphs.py",
        "tuple(sorted(map(colour_at, srcs)))",
        "tuple(map(colour_at, srcs))",
        (
            "tests/test_acceptance.py::test_criterion_02_balanced_quotient_suite",
            "tests/test_build_once.py::test_field_reports_the_first_mismatched_node_of_a_class",
            "tests/test_input_trees.py::test_groupoid_classes_are_the_partition_of_the_reference_classes",
            "tests/test_build_once.py::test_groupoid_matches_eager_construction",
            "tests/test_build_once.py::test_iso_count_matches_the_counter_rule",
            "tests/test_structure_index.py::test_structure_layer_matches_reference",
            "tests/test_structure_index.py::test_balance_check_matches_per_node_signatures",
        ),
    ),
    Mutant(
        "layout-in-listing-order",
        "src/fibra/graphs.py",
        "order = tuple(sorted(index.nodes))",
        "order = tuple(index.nodes)",
        (
            "tests/test_graphs.py::test_total_phase_space_deterministic",
            "tests/test_build_once.py::test_field_units_match_the_per_node_loop",
        ),
    ),
    Mutant(
        "two-input-group-read-unsorted",
        "src/fibra/expr_dsl.py",
        "if isinstance(e, Aggregate) and _coordinate(e) is None and counts[e.group] == 2:",
        "if False:",
        (
            "tests/test_bound_evaluator.py::test_two_input_group_read_by_another_body_is_sorted",
            "tests/test_bound_evaluator.py::test_only_visible_order_is_sorted",
        ),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _failed(tree: Path, tests: list[str]) -> set[str] | None:
    """The node ids of ``tests`` that fail in ``tree``, or None when pytest cannot run them."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):
        print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
        return None
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return {t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    ok = True
    with tempfile.TemporaryDirectory(prefix="fibra-mutants-") as tmp:
        base = Path(tmp, "base")
        _copy(base)
        named = sorted({t for m in chosen for t in m.tests})
        failing = _failed(base, named)
        if failing is None or failing:
            print(f"the unchanged tree fails or cannot collect: {sorted(failing or [])}")
            return 1
        for i, m in enumerate(chosen):
            tree = Path(tmp, f"m{i}")
            _copy(tree)
            path = tree / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the text to replace occurs {text.count(m.old)} times in {m.file}")
                ok = False
                continue
            path.write_text(text.replace(m.old, m.new))
            failed = _failed(tree, list(m.tests))
            survivors = [t for t in m.tests if failed is None or t not in failed]
            killed = bool(m.tests) and not survivors
            print(f"{m.name}: " + ("killed" if killed else f"SURVIVED; passed or not run: {survivors}"))
            ok = ok and killed
            shutil.rmtree(tree)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
