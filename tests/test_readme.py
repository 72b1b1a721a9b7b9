"""The README's code runs as written: the Library tour block, and each expression of the DSL example block."""

import re
from pathlib import Path

from fibra import R1, R2, S1, ControlSignature, parse_control

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, fence: str) -> str:
    """The first ``fence`` code block after the heading ``section``."""
    return README.split(f"\n{section}\n", 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs():
    exec(compile(_block("## Library tour", "python"), "README.md: Library tour", "exec"), {})


def test_readme_dsl_examples_parse():
    # each expression against a signature whose root and only input group are of the space it reads
    spaces = {space.name: space for space in (R1, R2, S1)}
    lines = [line.split("#", 1)[0].strip() for line in _block("### The control expression language", "").splitlines()]
    exprs = [line for line in lines if line]
    assert len(exprs) == 2
    for src in exprs:
        [group] = set(re.findall(r"inputs\[(\w+)\]", src))
        parse_control([src], ControlSignature(spaces[group], (spaces[group],)))
