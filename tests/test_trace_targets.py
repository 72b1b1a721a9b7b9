"""Every call that ``perfbench/tracing.py`` wraps still exists in fibra.

``Tracer.install`` looks each target up by name when ``perfbench/run.py
--trace 1`` starts, so renaming or deleting a traced function crashes the
traced benchmark; resolving the targets here catches that in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in tracing.TARGETS], ids=lambda x: x)
def test_trace_target_resolves(module, path):
    """A module attribute, or for a dotted path an entry of the class ``__dict__``, as ``install`` reads it."""
    mod = importlib.import_module(f"fibra.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert callable(vars(getattr(mod, owner_name))[attr])
    else:
        assert callable(getattr(mod, attr))


def test_weighted_names_are_targets():
    assert set(tracing.WEIGHTS) <= {f"{m}.{p}" for m, p, _ in tracing.TARGETS}
