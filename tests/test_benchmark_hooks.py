"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` replaces module attributes such as
``duelbench.harness.select_pair`` with timing wrappers.  A refactor that
renames or drops one of them would otherwise fail only the benchmark's
own suite, which is run separately from this one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


BOUNDARIES = _boundaries()


def test_boundaries_listed():
    assert len(BOUNDARIES) > 0


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in BOUNDARIES]
)
def test_boundary_names_a_callable(module, attr):
    target = importlib.import_module(f"duelbench.{module}")
    assert callable(getattr(target, attr, None)), f"duelbench.{module}.{attr}"
