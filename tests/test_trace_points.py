"""The benchmark's trace points resolve to functions in pgee.

``perfbench/spans.py`` lists the (module, attribute) pairs that a traced
benchmark run wraps by name.  A refactor that moves or renames one of them
would silently drop its layer from the per-layer split.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("module,attr", _boundaries())
def test_boundary_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
