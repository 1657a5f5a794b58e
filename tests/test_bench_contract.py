"""The benchmark's traced attributes must exist in the package.

``bench/layers.py`` wraps drawrating attributes by name for ``--trace 1``
runs.  Renaming or deleting one of them would crash the traced benchmark;
this test makes that a test failure instead.  It only reads ``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _traced()],
                         ids=lambda v: getattr(v, "__name__", v))
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
