"""The benchmark's traced attributes must exist in the package, and each
count hook must read the result its function really returns.

``bench/layers.py`` wraps drawrating attributes by name for ``--trace 1``
runs.  Renaming or deleting one of them, or reshaping what a hooked
function returns, would crash the traced benchmark; this test makes that a
test failure instead.  It only reads ``bench/``.
"""

import collections
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from drawrating import engine, model, store
from drawrating.engine import EngineConfig, PlayerBelief
from drawrating.model import Hyperparameters

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


H = model.DEFAULT_HYPERPARAMETERS
GAMES = [store.GameRecord(1, "anna", "bert", 1.0), store.GameRecord(1, "bert", "cara", 0.5)]
SNAPSHOT = store.RatingSnapshot(2, [("anna", 0.5, 0.4, 3)], H, EngineConfig())


def _snapshot_file(tmp_path):
    path = str(tmp_path / "s.snapshot")
    store.write_snapshot_file(SNAPSHOT, path)
    return path


#: span name -> tiny arguments, (args, kwargs), for one call of the hooked function
CALLS = {
    "model.probability_array": lambda tmp_path: ((np.zeros(2), np.ones(2), 1.0, H), {}),
    "engine.run_period": lambda tmp_path: (
        ({"anna": PlayerBelief("anna", 0.5, 0.4)},
         GAMES + [store.GameRecord(1, "cara", "cara", 1.0)], H, EngineConfig()), {}),
    "engine.delta_arrays": lambda tmp_path: (
        (np.zeros(3), np.array([np.full(3, 0.5), np.full(3, 1.5)]), np.array([0, 1, 2]),
         np.ones(3), H, True), {}),
    "hyperopt.predictive_probability_array": lambda tmp_path: (
        (np.zeros((2, 2)), 0.5, 1.0, 0.5, H), {}),
    "hyperopt.optimize": lambda tmp_path: (
        (GAMES, EngineConfig(), 1),
        {"starts": [Hyperparameters(beta0=0.3, beta1=0.2, tau=0.1)],
         "objective_fn": lambda h: -(h.beta0 - 0.5) ** 2 - h.beta1 ** 2}),
    "oracle.compare_updates": lambda tmp_path: (
        ([(PlayerBelief("f", 0.2, 0.5), PlayerBelief("o", 0.4, 0.6), 0.5, 1),
          (PlayerBelief("f", 0.2, 0.5), PlayerBelief("o", 0.4, 0.6), 0.7, -1)],
         H, EngineConfig()), {}),
    "store.parse_games": lambda tmp_path: (
        (io.StringIO("period,white,black,result\n1,anna,bert,1\n1,anna,anna,0\n"),), {}),
    "store.read_snapshot_file": lambda tmp_path: ((_snapshot_file(tmp_path),), {}),
    "store.write_snapshot_file": lambda tmp_path: (
        (SNAPSHOT, str(tmp_path / "w.snapshot")), {}),
}


@pytest.mark.parametrize("module,attr,name,count",
                         [entry for entry in _traced() if entry[3] is not None],
                         ids=lambda v: getattr(v, "__name__", v))
def test_count_hook_reads_a_real_result(tmp_path, module, attr, name, count):
    assert name in CALLS, f"no tiny call for the count hook of {name}"
    args, kwargs = CALLS[name](tmp_path)
    result = getattr(module, attr)(*args, **kwargs)
    counts = collections.Counter()
    count(counts, args, kwargs, result)
    assert counts and all(isinstance(v, (int, np.integer)) for v in counts.values()), counts
    assert any(counts.values()), counts
