"""The package's public names, and the errors of the per-item entry points.

`nb_predict_state`, `rsdrda_infer`, `recover` and `discretize_row` check
their inputs and then run the batched pipeline kernel on one row or one
family. The checks are theirs alone, so each error is pinned here.
"""

import importlib
import pkgutil
import types

import numpy as np
import pytest

import sensorprep
from sensorprep.anomaly import nb_predict_state
from sensorprep.bayesnet import Dag, TransitionNetwork
from sensorprep.ingest import DiscretizationScheme, discretize_row
from sensorprep.redundancy import recover, rsdrda_infer

MODULES = [info.name for info in pkgutil.iter_modules(sensorprep.__path__)]


def chain_network() -> TransitionNetwork:
    """Two nodes over three states; node 1 has transition parent node 0."""
    counts = (np.full((1, 3), 10), np.arange(9).reshape(3, 3))
    return TransitionNetwork(Dag(2, ((), (0,))), counts, np.full((2, 3), 1 / 3))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        pytest.param(lambda tn: nb_predict_state(1, np.array([1, 1, 1]), tn),
                     "previous states have shape (3,), expected (2,)", id="nb_predict_state-shape"),
        pytest.param(lambda tn: nb_predict_state(1, np.array([0, 1]), tn),
                     "parent state 0 outside 1..3", id="nb_predict_state-state-0"),
        pytest.param(lambda tn: nb_predict_state(1, np.array([4, 1]), tn),
                     "parent state 4 outside 1..3", id="nb_predict_state-state-K+1"),
        pytest.param(lambda tn: rsdrda_infer(0, tn, []), "node 0 has no transition parents", id="rsdrda_infer-parentless"),
        pytest.param(lambda tn: rsdrda_infer(1, tn, [np.full(3, 1 / 3)] * 2),
                     "expected 1 evidence vectors, got 2", id="rsdrda_infer-count"),
        pytest.param(lambda tn: rsdrda_infer(1, tn, [np.full(2, 0.5)]),
                     "evidence vector has shape (2,), expected (3,)", id="rsdrda_infer-shape"),
        pytest.param(lambda tn: recover([], []), "need at least one parent value", id="recover-empty"),
        pytest.param(lambda tn: recover([1.0, 2.0], [1.0]), "values and dissimilarities must align",
                     id="recover-misaligned"),
        pytest.param(lambda tn: recover([1.0, 2.0], [1.0, -1.0]), "dissimilarities must be nonnegative",
                     id="recover-negative"),
        pytest.param(lambda tn: discretize_row(np.zeros(3), DiscretizationScheme((np.array([0.5]),) * 2, 2)),
                     "row has shape (3,), expected (2,)", id="discretize_row-shape"),
    ],
)
def test_entry_point_errors(call, message):
    with pytest.raises(ValueError) as raised:
        call(chain_network())
    assert str(raised.value) == message


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sensorprep.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_export_is_public_in_its_module():
    declared = {}
    for name in MODULES:
        module = importlib.import_module(f"sensorprep.{name}")
        declared.update({n: getattr(module, n, None) for n in getattr(module, "__all__", ())})
    exported = {
        n: value for n, value in vars(sensorprep).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported
    for name, value in exported.items():
        assert name in declared and declared[name] is value, name
