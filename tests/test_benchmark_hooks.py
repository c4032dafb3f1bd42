"""The benchmark's patch points exist on the package it patches.

``perfbench/spans.py`` times fedgame from outside by replacing module
attributes by name, and times rounds by wrapping ``run_round`` with its
four positional arguments.  A renamed or deleted function would only
break the benchmark itself; these checks catch it in the test suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

import fedgame
import fedgame.cli
from fedgame.data import WindowedDataset
from fedgame.forecaster import ForecasterConfig, ForecasterModel
from fedgame.protocol import HyperParams, init_round_state

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves_on_fedgame():
    spans = load_spans()
    assert spans.TRACED_CALLS
    for owner, attr, *_ in spans.TRACED_CALLS:
        assert callable(getattr(spans.resolve(fedgame, owner), attr)), (owner, attr)


def test_round_clock_wraps_run_round_by_position():
    spans = load_spans()
    clock = spans.RoundClock()
    timed = clock.wrap(fedgame.protocol.run_round)
    cfg = ForecasterConfig(history_len=3, horizon=1, hidden_sizes=(2,), local_epochs=2)
    state = init_round_state(cfg, ["a", "b"], 0)
    rng = np.random.default_rng(0)
    data = {c: WindowedDataset(rng.normal(size=(n, 3)), rng.normal(size=(n, 1)), 0.0, 1.0)
            for c, n in (("a", 4), ("b", 5))}
    new_state, report = timed(state, HyperParams(rounds=1, aggregator_kind="fedavg"), None, data)
    assert report.client_ids == ("a", "b")
    assert all(isinstance(m, ForecasterModel) for m in new_state.client_models.values())
    ((start, end, samples),) = clock.rounds
    assert start <= end and samples == (4 + 5) * 2
