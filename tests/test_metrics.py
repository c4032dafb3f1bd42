"""Metric definitions against brute-force oracles and hand values."""

import json

import numpy as np
import pytest

from fedgame.data import WindowedDataset, denormalize
from fedgame.errors import NumericError, StructuralError, UsageError
from fedgame.forecaster import (
    ForecasterConfig,
    ForecasterModel,
    build_spec,
    init_forecaster,
    predict,
    task_loss,
)
from fedgame.metrics import evaluate, icp, mil, quantile_score


def quantile_score_oracle(y, yhat, q):
    total = 0.0
    for yi, fi in zip(y, yhat):
        if yi < fi:
            total += (1.0 - q) * abs(yi - fi)
        else:
            total += q * abs(yi - fi)
    return total / len(y)


def test_quantile_score_perfect_forecast_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert quantile_score(y, y, 0.5) == 0.0


def test_quantile_score_single_point_hand_value():
    assert quantile_score([1.0], [2.0], 0.1) == pytest.approx(0.9, abs=1e-15)


def test_quantile_score_matches_loop_oracle():
    rng = np.random.default_rng(5)
    y = rng.normal(size=100)
    yhat = rng.normal(size=100)
    for q in (0.1, 0.5, 0.9):
        assert quantile_score(y, yhat, q) == pytest.approx(
            quantile_score_oracle(y, yhat, q), abs=1e-12
        )


def test_quantile_score_hand_example_at_two_levels():
    # target 3.0: under-prediction 2.0 at q=0.1 costs 0.1*1, over-prediction
    # 4.0 at q=0.9 costs 0.1*1
    assert quantile_score([3.0], [2.0], 0.1) == pytest.approx(0.1, abs=1e-12)
    assert quantile_score([3.0], [4.0], 0.9) == pytest.approx(0.1, abs=1e-12)


def test_quantile_score_penalizes_the_correct_side_more():
    assert quantile_score([0.0], [-1.0], 0.9) == pytest.approx(0.9, abs=1e-12)
    assert quantile_score([0.0], [1.0], 0.9) == pytest.approx(0.1, abs=1e-12)


def test_quantile_score_nonnegative_and_zero_at_target():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y, yhat = rng.normal(size=4), rng.normal(size=4)
        for q in (0.1, 0.5, 0.9):
            assert quantile_score(y, yhat, q) >= 0.0
            assert quantile_score(y, y, q) == 0.0


def test_task_loss_is_the_mean_quantile_score_over_levels():
    # the loss the clients train on is the metric the evaluation reports
    cfg = ForecasterConfig(history_len=4, horizon=3, quantiles=(0.1, 0.5, 0.9), hidden_sizes=(5,))
    model = init_forecaster(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    windows, targets = rng.normal(size=(9, 4)), rng.normal(size=(9, 3))
    pred = predict(cfg, ["a"], model.values[np.newaxis], windows[np.newaxis])[0]
    pred = pred.reshape(9, 3, len(cfg.quantiles))
    scores = [quantile_score(targets, pred[..., k], q) for k, q in enumerate(cfg.quantiles)]
    assert abs(task_loss(model, windows, targets) - np.mean(scores)) <= 1e-12


def test_quantile_score_rejects_empty_and_bad_q():
    with pytest.raises(UsageError):
        quantile_score([], [], 0.5)
    with pytest.raises(UsageError):
        quantile_score([1.0], [1.0], 0.0)
    with pytest.raises(UsageError):
        quantile_score([1.0], [1.0], 1.0)


def test_icp_wide_bounds_cover_everything():
    y = np.array([0.0, 5.0, -3.0])
    assert icp(y, np.full(3, -1e9), np.full(3, 1e9)) == 1.0


def test_icp_zero_when_above_all_uppers():
    y = np.array([10.0, 11.0])
    assert icp(y, np.zeros(2), np.ones(2)) == 0.0


def test_icp_counts_inclusive_endpoints():
    y = np.array([1.0, 2.0, 3.0, 2.5])
    lower = np.array([1.0, 0.0, 3.5, 0.0])
    upper = np.array([2.0, 2.0, 4.0, 3.0])
    assert icp(y, lower, upper) == pytest.approx(0.75)


def test_icp_crossed_bounds_never_cover():
    y = np.array([1.0])
    assert icp(y, np.array([2.0]), np.array([0.0])) == 0.0


def test_icp_monotone_under_widening():
    rng = np.random.default_rng(7)
    y = rng.normal(size=200)
    lower = rng.normal(size=200)
    upper = rng.normal(size=200)
    base = icp(y, lower, upper)
    assert icp(y, lower - 0.5, upper + 0.5) >= base


def test_mil_matches_oracle_and_is_symmetric():
    rng = np.random.default_rng(8)
    lower = rng.normal(size=100)
    upper = rng.normal(size=100)
    oracle = sum(abs(u - l) for l, u in zip(lower, upper)) / 100
    assert mil(lower, upper) == pytest.approx(oracle, abs=1e-12)
    assert mil(lower, upper) == mil(upper, lower)


def test_mil_hand_values():
    assert mil(np.zeros(4), np.zeros(4)) == 0.0
    assert mil(np.zeros(4), np.full(4, 2.0)) == pytest.approx(2.0)
    with pytest.raises(UsageError):
        mil([], [])


def constant_output_model(cfg: ForecasterConfig, outputs) -> ForecasterModel:
    """MLP with zero weights; the output bias alone sets every forecast."""
    spec = build_spec(cfg)
    values = np.zeros(spec[-1].stop)
    for layer in spec:
        if layer.name == "out.b":
            values[layer.offset : layer.stop] = outputs
    return ForecasterModel(values, cfg)


def raw_dataset(inputs, targets) -> WindowedDataset:
    return WindowedDataset(
        inputs=np.asarray(inputs, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.float64),
        mean=0.0,
        std=1.0,
    )


def test_oracle_quantiles_hit_nominal_coverage():
    """True-quantile forecasts of a Gaussian must cover near 80%."""
    cfg = ForecasterConfig(history_len=4, horizon=1, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(4,))
    m, s = 2.0, 1.5
    z90 = 1.2815515655446004
    model = constant_output_model(cfg, [m - z90 * s, m, m + z90 * s])
    rng = np.random.default_rng(11)
    n = 2000
    data = raw_dataset(rng.normal(size=(n, cfg.history_len)),
                       m + s * rng.standard_normal((n, 1)))
    report = evaluate({"a": model}, {"a": data})
    assert report.macro_icp == pytest.approx(0.8, abs=0.05)
    assert report.macro_mil == pytest.approx(2 * z90 * s, abs=1e-9)


def test_evaluate_identical_clients_macro_equals_each():
    cfg = ForecasterConfig(history_len=3, horizon=2, quantiles=(0.2, 0.8),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [0.0, 1.0, 0.5, 1.5])
    rng = np.random.default_rng(12)
    data = raw_dataset(rng.normal(size=(10, 3)), rng.normal(size=(10, 2)))
    report = evaluate({"a": model, "b": model}, {"a": data, "b": data})
    assert report.macro_qs == report.clients[0].qs == report.clients[1].qs
    assert report.macro_icp == report.clients[0].icp
    assert report.weighted_qs == report.macro_qs


def test_evaluate_per_quantile_breakdown_matches_quantile_score():
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.1, 0.9),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [0.3, 0.7])
    rng = np.random.default_rng(13)
    targets = rng.normal(size=(50, 1))
    data = raw_dataset(rng.normal(size=(50, 3)), targets)
    report = evaluate({"a": model}, {"a": data})
    client = report.clients[0]
    y = targets[:, 0]
    assert client.qs_per_quantile[0] == pytest.approx(
        quantile_score(y, np.full(50, 0.3), 0.1), abs=1e-12
    )
    assert client.qs_per_quantile[1] == pytest.approx(
        quantile_score(y, np.full(50, 0.7), 0.9), abs=1e-12
    )
    assert client.qs == pytest.approx(np.mean(client.qs_per_quantile), abs=1e-12)


def test_evaluate_rejects_models_with_different_quantile_levels():
    """A report scores every column at its model's own level, so models
    configured with two quantile sets cannot share one report."""
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(3,))
    other = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.2, 0.5, 0.8),
                             hidden_sizes=(3,))
    rng = np.random.default_rng(17)
    data = raw_dataset(rng.normal(size=(6, 3)), rng.normal(size=(6, 1)))
    a = constant_output_model(cfg, [-1.0, 0.0, 1.0])
    b = constant_output_model(other, [-1.0, 0.0, 1.0])
    with pytest.raises(StructuralError, match="quantile levels"):
        evaluate({"a": a, "b": b}, {"a": data, "b": data})
    # alone, a model is scored at its own levels
    report = evaluate({"b": b}, {"b": data})
    assert report.quantiles == (0.2, 0.5, 0.8)
    first = quantile_score(data.targets[:, 0], np.full(6, -1.0), 0.2)
    assert report.clients[0].qs_per_quantile[0] == pytest.approx(first, abs=1e-12)


def test_evaluate_denormalizes_with_dataset_stats():
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.5,),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [1.0])
    data = WindowedDataset(
        inputs=np.zeros((4, 3)),
        targets=np.zeros((4, 1)),
        mean=10.0,
        std=2.0,
    )
    report = evaluate({"a": model}, {"a": data})
    assert report.clients[0].qs == pytest.approx(0.5 * abs(10.0 - 12.0), abs=1e-12)


def test_evaluate_excludes_clients_without_data():
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.5,),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [0.0])
    rng = np.random.default_rng(14)
    good = raw_dataset(rng.normal(size=(5, 3)), rng.normal(size=(5, 1)))
    empty = raw_dataset(np.zeros((0, 3)), np.zeros((0, 1)))
    report = evaluate({"a": model, "b": model, "c": model}, {"a": good, "b": empty})
    assert report.excluded == ("b", "c")
    assert len(report.clients) == 1
    with pytest.raises(UsageError):
        evaluate({"a": model}, {})


def test_weighted_average_uses_sample_counts():
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.5,),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [0.0])
    rng = np.random.default_rng(15)
    small = raw_dataset(rng.normal(size=(2, 3)), rng.normal(size=(2, 1)))
    large = raw_dataset(rng.normal(size=(8, 3)), rng.normal(size=(8, 1)))
    report = evaluate({"a": model, "b": model}, {"a": small, "b": large})
    a, b = report.clients
    assert report.macro_qs == pytest.approx((a.qs + b.qs) / 2, abs=1e-15)
    assert report.weighted_qs == pytest.approx((2 * a.qs + 8 * b.qs) / 10, abs=1e-15)


def test_report_serialization_shapes():
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.1, 0.9),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [0.0, 1.0])
    rng = np.random.default_rng(16)
    data = raw_dataset(rng.normal(size=(5, 3)), rng.normal(size=(5, 1)))
    report = evaluate({"a": model}, {"a": data})
    as_dict = report.to_dict()
    assert set(as_dict) == {"quantiles", "clients", "excluded", "macro", "weighted"}
    assert [c["client_id"] for c in as_dict["clients"]] == ["a"]
    assert set(as_dict["clients"][0]) == {"client_id", "qs", "mil", "icp", "n",
                                          "qs_per_quantile"}


def test_evaluate_counts_targets_on_the_outer_forecasts_as_covered():
    # the interval [lowest, highest] quantile forecast is closed at both ends
    cfg = ForecasterConfig(history_len=3, horizon=1, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(3,))
    model = constant_output_model(cfg, [-1.25, 0.5, 2.75])
    targets = [[-1.25], [2.75], [0.0], [-1.5], [3.0], [2.75]]
    data = raw_dataset(np.zeros((6, 3)), targets)
    assert evaluate({"a": model}, {"a": data}).clients[0].icp == 4 / 6


def score_alone(client_id, model, data) -> dict:
    """One client's to_dict() entry from a stacked forward of it alone."""
    cfg = model.config
    q = np.asarray(cfg.quantiles)
    pred = predict(cfg, [client_id], model.values[np.newaxis], data.inputs[np.newaxis])[0]
    preds = denormalize(pred.reshape(len(data), cfg.horizon, q.size), data.mean, data.std)
    targets = denormalize(data.targets, data.mean, data.std)
    diff = preds - targets[:, :, np.newaxis]
    weights = np.where(diff > 0, 1.0 - q, -q)
    lo = preds[:, :, np.argmin(q)].reshape(-1)
    hi = preds[:, :, np.argmax(q)].reshape(-1)
    per_q = [float(np.mean(weights[:, :, k] * diff[:, :, k])) for k in range(q.size)]
    return {
        "client_id": client_id,
        "qs": float(np.mean(weights * diff)),
        "mil": mil(lo, hi),
        "icp": icp(targets.reshape(-1), lo, hi),
        "n": len(data),
        "qs_per_quantile": dict(zip(map(str, model.config.quantiles), per_q)),
    }


def random_dataset(rng, n, cfg) -> WindowedDataset:
    return WindowedDataset(
        inputs=rng.normal(size=(n, cfg.history_len)),
        targets=rng.normal(size=(n, cfg.horizon)),
        mean=float(rng.uniform(-5.0, 5.0)),
        std=float(rng.uniform(0.5, 3.0)),
    )


EVAL_MLP = ForecasterConfig(history_len=4, horizon=2, hidden_sizes=(5,))
EVAL_LSTM = ForecasterConfig(history_len=4, horizon=2, hidden_sizes=(4, 3), arch="lstm")


@pytest.mark.parametrize("fleet", [
    # client id -> (config, test windows); 0 windows is an excluded client
    {"a": (EVAL_MLP, 7), "b": (EVAL_MLP, 3), "c": (EVAL_MLP, 7), "d": (EVAL_LSTM, 7),
     "e": (EVAL_LSTM, 5), "f": (EVAL_LSTM, 7), "g": (EVAL_MLP, 0)},
    {"solo": (EVAL_LSTM, 6)},
])
def test_stacked_evaluate_is_bit_identical_to_scoring_each_client_alone(fleet):
    rng = np.random.default_rng(21)
    models = {cid: init_forecaster(cfg, rng) for cid, (cfg, _) in fleet.items()}
    data = {cid: random_dataset(rng, n, cfg) for cid, (cfg, n) in fleet.items()}
    report = evaluate(models, data).to_dict()
    clients = [score_alone(c, models[c], data[c]) for c in sorted(fleet) if fleet[c][1]]
    ns = np.array([c["n"] for c in clients], dtype=np.float64)
    expected = {
        "quantiles": list(EVAL_MLP.quantiles),
        "clients": clients,
        "excluded": [c for c in sorted(fleet) if not fleet[c][1]],
        "macro": {m: float(np.mean([c[m] for c in clients])) for m in ("qs", "mil", "icp")},
        "weighted": {
            m: float(np.sum(np.array([c[m] for c in clients]) * ns) / np.sum(ns))
            for m in ("qs", "mil", "icp")
        },
    }
    # repr-exact: json writes every float with repr
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_stack_reductions_equal_each_clients_own_means_on_random_shapes():
    """evaluate reduces each quantity once over the stack; every score
    keeps the bits of np.mean over the client's own array, including
    clients with more than 8,192 entries, numpy's iterator buffer size."""
    rng = np.random.default_rng(23)
    # (windows per client, horizon, quantile levels); the last three
    # exceed 8,192 loss entries, and the last 8,192 interval entries too
    cases = [(1, 1, 1), (7, 2, 3), (50, 3, 2), (333, 4, 4), (1400, 3, 3), (2100, 4, 1),
             (4500, 2, 3)]
    for size, horizon, levels in cases:
        quantiles = np.sort(rng.choice(np.arange(1, 100), size=levels, replace=False)) / 100
        cfg = ForecasterConfig(history_len=3, horizon=horizon, quantiles=tuple(quantiles),
                               hidden_sizes=(4,))
        ids = [f"c{k}" for k in range(int(rng.integers(1, 5)))]
        models = {cid: init_forecaster(cfg, rng) for cid in ids}
        data = {cid: random_dataset(rng, size, cfg) for cid in ids}
        report = evaluate(models, data).to_dict()
        expected = [score_alone(cid, models[cid], data[cid]) for cid in ids]
        assert (json.dumps(report["clients"], sort_keys=True)
                == json.dumps(expected, sort_keys=True)), (size, horizon, levels)


def test_evaluate_names_the_clients_with_non_finite_forecasts():
    rng = np.random.default_rng(22)
    models = {cid: init_forecaster(EVAL_MLP, rng) for cid in ("a", "b", "c")}
    data = {cid: random_dataset(rng, 4, EVAL_MLP) for cid in models}
    # a corrupted row: the constructor refuses non-finite values, so bypass it
    models["b"].values = np.full_like(models["b"].values, np.nan)
    with pytest.raises(NumericError) as info:
        evaluate(models, data)
    assert str(info.value) == "evaluate: non-finite predictions for clients ['b']"
