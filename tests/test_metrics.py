"""Metric definitions against brute-force oracles and hand values."""

import numpy as np
import pytest

from fedgame.data import WindowedDataset
from fedgame.errors import StructuralError, UsageError
from fedgame.forecaster import ForecasterConfig, ForecasterModel, build_spec, pinball_loss
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


def test_quantile_score_is_byte_consistent_with_pinball_loss():
    rng = np.random.default_rng(6)
    y = rng.normal(size=64)
    yhat = rng.normal(size=64)
    q = 0.25
    assert quantile_score(y, yhat, q) == pinball_loss(
        yhat.reshape(-1, 1), y.reshape(-1, 1), (q,)
    )


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
    rows = report.csv_rows()
    assert [r["client_id"] for r in rows] == ["a", "macro"]
    assert set(rows[0]) == {"client_id", "qs", "mil", "icp", "n"}
