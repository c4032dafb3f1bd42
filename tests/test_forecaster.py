"""Tests for the quantile forecasters and local training."""

import copy
import itertools
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedgame.forecaster
from fedgame.errors import ConfigError, NumericError, StructuralError, UsageError
from fedgame.forecaster import (
    ForecasterConfig,
    ForecasterModel,
    _quantile_row,
    build_spec,
    forward_batch,
    init_forecaster,
    local_train,
    pinball_loss,
    task_gradient,
    task_loss,
    task_loss_and_gradient,
)
from fedgame.params import head_length, total_params


class Batch:
    def __init__(self, inputs, targets):
        self.inputs = inputs
        self.targets = targets


def small_config(**kw):
    defaults = dict(history_len=6, horizon=2, quantiles=(0.1, 0.5, 0.9), hidden_sizes=(5,))
    defaults.update(kw)
    return ForecasterConfig(**defaults)


def layer_arrays(model):
    """Name -> shaped ndarray view of each parameter block."""
    return {b.name: model.values[b.offset : b.stop].reshape(b.shape) for b in model.spec}


def ref_dense(x, w, b):
    """Scalar-loop dense layer, used as an independent forward oracle."""
    out = np.array(b, dtype=np.float64, copy=True)
    for j in range(w.shape[1]):
        for i in range(w.shape[0]):
            out[j] += x[i] * w[i, j]
    return out


def ref_mlp_forward(model, window):
    cfg = model.config
    arrays = layer_arrays(model)
    x = np.asarray(window, dtype=np.float64).reshape(-1)
    for i in range(len(cfg.hidden_sizes)):
        x = np.tanh(ref_dense(x, arrays[f"hidden{i}.w"], arrays[f"hidden{i}.b"]))
    out = ref_dense(x, arrays["out.w"], arrays["out.b"])
    return out.reshape(cfg.horizon, len(cfg.quantiles))


def ref_lstm_forward(model, window):
    cfg = model.config
    arrays = layer_arrays(model)
    seq = np.asarray(window, dtype=np.float64).reshape(cfg.history_len, cfg.features)
    for i, width in enumerate(cfg.hidden_sizes):
        wx, wh, b = arrays[f"lstm{i}.wx"], arrays[f"lstm{i}.wh"], arrays[f"lstm{i}.b"]
        h = np.zeros(width)
        c = np.zeros(width)
        outputs = []
        for t in range(seq.shape[0]):
            pre = ref_dense(seq[t], wx, np.zeros(4 * width)) + ref_dense(h, wh, b)
            gi = 1.0 / (1.0 + np.exp(-pre[0 * width : 1 * width]))
            gf = 1.0 / (1.0 + np.exp(-pre[1 * width : 2 * width]))
            gg = np.tanh(pre[2 * width : 3 * width])
            go = 1.0 / (1.0 + np.exp(-pre[3 * width : 4 * width]))
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            outputs.append(h)
        seq = np.stack(outputs)
    out = ref_dense(seq[-1], arrays["out.w"], arrays["out.b"])
    return out.reshape(cfg.horizon, len(cfg.quantiles))


def stack_views(cfg, flat):
    """Name -> (N, rows, cols) view of each parameter block of a stack (N, P)."""
    return {b.name: flat[:, b.offset : b.stop].reshape(len(flat), -1, b.shape[-1])
            for b in build_spec(cfg)}


def mT(a):
    return a.swapaxes(1, 2)


def ref_mlp_gradient(cfg, values, batch, targets):
    """Losses (N,) and flat gradients (N, P) of a stack of MLP clients by
    backprop in plain expressions, every intermediate a fresh array.  It
    performs the same float operations in the same order as
    task_loss_and_gradient, so its bytes pin that order."""
    n, q = len(values), np.tile(cfg.quantiles, cfg.horizon)
    w, grad = stack_views(cfg, values), np.zeros_like(values)
    g = stack_views(cfg, grad)
    acts = [batch.reshape(n, batch.shape[1], -1)]
    for i in range(len(cfg.hidden_sizes)):
        acts.append(np.tanh(acts[-1] @ w[f"hidden{i}.w"] + w[f"hidden{i}.b"]))
    diff = acts[-1] @ w["out.w"] + w["out.b"] - np.repeat(targets, len(cfg.quantiles), axis=2)
    weights, scale = np.where(diff > 0, 1.0 - q, -q), 1.0 / diff[0].size
    d = scale * weights
    g["out.w"] += mT(acts[-1]) @ d
    g["out.b"] += d.sum(axis=1, keepdims=True)
    w_above = w["out.w"]
    for i in reversed(range(len(cfg.hidden_sizes))):
        d = (d @ mT(w_above)) * (1.0 - acts[i + 1] ** 2)
        g[f"hidden{i}.w"] += mT(acts[i]) @ d
        g[f"hidden{i}.b"] += d.sum(axis=1, keepdims=True)
        w_above = w[f"hidden{i}.w"]
    return (diff * weights).reshape(n, -1).sum(axis=1) * scale, grad


def ref_lstm_recompute_gradient(cfg, values, batch, targets):
    """Losses (N,) and flat gradients (N, P) of a stack of LSTM clients by the BPTT that
    keeps only h and c and recomputes each step's gates in the backward,
    with the input product as a matmul.  It performs the same float
    operations in the same order as task_loss_and_gradient, so its bytes
    pin that order."""
    n, q = len(values), np.tile(cfg.quantiles, cfg.horizon)

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    def cell(x, h, c, i):
        width = w[f"lstm{i}.wh"].shape[1]
        pre = x @ w[f"lstm{i}.wx"] + h @ w[f"lstm{i}.wh"] + w[f"lstm{i}.b"]
        gi, gf, gg, go = (pre[..., k * width : (k + 1) * width] for k in range(4))
        gi, gf, gg, go = sigmoid(gi), sigmoid(gf), np.tanh(gg), sigmoid(go)
        c = gf * c + gi * gg
        return gi, gf, gg, go, c, np.tanh(c)

    w, grad = stack_views(cfg, values), np.zeros_like(values)
    g = stack_views(cfg, grad)
    seq, states = [batch[:, :, t, :] for t in range(cfg.history_len)], []
    for i, width in enumerate(cfg.hidden_sizes):
        hs = cs = [np.zeros((n, batch.shape[1], width))]
        for x in seq:
            _, _, _, go, c, tc = cell(x, hs[-1], cs[-1], i)
            hs, cs = hs + [go * tc], cs + [c]
        states.append((seq, hs, cs))
        seq = hs[1:]
    diff = seq[-1] @ w["out.w"] + w["out.b"] - np.repeat(targets, len(cfg.quantiles), axis=2)
    weights, scale = np.where(diff > 0, 1.0 - q, -q), 1.0 / diff[0].size
    d_pred = scale * weights
    g["out.w"] += mT(seq[-1]) @ d_pred
    g["out.b"] += d_pred.sum(axis=1, keepdims=True)
    d_out = [0.0] * (cfg.history_len - 1) + [d_pred @ mT(w["out.w"])]
    for i in reversed(range(len(cfg.hidden_sizes))):
        seq, hs, cs = states[i]
        d_in, dh, dc = [None] * cfg.history_len, 0.0, 0.0
        for t in reversed(range(cfg.history_len)):
            dh = d_out[t] + dh
            gi, gf, gg, go, _, tc = cell(seq[t], hs[t], cs[t], i)
            dc = dh * go * (1.0 - tc**2) + dc
            d_pre = np.concatenate([dc * gg * gi * (1.0 - gi), dc * cs[t] * gf * (1.0 - gf),
                                    dc * gi * (1.0 - gg**2), dh * tc * go * (1.0 - go)], axis=2)
            dc = dc * gf
            g[f"lstm{i}.wx"] += mT(seq[t]) @ d_pre
            g[f"lstm{i}.wh"] += mT(hs[t]) @ d_pre
            g[f"lstm{i}.b"] += d_pre.sum(axis=1, keepdims=True)
            d_in[t] = d_pre @ mT(w[f"lstm{i}.wx"])
            dh = d_pre @ mT(w[f"lstm{i}.wh"])
        d_out = d_in
    return (diff * weights).reshape(n, -1).sum(axis=1) * scale, grad


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(quantiles=(0.5, 0.1))
    with pytest.raises(ConfigError):
        small_config(quantiles=(0.0, 0.5))
    with pytest.raises(ConfigError):
        small_config(arch="transformer")
    with pytest.raises(ConfigError):
        small_config(arch="lstm", hidden_sizes=())
    with pytest.raises(ConfigError):
        small_config(prox_mu=-0.1)


def test_spec_shapes_mlp():
    cfg = small_config()
    spec = build_spec(cfg)
    assert [s.name for s in spec] == ["hidden0.w", "hidden0.b", "out.w", "out.b"]
    assert total_params(spec) == 6 * 5 + 5 + 5 * 6 + 6
    assert head_length(spec) == 5 * 6 + 6


def test_layout_is_built_once_per_config_and_read_only():
    cfg = small_config(arch="lstm", hidden_sizes=(4, 3))
    spec = build_spec(cfg)
    assert isinstance(spec, tuple)
    # equal configs share one spec, which every model of the config reads
    assert build_spec(small_config(arch="lstm", hidden_sizes=(4, 3))) is spec
    assert init_forecaster(cfg, np.random.default_rng(0)).spec is spec
    with pytest.raises(TypeError):
        spec[0] = spec[1]
    with pytest.raises(AttributeError):
        spec[0].offset = 1
    assert [b.name for b in spec][-2:] == ["out.w", "out.b"]


def test_with_params_checks_length_and_finiteness_on_every_call():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(3))
    values = model.values.copy()
    for _ in range(2):
        bad = values.copy()
        bad[4] = np.inf
        with pytest.raises(NumericError):
            model.with_params(bad)
        with pytest.raises(StructuralError):
            model.with_params(values[:-1])
    # the new model owns a read-only copy of the values
    fresh = model.with_params(values)
    original = values[0]
    values[0] += 1.0
    assert fresh.values[0] == original
    with pytest.raises(ValueError):
        fresh.values[0] = 0.0


def test_copied_and_unpickled_models_stay_read_only():
    model = init_forecaster(small_config(), np.random.default_rng(5))
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin.values.tobytes() == model.values.tobytes()
        with pytest.raises(ValueError):
            twin.values[0] = 0.0


def test_lstm_head_sizes_for_reference_architecture():
    cfg = ForecasterConfig(
        history_len=24, horizon=6, quantiles=(0.1, 0.5, 0.9),
        hidden_sizes=(256, 128), arch="lstm",
    )
    assert head_length(build_spec(cfg)) == 2322
    cfg12 = ForecasterConfig(
        history_len=24, horizon=12, quantiles=(0.1, 0.5, 0.9),
        hidden_sizes=(256, 128), arch="lstm",
    )
    assert head_length(build_spec(cfg12)) == 4644


def test_forward_matches_reference_mlp():
    cfg = small_config(hidden_sizes=(5, 4))
    model = init_forecaster(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(5):
        window = rng.normal(size=cfg.history_len)
        np.testing.assert_allclose(
            forward_batch(model, window[np.newaxis])[0], ref_mlp_forward(model, window),
            rtol=0, atol=1e-10,
        )


def test_forward_matches_reference_lstm():
    cfg = small_config(arch="lstm", hidden_sizes=(4, 3))
    model = init_forecaster(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    for _ in range(3):
        window = rng.normal(size=cfg.history_len)
        np.testing.assert_allclose(
            forward_batch(model, window[np.newaxis])[0], ref_lstm_forward(model, window),
            rtol=0, atol=1e-10,
        )


def test_forward_batch_agrees_with_single_forward():
    cfg = small_config(arch="lstm", hidden_sizes=(3,))
    model = init_forecaster(cfg, np.random.default_rng(4))
    windows = np.random.default_rng(5).normal(size=(4, cfg.history_len))
    batched = forward_batch(model, windows)
    for i in range(4):
        single = forward_batch(model, windows[i : i + 1])[0]
        np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_zero_weights_mlp_outputs_bias():
    cfg = small_config()
    model = ForecasterModel(np.zeros(total_params(build_spec(cfg))), cfg)
    bias = np.linspace(-1.0, 1.0, cfg.output_dim)
    values = model.values.copy()
    values[-cfg.output_dim :] = bias
    model = model.with_params(values)
    pred = forward_batch(model, np.random.default_rng(0).normal(size=(1, cfg.history_len)))[0]
    np.testing.assert_array_equal(pred.reshape(-1), bias)


def test_identity_linear_model_is_constant_on_constant_window():
    cfg = ForecasterConfig(history_len=6, horizon=2, quantiles=(0.1, 0.5, 0.9), hidden_sizes=())
    values = np.concatenate([np.eye(6).reshape(-1), np.zeros(6)])
    model = ForecasterModel(values, cfg)
    pred = forward_batch(model, np.full((1, 6), 3.25))[0]
    np.testing.assert_array_equal(pred, np.full((2, 3), 3.25))


def test_forward_batch_rejects_non_finite_predictions():
    cfg = small_config(hidden_sizes=())
    model = ForecasterModel(np.full(total_params(build_spec(cfg)), 1e308), cfg)
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        forward_batch(model, np.ones((1, cfg.history_len)))


def test_pinball_loss_hand_example():
    # one step, quantiles 0.1 and 0.9, pred (2.0, 4.0), target 3.0:
    # under-prediction at q=0.1 costs 0.1*1, over-prediction at q=0.9
    # costs 0.1*1, mean = 0.1
    loss = pinball_loss(np.array([[2.0, 4.0]]), np.array([3.0]), (0.1, 0.9))
    assert loss == pytest.approx(0.1, abs=1e-12)


def test_pinball_loss_nonnegative_and_zero_at_target():
    rng = np.random.default_rng(6)
    q = (0.1, 0.5, 0.9)
    for _ in range(20):
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=4)
        assert pinball_loss(pred, target, q) >= 0.0
    target = rng.normal(size=4)
    exact = np.repeat(target[:, None], 3, axis=1)
    assert pinball_loss(exact, target, q) == 0.0


def test_empty_batches_are_usage_errors():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(26))
    windows, targets = np.zeros((0, cfg.history_len)), np.zeros((0, cfg.horizon))
    for call in (task_loss, task_gradient):
        with pytest.raises(UsageError, match="non-empty batch"):
            call(model, windows, targets)
    with pytest.raises(UsageError, match="at least one target"):
        pinball_loss(np.zeros((0, 3)), np.zeros(0), cfg.quantiles)
    with pytest.raises(UsageError, match="one quantile level"):
        pinball_loss(np.zeros((2, 0)), np.zeros(2), ())


def test_quantile_row_is_built_once_per_config_and_read_only():
    cfg = small_config(horizon=3, quantiles=(0.2, 0.7))
    row = _quantile_row(cfg)
    assert row.tobytes() == np.tile(cfg.quantiles, cfg.horizon).tobytes()
    assert _quantile_row(small_config(horizon=3, quantiles=(0.2, 0.7))) is row
    with pytest.raises(ValueError):
        row[0] = 0.5


def test_pinball_penalizes_the_correct_side_more():
    q = (0.9,)
    target = np.array([0.0])
    under = pinball_loss(np.array([[-1.0]]), target, q)
    over = pinball_loss(np.array([[1.0]]), target, q)
    assert under == pytest.approx(0.9, abs=1e-12)
    assert over == pytest.approx(0.1, abs=1e-12)


def fd_task_gradient(model, windows, targets, eps=1e-5):
    values = model.values.copy()
    grad = np.zeros_like(values)
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + eps
        hi = task_loss(model.with_params(values), windows, targets)
        values[i] = orig - eps
        lo = task_loss(model.with_params(values), windows, targets)
        values[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def assert_grad_close(model, windows, targets, rtol=1e-4):
    analytic = task_gradient(model, windows, targets)
    numeric = fd_task_gradient(model, windows, targets)
    scale = np.maximum(np.abs(numeric), 1e-6)
    assert np.max(np.abs(analytic - numeric) / scale) < rtol


# (config overrides, init seed, batch size); the data seed is init + 1.
# Stacked layers, a linear model and features=2 reach the inter-layer
# and input-feature paths of the backward.
MLP_GRADIENT_CASES = [
    (dict(hidden_sizes=(8,)), 7, 6),
    (dict(hidden_sizes=(5, 4)), 26, 6),
    (dict(hidden_sizes=()), 28, 6),
    (dict(hidden_sizes=(8,), features=2), 30, 6),
]
LSTM_GRADIENT_CASES = [
    (dict(arch="lstm", hidden_sizes=(6,)), 9, 4),
    (dict(arch="lstm", hidden_sizes=(4, 3)), 32, 4),
    (dict(arch="lstm", hidden_sizes=(6,), features=2), 34, 4),
    (dict(arch="lstm", hidden_sizes=(1, 3)), 36, 4),
]


def check_task_gradient(overrides, seed, n):
    cfg = small_config(**overrides)
    model = init_forecaster(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    windows = rng.normal(size=(n, cfg.history_len, cfg.features))
    targets = rng.normal(size=(n, cfg.horizon)) + 5.0
    # keep every residual far from the pinball kink so the finite
    # difference never crosses it
    pred = forward_batch(model, windows)
    assert np.min(np.abs(pred - targets[:, :, None])) > 1e-2, overrides
    assert_grad_close(model, windows, targets)


def test_task_gradient_matches_finite_differences_mlp():
    for case in MLP_GRADIENT_CASES:
        check_task_gradient(*case)


def test_task_gradient_matches_finite_differences_lstm():
    for case in LSTM_GRADIENT_CASES:
        check_task_gradient(*case)


def one_full_batch_step(cfg, model, anchor, windows, targets):
    """Parameters after local_train's single SGD step over the whole batch."""
    assert cfg.local_epochs == 1 and cfg.batch_size >= len(windows)
    return local_train({"c": model}, {"c": Batch(windows, targets)}, anchor,
                       {"c": np.random.default_rng(0)})["c"]


def test_local_train_step_adds_exact_proximal_pull():
    cfg = small_config(prox_mu=0.7)
    model = init_forecaster(cfg, np.random.default_rng(11))
    anchor = init_forecaster(cfg, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    # one window, so the batch order cannot move the task gradient's bits
    windows = rng.normal(size=(1, cfg.history_len))
    targets = rng.normal(size=(1, cfg.horizon))
    task = task_gradient(model, windows, targets)
    expected = task + 0.7 * (model.values - anchor.values)
    trained, _ = one_full_batch_step(cfg, model, anchor, windows, targets)
    assert trained.tobytes() == (model.values - cfg.local_lr * expected).tobytes()
    # at the anchor the pull vanishes and the step is the task step alone
    trained, _ = one_full_batch_step(cfg, model, model, windows, targets)
    assert trained.tobytes() == (model.values - cfg.local_lr * task).tobytes()


def test_local_train_single_step_matches_hand_computation():
    cfg = small_config(local_lr=0.01, local_epochs=1, batch_size=8, prox_mu=0.3)
    model = init_forecaster(cfg, np.random.default_rng(14))
    anchor = init_forecaster(cfg, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    windows = rng.normal(size=(4, cfg.history_len))
    targets = rng.normal(size=(4, cfg.horizon))

    grad = task_gradient(model, windows, targets)
    grad = grad + cfg.prox_mu * (model.values - anchor.values)
    expected = model.values - cfg.local_lr * grad

    trained, loss = one_full_batch_step(cfg, model, anchor, windows, targets)
    np.testing.assert_allclose(trained, expected, rtol=0, atol=1e-12)
    assert loss == pytest.approx(task_loss(model, windows, targets), abs=1e-12)


def test_local_train_is_deterministic_in_the_rng():
    cfg = small_config(local_epochs=2, batch_size=2)
    model = init_forecaster(cfg, np.random.default_rng(17))
    anchor = model
    rng = np.random.default_rng(18)
    windows = rng.normal(size=(7, cfg.history_len))
    targets = rng.normal(size=(7, cfg.horizon))
    data = Batch(windows, targets)
    a, loss_a = local_train({"c": model}, {"c": data}, anchor,
                            {"c": np.random.default_rng(42)})["c"]
    b, loss_b = local_train({"c": model}, {"c": data}, anchor,
                            {"c": np.random.default_rng(42)})["c"]
    np.testing.assert_array_equal(a, b)
    assert loss_a == loss_b


def test_large_mu_contracts_toward_anchor():
    cfg = small_config(local_lr=1e-7, prox_mu=1e6, local_epochs=3, batch_size=4)
    model = init_forecaster(cfg, np.random.default_rng(19))
    anchor = init_forecaster(cfg, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    data = Batch(rng.normal(size=(4, cfg.history_len)), rng.normal(size=(4, cfg.horizon)))
    start = np.linalg.norm(model.values - anchor.values)
    trained, _ = local_train({"c": model}, {"c": data}, anchor,
                             {"c": np.random.default_rng(1)})["c"]
    end = np.linalg.norm(trained - anchor.values)
    assert end < start


def test_local_train_rejects_empty_dataset():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(22))
    empty = Batch(np.zeros((0, cfg.history_len)), np.zeros((0, cfg.horizon)))
    with pytest.raises(UsageError):
        local_train({"c": model}, {"c": empty}, model, {"c": np.random.default_rng(0)})


# Architectures for the stacked pass; each runs every stack size with
# every batch size below.  features=2 reaches the input-feature matmul,
# and hidden_sizes=(1, 3) the broadcast input product on an upper layer.
# (5, 3, 7) stacks three layers whose widths are not multiples of the
# SIMD width, so many slots of a cache block start off a vector boundary;
# the MLP's () has no hidden layer and an empty activation block.
STACK_CASES = [
    dict(hidden_sizes=(32,)),
    dict(hidden_sizes=(8, 5), features=2),
    dict(hidden_sizes=(3,)),
    dict(hidden_sizes=(5, 3, 7)),
    dict(hidden_sizes=()),
    dict(arch="lstm", hidden_sizes=(16,)),
    dict(arch="lstm", hidden_sizes=(6, 4), features=2),
    dict(arch="lstm", hidden_sizes=(2,)),
    dict(arch="lstm", hidden_sizes=(1, 3)),
    dict(arch="lstm", hidden_sizes=(5, 3, 7)),
]


def test_stacked_loss_and_gradient_equal_each_client_alone():
    rng = np.random.default_rng(40)
    for overrides in STACK_CASES:
        cfg = small_config(**overrides)
        total = total_params(build_spec(cfg))
        for n, size in itertools.product((1, 3, 8, 32), (1, 7, 32)):
            values = rng.uniform(-0.5, 0.5, size=(n, total))
            batch = rng.normal(size=(n, size, cfg.history_len, cfg.features))
            targets = rng.normal(size=(n, size, cfg.horizon))
            losses, grads = task_loss_and_gradient(cfg, values, batch, targets)
            assert losses.shape == (n,) and grads.shape == values.shape
            for k in range(n):
                model = ForecasterModel(values[k], cfg)
                case = (overrides, n, size, k)
                assert task_loss(model, batch[k], targets[k]) == losses[k], case
                grad = task_gradient(model, batch[k], targets[k])
                assert grad.tobytes() == grads[k].tobytes(), case


def test_cached_gate_gradients_equal_the_recomputing_bptt_bit_for_bit():
    rng = np.random.default_rng(41)
    for overrides in STACK_CASES:
        cfg = small_config(**overrides)
        if cfg.arch != "lstm":
            continue
        for n, size in ((1, 1), (3, 7), (8, 32)):
            values = rng.uniform(-0.5, 0.5, size=(n, total_params(build_spec(cfg))))
            batch = rng.normal(size=(n, size, cfg.history_len, cfg.features))
            targets = rng.normal(size=(n, size, cfg.horizon))
            _, grads = task_loss_and_gradient(cfg, values, batch, targets)
            _, expected = ref_lstm_recompute_gradient(cfg, values, batch, targets)
            assert grads.tobytes() == expected.tobytes(), (overrides, n, size)


def test_mlp_gradients_equal_the_plain_expression_backprop_bit_for_bit():
    rng = np.random.default_rng(42)
    for overrides in STACK_CASES:
        cfg = small_config(**overrides)
        if cfg.arch != "mlp":
            continue
        for n, size in ((1, 1), (3, 7), (8, 32), (32, 32)):
            values = rng.uniform(-0.5, 0.5, size=(n, total_params(build_spec(cfg))))
            batch = rng.normal(size=(n, size, cfg.history_len, cfg.features))
            targets = rng.normal(size=(n, size, cfg.horizon))
            losses, grads = task_loss_and_gradient(cfg, values, batch, targets)
            ref_losses, expected = ref_mlp_gradient(cfg, values, batch, targets)
            assert losses.tobytes() == ref_losses.tobytes(), (overrides, n, size)
            assert grads.tobytes() == expected.tobytes(), (overrides, n, size)


# Minor page faults per loss-and-gradient step of one architecture, run in
# a fresh interpreter: earlier tests in this process may have raised
# malloc's thresholds, which would hide the faults this probe looks for.
FAULT_PROBE = """
import resource, statistics, sys
import numpy as np
from fedgame.forecaster import ForecasterConfig, build_spec, task_loss_and_gradient
from fedgame.params import total_params

arch, n, width = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cfg = ForecasterConfig(history_len=12, horizon=2, hidden_sizes=(width,), arch=arch)
rng = np.random.default_rng(0)
values = rng.uniform(-0.5, 0.5, size=(n, total_params(build_spec(cfg))))
batch = rng.normal(size=(n, 32, cfg.history_len, cfg.features))
targets = rng.normal(size=(n, 32, cfg.horizon))
faults = []
for _ in range(3 + 20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, grad = task_loss_and_gradient(cfg, values, batch, targets)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    values = values - 1e-3 * grad
print(statistics.median(faults[3:]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the fault counts follow glibc malloc's trim and mmap thresholds",
)
@pytest.mark.parametrize("arch, n, width", [("mlp", 32, 32), ("lstm", 8, 16)])
def test_training_step_takes_no_page_faults_once_warm(arch, n, width):
    # each step's temporaries sit in one block large enough to raise
    # glibc's trim threshold above the step's working set, so the heap
    # keeps their pages from one step to the next
    src = str(Path(fedgame.forecaster.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    probe = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, arch, str(n), str(width)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120, check=True,
    )
    assert float(probe.stdout) == 0, probe.stdout


def test_local_train_stacks_are_bit_identical_to_one_client_at_a_time(monkeypatch):
    sizes = {"a": 11, "b": 6, "c": 11, "d": 11, "e": 6}
    for overrides in (dict(hidden_sizes=(5,)), dict(arch="lstm", hidden_sizes=(4, 3))):
        cfg = small_config(local_epochs=2, batch_size=4, local_lr=0.05, **overrides)
        anchor = init_forecaster(cfg, np.random.default_rng(50))
        models = {c: init_forecaster(cfg, np.random.default_rng(51 + i))
                  for i, c in enumerate(sizes)}
        rng = np.random.default_rng(60)
        data = {c: Batch(rng.normal(size=(n, cfg.history_len)), rng.normal(size=(n, cfg.horizon)))
                for c, n in sizes.items()}

        def streams():
            return {c: np.random.default_rng(70 + i) for i, c in enumerate(sizes)}

        stack_sizes = []
        stacked = fedgame.forecaster.task_loss_and_gradient

        def spy(cfg, values, batch, targets, **kwargs):
            stack_sizes.append(len(values))
            return stacked(cfg, values, batch, targets, **kwargs)

        monkeypatch.setattr(fedgame.forecaster, "task_loss_and_gradient", spy)
        together_rngs = streams()
        together = local_train(models, data, anchor, together_rngs)
        monkeypatch.undo()
        # 11 windows in batches of 4 is 3 steps an epoch, 6 windows 2 steps
        assert sorted(stack_sizes) == [2] * 4 + [3] * 6
        assert sorted(together) == sorted(sizes)
        alone_rngs = streams()
        for cid in sizes:
            values, loss = local_train({cid: models[cid]}, {cid: data[cid]}, anchor,
                                       {cid: alone_rngs[cid]})[cid]
            assert together[cid][0].tobytes() == values.tobytes()
            assert together[cid][1] == loss
            assert (together_rngs[cid].bit_generator.state
                    == alone_rngs[cid].bit_generator.state)


def reference_local_train(models, data, anchor, rngs):
    """local_train as plain SGD, one client at a time: a fancy gather of
    each step's windows, the targets repeated per quantile by the
    plain-expression gradients above, and ``values = values - lr * grad``."""
    cfg = anchor.config
    gradient = ref_mlp_gradient if cfg.arch == "mlp" else ref_lstm_recompute_gradient
    out = {}
    for cid in sorted(models):
        inputs = np.asarray(data[cid].inputs).reshape(-1, cfg.history_len, cfg.features)
        targets = np.asarray(data[cid].targets)
        values, losses = models[cid].values[np.newaxis], []
        for _ in range(cfg.local_epochs):
            order = rngs[cid].permutation(len(inputs))
            for start in range(0, len(inputs), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                loss, grad = gradient(cfg, values, inputs[idx][np.newaxis],
                                      targets[idx][np.newaxis])
                losses.append(loss[0])
                grad = grad + cfg.prox_mu * (values - anchor.values)
                values = values - cfg.local_lr * grad
        out[cid] = values[0], float(np.mean(losses))
    return out


@pytest.mark.parametrize("overrides", [
    dict(hidden_sizes=(5,)),
    dict(arch="lstm", hidden_sizes=(4, 3), features=2),
])
def test_local_train_equals_a_plain_sgd_loop_bit_for_bit(overrides):
    # 11 windows in batches of 4 end on a batch of 3, and 6 on a batch of 2;
    # the clients form a stack of three and a stack of two
    sizes = {"a": 11, "b": 6, "c": 11, "d": 6, "e": 11}
    cfg = small_config(local_epochs=2, batch_size=4, local_lr=0.05, prox_mu=0.3, **overrides)
    anchor = init_forecaster(cfg, np.random.default_rng(90))
    models = {c: init_forecaster(cfg, np.random.default_rng(91 + i)) for i, c in enumerate(sizes)}
    rng = np.random.default_rng(92)
    data = {c: Batch(rng.normal(size=(n, cfg.history_len, cfg.features)),
                     rng.normal(size=(n, cfg.horizon))) for c, n in sizes.items()}

    def streams():
        return {c: np.random.default_rng(93 + i) for i, c in enumerate(sizes)}

    trained = local_train(models, data, anchor, streams())
    expected = reference_local_train(models, data, anchor, streams())
    assert sorted(trained) == sorted(expected)
    for cid, (values, loss) in expected.items():
        assert trained[cid][0].tobytes() == values.tobytes(), cid
        assert trained[cid][1] == loss, cid


def test_local_train_writes_none_of_its_inputs():
    cfg = small_config(local_epochs=2, batch_size=3)
    anchor = init_forecaster(cfg, np.random.default_rng(94))
    models = {c: init_forecaster(cfg, np.random.default_rng(95 + i)) for i, c in enumerate("abc")}
    rng = np.random.default_rng(98)
    data = {c: Batch(rng.normal(size=(n, cfg.history_len)), rng.normal(size=(n, cfg.horizon)))
            for c, n in zip("abc", (7, 7, 4))}
    arrays = [anchor.values] + [m.values for m in models.values()]
    arrays += [a for d in data.values() for a in (d.inputs, d.targets)]
    before = [a.tobytes() for a in arrays]
    for a in arrays:
        a.flags.writeable = False  # a write in place raises
    trained = local_train(models, data, anchor, {c: np.random.default_rng(99) for c in data})
    assert [a.tobytes() for a in arrays] == before
    assert all(not np.shares_memory(values, a) for values, _ in trained.values() for a in arrays)


def test_local_train_names_a_client_without_data_or_rng_stream():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(100))
    data = Batch(np.zeros((2, cfg.history_len)), np.zeros((2, cfg.horizon)))
    rngs = {c: np.random.default_rng(101) for c in "ab"}
    untouched = rngs["a"].bit_generator.state
    with pytest.raises(UsageError, match=r"client 'b': .*no training data"):
        local_train({"a": model, "b": model}, {"a": data}, model, rngs)
    with pytest.raises(UsageError, match=r"client 'b': .*no rng stream"):
        local_train({"a": model, "b": model}, {"a": data, "b": data}, model, {"a": rngs["a"]})
    # both are found before any training
    assert rngs["a"].bit_generator.state == untouched


def test_non_finite_loss_names_the_client():
    cfg = small_config()
    anchor = init_forecaster(cfg, np.random.default_rng(80))
    rng = np.random.default_rng(81)
    data = {c: Batch(rng.normal(size=(5, cfg.history_len)), rng.normal(size=(5, cfg.horizon)))
            for c in ("a", "b", "c")}
    data["b"].targets[2, 0] = np.inf
    models = {c: init_forecaster(cfg, np.random.default_rng(82)) for c in data}
    with pytest.raises(NumericError, match=r"non-finite training loss for clients \['b'\]$"):
        local_train(models, data, anchor, {c: np.random.default_rng(83) for c in data})


def test_local_train_rejects_mismatched_configs():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(85))
    other = init_forecaster(small_config(local_lr=0.1), np.random.default_rng(84))
    wider = init_forecaster(small_config(hidden_sizes=(7,)), np.random.default_rng(87))
    data = Batch(np.zeros((2, cfg.history_len)), np.zeros((2, cfg.horizon)))
    rngs = {c: np.random.default_rng(86) for c in "ab"}
    with pytest.raises(StructuralError, match="'b'"):
        local_train({"a": model, "b": other}, {"a": data, "b": data}, model, rngs)
    # the consensus's config is the training config
    with pytest.raises(StructuralError, match="'a'"):
        local_train({"a": model}, {"a": data}, wider, rngs)


def test_mismatched_specs_are_rejected():
    cfg = small_config()
    other = small_config(hidden_sizes=(7,))
    model = init_forecaster(cfg, np.random.default_rng(23))
    anchor = init_forecaster(other, np.random.default_rng(24))
    data = Batch(np.zeros((2, cfg.history_len)), np.zeros((2, cfg.horizon)))
    with pytest.raises(StructuralError):
        local_train({"c": model}, {"c": data}, anchor, {"c": np.random.default_rng(0)})
    with pytest.raises(StructuralError):
        ForecasterModel(anchor.values, cfg)


def test_forward_rejects_wrong_window_shape():
    cfg = small_config()
    model = init_forecaster(cfg, np.random.default_rng(25))
    with pytest.raises(StructuralError):
        forward_batch(model, np.zeros((1, cfg.history_len + 1)))
