"""Per-client quantile-regression forecasters with explicit gradients.

Two small architectures share one flat-parameter contract: an MLP with
tanh hidden layers (the default for tests and desk-scale runs) and a
stacked LSTM, both ending in a dense output layer of width
``horizon * len(quantiles)``.  That final layer is flagged
``output_head`` in the layer registry and is the only slice exchanged
for personalized aggregation.

Gradients are derived by hand.  One forward pass over the flat
parameter vector caches its activations, and an explicit backward
turns the pinball-loss slope into a flat gradient: dense/tanh backprop
for the MLP, backprop through time over the stacked LSTM layers.  No
autodiff tape and no external ML framework is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericError, StructuralError, UsageError, too_small
from .params import LayerSpec, ParameterVector

ARCHS = ("mlp", "lstm")


@dataclass(frozen=True)
class ForecasterConfig:
    """Architecture and local-training settings for one client model."""

    history_len: int
    horizon: int
    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9)
    hidden_sizes: tuple[int, ...] = (32,)
    arch: str = "mlp"
    local_lr: float = 0.0005
    local_epochs: int = 1
    prox_mu: float = 0.2
    batch_size: int = 32
    features: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "quantiles", tuple(float(q) for q in self.quantiles))
        object.__setattr__(self, "hidden_sizes", tuple(int(w) for w in self.hidden_sizes))
        problems = too_small(
            self, ("history_len", "horizon", "local_epochs", "batch_size", "features"), 1
        )
        problems += too_small(self, ("prox_mu",), 0)
        problems += too_small(self, ("local_lr",), 0, strict=True)
        quantiles = list(self.quantiles)
        if not quantiles:
            problems.append("quantiles must not be empty")
        if any(not 0.0 < q < 1.0 for q in quantiles):
            problems.append(f"quantiles must lie strictly in (0, 1), got {quantiles}")
        if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
            problems.append(f"quantiles must be strictly increasing, got {quantiles}")
        if any(w < 1 for w in self.hidden_sizes):
            problems.append(f"hidden_sizes must be positive, got {list(self.hidden_sizes)}")
        if self.arch not in ARCHS:
            problems.append(f"arch must be one of {list(ARCHS)}, got {self.arch!r}")
        elif self.arch == "lstm" and not self.hidden_sizes:
            problems.append("hidden_sizes must not be empty for arch 'lstm'")
        if problems:
            raise ConfigError(*problems)

    @property
    def output_dim(self) -> int:
        return self.horizon * len(self.quantiles)


class Block(NamedTuple):
    """One parameter block of the flat vector."""

    name: str
    shape: tuple[int, ...]
    kind: str
    offset: int
    length: int
    fan_in: int


def layer_plan(cfg: ForecasterConfig) -> list[Block]:
    """Every parameter block, in storage order.

    LSTM gate pre-activations are packed as 4*H columns in i, f, g, o
    order (input, forget, cell, output).  ``fan_in`` is the input width
    of the layer a block belongs to; all LSTM blocks use the hidden size.
    """
    plan: list[Block] = []

    def add(name: str, shape: tuple[int, ...], kind: str, fan_in: int) -> None:
        offset = plan[-1].offset + plan[-1].length if plan else 0
        plan.append(Block(name, shape, kind, offset, math.prod(shape), fan_in))

    if cfg.arch == "mlp":
        in_dim = cfg.history_len * cfg.features
        for i, width in enumerate(cfg.hidden_sizes):
            add(f"hidden{i}.w", (in_dim, width), "dense", in_dim)
            add(f"hidden{i}.b", (width,), "dense", in_dim)
            in_dim = width
    else:
        in_dim = cfg.features
        for i, width in enumerate(cfg.hidden_sizes):
            add(f"lstm{i}.wx", (in_dim, 4 * width), "recurrent", width)
            add(f"lstm{i}.wh", (width, 4 * width), "recurrent", width)
            add(f"lstm{i}.b", (4 * width,), "recurrent", width)
            in_dim = width
    add("out.w", (in_dim, cfg.output_dim), "output_head", in_dim)
    add("out.b", (cfg.output_dim,), "output_head", in_dim)
    return plan


def build_spec(cfg: ForecasterConfig) -> tuple[LayerSpec, ...]:
    return tuple(LayerSpec(b.name, b.offset, b.length, b.kind) for b in layer_plan(cfg))


@dataclass
class ForecasterModel:
    """Flat parameters plus the config that interprets them."""

    params: ParameterVector
    config: ForecasterConfig

    def __post_init__(self) -> None:
        if self.params.spec != build_spec(self.config):
            raise StructuralError("parameter spec does not match the configured architecture")

    @property
    def spec(self) -> tuple[LayerSpec, ...]:
        return self.params.spec

    def with_params(self, values: np.ndarray) -> "ForecasterModel":
        return ForecasterModel(ParameterVector(values, self.params.spec), self.config)


def init_forecaster(cfg: ForecasterConfig, rng: np.random.Generator) -> ForecasterModel:
    """Uniform(-s, s) init with s = 1/sqrt(fan_in) per block."""
    chunks = []
    for block in layer_plan(cfg):
        s = 1.0 / np.sqrt(block.fan_in)
        chunks.append(rng.uniform(-s, s, size=block.length))
    return ForecasterModel(ParameterVector(np.concatenate(chunks), build_spec(cfg)), cfg)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)); the overflow branch saturates to the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _blocks(plan: list[Block], flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> shaped view of each parameter block of ``flat``."""
    return {b.name: flat[b.offset : b.offset + b.length].reshape(b.shape) for b in plan}


def _as_batch(cfg: ForecasterConfig, windows: np.ndarray) -> np.ndarray:
    """Windows as (batch, history_len, features); 2-D input is a univariate batch."""
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim == 2 and cfg.features == 1:
        w = w[:, :, np.newaxis]
    if w.ndim != 3 or w.shape[1:] != (cfg.history_len, cfg.features):
        raise StructuralError(
            f"window batch has shape {w.shape}, expected (*, {cfg.history_len}, {cfg.features})"
        )
    return w


def _checked_batch(
    cfg: ForecasterConfig, windows: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    batch = _as_batch(cfg, windows)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (batch.shape[0], cfg.horizon):
        raise StructuralError(
            f"targets have shape {targets.shape}, expected ({batch.shape[0]}, {cfg.horizon})"
        )
    return batch, targets


def _forward(cfg: ForecasterConfig, w: dict[str, np.ndarray], batch: np.ndarray):
    """Predictions (batch, output_dim), the output layer's input, and the
    activations the backward pass reads.

    MLP: the flattened input and every hidden activation.  LSTM: per
    layer, per timestep, (x, h_prev, c_prev, i, f, g, o, tanh(c)).
    """
    n = batch.shape[0]
    if cfg.arch == "mlp":
        acts = [batch.reshape(n, -1)]
        for i in range(len(cfg.hidden_sizes)):
            acts.append(np.tanh(acts[-1] @ w[f"hidden{i}.w"] + w[f"hidden{i}.b"]))
        return acts[-1] @ w["out.w"] + w["out.b"], acts[-1], acts

    seq = [batch[:, t, :] for t in range(cfg.history_len)]
    cache = []
    for i, width in enumerate(cfg.hidden_sizes):
        wx, wh, b = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"], w[f"lstm{i}.b"]
        h = c = np.zeros((n, width))
        steps, outputs = [], []
        for x in seq:
            pre = x @ wx + h @ wh + b
            gi = _sigmoid(pre[:, 0 * width : 1 * width])
            gf = _sigmoid(pre[:, 1 * width : 2 * width])
            gg = np.tanh(pre[:, 2 * width : 3 * width])
            go = _sigmoid(pre[:, 3 * width : 4 * width])
            h_prev, c_prev = h, c
            c = gf * c + gi * gg
            tc = np.tanh(c)
            h = go * tc
            steps.append((x, h_prev, c_prev, gi, gf, gg, go, tc))
            outputs.append(h)
        cache.append(steps)
        seq = outputs
    return seq[-1] @ w["out.w"] + w["out.b"], seq[-1], cache


def _backward(
    cfg: ForecasterConfig,
    w: dict[str, np.ndarray],
    g: dict[str, np.ndarray],
    head_in: np.ndarray,
    cache: list,
    d_pred: np.ndarray,
) -> None:
    """Add the parameter gradients to the zeroed blocks ``g``, from
    d loss / d predictions: backprop for the MLP, backprop through time
    over the stacked layers for the LSTM.

    The floating-point order is part of the contract: products run left
    to right, every block accumulates into zeros, and the LSTM blocks
    accumulate over timesteps from last to first.  Reordering moves the
    gradients by rounding, and with them every byte of a run's reports.
    """
    g["out.w"] += head_in.T @ d_pred
    g["out.b"] += d_pred.sum(axis=0)

    if cfg.arch == "mlp":
        d, w_above = d_pred, w["out.w"]
        for i in reversed(range(len(cfg.hidden_sizes))):
            d = (d @ w_above.T) * (1.0 - cache[i + 1] ** 2)
            g[f"hidden{i}.w"] += cache[i].T @ d
            g[f"hidden{i}.b"] += d.sum(axis=0)
            w_above = w[f"hidden{i}.w"]
        return

    # gradient reaching each output of the layer from above
    d_out = [0.0] * (cfg.history_len - 1) + [d_pred @ w["out.w"].T]
    for i in reversed(range(len(cfg.hidden_sizes))):
        wx, wh = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"]
        g_wx, g_wh, g_b = g[f"lstm{i}.wx"], g[f"lstm{i}.wh"], g[f"lstm{i}.b"]
        width = wh.shape[0]
        d_in = [None] * cfg.history_len
        dh = dc = 0.0
        for t in reversed(range(cfg.history_len)):
            x, h_prev, c_prev, gi, gf, gg, go, tc = cache[i][t]
            dh = d_out[t] + dh
            dc = dh * go * (1.0 - tc**2) + dc
            d_pre = np.empty((x.shape[0], 4 * width))
            d_pre[:, 0 * width : 1 * width] = dc * gg * gi * (1.0 - gi)
            d_pre[:, 1 * width : 2 * width] = dc * c_prev * gf * (1.0 - gf)
            d_pre[:, 2 * width : 3 * width] = dc * gi * (1.0 - gg**2)
            d_pre[:, 3 * width : 4 * width] = dh * tc * go * (1.0 - go)
            g_wx += x.T @ d_pre
            g_wh += h_prev.T @ d_pre
            g_b += d_pre.sum(axis=0)
            if i:
                d_in[t] = d_pre @ wx.T
            dh = d_pre @ wh.T
            dc = dc * gf
        d_out = d_in


def forward_batch(model: ForecasterModel, windows: np.ndarray) -> np.ndarray:
    """Predictions for a batch of windows, shaped (n, horizon, n_quantiles).

    ``windows`` is (n, history_len, features), or (n, history_len) for a
    univariate model.  Deterministic in (params, windows).
    """
    cfg = model.config
    batch = _as_batch(cfg, windows)
    pred, _, _ = _forward(cfg, _blocks(layer_plan(cfg), model.params.values), batch)
    if not np.all(np.isfinite(pred)):
        raise NumericError("forward produced non-finite predictions")
    return pred.reshape(batch.shape[0], cfg.horizon, len(cfg.quantiles))


def _pinball_weights(diff: np.ndarray, q_flat: np.ndarray) -> np.ndarray:
    """Piecewise slope of the pinball loss w.r.t. the prediction.

    diff = pred - target.  Where diff > 0 (over-prediction) the slope is
    1 - q; where diff <= 0 it is -q, which makes the tie at diff == 0
    take the y >= yhat branch.
    """
    return np.where(diff > 0, 1.0 - q_flat, -q_flat)


def pinball_loss(pred: np.ndarray, target: np.ndarray, quantiles: Sequence[float]) -> float:
    """Mean asymmetric deviation over steps and quantiles; >= 0."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    q = np.asarray(quantiles, dtype=np.float64)
    if pred.shape != (target.size, q.size):
        raise StructuralError(
            f"pred has shape {pred.shape}, expected ({target.size}, {q.size})"
        )
    diff = pred - target[:, np.newaxis]
    return float(np.mean(_pinball_weights(diff, q[np.newaxis, :]) * diff))


def task_loss_and_gradient(
    cfg: ForecasterConfig, values: np.ndarray, batch: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean pinball loss of flat ``values`` on a checked batch, and its flat gradient."""
    plan = layer_plan(cfg)
    w = _blocks(plan, values)
    pred, head_in, cache = _forward(cfg, w, batch)
    diff = pred - np.repeat(targets, len(cfg.quantiles), axis=1)
    weights = _pinball_weights(diff, np.tile(cfg.quantiles, cfg.horizon))
    scale = 1.0 / diff.size
    grad = np.zeros_like(values)
    _backward(cfg, w, _blocks(plan, grad), head_in, cache, scale * weights)
    return float((diff * weights).sum() * scale), grad


def task_loss(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> float:
    """Mean pinball loss of the model on a batch."""
    batch, targets = _checked_batch(model.config, windows, targets)
    return task_loss_and_gradient(model.config, model.params.values, batch, targets)[0]


def task_gradient(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean pinball loss w.r.t. all parameters, flat."""
    if np.asarray(windows).size == 0:
        raise UsageError("task_gradient needs a non-empty batch")
    batch, targets = _checked_batch(model.config, windows, targets)
    return task_loss_and_gradient(model.config, model.params.values, batch, targets)[1]


def fedprox_gradient(
    model: ForecasterModel,
    windows: np.ndarray,
    targets: np.ndarray,
    global_params: ParameterVector,
    mu: float,
) -> np.ndarray:
    """Gradient of task loss + (mu/2) * |w - w_global|^2."""
    if model.params.spec != global_params.spec:
        raise StructuralError("model and global parameters use different layer specs")
    grad = task_gradient(model, windows, targets)
    return grad + mu * (model.params.values - global_params.values)


def local_train(
    model: ForecasterModel,
    data,
    global_params: ParameterVector,
    cfg: ForecasterConfig,
    rng: np.random.Generator,
) -> tuple[ForecasterModel, float]:
    """Mini-batch SGD on the proximally regularized objective.

    ``data`` must expose ``inputs`` (n, history_len[, features]) and
    ``targets`` (n, horizon).  Runs ``cfg.local_epochs`` passes; batch
    order is drawn from the client's own rng stream.  The proximal pull
    mu * (w - w_global) is added to every mini-batch gradient exactly.
    Returns the trained model and the mean mini-batch task loss.
    """
    model_cfg = model.config
    batch, targets = _checked_batch(model_cfg, data.inputs, data.targets)
    n = batch.shape[0]
    if n == 0:
        raise UsageError("local_train called with an empty dataset")
    if model.params.spec != global_params.spec:
        raise StructuralError("model and global parameters use different layer specs")

    anchor = global_params.values
    values = model.params.values.copy()
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grad = task_loss_and_gradient(model_cfg, values, batch[idx], targets[idx])
            if not np.isfinite(loss):
                raise NumericError("non-finite training loss")
            losses.append(loss)
            grad += cfg.prox_mu * (values - anchor)
            values = values - cfg.local_lr * grad
            if not np.all(np.isfinite(values)):
                raise NumericError("non-finite parameters after gradient step")
    return model.with_params(values), float(np.mean(losses))
