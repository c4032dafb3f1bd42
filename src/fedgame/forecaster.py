"""Per-client quantile-regression forecasters with explicit gradients.

Two small architectures share one flat-parameter contract: an MLP with
tanh hidden layers (the default for tests and desk-scale runs) and a
stacked LSTM, both ending in a dense output layer of width
``horizon * len(quantiles)``.  The config is the one source of the
flat layout (:func:`build_spec`); the final layer's blocks are flagged
``output_head`` and are the only slice exchanged for personalized
aggregation.  A model is its flat values plus its config.

Gradients are derived by hand.  One forward pass over the flat
parameter vector caches its activations, and an explicit backward
turns the pinball-loss slope into a flat gradient: dense/tanh backprop
for the MLP, backprop through time over the stacked LSTM layers.  No
autodiff tape and no external ML framework is involved.

Every client shares one architecture, so the forward and the backward
carry a leading client axis: N flat parameter vectors (N, P) and their
batches (N, B, history_len, features) give N losses and N gradients in
one pass, with ``np.matmul`` over the stacked matrices.  No operation
mixes two clients, and each client's slice sees the same operand
shapes and strides as a stack of that client alone, so a client's
bytes do not depend on who it is stacked with.  A single client is a
stack of one; there is no separate per-client path.

The LSTM backward needs every timestep's gates.  Caching them for N
clients at once would hold seven (N, B, width) arrays per timestep, so
the forward caches only the hidden and cell states and the backward
recomputes each step's gates from them with the forward's own operands
(bit-identical, at the cost of a second forward pass).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericError, StructuralError, UsageError, too_small
from .params import LayerSpec, total_params

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


@functools.cache
def build_spec(cfg: ForecasterConfig) -> tuple[LayerSpec, ...]:
    """Every parameter block, in storage order, built once per config.

    Blocks tile [0, P) contiguously and end with the output head,
    ``out.w`` then ``out.b``.  LSTM gate pre-activations are packed as
    4*H columns in i, f, g, o order (input, forget, cell, output).
    ``fan_in`` is the input width of the layer a block belongs to; all
    LSTM blocks use the hidden size.
    """
    spec: list[LayerSpec] = []

    def add(name: str, shape: tuple[int, ...], kind: str, fan_in: int) -> None:
        offset = spec[-1].stop if spec else 0
        spec.append(LayerSpec(name, shape, kind, offset, math.prod(shape), fan_in))

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
    return tuple(spec)


@dataclass
class ForecasterModel:
    """Flat parameters plus the config that plans their layout.

    The model keeps its own float64 copy of ``values`` and marks it
    read-only: models are never written in place, so rounds and states
    can share them.
    """

    values: np.ndarray
    config: ForecasterConfig

    def __post_init__(self) -> None:
        values = np.array(np.ravel(self.values), dtype=np.float64)
        total = total_params(build_spec(self.config))
        if values.size != total:
            raise StructuralError(
                f"parameter vector has {values.size} entries, the config's layout requires {total}"
            )
        if not np.isfinite(values).all():
            raise NumericError("parameter vector contains non-finite entries")
        values.flags.writeable = False
        self.values = values

    def __setstate__(self, state: dict) -> None:
        # a deep copy or an unpickled model is checked and made read-only too
        self.__init__(**state)

    @property
    def spec(self) -> tuple[LayerSpec, ...]:
        return build_spec(self.config)

    def with_params(self, values: np.ndarray) -> "ForecasterModel":
        return ForecasterModel(values, self.config)


def init_forecaster(cfg: ForecasterConfig, rng: np.random.Generator) -> ForecasterModel:
    """Uniform(-s, s) init with s = 1/sqrt(fan_in) per block."""
    chunks = []
    for block in build_spec(cfg):
        s = 1.0 / np.sqrt(block.fan_in)
        chunks.append(rng.uniform(-s, s, size=block.length))
    return ForecasterModel(np.concatenate(chunks), cfg)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)); the overflow branch saturates to the exact limit 0
    with np.errstate(over="ignore"):
        out = np.exp(-x)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _blocks(spec: tuple[LayerSpec, ...], flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> shaped view of each parameter block of the stacked ``flat``.

    ``flat`` is (N, P), one client per row.  A matrix block is viewed as
    (N, rows, cols) and a vector block as (N, 1, width), so that it
    broadcasts over a (N, B, width) batch.  The views write through.
    """
    n = flat.shape[0]
    return {b.name: flat[:, b.offset : b.stop].reshape(n, -1, b.shape[-1]) for b in spec}


def _mT(a: np.ndarray) -> np.ndarray:
    """Each client's matrix transposed: (N, r, c) -> (N, c, r), a view."""
    return a.swapaxes(1, 2)


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


def _lstm_cell(x, h, c, wx, wh, b, width: int):
    """One LSTM step: gates i, f, g, o, the new cell state and its tanh."""
    pre = x @ wx
    pre += h @ wh
    pre += b
    gi = _sigmoid(pre[..., 0 * width : 1 * width])
    gf = _sigmoid(pre[..., 1 * width : 2 * width])
    gg = np.tanh(pre[..., 2 * width : 3 * width])
    go = _sigmoid(pre[..., 3 * width : 4 * width])
    c = gf * c + gi * gg
    return gi, gf, gg, go, c, np.tanh(c)


def _lstm_cell_backward(x, h_prev, c_prev, wx, wh, b, width: int, dh, dc):
    """Gradients w.r.t. one step's pre-activations and its input cell
    state, from those w.r.t. its outputs h and c.  The gates are
    recomputed from the cached states with the forward's own operands,
    so they are the forward's bytes."""
    gi, gf, gg, go, _, tc = _lstm_cell(x, h_prev, c_prev, wx, wh, b, width)
    dc = dh * go * (1.0 - tc**2) + dc
    d_pre = np.empty(x.shape[:2] + (4 * width,))
    d_pre[..., 0 * width : 1 * width] = dc * gg * gi * (1.0 - gi)
    d_pre[..., 1 * width : 2 * width] = dc * c_prev * gf * (1.0 - gf)
    d_pre[..., 2 * width : 3 * width] = dc * gi * (1.0 - gg**2)
    d_pre[..., 3 * width : 4 * width] = dh * tc * go * (1.0 - go)
    return d_pre, dc * gf


def _forward(cfg: ForecasterConfig, w: dict[str, np.ndarray], batch: np.ndarray):
    """Predictions (N, B, output_dim) of a stack of N clients on their
    (N, B, history_len, features) batches, the output layer's input, and
    the activations the backward pass reads.

    MLP: the flattened input and every hidden activation.  LSTM: per
    layer, the input sequence and the hidden and cell states of every
    timestep (index 0 holds the zero initial states).
    """
    n, size = batch.shape[:2]
    if cfg.arch == "mlp":
        acts = [batch.reshape(n, size, cfg.history_len * cfg.features)]
        for i in range(len(cfg.hidden_sizes)):
            acts.append(np.tanh(acts[-1] @ w[f"hidden{i}.w"] + w[f"hidden{i}.b"]))
        return acts[-1] @ w["out.w"] + w["out.b"], acts[-1], acts

    seq = [batch[:, :, t, :] for t in range(cfg.history_len)]
    cache = []
    for i, width in enumerate(cfg.hidden_sizes):
        wx, wh, b = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"], w[f"lstm{i}.b"]
        h = c = np.zeros((n, size, width))
        hs, cs = [h], [c]
        for x in seq:
            _, _, _, go, c, tc = _lstm_cell(x, h, c, wx, wh, b, width)
            h = go * tc
            hs.append(h)
            cs.append(c)
        cache.append((seq, hs, cs))
        seq = hs[1:]
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
    over the stacked layers for the LSTM.  Every array carries the
    client axis first, and no operation mixes two clients.

    The floating-point order is part of the contract: products run left
    to right, every block accumulates into zeros, and the LSTM blocks
    accumulate over timesteps from last to first.  Reordering moves the
    gradients by rounding, and with them every byte of a run's reports.
    """
    g["out.w"] += _mT(head_in) @ d_pred
    g["out.b"] += d_pred.sum(axis=1, keepdims=True)

    if cfg.arch == "mlp":
        d, w_above = d_pred, w["out.w"]
        for i in reversed(range(len(cfg.hidden_sizes))):
            d = (d @ _mT(w_above)) * (1.0 - cache[i + 1] ** 2)
            g[f"hidden{i}.w"] += _mT(cache[i]) @ d
            g[f"hidden{i}.b"] += d.sum(axis=1, keepdims=True)
            w_above = w[f"hidden{i}.w"]
        return

    # gradient reaching each output of the layer from above
    d_out = [0.0] * (cfg.history_len - 1) + [d_pred @ _mT(w["out.w"])]
    for i in reversed(range(len(cfg.hidden_sizes))):
        wx, wh, b = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"], w[f"lstm{i}.b"]
        g_wx, g_wh, g_b = g[f"lstm{i}.wx"], g[f"lstm{i}.wh"], g[f"lstm{i}.b"]
        width = wh.shape[1]
        seq, hs, cs = cache[i]
        d_in = [None] * cfg.history_len
        dh = dc = 0.0
        for t in reversed(range(cfg.history_len)):
            dh = d_out[t] + dh
            d_pre, dc = _lstm_cell_backward(seq[t], hs[t], cs[t], wx, wh, b, width, dh, dc)
            g_wx += _mT(seq[t]) @ d_pre
            g_wh += _mT(hs[t]) @ d_pre
            g_b += d_pre.sum(axis=1, keepdims=True)
            if i:
                d_in[t] = d_pre @ _mT(wx)
            dh = d_pre @ _mT(wh)
            # freed before the next step's recompute, which lowers the peak
            del d_pre
        d_out = d_in


def forward_batch(model: ForecasterModel, windows: np.ndarray) -> np.ndarray:
    """Predictions for a batch of windows, shaped (n, horizon, n_quantiles).

    ``windows`` is (n, history_len, features), or (n, history_len) for a
    univariate model.  Deterministic in (values, windows).
    """
    cfg = model.config
    batch = _as_batch(cfg, windows)
    w = _blocks(build_spec(cfg), model.values[np.newaxis])
    pred = _forward(cfg, w, batch[np.newaxis])[0][0]
    if not np.all(np.isfinite(pred)):
        raise NumericError("forward produced non-finite predictions")
    return pred.reshape(batch.shape[0], cfg.horizon, len(cfg.quantiles))


def _pinball_weights(diff: np.ndarray, q_flat: np.ndarray) -> np.ndarray:
    """Piecewise slope of the pinball loss w.r.t. the prediction.

    diff = pred - target.  Where diff > 0 (over-prediction) the slope is
    1 - q; where diff <= 0 it is -q, which makes the tie at diff == 0
    take the y >= yhat branch.  Training and the evaluation metrics both
    weigh residuals with it.
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
) -> tuple[np.ndarray, np.ndarray]:
    """Mean pinball losses (N,) and flat gradients (N, P) of a stack of N clients.

    Row k of ``values`` (N, P) is client k's flat parameters, scored on
    its own checked batch: row k of ``batch`` (N, B, history_len,
    features) and ``targets`` (N, B, horizon).  No operation mixes two
    rows, so each row is bit-identical to a stack of that client alone.
    """
    spec = build_spec(cfg)
    w = _blocks(spec, values)
    pred, head_in, cache = _forward(cfg, w, batch)
    diff = pred - np.repeat(targets, len(cfg.quantiles), axis=2)
    weights = _pinball_weights(diff, np.tile(cfg.quantiles, cfg.horizon))
    scale = 1.0 / diff[0].size
    grad = np.zeros_like(values)
    _backward(cfg, w, _blocks(spec, grad), head_in, cache, scale * weights)
    return (diff * weights).reshape(len(values), -1).sum(axis=1) * scale, grad


def _one_client(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray):
    """Loss and gradient of one model on one batch, as a stack of one."""
    batch, targets = _checked_batch(model.config, windows, targets)
    losses, grads = task_loss_and_gradient(
        model.config, model.values[np.newaxis], batch[np.newaxis], targets[np.newaxis]
    )
    return float(losses[0]), grads[0]


def task_loss(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> float:
    """Mean pinball loss of the model on a batch."""
    return _one_client(model, windows, targets)[0]


def task_gradient(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean pinball loss w.r.t. all parameters, flat."""
    if np.asarray(windows).size == 0:
        raise UsageError("task_gradient needs a non-empty batch")
    return _one_client(model, windows, targets)[1]


def _require_finite(ids: list[str], ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise NumericError(f"{what} for clients {[c for c, fine in zip(ids, ok) if not fine]}")


def _train_stack(
    cfg: ForecasterConfig,
    ids: list[str],
    batch: np.ndarray,
    targets: np.ndarray,
    values: np.ndarray,
    anchor: np.ndarray,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """SGD for clients with equally many windows; trained (N, P) values
    and the (N, steps) mini-batch losses."""
    n = batch.shape[1]
    rows = np.arange(len(ids))[:, np.newaxis]
    losses = []
    for _ in range(cfg.local_epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, cfg.batch_size):
            idx = order[:, start : start + cfg.batch_size]
            loss, grad = task_loss_and_gradient(cfg, values, batch[rows, idx], targets[rows, idx])
            _require_finite(ids, np.isfinite(loss), "non-finite training loss")
            losses.append(loss)
            grad += cfg.prox_mu * (values - anchor)
            values = values - cfg.local_lr * grad
            _require_finite(
                ids, np.isfinite(values).all(axis=1), "non-finite parameters after gradient step"
            )
    return values, np.stack(losses, axis=1)


def local_train(
    models: Mapping[str, ForecasterModel],
    data: Mapping[str, object],
    global_model: ForecasterModel,
    rngs: Mapping[str, np.random.Generator],
) -> dict[str, tuple[np.ndarray, float]]:
    """Mini-batch SGD on the proximally regularized objective, for every
    client at once.

    ``models``, ``data`` and ``rngs`` are keyed by client id, and every
    model must use ``cfg``, the config of the consensus ``global_model``.
    Each ``data[cid]`` exposes ``inputs`` (n, history_len[, features])
    and ``targets`` (n, horizon).  Each client runs ``cfg.local_epochs``
    passes whose batch order is drawn from its own rng stream, and the
    proximal pull mu * (w - w_global) is added to every mini-batch
    gradient exactly.  Clients with equally many windows train as one
    stacked pass; every client's result is bit-identical to training it
    alone.  Returns client id -> (trained parameter row (P,), mean
    mini-batch task loss).
    """
    cfg = global_model.config
    sets: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for cid in sorted(models):
        # a model's layout follows from its config, so this also checks the layout
        if models[cid].config != cfg:
            raise StructuralError(
                f"client {cid!r}: model config differs from the consensus model's"
            )
        sets[cid] = _checked_batch(cfg, data[cid].inputs, data[cid].targets)
        if not len(sets[cid][0]):
            raise UsageError(f"client {cid!r}: local_train called with an empty dataset")

    stacks: dict[int, list[str]] = {}
    for cid, (batch, _) in sets.items():
        stacks.setdefault(len(batch), []).append(cid)
    out = {}
    for ids in stacks.values():
        values, losses = _train_stack(
            cfg,
            ids,
            np.stack([sets[c][0] for c in ids]),
            np.stack([sets[c][1] for c in ids]),
            np.stack([models[c].values for c in ids]),
            global_model.values,
            [rngs[c] for c in ids],
        )
        for k, cid in enumerate(ids):
            out[cid] = values[k], float(np.mean(losses[k]))
    return out
