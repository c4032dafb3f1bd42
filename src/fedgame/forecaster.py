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

The LSTM forward caches every timestep's gates i, f, g, o and tanh(c)
next to h and c, and the backward reads them instead of re-running the
forward.  Each layer's cache is one float64 block of (7T + 2, N, B, W):
h at steps 0..T, c at steps 0..T, then the gates as (T, 5, N, B, W),
~2.8 MB at N=8, B=32, W=16, T=12.  The gates are gate-major, so each is
one contiguous (N, B, W) array; in a (T, N, B, 5W) layout every gate is
a strided view, and the cell's gate ufuncs ran 1.8x slower.  It is one
allocation because glibc's malloc raises its trim threshold to twice
the size of the largest mmapped chunk freed so far: one 2.8 MB block
lifts it above a training step's working set, so the heap keeps the
step's pages.  As ~86 arrays of 32 KB the cache was trimmed and faulted
in again on every step, ~650 minor faults a step on ``lstm_fedavg``
(none now), and its median round fell from ~42 to ~32 ms (2-CPU Xeon,
numpy 2.4).

The MLP forward does the same with one float64 block per step of
N*B*(sum(hidden_sizes) + 3*max(hidden_sizes)): every hidden activation
as a contiguous (N, B, W) slice, then three scratch slots of the widest
layer, into which the backward writes each layer's delta and its
1 - a**2 term with ``out=``.  At N=32, B=32, W=32 each activation or
delta is 256 KB, above glibc's default mmap threshold; as separate
arrays the step faulted them in again every time, ~220 minor faults a
step on ``wide_server``, and with the scratch in a second block ~25.
One ~1 MB block takes none once warm.  Other allocators compute the
same bytes, perhaps no faster.

Local training runs each stack of clients with equally many windows
through one loop: every epoch gathers the windows in the drawn orders
once, each step slices its mini-batch from them, and the gradient
(``task_loss_and_gradient(..., out=)``), the proximal pull and the
update go into buffers allocated once per stack, before any step's
cache block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError, NumericError, StructuralError, UsageError, too_small, typed_fields,
)
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
        problems, bad = typed_fields(self)
        problems += too_small(
            self, ("history_len", "horizon", "local_epochs", "batch_size", "features"), 1, bad
        )
        problems += too_small(self, ("prox_mu",), 0, bad)
        problems += too_small(self, ("local_lr",), 0, bad, strict=True)
        if "quantiles" not in bad:
            quantiles = list(self.quantiles)
            if not quantiles:
                problems.append("quantiles must not be empty")
            if any(not 0.0 < q < 1.0 for q in quantiles):
                problems.append(f"quantiles must lie strictly in (0, 1), got {quantiles}")
            if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
                problems.append(f"quantiles must be strictly increasing, got {quantiles}")
        if "hidden_sizes" not in bad and any(w < 1 for w in self.hidden_sizes):
            problems.append(f"hidden_sizes must be positive, got {list(self.hidden_sizes)}")
        if "arch" not in bad and self.arch not in ARCHS:
            problems.append(f"arch must be one of {list(ARCHS)}, got {self.arch!r}")
        elif self.arch == "lstm" and "hidden_sizes" not in bad and not self.hidden_sizes:
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


@functools.cache
def _quantile_row(cfg: ForecasterConfig) -> np.ndarray:
    """The quantile level of each output column, built once per config
    and read-only: ``cfg.quantiles`` repeated for every horizon step."""
    row = np.tile(cfg.quantiles, cfg.horizon)
    row.flags.writeable = False
    return row


@dataclass(eq=False)
class ForecasterModel:
    """Flat parameters plus the config that plans their layout.

    The model keeps its own float64 copy of ``values`` and marks it
    read-only: models are never written in place, so rounds and states
    can share them.  ``==`` is identity; parameters compare by ``values``.
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


def _sigmoid(x: np.ndarray, out: np.ndarray) -> None:
    # 1/(1+exp(-x)) into out; the caller ignores overflow, which saturates to the exact limit 0
    np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


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


def _lstm_cell(x, h, c, wx, wh, b, gates, h_out, c_out) -> None:
    """One LSTM step from input x and state (h, c): writes the gates i, f,
    g, o and tanh(c) into ``gates`` (5, N, B, W) and the new state into
    ``h_out`` and ``c_out``."""
    width = h_out.shape[-1]
    pre = h @ wh
    # one input feature broadcasts, as the (N, B, 1) @ (N, 1, 4W) matmul skips BLAS; addition
    # commutes, so only an exact zero's sign can differ, which a nonzero bias erases
    pre += x * wx if wx.shape[1] == 1 else x @ wx
    pre += b
    gi, gf, gg, go, tc = gates
    with np.errstate(over="ignore"):
        for k, gate in ((0, gi), (1, gf), (3, go)):
            _sigmoid(pre[..., k * width : (k + 1) * width], out=gate)
    np.tanh(pre[..., 2 * width : 3 * width], out=gg)
    np.multiply(gf, c, out=c_out)
    c_out += gi * gg
    np.multiply(go, np.tanh(c_out, out=tc), out=h_out)


def _lstm_cell_backward(gates, c_prev, dh, dc):
    """Gradients w.r.t. one step's pre-activations and its input cell
    state, from those w.r.t. its outputs h and c and the step's cached
    gates i, f, g, o and tanh(c)."""
    gi, gf, gg, go, tc = gates
    width = gi.shape[-1]
    dc = dh * go * (1.0 - tc**2) + dc
    d_pre = np.empty(gi.shape[:-1] + (4 * width,))
    d_pre[..., 0 * width : 1 * width] = dc * gg * gi * (1.0 - gi)
    d_pre[..., 1 * width : 2 * width] = dc * c_prev * gf * (1.0 - gf)
    d_pre[..., 2 * width : 3 * width] = dc * gi * (1.0 - gg**2)
    d_pre[..., 3 * width : 4 * width] = dh * tc * go * (1.0 - go)
    return d_pre, dc * gf


def _forward(cfg: ForecasterConfig, w: dict[str, np.ndarray], batch: np.ndarray):
    """Predictions (N, B, output_dim) of a stack of N clients on their
    (N, B, history_len, features) batches, the output layer's input, and
    the activations the backward pass reads.

    MLP: the flattened input and every hidden activation, then three
    scratch slots of the widest layer for the backward, all views of one
    block (see the module docstring).  LSTM: per layer, the input
    sequence and three views of the layer's one cache block: every
    timestep's hidden and cell states (index 0 holds the zeros) and its
    gates i, f, g, o and tanh(c).  Writing into views with ``out=`` keeps
    every float operation and its order, which the bit-for-bit tests pin.
    """
    n, size = batch.shape[:2]
    if cfg.arch == "mlp":
        widths = cfg.hidden_sizes
        blk = np.empty(n * size * (sum(widths) + 3 * max(widths, default=0)))
        acts, start = [batch.reshape(n, size, cfg.history_len * cfg.features)], 0
        for i, width in enumerate(widths):
            a = blk[start : start + n * size * width].reshape(n, size, width)
            start += a.size
            np.matmul(acts[-1], w[f"hidden{i}.w"], out=a)
            a += w[f"hidden{i}.b"]
            np.tanh(a, out=a)
            acts.append(a)
        return acts[-1] @ w["out.w"] + w["out.b"], acts[-1], (acts, blk[start:].reshape(3, -1))

    steps = cfg.history_len
    seq = [batch[:, :, t, :] for t in range(steps)]
    cache = []
    for i, width in enumerate(cfg.hidden_sizes):
        wx, wh, b = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"], w[f"lstm{i}.b"]
        blk = np.empty((7 * steps + 2, n, size, width))
        hs, cs = blk[: steps + 1], blk[steps + 1 : 2 * steps + 2]
        gates = blk[2 * steps + 2 :].reshape(steps, 5, n, size, width)
        hs[0] = cs[0] = 0.0
        for t, x in enumerate(seq):
            _lstm_cell(x, hs[t], cs[t], wx, wh, b, gates[t], hs[t + 1], cs[t + 1])
        cache.append((seq, hs, cs, gates))
        seq = hs[1:]
    return seq[-1] @ w["out.w"] + w["out.b"], seq[-1], cache


def _backward(
    cfg: ForecasterConfig,
    w: dict[str, np.ndarray],
    g: dict[str, np.ndarray],
    head_in: np.ndarray,
    cache: tuple | list,
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
        # each layer's d goes to slot 0 or 2 while the d from the layer
        # above is read from the other one; slot 1 holds 1 - a**2
        acts, slots = cache
        d, w_above = d_pred, w["out.w"]
        for i in reversed(range(len(cfg.hidden_sizes))):
            a = acts[i + 1]
            d = np.matmul(d, _mT(w_above), out=slots[2 * (i % 2), : a.size].reshape(a.shape))
            slope = slots[1, : a.size].reshape(a.shape)
            np.square(a, out=slope)
            np.subtract(1.0, slope, out=slope)
            d *= slope
            g[f"hidden{i}.w"] += _mT(acts[i]) @ d
            g[f"hidden{i}.b"] += d.sum(axis=1, keepdims=True)
            w_above = w[f"hidden{i}.w"]
        return

    # gradient reaching each output of the layer from above
    d_out = [0.0] * (cfg.history_len - 1) + [d_pred @ _mT(w["out.w"])]
    for i in reversed(range(len(cfg.hidden_sizes))):
        wx, wh = w[f"lstm{i}.wx"], w[f"lstm{i}.wh"]
        g_wx, g_wh, g_b = g[f"lstm{i}.wx"], g[f"lstm{i}.wh"], g[f"lstm{i}.b"]
        seq, hs, cs, gates = cache[i]
        d_in = [None] * cfg.history_len
        dh = dc = 0.0
        for t in reversed(range(cfg.history_len)):
            dh = d_out[t] + dh
            d_pre, dc = _lstm_cell_backward(gates[t], cs[t], dh, dc)
            g_wx += _mT(seq[t]) @ d_pre
            g_wh += _mT(hs[t]) @ d_pre
            g_b += d_pre.sum(axis=1, keepdims=True)
            if i:
                d_in[t] = d_pre @ _mT(wx)
            dh = d_pre @ _mT(wh)
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
    if not pred.size:
        raise UsageError("pinball_loss needs at least one target and one quantile level")
    diff = pred - target[:, np.newaxis]
    return float(np.mean(_pinball_weights(diff, q[np.newaxis, :]) * diff))


def task_loss_and_gradient(
    cfg: ForecasterConfig, values: np.ndarray, batch: np.ndarray, targets: np.ndarray,
    *, out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean pinball losses (N,) and flat gradients (N, P) of a stack of N clients.

    Row k of ``values`` (N, P) is client k's flat parameters, scored on
    its own checked batch: row k of ``batch`` (N, B, history_len,
    features) and ``targets`` (N, B, horizon).  No operation mixes two
    rows, so each row is bit-identical to a stack of that client alone.
    ``out``, if given, is a zeroed (N, P) buffer that receives the gradients.
    """
    spec = build_spec(cfg)
    w = _blocks(spec, values)
    # allocated before the cache block, so that freeing the block returns it to the heap's top
    grad = np.zeros_like(values) if out is None else out
    pred, head_in, cache = _forward(cfg, w, batch)
    # each target broadcasts over its quantile columns
    diff = (pred.reshape(targets.shape + (-1,)) - targets[..., np.newaxis]).reshape(pred.shape)
    weights = _pinball_weights(diff, _quantile_row(cfg))
    scale = 1.0 / diff[0].size
    _backward(cfg, w, _blocks(spec, grad), head_in, cache, scale * weights)
    return (diff * weights).reshape(len(values), -1).sum(axis=1) * scale, grad


def _one_client(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray):
    """Loss and gradient of one model on one batch, as a stack of one."""
    batch, targets = _checked_batch(model.config, windows, targets)
    if not len(batch):
        raise UsageError("task_loss and task_gradient need a non-empty batch")
    losses, grads = task_loss_and_gradient(
        model.config, model.values[np.newaxis], batch[np.newaxis], targets[np.newaxis]
    )
    return float(losses[0]), grads[0]


def task_loss(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> float:
    """Mean pinball loss of the model on a batch."""
    return _one_client(model, windows, targets)[0]


def task_gradient(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean pinball loss w.r.t. all parameters, flat."""
    return _one_client(model, windows, targets)[1]


def _require_finite(ids: list[str], ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise NumericError(f"{what} for clients {[c for c, fine in zip(ids, ok) if not fine]}")


def _train_stack(
    cfg: ForecasterConfig, ids: list[str], batch: np.ndarray, targets: np.ndarray,
    values: np.ndarray, anchor: np.ndarray, rngs: list[np.random.Generator],
) -> np.ndarray:
    """SGD for clients with equally many windows: trains the (N, P)
    ``values`` in place and returns the (N, steps) mini-batch losses."""
    n = batch.shape[1]
    rows = np.arange(len(ids))[:, np.newaxis]
    pull, grad = np.empty_like(values), np.empty_like(values)
    losses = []
    for _ in range(cfg.local_epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        epoch_batch, epoch_targets = batch[rows, order], targets[rows, order]
        for start in range(0, n, cfg.batch_size):
            step = slice(start, start + cfg.batch_size)
            grad.fill(0.0)
            loss, grad = task_loss_and_gradient(
                cfg, values, epoch_batch[:, step], epoch_targets[:, step], out=grad
            )
            _require_finite(ids, np.isfinite(loss), "non-finite training loss")
            losses.append(loss)
            # in place, in the float order of values - lr * (grad + mu * (values - anchor))
            np.subtract(values, anchor, out=pull)
            pull *= cfg.prox_mu
            grad += pull
            grad *= cfg.local_lr
            values -= grad
            ok = np.isfinite(values).all(axis=1)
            _require_finite(ids, ok, "non-finite parameters after gradient step")
    return np.stack(losses, axis=1)


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
    alone.  No input is written.  Returns client id -> (trained
    parameter row (P,), mean mini-batch task loss).
    """
    cfg = global_model.config
    sets: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for cid in sorted(models):
        # a model's layout follows from its config, so this also checks the layout
        if models[cid].config != cfg:
            raise StructuralError(
                f"client {cid!r}: model config differs from the consensus model's"
            )
        for name, given in (("training data", data), ("rng stream", rngs)):
            if cid not in given:
                raise UsageError(f"client {cid!r}: local_train was given no {name}")
        sets[cid] = _checked_batch(cfg, data[cid].inputs, data[cid].targets)
        if not len(sets[cid][0]):
            raise UsageError(f"client {cid!r}: local_train called with an empty dataset")

    stacks: dict[int, list[str]] = {}
    for cid, (batch, _) in sets.items():
        stacks.setdefault(len(batch), []).append(cid)
    out = {}
    for ids in stacks.values():
        values = np.stack([models[c].values for c in ids])
        losses = _train_stack(
            cfg, ids, np.stack([sets[c][0] for c in ids]), np.stack([sets[c][1] for c in ids]),
            values, global_model.values, [rngs[c] for c in ids],
        )
        out.update(zip(ids, zip(values, losses.mean(axis=1).tolist())))
    return out
