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
batches (N, B, history_len) give N losses and N gradients in one pass,
with ``np.matmul`` over the stacked matrices.  No operation mixes two
clients, and each client's slice sees the same operand shapes and
strides as a stack of that client alone, so a client's bytes do not
depend on who it is stacked with.  A single client is a stack of one;
there is no separate per-client path.  Which clients share a stack is
decided here alone (:func:`stack_groups`), for training and scoring.

Each LSTM step is one product for all four gates, with the input and
the bias folded in: the row [x_t, h_t, 1] times the layer's ``wx``,
``wh`` and ``b``, which ``build_spec`` lays out adjacently, viewed as
one (N, in + W + 1, 4W) matrix [wx; wh; b].  The backward adds each
step's weight gradient as one product into the same slice of the
gradient, and an upper layer's input and h take theirs from one product
with the [wx; wh] rows.  The forward caches every timestep's gates i,
f, g, o and tanh(c) next to h and c, and the backward reads them
instead of re-running the forward.  Each layer's cache is one float64
block: the rows [x_t, h_t, 1] as (T + 1, N, B, in + W + 1), into which
the cell writes each h, then c at steps 0..T, the gates as (T, 5, N, B,
W) and 11 (N, B, W) work slots, ~3.2 MB at N=8, B=32, W=16, T=12.  The
gates are gate-major, so each is one contiguous (N, B, W)
array; in a (T, N, B, 5W) layout every gate is a strided view, and the
cell's gate ufuncs ran 1.8x slower.  It is one allocation because
glibc's malloc raises its trim threshold to twice the size of the
largest mmapped chunk freed so far: one 3 MB block lifts it above a
training step's working set, so the heap keeps the step's pages.  As
many small arrays the cache is trimmed and faulted in again on every
step.  The work slots hold each step's pre-activations in the forward;
in the backward the cell writes each gate's part of d_pre into them
and reaches d_pre in one transposed copy.

Every dense layer takes the same shape: its ``w`` and ``b`` are one
(N, in + 1, W) matrix [w; b], so its output is the one product [x, 1]
@ [w; b] and its gradient the one product [x, 1]^T @ d, written over
the layer's slice of the gradient.  The MLP forward keeps one float64
block per step of N*B*(sum(in + 1 for each layer and the head) +
3*max(hidden_sizes)): each layer's input rows [x, 1] as a contiguous
(N, B, in + 1) slice, into which the layer below writes its activation,
then three scratch slots of the widest layer, into which the backward
writes each layer's delta and its 1 - a**2 term with ``out=``.  At
N=32, B=32, W=32 each activation or delta is about 256 KB, above glibc's
default mmap threshold, so as separate arrays, or with the scratch in a
second block, the step faults them in again every time.  Other
allocators compute the same bytes, perhaps no faster.  The output head
is one product for both architectures: the top layer's last row [h, 1]
times [out.w; out.b].

Local training runs each stack of clients with equally many windows
through one loop: every epoch gathers the windows in the drawn orders
once, each step slices its mini-batch from them, and the gradient
(``task_loss_and_gradient(..., out=)``), the proximal pull and the
update go into buffers allocated once per stack, before any step's
cache block.  The layer views of the parameters and of the gradient
buffer are built once per stack too.  :func:`predict` runs the same
``_forward`` over chunks of at most ``batch_size`` windows, so scoring a
test set of any size holds no more cache than a training step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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

    def __post_init__(self) -> None:
        problems, bad = typed_fields(self)
        problems += too_small(
            self, ("history_len", "horizon", "local_epochs", "batch_size"), 1, bad
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
        if "arch" not in bad:
            if self.arch not in ARCHS:
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
    ``out.w`` then ``out.b``.  Every layer's weight blocks are followed
    directly by its bias, which ends the layer, so :func:`_blocks` can
    view each layer as one matrix.  LSTM gate pre-activations are packed as
    4*H columns in i, f, g, o order (input, forget, cell, output).
    ``fan_in`` is the input width of the layer a block belongs to; all
    LSTM blocks use the hidden size.
    """
    spec: list[LayerSpec] = []

    def add(name: str, shape: tuple[int, ...], kind: str, fan_in: int) -> None:
        offset = spec[-1].stop if spec else 0
        spec.append(LayerSpec(name, shape, kind, offset, math.prod(shape), fan_in))

    if cfg.arch == "mlp":
        in_dim = cfg.history_len
        for i, width in enumerate(cfg.hidden_sizes):
            add(f"hidden{i}.w", (in_dim, width), "dense", in_dim)
            add(f"hidden{i}.b", (width,), "dense", in_dim)
            in_dim = width
    else:
        in_dim = 1
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
    """Layer name -> one (N, rows, cols) view of that layer's blocks of
    the stacked ``flat`` (N, P), one client per row.

    ``build_spec`` ends every layer with its bias, directly after the
    layer's weight blocks, so the blocks of a layer are one matrix whose
    last row is the bias: [w; b] as (N, in + 1, W) for ``hidden{i}`` and
    ``out``, and [wx; wh; b] as (N, in + W + 1, 4W) for ``lstm{i}``.  A
    row [x, 1] times it is x @ w + b in one product.  The views write
    through, so the views of a gradient buffer receive its blocks.
    """
    n, views, start = flat.shape[0], {}, 0
    for b in spec:
        if b.name.endswith(".b"):
            views[b.name.removesuffix(".b")] = flat[:, start : b.stop].reshape(n, -1, b.shape[-1])
            start = b.stop
    return views


def _mT(a: np.ndarray) -> np.ndarray:
    """Each client's matrix transposed: (N, r, c) -> (N, c, r), a view."""
    return a.swapaxes(1, 2)


def checked_batch(
    cfg: ForecasterConfig, windows: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One client's windows (B, history_len) and targets (B, horizon) as
    float64 arrays; a :class:`StructuralError` if either shape is off."""
    batch = np.asarray(windows, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != cfg.history_len:
        raise StructuralError(
            f"window batch has shape {batch.shape}, expected (*, {cfg.history_len})"
        )
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (batch.shape[0], cfg.horizon):
        raise StructuralError(
            f"targets have shape {targets.shape}, expected ({batch.shape[0]}, {cfg.horizon})"
        )
    return batch, targets


def _one_block(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Views of the given shapes, one after another in one new float64
    block (see the module docstring)."""
    blk, views, start = np.empty(sum(math.prod(shape) for shape in shapes)), [], 0
    for shape in shapes:
        views.append(blk[start : start + math.prod(shape)].reshape(shape))
        start += views[-1].size
    return views


def _lstm_cell(row, wcat, c, pre, gates, h_out, c_out) -> None:
    """One LSTM step from the input row [x, h, 1] and the cell state c:
    the pre-activations ``row @ wcat`` go to ``pre`` (N, B, 4W), the gates
    i, f, g, o and tanh(c) to ``gates`` (5, N, B, W) and the new state to
    ``h_out`` and ``c_out``."""
    width = c.shape[-1]
    np.matmul(row, wcat, out=pre)
    gi, gf, gg, go, tc = gates
    with np.errstate(over="ignore"):
        for k, gate in ((0, gi), (1, gf), (3, go)):
            _sigmoid(pre[..., k * width : (k + 1) * width], out=gate)
    np.tanh(pre[..., 2 * width : 3 * width], out=gg)
    np.multiply(gf, c, out=c_out)
    # tc holds i * g until tanh(c) overwrites it
    c_out += np.multiply(gi, gg, out=tc)
    np.multiply(go, np.tanh(c_out, out=tc), out=h_out)


def _lstm_cell_backward(gates, c_prev, dh, dc, work):
    """Gradients w.r.t. one step's pre-activations (N, B, 4W) and its
    input cell state, from those w.r.t. its outputs h and c and the step's
    cached gates i, f, g, o and tanh(c).

    ``work`` holds the layer's 11 (N, B, W) slots, reused every step: each
    gate's part of d_pre, a scratch slot, the step's dc and the dc passed
    to the step before, then d_pre, which the parts reach in one
    transposed copy.  Both returned arrays are views of ``work``.
    """
    gi, gf, gg, go, tc = gates
    d_i, d_f, d_g, d_o, tmp, dc_now, dc_prev = work[:7]
    d_pre = work[7:].reshape(gi.shape[:-1] + (-1,))
    # dc = dh * go * (1 - tc**2) + dc
    np.subtract(1.0, np.square(tc, out=tmp), out=tmp)
    np.multiply(dh, go, out=dc_now)
    dc_now *= tmp
    dc_now += dc
    # d_i = dc * g * i * (1 - i)
    np.multiply(dc_now, gg, out=d_i)
    d_i *= gi
    d_i *= np.subtract(1.0, gi, out=tmp)
    # d_f = dc * c_prev * f * (1 - f)
    np.multiply(dc_now, c_prev, out=d_f)
    d_f *= gf
    d_f *= np.subtract(1.0, gf, out=tmp)
    # d_g = dc * i * (1 - g**2)
    np.multiply(dc_now, gi, out=d_g)
    d_g *= np.subtract(1.0, np.square(gg, out=tmp), out=tmp)
    # d_o = dh * tc * o * (1 - o)
    np.multiply(dh, tc, out=d_o)
    d_o *= go
    d_o *= np.subtract(1.0, go, out=tmp)
    d_pre.reshape(d_pre.shape[:-1] + (4, -1))[...] = np.moveaxis(work[:4], 0, 2)
    return d_pre, np.multiply(dc_now, gf, out=dc_prev)


def _forward(cfg: ForecasterConfig, w: dict[str, np.ndarray], batch: np.ndarray):
    """Predictions (N, B, output_dim) of a stack of N clients on their
    (N, B, history_len) batches, the output layer's input rows [h, 1],
    and the activations the backward pass reads.

    MLP: each layer's input rows [x, 1] as (N, B, in + 1), then three
    scratch slots of the widest layer for the backward, all views of one
    block (see the module docstring).  Each layer's activation is the
    one product ``[x, 1] @ [w; b]``, written into the next layer's rows
    and squashed there before their ones are written.  LSTM: per layer,
    four views of the layer's one cache block: every timestep's row
    [x_t, h_t, 1] and cell state (index 0 holds the zero state), its
    gates i, f, g, o and tanh(c), then the work slots the backward
    reuses.  Each step's pre-activations are the one product
    ``[x_t, h_t, 1] @ [wx; wh; b]``.  For both, the head's input is the
    top layer's last row ``[h, 1]`` and the prediction is one product
    with ``out``.

    The ones column is the last term of each product's sum, so ``[x, 1]
    @ [w; b]`` rounds as ``x @ w + b`` does.  Writing into views with
    ``out=`` keeps every float operation and its order, which the
    bit-for-bit tests pin.
    """
    n, size = batch.shape[:2]
    if cfg.arch == "mlp":
        widths = cfg.hidden_sizes
        *rows, slots = _one_block(
            *((n, size, in_dim + 1) for in_dim in (cfg.history_len,) + widths),
            (3, n * size * max(widths, default=0)),
        )
        rows[0][..., :-1] = batch
        rows[0][..., -1] = 1.0
        for i, row in enumerate(rows[1:]):
            np.matmul(rows[i], w[f"hidden{i}"], out=row[..., :-1])
            # tanh over the whole contiguous rows runs as one ufunc loop, where
            # the strided activations alone take one loop per row; the ones follow
            np.tanh(row, out=row)
            row[..., -1] = 1.0
        return rows[-1] @ w["out"], rows[-1], (rows, slots)

    steps = cfg.history_len
    # layer 0's input at step t: column t of the batch, as an (N, B, 1) view
    seq, in_dim = batch.transpose(2, 0, 1)[..., np.newaxis], 1
    cache = []
    for i, width in enumerate(cfg.hidden_sizes):
        aug, cs, gates, work = _one_block(
            (steps + 1, n, size, in_dim + width + 1), (steps + 1, n, size, width),
            (steps, 5, n, size, width), (11, n, size, width),
        )
        # the last four work slots hold each step's pre-activations here, d_pre in the backward
        pre = work[7:].reshape(n, size, 4 * width)
        # row t is [x_t, h_t, 1]: inputs and ones are filled here, each h_t+1 by the cell
        hs = aug[..., in_dim : in_dim + width]
        aug[:steps, ..., :in_dim] = seq
        aug[..., -1] = 1.0
        hs[0] = cs[0] = 0.0
        for t in range(steps):
            _lstm_cell(aug[t], w[f"lstm{i}"], cs[t], pre, gates[t], hs[t + 1], cs[t + 1])
        cache.append((aug, cs, gates, work))
        seq, in_dim = hs[1:], width
    # [h_T, 1]: the end of the top layer's last row
    head_in = aug[steps, ..., -in_dim - 1 :]
    return head_in @ w["out"], head_in, cache


def _backward(
    cfg: ForecasterConfig,
    w: dict[str, np.ndarray],
    g: dict[str, np.ndarray],
    head_in: np.ndarray,
    cache: tuple | list,
    d_pred: np.ndarray,
) -> None:
    """Write the parameter gradients into the layer views ``g``, from
    d loss / d predictions: backprop for the MLP, backprop through time
    over the stacked layers for the LSTM.  Every array carries the
    client axis first, and no operation mixes two clients.

    Each dense layer's gradient is the one product ``[x, 1]^T @ d``
    written over its [w; b] view; its last row, the ones row times d,
    sums d over the batch in order, as ``d.sum(axis=1)`` does.  The LSTM
    blocks are zeroed here and accumulate over timesteps from last to
    first, each step's weight gradient as the one product ``[x_t, h_t,
    1]^T @ d_pre`` into the layer's [wx; wh; b] view.  So ``g`` need not
    be zeroed by the caller.  The floating-point order is part of the
    contract: products run left to right, and reordering moves the
    gradients by rounding, and with them every byte of a run's reports.
    """
    np.matmul(_mT(head_in), d_pred, out=g["out"])

    if cfg.arch == "mlp":
        # each layer's d goes to slot 0 or 2 while the d from the layer
        # above is read from the other one; slot 1 holds 1 - a**2
        rows, slots = cache
        d, w_above = d_pred, w["out"]
        for i in reversed(range(len(cfg.hidden_sizes))):
            a = rows[i + 1][..., :-1]
            # d reaches the layer's output through the w rows of [w; b] above
            d = np.matmul(d, _mT(w_above[:, :-1]),
                          out=slots[2 * (i % 2), : a.size].reshape(a.shape))
            slope = slots[1, : a.size].reshape(a.shape)
            np.square(a, out=slope)
            np.subtract(1.0, slope, out=slope)
            d *= slope
            np.matmul(_mT(rows[i]), d, out=g[f"hidden{i}"])
            w_above = w[f"hidden{i}"]
        return

    # gradient reaching each output of the layer from above
    d_out = [0.0] * (cfg.history_len - 1) + [d_pred @ _mT(w["out"][:, :-1])]
    for i in reversed(range(len(cfg.hidden_sizes))):
        wcat, g_cat = w[f"lstm{i}"], g[f"lstm{i}"]
        aug, cs, gates, work = cache[i]
        width = cs.shape[-1]
        in_dim = aug.shape[-1] - width - 1
        # d_pre reaches [x_t, h_t] through those rows of [wx; wh; b]; the
        # first layer's input takes no gradient, so there it is h's alone
        w_back = _mT(wcat[:, (0 if i else in_dim) : in_dim + width])
        d_in = [None] * cfg.history_len
        dh = dc = 0.0
        g_cat[...] = 0.0
        for t in reversed(range(cfg.history_len)):
            dh = d_out[t] + dh
            d_pre, dc = _lstm_cell_backward(gates[t], cs[t], dh, dc, work)
            g_cat += _mT(aug[t]) @ d_pre
            d_row = d_pre @ w_back
            d_in[t], dh = d_row[..., :-width], d_row[..., -width:]
        d_out = d_in


def predict(
    cfg: ForecasterConfig, ids: Sequence[str], values: np.ndarray, batch: np.ndarray
) -> np.ndarray:
    """Predictions (N, B, output_dim) of a stack of N clients: row k of
    ``values`` (N, P) on row k of ``batch`` (N, B, history_len), with the
    bits of a stack of that client alone, from ``_forward`` over chunks of
    ``cfg.batch_size`` windows (see the module docstring).  A non-finite
    forecast raises :class:`NumericError` naming its clients, ``ids[k]``
    for row k."""
    w, step = _blocks(build_spec(cfg), values), cfg.batch_size
    pred = np.concatenate([_forward(cfg, w, batch[:, i : i + step])[0]
                           for i in range(0, max(batch.shape[1], 1), step)], axis=1)
    _require_finite(ids, np.isfinite(pred).all(axis=(1, 2)), "non-finite predictions")
    return pred


def pinball_weights(diff: np.ndarray, q_flat: np.ndarray) -> np.ndarray:
    """Piecewise slope of the pinball loss w.r.t. the prediction.

    diff = pred - target.  Where diff > 0 (over-prediction) the slope is
    1 - q; where diff <= 0 it is -q, which makes the tie at diff == 0
    take the y >= yhat branch.  Training and the evaluation metrics both
    weigh residuals with it.  As one ufunc, (diff > 0) - q: the bits of
    1 - q and 0 - q, which is -q.
    """
    return np.subtract(diff > 0, q_flat)


def task_loss_and_gradient(
    cfg: ForecasterConfig, values: np.ndarray, batch: np.ndarray, targets: np.ndarray,
    *, out: np.ndarray | None = None,
    views: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean pinball losses (N,) and flat gradients (N, P) of a stack of N clients.

    Row k of ``values`` (N, P) is client k's flat parameters, scored on
    its own checked batch: row k of ``batch`` (N, B, history_len) and
    ``targets`` (N, B, horizon).  No operation mixes two
    rows, so each row is bit-identical to a stack of that client alone.
    ``out``, if given, is an (N, P) float64 buffer that receives the
    gradients; every entry is written, so it need not be zeroed.
    ``views``, internal plumbing for a caller that steps the same
    ``values`` and ``out`` many times, is the pair ``(_blocks(spec,
    values), _blocks(spec, out))``, built once instead of on every call;
    it needs ``out``.
    """
    if views is None:
        spec = build_spec(cfg)
        # allocated before the cache block, so that freeing the block returns it to the heap's top
        out = np.empty_like(values) if out is None else out
        views = _blocks(spec, values), _blocks(spec, out)
    w, g = views
    pred, head_in, cache = _forward(cfg, w, batch)
    # each target broadcasts over its quantile columns
    diff = (pred.reshape(targets.shape + (-1,)) - targets[..., np.newaxis]).reshape(pred.shape)
    weights = pinball_weights(diff, _quantile_row(cfg))
    scale = 1.0 / diff[0].size
    _backward(cfg, w, g, head_in, cache, scale * weights)
    return (diff * weights).reshape(len(values), -1).sum(axis=1) * scale, out


def task_loss(model: ForecasterModel, windows: np.ndarray, targets: np.ndarray) -> float:
    """Mean pinball loss of the model on one non-empty batch, as a stack of one."""
    batch, targets = checked_batch(model.config, windows, targets)
    if not len(batch):
        raise UsageError("task_loss needs a non-empty batch")
    losses, _ = task_loss_and_gradient(
        model.config, model.values[np.newaxis], batch[np.newaxis], targets[np.newaxis]
    )
    return float(losses[0])


def _require_finite(ids: Sequence[str], ok: np.ndarray, what: str) -> None:
    if not ok.all():
        raise NumericError(f"{what} for clients {[c for c, fine in zip(ids, ok) if not fine]}")


def stack_groups(keys: Sequence) -> list[list[int]]:
    """The positions of equal ``keys``, one list per key in first-seen
    order: the clients that share a stacked pass.  Training keys a client
    by its window count, scoring by its (config, window count)."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _train_stack(
    cfg: ForecasterConfig, ids: list[str], sets: list[tuple[np.ndarray, np.ndarray]],
    values: np.ndarray, anchor: np.ndarray, rngs: list[np.random.Generator],
) -> np.ndarray:
    """SGD for clients with equally many (windows, targets) ``sets``: trains
    the (N, P) ``values`` in place and returns the (N, steps) losses."""
    n = len(sets[0][0])
    pull, grad = np.empty_like(values), np.empty_like(values)
    spec, losses = build_spec(cfg), []
    views = _blocks(spec, values), _blocks(spec, grad)
    for _ in range(cfg.local_epochs):
        # each client's windows in its drawn order, gathered into one stack
        orders = [rng.permutation(n) for rng in rngs]
        epoch_batch = np.stack([batch[o] for (batch, _), o in zip(sets, orders)])
        epoch_targets = np.stack([targets[o] for (_, targets), o in zip(sets, orders)])
        for start in range(0, n, cfg.batch_size):
            step = slice(start, start + cfg.batch_size)
            loss, _ = task_loss_and_gradient(
                cfg, values, epoch_batch[:, step], epoch_targets[:, step], out=grad, views=views
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
    cfg: ForecasterConfig, ids: Sequence[str], values: np.ndarray, data: Sequence,
    anchor: np.ndarray, rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch SGD on the proximally regularized objective, for every
    client at once.

    Row k of the (N, P) ``values`` is client ``ids[k]``'s flat parameters
    in ``cfg``'s layout, ``data[k]`` its training set (``inputs`` (n,
    history_len), ``targets`` (n, horizon)) and ``rngs[k]`` the stream its
    batch orders are drawn from.  Each client runs ``cfg.local_epochs``
    passes, and the proximal pull mu * (w - anchor) toward the consensus
    ``anchor`` (P,) is added to every mini-batch gradient exactly.
    Clients with equally many windows train as one stack, each
    bit-identical to training alone.  No input is written.  Returns the
    trained (N, P) matrix and the (N,) mean mini-batch task losses.
    """
    n, total = len(ids), total_params(build_spec(cfg))
    values, anchor = np.asarray(values, dtype=np.float64), np.asarray(anchor, dtype=np.float64)
    if (values.shape, anchor.shape, len(data), len(rngs)) != ((n, total), (total,), n, n):
        raise StructuralError(
            f"local_train got {n} ids, a {values.shape} matrix, a {anchor.shape} anchor, "
            f"{len(data)} training sets and {len(rngs)} rng streams for a layout of {total}"
        )
    sets = [checked_batch(cfg, d.inputs, d.targets) for d in data]
    for cid, (batch, _) in zip(ids, sets):
        if not len(batch):
            raise UsageError(f"client {cid!r}: local_train called with an empty dataset")
    trained, losses = values.copy(), np.empty(n)
    for group in stack_groups([len(batch) for batch, _ in sets]):
        # a stack of all N trains in place: one more (N, P) block can cost page faults
        stack = trained if len(group) == n else trained[group]
        losses[group] = _train_stack(cfg, [ids[k] for k in group], [sets[k] for k in group],
                                     stack, anchor, [rngs[k] for k in group]).mean(axis=1)
        if stack is not trained:
            trained[group] = stack
    return trained, losses
