"""Learnable server aggregator: graph attention over a mixture of experts.

The server never sees raw data, only each client's output-head delta.
A shared affine encoder embeds every delta; shared scoring experts rate
each neighbor's embedding; a per-client noisy top-k gate mixes the
expert scores into one relevance logit per neighbor; a
temperature-scaled softmax over neighbors turns logits into attention
weights; and the personalized update blends the client's own delta with
the attention-weighted neighbor deltas.

The state is plain arrays: one (C, 2, d, K) gate array with a row per
registered client, and Adam's moments as a flat vector for the shared
arrays plus an array shaped like the gates.  All clients go through one
batched forward over the N x h matrix of head deltas, and the meta-loss
gradient is a hand-derived backward through the same arrays.  The meta
step, lazy Adam on the shared arrays and the batch's gate rows, binds
new arrays and writes none of the old ones, which is what lets a round
discard a failed step by dropping a shallow copy.  The state holds no
generator; every call that draws is given one.

Experts read only the neighbor's embedding, without the encoder bias.
A term that depends on the scoring client alone is the same for every
neighbor and cancels in the softmax over neighbors; the client's own
embedding, an expert bias and the shared encoder bias are such terms.

A batch is a list of N client ids and the (N, h) matrix of their head
deltas; row i of every input and output belongs to ``ids[i]``.
Relabeling or reordering clients permutes every output bit for bit.
Each batch runs in a canonical order set by content: rows sorted by the
raw bytes of their head delta and gate row, ties by id.  The forward,
the backward and the noise draws follow it, so a relabeling changes no
input of any numeric operation and plain ``@`` and sums, BLAS included,
give the same bits.  Clients whose keys tie have identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, NumericError, StructuralError, UsageError, too_small, typed_fields,
)
from .params import NORM_TOLERANCE, cosine_similarity

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AggregatorConfig:
    """Sizes and coefficients of the server aggregator."""

    embed_dim: int = 64
    num_experts: int = 4
    top_k: int = 2
    temperature: float = 1.0
    w_self: float = 0.6
    alpha: float = 0.5
    beta: float = 0.5
    server_lr: float = 1e-3
    noise_enabled: bool = True

    def __post_init__(self) -> None:
        problems, bad = typed_fields(self)
        problems += too_small(self, ("embed_dim", "num_experts"), 1, bad)
        problems += too_small(self, ("alpha", "beta"), 0, bad)
        problems += too_small(self, ("temperature", "server_lr"), 0, bad, strict=True)
        if bad.isdisjoint(("top_k", "num_experts")) and not 1 <= self.top_k <= self.num_experts:
            problems.append(
                f"top_k must satisfy 1 <= top_k <= num_experts "
                f"(top_k={self.top_k}, num_experts={self.num_experts})"
            )
        if "w_self" not in bad and not 0.0 <= self.w_self <= 1.0:
            problems.append(f"w_self must lie in [0, 1], got {self.w_self}")
        if problems:
            raise ConfigError(*problems)


class Aggregation(NamedTuple):
    """Noise-free output of one batch; row i belongs to ``ids[i]``.

    ``attention[i, j]`` is client i's weight on client j (zero diagonal,
    all zero for a lone client); ``mix`` is each client's expert mix,
    with exactly ``top_k`` nonzero entries, and ``logits`` the gate
    logits that selected them.
    """

    personalized: np.ndarray
    attention: np.ndarray
    mix: np.ndarray
    logits: np.ndarray


@dataclass
class AggregatorState:
    """All learnable server parameters plus optimizer slots.

    ``experts_w`` holds one row per expert; expert k scores a
    neighbor embedding e_j as ``experts_w[k] . e_j``.  ``gates`` holds
    one (2, embed_dim, num_experts) row per registered client, its gate
    weight then its noise projection, and ``rows`` maps each client id
    to its row.  ``adam_m`` and ``adam_v`` are Adam's moments of the
    shared arrays, flat in the order encoder_w, encoder_b, experts_w;
    ``gate_m`` and ``gate_v`` are those of the gates, shaped like them.
    """

    config: AggregatorConfig
    head_dim: int
    encoder_w: np.ndarray
    encoder_b: np.ndarray
    experts_w: np.ndarray
    gates: np.ndarray
    rows: dict[str, int]
    adam_m: np.ndarray
    adam_v: np.ndarray
    gate_m: np.ndarray
    gate_v: np.ndarray
    adam_t: int = 0


def init_aggregator(
    cfg: AggregatorConfig, head_dim: int, rng: np.random.Generator
) -> AggregatorState:
    """Uniform(-s, s) init with s = 1/sqrt(fan_in); gates start empty."""
    if head_dim < 1:
        raise ConfigError("head_dim must be >= 1")
    d = cfg.embed_dim
    s_enc = 1.0 / math.sqrt(head_dim)
    s_exp = 1.0 / math.sqrt(d)
    shared, no_gates = (head_dim + 1 + cfg.num_experts) * d, np.zeros((0, 2, d, cfg.num_experts))
    return AggregatorState(
        config=cfg,
        head_dim=head_dim,
        encoder_w=rng.uniform(-s_enc, s_enc, size=(head_dim, d)),
        encoder_b=rng.uniform(-s_enc, s_enc, size=d),
        experts_w=rng.uniform(-s_exp, s_exp, size=(cfg.num_experts, d)),
        gates=no_gates,
        rows={},
        adam_m=np.zeros(shared),
        adam_v=np.zeros(shared),
        gate_m=no_gates,
        gate_v=no_gates,
    )


def register_client(state: AggregatorState, client_ids, rng: np.random.Generator) -> None:
    """Append a gate row, drawn from ``rng``, with zero Adam moments for
    every id of ``client_ids`` not yet registered: one draw, rows in
    sorted-id order.  New arrays are bound, none is written.  For
    reproducibility, pass the generator :func:`init_aggregator` drew from.
    """
    if isinstance(client_ids, str):
        raise UsageError(f"client_ids must be a sequence of ids, got the string {client_ids!r}")
    new = sorted(set(client_ids) - state.rows.keys())
    cfg = state.config
    s = 1.0 / math.sqrt(cfg.embed_dim)
    # per client, the gate weight's draws, then the noise projection's
    gates = rng.uniform(-s, s, size=(len(new), 2, cfg.embed_dim, cfg.num_experts))
    state.rows = {**state.rows, **{c: len(state.rows) + k for k, c in enumerate(new)}}
    state.gates = np.concatenate([state.gates, gates])
    zeros = np.zeros(gates.shape)
    state.gate_m, state.gate_v = (np.concatenate([a, zeros]) for a in (state.gate_m, state.gate_v))


def _content_order(deltas, ids=None, head_dim=None, gates=None):
    """``deltas`` as a float matrix of ``len(ids)`` rows of ``head_dim``
    (any sizes if None), the canonical order of its rows and the order's
    inverse: row ``order[r]`` runs at canonical row r, and caller row i
    at ``back[i]``.  Rows sort by the bytes of each delta, then of its
    gate row if given (bytes tell 0.0 from -0.0); ties by id, else by
    position."""
    deltas = np.asarray(deltas, dtype=np.float64)
    want = (None if ids is None else len(ids), head_dim)
    if deltas.ndim != 2 or any(w not in (None, got) for w, got in zip(want, deltas.shape)):
        raise StructuralError(f"head deltas have shape {deltas.shape}, expected (N, h) = {want}")
    keys = [row.tobytes() for row in deltas]
    if gates is not None:
        keys = [k + g.tobytes() for k, g in zip(keys, gates)]
    ties = range(len(keys)) if ids is None else ids
    order = np.array(sorted(range(len(keys)), key=lambda r: (keys[r], ties[r])), dtype=np.intp)
    return deltas, order, np.argsort(order)


def _encode(state: AggregatorState, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bias-free and affine embeddings of stacked head deltas."""
    linear = deltas @ state.encoder_w
    return linear, linear + state.encoder_b


def expert_scores(state: AggregatorState, embeddings: np.ndarray) -> np.ndarray:
    """Every expert's score of every (bias-free) neighbor embedding, N x K."""
    return np.atleast_2d(embeddings) @ state.experts_w.T


def _gate_logits(embeddings, gate_w, gate_noise, noise):
    """Gate logits and the noise-scale pre-activation (None without noise).

    Row r reads its own gate; ``noise`` draws add ``noise`` times
    softplus of a learned projection of the embedding.
    """
    rows = embeddings[:, np.newaxis, :]
    clean = (rows @ gate_w)[:, 0]
    if noise is None:
        return clean, None
    pre = (rows @ gate_noise)[:, 0]
    return clean + noise * np.logaddexp(0.0, pre), pre


def top_k_mask(logits: np.ndarray, k: int) -> np.ndarray:
    """True at the k largest logits of each row, ties to the lower index."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 1 <= k <= logits.shape[-1]:
        raise ConfigError(f"k must satisfy 1 <= k <= {logits.shape[-1]}, got {k}")
    order = np.argsort(-logits, axis=-1, kind="stable")[..., :k]
    kept = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(kept, order, True, axis=-1)
    return kept


def _masked_softmax(logits: np.ndarray, kept: np.ndarray) -> np.ndarray:
    z = np.where(kept, logits, -np.inf)
    ez = np.exp(z - z.max(axis=-1, keepdims=True))
    return ez / ez.sum(axis=-1, keepdims=True)


def _attention(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax over j != i of scores[i, j] / T; a lone client gets no row."""
    n = len(scores)
    if n < 2:
        return np.zeros((n, n))
    z = np.where(np.eye(n, dtype=bool), -np.inf, scores)
    ez = np.exp((z - z.max(axis=1, keepdims=True)) / temperature)
    return ez / ez.sum(axis=1, keepdims=True)


def _blend(deltas: np.ndarray, attention: np.ndarray, w_self: float) -> np.ndarray:
    """w_self * own + (1 - w_self) * attention-weighted neighbor deltas.

    A lone client keeps its own delta unscaled.
    """
    if len(deltas) < 2:
        return deltas.copy()
    return w_self * deltas + (1.0 - w_self) * (attention @ deltas)


@dataclass
class _Forward:
    """Every array of one batched pass, rows in canonical order; row r
    reads gate row ``rows[r]`` of the state."""

    rows: list[int]
    deltas: np.ndarray
    gate_w: np.ndarray
    gate_noise: np.ndarray
    linear: np.ndarray
    embeddings: np.ndarray
    noise: np.ndarray | None
    noise_pre: np.ndarray | None
    logits: np.ndarray
    mix: np.ndarray
    scores: np.ndarray
    attention: np.ndarray
    personalized: np.ndarray


def _batch(state: AggregatorState, ids, deltas):
    """Gate rows and head deltas of registered clients in canonical
    order, and that order with its inverse (see :func:`_content_order`)."""
    if len(set(ids)) != len(ids):
        raise UsageError("client ids must be unique")
    for cid in ids:
        if cid not in state.rows:
            raise UsageError(f"client {cid!r} has no registered gate")
    rows = [state.rows[c] for c in ids]
    deltas, order, back = _content_order(deltas, ids, state.head_dim, state.gates[rows])
    return [rows[r] for r in order], deltas[order], order, back


def _forward(
    state: AggregatorState,
    rows: list[int],
    deltas: np.ndarray,
    noise: np.ndarray | None = None,
    kept: np.ndarray | None = None,
) -> _Forward:
    """Embeddings, gates, attention and personalized deltas of all clients.

    ``noise`` (N x K draws) turns on the noisy gate; ``kept`` pins the
    top-k selection instead of taking it from the logits.
    """
    cfg = state.config
    gate_w, gate_noise = state.gates[rows, 0], state.gates[rows, 1]
    linear, emb = _encode(state, deltas)
    logits, noise_pre = _gate_logits(emb, gate_w, gate_noise, noise)
    if kept is None:
        kept = top_k_mask(logits, cfg.top_k)
    mix = _masked_softmax(logits, kept)
    scores = expert_scores(state, linear)
    attention = _attention(mix @ scores.T, cfg.temperature)
    return _Forward(
        rows, deltas, gate_w, gate_noise, linear, emb, noise, noise_pre, logits, mix,
        scores, attention, _blend(deltas, attention, cfg.w_self),
    )


def _meta_losses(pers: np.ndarray, own: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Squared-distance plus cosine-dissimilarity alignment loss per row."""
    cos = cosine_similarity(pers, own)
    return alpha * np.sum((pers - own) ** 2, axis=1) + beta * (1.0 - cos)


def _mean_loss(state: AggregatorState, fw: _Forward) -> float:
    """Mean meta-loss of a forward pass over its clients."""
    cfg = state.config
    return float(np.mean(_meta_losses(fw.personalized, fw.deltas, cfg.alpha, cfg.beta)))


def meta_loss(delta_pers: np.ndarray, delta_u: np.ndarray, alpha: float, beta: float) -> float:
    """Squared-distance plus cosine-dissimilarity alignment loss."""
    rows = [np.asarray(d, dtype=np.float64).reshape(1, -1) for d in (delta_pers, delta_u)]
    return float(_meta_losses(*rows, alpha, beta)[0])


def _shared(state: AggregatorState) -> np.ndarray:
    """The shared arrays as one flat vector: encoder_w, encoder_b, experts_w."""
    return np.concatenate(
        [state.encoder_w.reshape(-1), state.encoder_b, state.experts_w.reshape(-1)]
    )


def _bind_shared(state: AggregatorState, flat: np.ndarray) -> None:
    """Bind views of ``flat``, ordered as :func:`_shared`, to the shared arrays."""
    d = state.config.embed_dim
    enc = state.head_dim * d
    state.encoder_w = flat[:enc].reshape(state.head_dim, d)
    state.encoder_b = flat[enc : enc + d]
    state.experts_w = flat[enc + d :].reshape(-1, d)


def _sorted_gate_rows(state: AggregatorState) -> list[int]:
    """Gate row of every registered client, in sorted-id order."""
    return [state.rows[c] for c in sorted(state.rows)]


def _backward(state: AggregatorState, fw: _Forward) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the mean meta-loss of ``fw``: for the shared arrays,
    flat as :func:`_shared`, and for the gate rows of its clients
    (N, 2, embed_dim, num_experts), in its canonical order.

    Top-k selection, noise draws and head deltas are constants.
    """
    cfg = state.config
    own, pers = fw.deltas, fw.personalized
    n = len(own)
    # d cos / d pers = own / (|p| |u|) - cos * pers / |p|^2; 0 where cos is pinned
    norm_p = np.sqrt(np.sum(pers * pers, axis=1, keepdims=True))
    norm_u = np.sqrt(np.sum(own * own, axis=1, keepdims=True))
    live = (norm_p >= NORM_TOLERANCE) & (norm_u >= NORM_TOLERANCE)
    norm_p, norm_u = np.maximum(norm_p, NORM_TOLERANCE), np.maximum(norm_u, NORM_TOLERANCE)
    cos = cosine_similarity(pers, own)[:, np.newaxis]
    dcos = np.where(live, own / (norm_p * norm_u) - cos * pers / norm_p**2, 0.0)
    d_pers = (2.0 * cfg.alpha * (pers - own) - cfg.beta * dcos) / n

    # a lone client has an all-zero attention row, so nothing flows back
    att = fw.attention
    d_att = (1.0 - cfg.w_self) * (d_pers @ own.T)
    d_s = att * (d_att - np.sum(att * d_att, axis=1, keepdims=True)) / cfg.temperature
    d_mix = d_s @ fw.scores
    d_scores = d_s.T @ fw.mix
    d_logits = fw.mix * (d_mix - np.sum(fw.mix * d_mix, axis=1, keepdims=True))

    emb = fw.embeddings[:, :, np.newaxis]
    d_emb = (fw.gate_w @ d_logits[:, :, np.newaxis])[:, :, 0]
    d_gates = np.zeros((n, 2) + fw.gate_w.shape[1:])
    np.multiply(emb, d_logits[:, np.newaxis], out=d_gates[:, 0])
    if fw.noise is not None:
        # d softplus(x) / dx = sigmoid(x) = exp(x - softplus(x))
        d_pre = d_logits * fw.noise * np.exp(fw.noise_pre - np.logaddexp(0.0, fw.noise_pre))
        d_emb += (fw.gate_noise @ d_pre[:, :, np.newaxis])[:, :, 0]
        np.multiply(emb, d_pre[:, np.newaxis], out=d_gates[:, 1])
    d_encoder_w = own.T @ (d_scores @ state.experts_w + d_emb)
    d_shared = [d_encoder_w.reshape(-1), d_emb.sum(axis=0), (d_scores.T @ fw.linear).reshape(-1)]
    return np.concatenate(d_shared), d_gates


def aggregate_game(state: AggregatorState, ids, deltas) -> Aggregation:
    """Noise-free personalized deltas, attention and gates of clients
    ``ids`` with head deltas ``deltas`` (N, h)."""
    rows, canonical, _, back = _batch(state, ids, deltas)
    fw = _forward(state, rows, canonical)
    return Aggregation(
        fw.personalized[back], fw.attention[np.ix_(back, back)], fw.mix[back], fw.logits[back]
    )


def aggregate_single_attention(state: AggregatorState, ids, deltas) -> Aggregation:
    """Single shared attention score per pair: one expert, trivial gate."""
    if state.config.num_experts != 1 or state.config.top_k != 1:
        raise ConfigError("single-attention baseline needs num_experts = 1 and top_k = 1")
    return aggregate_game(state, ids, deltas)


def uniform_attention(n: int) -> np.ndarray:
    """Equal weight on every other client, as the ``mean`` baseline uses."""
    return np.where(np.eye(n, dtype=bool), 0.0, 1.0 / max(n - 1, 1))


def aggregate_mean(deltas, w_self: float) -> np.ndarray:
    """Fixed uniform neighbor averaging of the rows of ``deltas`` (N, h)
    with the same self blend, in the same row order."""
    deltas, order, back = _content_order(deltas)
    return _blend(deltas[order], uniform_attention(len(deltas)), w_self)[back]


def flatten_parameters(state: AggregatorState) -> np.ndarray:
    """All learnable server parameters as one flat vector: the shared
    arrays, then every client's gate row in sorted-id order."""
    return np.concatenate([_shared(state), state.gates[_sorted_gate_rows(state)].reshape(-1)])


def load_parameters(state: AggregatorState, values: np.ndarray) -> None:
    """Inverse of :func:`flatten_parameters`; binds new arrays to ``state``."""
    values = np.array(values, dtype=np.float64).reshape(-1)
    shared = state.encoder_w.size + state.encoder_b.size + state.experts_w.size
    total = shared + state.gates.size
    if values.size != total:
        raise StructuralError(f"flat vector has {values.size} entries, parameters need {total}")
    _bind_shared(state, values[:shared])
    gates = np.empty_like(state.gates)
    gates[_sorted_gate_rows(state)] = values[shared:].reshape(gates.shape)
    state.gates = gates


def _pinned_forward(state, ids, deltas, masks, noise) -> _Forward:
    """Forward pass with ``masks`` and ``noise`` rows in the order of ``ids``."""
    rows, canonical, order, _ = _batch(state, ids, deltas)
    noise, masks = (None if a is None else np.asarray(a)[order] for a in (noise, masks))
    return _forward(state, rows, canonical, noise, masks)


def mean_meta_loss(
    state: AggregatorState,
    ids,
    deltas,
    masks: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> float:
    """Mean meta-loss; ``masks`` pins top-k selection, ``noise`` (N x K)
    fixes the gate noise draws (none by default)."""
    return _mean_loss(state, _pinned_forward(state, ids, deltas, masks, noise))


def meta_gradient(
    state: AggregatorState,
    ids,
    deltas,
    masks: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of :func:`mean_meta_loss`, flattened like
    :func:`flatten_parameters`."""
    fw = _pinned_forward(state, ids, deltas, masks, noise)
    d_shared, d_gates = _backward(state, fw)
    gates = np.zeros_like(state.gates)
    gates[fw.rows] = d_gates
    return np.concatenate([d_shared, gates[_sorted_gate_rows(state)].reshape(-1)])


def _adam(cfg: AggregatorConfig, t: int, params, grad, m, v):
    """New parameters and moments after Adam step ``t``; writes nothing."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    return params - cfg.server_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def train_step(state: AggregatorState, ids, deltas, rng: np.random.Generator) -> float:
    """One lazy Adam step on the mean meta-loss of clients ``ids`` with
    head deltas ``deltas`` (N, h); returns the pre-step loss.

    Exploration noise (when enabled) perturbs the gate logits for both
    expert selection and the surviving softmax; the noise, one N x K
    draw from ``rng``, and the top-k mask are constants within the step.

    The shared arrays and the gate rows of the batch's clients step,
    with the bias correction of the global step count; the gates and
    Adam moments of registered clients outside the batch keep their
    bytes.  The step binds new arrays to ``state`` and writes none in
    place, so arrays held from before the step, or by a shallow copy of
    ``state``, keep the pre-step values.
    """
    if len(ids) < 2:
        raise UsageError("train_step needs at least two clients")
    cfg = state.config
    rows, canonical, _, back = _batch(state, ids, deltas)
    noise = None
    if cfg.noise_enabled:
        # the one draw of gate noise: row r goes to canonical client r
        noise = rng.standard_normal((len(rows), cfg.num_experts))
    fw = _forward(state, rows, canonical, noise)
    loss = _mean_loss(state, fw)
    d_shared, d_gates = _backward(state, fw)
    if not (np.isfinite(d_shared).all() and np.isfinite(d_gates).all()):
        dump = "; ".join(f"{i}: {np.array2string(row)}" for i, row in zip(ids, fw.logits[back]))
        raise NumericError(f"non-finite meta-loss gradient; gate logits {dump}")

    state.adam_t += 1
    t, rows = state.adam_t, fw.rows
    shared, state.adam_m, state.adam_v = _adam(
        cfg, t, _shared(state), d_shared, state.adam_m, state.adam_v
    )
    _bind_shared(state, shared)
    stepped = _adam(cfg, t, state.gates[rows], d_gates, state.gate_m[rows], state.gate_v[rows])
    for name, new in zip(("gates", "gate_m", "gate_v"), stepped):
        # the batch's rows go into a copy: the old array keeps its bytes
        arr = getattr(state, name).copy()
        arr[rows] = new
        setattr(state, name, arr)
    return loss
