"""Learnable server aggregator: graph attention over a mixture of experts.

The server never sees raw data, only each client's output-head delta.
A shared affine encoder embeds every delta; shared scoring experts rate
each neighbor's embedding; a per-client noisy top-k gate mixes the
expert scores into one relevance logit per neighbor; a
temperature-scaled softmax over neighbors turns logits into attention
weights; and the personalized update blends the client's own delta with
the attention-weighted neighbor deltas.

All clients go through one batched forward over the N x h matrix of
head deltas.  The meta-loss gradient is a hand-derived backward through
the same arrays, and the meta step is one lazy Adam update over the
flat concatenation of the stepped arrays: only the shared arrays and
the batch's gates move, and the step rebinds new arrays instead of
writing the old ones, which is what lets a round discard a failed step
by dropping a shallow copy.

Experts read only the neighbor's embedding, without the encoder bias.
A term that depends on the scoring client alone is the same for every
neighbor and cancels in the softmax over neighbors; the client's own
embedding, an expert bias and the shared encoder bias are such terms.

Relabeling clients permutes every output bit for bit.  Each batch runs
in a canonical order set by content: clients sorted by the raw bytes of
their head delta and gate weights.  The forward, the backward and the
noise draws follow it, so a relabeling changes no input of any numeric
operation and plain ``@`` and sums, BLAS included, give the same bits.
Clients whose keys tie have identical inputs.  Outputs are returned in
sorted-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError, NumericError, StructuralError, UsageError, too_small
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
        problems = too_small(self, ("embed_dim", "num_experts"), 1)
        problems += too_small(self, ("alpha", "beta"), 0)
        problems += too_small(self, ("temperature", "server_lr"), 0, strict=True)
        if not 1 <= self.top_k <= self.num_experts:
            problems.append(
                f"top_k must satisfy 1 <= top_k <= num_experts "
                f"(top_k={self.top_k}, num_experts={self.num_experts})"
            )
        if not 0.0 <= self.w_self <= 1.0:
            problems.append(f"w_self must lie in [0, 1], got {self.w_self}")
        if problems:
            raise ConfigError(*problems)


@dataclass
class GatePair:
    """Per-client gate projections: clean logits and noise scale."""

    weight: np.ndarray
    noise: np.ndarray


@dataclass
class AttentionRow:
    """One client's attention over its peers, plus gate diagnostics.

    ``weights[n]`` belongs to ``neighbor_ids[n]``; ``expert_mix`` has
    exactly ``top_k`` nonzero entries; ``logits`` are the gate logits
    that selected them.
    """

    client_id: str
    neighbor_ids: tuple[str, ...]
    weights: np.ndarray
    expert_mix: np.ndarray
    logits: np.ndarray


@dataclass
class AggregatorState:
    """All learnable server parameters plus optimizer slots and RNG.

    ``experts_w`` holds one row per expert; expert k scores a
    neighbor embedding e_j as ``experts_w[k] . e_j``.
    """

    config: AggregatorConfig
    head_dim: int
    encoder_w: np.ndarray
    encoder_b: np.ndarray
    experts_w: np.ndarray
    gates: dict[str, GatePair]
    rng: np.random.Generator
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
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
    return AggregatorState(
        config=cfg,
        head_dim=head_dim,
        encoder_w=rng.uniform(-s_enc, s_enc, size=(head_dim, d)),
        encoder_b=rng.uniform(-s_enc, s_enc, size=d),
        experts_w=rng.uniform(-s_exp, s_exp, size=(cfg.num_experts, d)),
        gates={},
        rng=rng,
    )


def register_client(state: AggregatorState, client_id: str) -> None:
    """Create the client's gate pair; a second call is a no-op.

    Registration draws from the aggregator RNG, so callers should
    register clients in a fixed (sorted) order for reproducibility.
    """
    if client_id in state.gates:
        return
    d = state.config.embed_dim
    s = 1.0 / math.sqrt(d)
    state.gates[client_id] = GatePair(
        weight=state.rng.uniform(-s, s, size=(d, state.config.num_experts)),
        noise=state.rng.uniform(-s, s, size=(d, state.config.num_experts)),
    )


def _require_gate(state: AggregatorState, client_id: str) -> GatePair:
    if client_id not in state.gates:
        raise UsageError(f"client {client_id!r} has no registered gate")
    return state.gates[client_id]


def _stack_deltas(
    head_deltas: dict[str, np.ndarray],
    head_dim: int | None = None,
    gates: dict[str, GatePair] | None = None,
) -> tuple[list[str], np.ndarray]:
    """Client ids and their head deltas as the rows of one matrix, in
    canonical order: by the bytes of each delta, then of the client's
    gate weights if given (bytes tell 0.0 from -0.0); ties by id."""
    ids = sorted(head_deltas)
    rows = [np.asarray(head_deltas[i], dtype=np.float64).reshape(-1) for i in ids]
    head_dim = head_dim or (rows[0].size if rows else 0)
    for cid, row in zip(ids, rows):
        if row.size != head_dim:
            raise StructuralError(
                f"head delta of client {cid!r} has length {row.size}, expected {head_dim}"
            )
    keys = [row.tobytes() for row in rows]
    if gates is not None:
        keys = [k + gates[c].weight.tobytes() + gates[c].noise.tobytes()
                for k, c in zip(keys, ids)]
    order = sorted(range(len(ids)), key=keys.__getitem__)
    return [ids[r] for r in order], np.array([rows[r] for r in order]).reshape(len(ids), head_dim)


def _sorted_rows(ids: list[str]) -> list[int]:
    """Row of each client of canonical ``ids``, listed in sorted-id order."""
    return sorted(range(len(ids)), key=ids.__getitem__)


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
    """Every array of one batched pass; rows follow canonical ``ids``."""

    ids: list[str]
    deltas: np.ndarray
    gate_w: np.ndarray
    gate_noise: np.ndarray
    linear: np.ndarray
    embeddings: np.ndarray
    noise: np.ndarray | None
    noise_pre: np.ndarray | None
    logits: np.ndarray
    kept: np.ndarray
    mix: np.ndarray
    scores: np.ndarray
    attention: np.ndarray
    personalized: np.ndarray


def _batch(
    state: AggregatorState, head_deltas: dict[str, np.ndarray]
) -> tuple[list[str], np.ndarray]:
    """Canonical ids and stacked deltas of registered clients."""
    gates = {cid: _require_gate(state, cid) for cid in head_deltas}
    return _stack_deltas(head_deltas, state.head_dim, gates)


def _forward(
    state: AggregatorState,
    ids: list[str],
    deltas: np.ndarray,
    noise: np.ndarray | None = None,
    kept: np.ndarray | None = None,
) -> _Forward:
    """Embeddings, gates, attention and personalized deltas of all clients.

    ``noise`` (N x K draws) turns on the noisy gate; ``kept`` pins the
    top-k selection instead of taking it from the logits.
    """
    cfg = state.config
    shape = (len(ids), cfg.embed_dim, cfg.num_experts)
    gate_w = np.array([state.gates[i].weight for i in ids]).reshape(shape)
    gate_noise = np.array([state.gates[i].noise for i in ids]).reshape(shape)
    linear, emb = _encode(state, deltas)
    logits, noise_pre = _gate_logits(emb, gate_w, gate_noise, noise)
    if kept is None:
        kept = top_k_mask(logits, cfg.top_k)
    mix = _masked_softmax(logits, kept)
    scores = expert_scores(state, linear)
    attention = _attention(mix @ scores.T, cfg.temperature)
    return _Forward(
        ids, deltas, gate_w, gate_noise, linear, emb, noise, noise_pre, logits, kept, mix,
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


def _parameters(state: AggregatorState, ids: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Learnable arrays by name, in flattening order: the shared arrays,
    then the gates of ``ids`` (every registered client by default) by id."""
    params = {
        "encoder.w": state.encoder_w,
        "encoder.b": state.encoder_b,
        "experts.w": state.experts_w,
    }
    for cid in sorted(state.gates if ids is None else ids):
        params[f"gate:{cid}.w"] = state.gates[cid].weight
        params[f"gate:{cid}.noise"] = state.gates[cid].noise
    return params


def _flat(arrays) -> np.ndarray:
    return np.concatenate([arr.reshape(-1) for arr in arrays])


def _split(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of ``flat`` shaped like the arrays of ``like``, in its order."""
    out, start = {}, 0
    for name, arr in like.items():
        out[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return out


def _rebind(state: AggregatorState, ids: Iterable[str], arrays: dict[str, np.ndarray]) -> None:
    """Bind ``arrays``, named as in :func:`_parameters`, to the shared
    slots and to new gate pairs of ``ids``; no array is written."""
    state.encoder_w = arrays["encoder.w"]
    state.encoder_b = arrays["encoder.b"]
    state.experts_w = arrays["experts.w"]
    for cid in ids:
        state.gates[cid] = GatePair(arrays[f"gate:{cid}.w"], arrays[f"gate:{cid}.noise"])


def _backward(state: AggregatorState, fw: _Forward) -> dict[str, np.ndarray]:
    """Gradient of the mean meta-loss of ``fw`` for the shared arrays and
    the gates of its clients, named as in :func:`_parameters`.

    Top-k selection, noise draws and head deltas are constants.
    """
    cfg = state.config
    own, pers = fw.deltas, fw.personalized
    n = len(fw.ids)
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

    grads = {"experts.w": d_scores.T @ fw.linear}
    emb = fw.embeddings[:, :, np.newaxis]
    d_emb = (fw.gate_w @ d_logits[:, :, np.newaxis])[:, :, 0]
    gate_grads = {"w": emb * d_logits[:, np.newaxis], "noise": np.zeros_like(fw.gate_noise)}
    if fw.noise is not None:
        # d softplus(x) / dx = sigmoid(x) = exp(x - softplus(x))
        d_pre = d_logits * fw.noise * np.exp(fw.noise_pre - np.logaddexp(0.0, fw.noise_pre))
        d_emb += (fw.gate_noise @ d_pre[:, :, np.newaxis])[:, :, 0]
        gate_grads["noise"] = emb * d_pre[:, np.newaxis]
    for r, cid in enumerate(fw.ids):
        for part, grad in gate_grads.items():
            grads[f"gate:{cid}.{part}"] = grad[r]
    grads["encoder.w"] = own.T @ (d_scores @ state.experts_w + d_emb)
    grads["encoder.b"] = d_emb.sum(axis=0)
    return grads


def aggregate_game(
    state: AggregatorState, head_deltas: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], list[AttentionRow]]:
    """Noise-free personalized deltas and attention rows, in sorted-id order."""
    fw = _forward(state, *_batch(state, head_deltas))
    n, back = len(fw.ids), _sorted_rows(fw.ids)
    ids = [fw.ids[r] for r in back]
    attention = fw.attention[np.ix_(back, back)][~np.eye(n, dtype=bool)]
    weights = attention.reshape(n, max(n - 1, 0))
    rows = [
        AttentionRow(cid, tuple(ids[:s] + ids[s + 1:]), weights[s], fw.mix[r], fw.logits[r])
        for s, (cid, r) in enumerate(zip(ids, back))
    ]
    return dict(zip(ids, fw.personalized[back])), rows


def aggregate_single_attention(
    state: AggregatorState, head_deltas: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], list[AttentionRow]]:
    """Single shared attention score per pair: one expert, trivial gate."""
    if state.config.num_experts != 1 or state.config.top_k != 1:
        raise ConfigError("single-attention baseline needs num_experts = 1 and top_k = 1")
    return aggregate_game(state, head_deltas)


def uniform_attention(n: int) -> np.ndarray:
    """Equal weight on every other client, as the ``mean`` baseline uses."""
    return np.where(np.eye(n, dtype=bool), 0.0, 1.0 / max(n - 1, 1))


def aggregate_mean(
    head_deltas: dict[str, np.ndarray], w_self: float
) -> dict[str, np.ndarray]:
    """Fixed uniform neighbor averaging with the same self blend."""
    ids, deltas = _stack_deltas(head_deltas)
    personalized = _blend(deltas, uniform_attention(len(ids)), w_self)
    return {ids[r]: personalized[r] for r in _sorted_rows(ids)}


def flatten_parameters(state: AggregatorState) -> np.ndarray:
    """All learnable server parameters as one flat vector."""
    return _flat(_parameters(state).values())


def load_parameters(state: AggregatorState, values: np.ndarray) -> None:
    """Inverse of :func:`flatten_parameters`; binds new arrays to ``state``."""
    values = np.array(values, dtype=np.float64).reshape(-1)
    params = _parameters(state)
    total = sum(arr.size for arr in params.values())
    if values.size != total:
        raise StructuralError(f"flat vector has {values.size} entries, parameters need {total}")
    _rebind(state, state.gates, _split(values, params))


def _pinned_forward(state, head_deltas, masks, noise) -> _Forward:
    """Forward pass with ``masks`` and ``noise`` rows in sorted-id order."""
    ids, deltas = _batch(state, head_deltas)
    canonical = np.argsort(_sorted_rows(ids))
    noise, masks = (None if a is None else np.asarray(a)[canonical] for a in (noise, masks))
    return _forward(state, ids, deltas, noise, masks)


def mean_meta_loss(
    state: AggregatorState,
    head_deltas: dict[str, np.ndarray],
    masks: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> float:
    """Mean meta-loss; ``masks`` pins top-k selection, ``noise`` (N x K)
    fixes the gate noise draws (none by default)."""
    return _mean_loss(state, _pinned_forward(state, head_deltas, masks, noise))


def meta_gradient(
    state: AggregatorState,
    head_deltas: dict[str, np.ndarray],
    masks: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of :func:`mean_meta_loss`, flattened like
    :func:`flatten_parameters`."""
    grads = _backward(state, _pinned_forward(state, head_deltas, masks, noise))
    return _flat(grads.get(name, np.zeros_like(arr)) for name, arr in _parameters(state).items())


def train_step(state: AggregatorState, head_deltas: dict[str, np.ndarray]) -> float:
    """One lazy Adam step on the mean meta-loss; returns the pre-step loss.

    Exploration noise (when enabled) perturbs the gate logits for both
    expert selection and the surviving softmax; the noise draw and the
    selected top-k mask are constants within the step.

    The shared arrays and the gates of the batch's clients step, with
    the bias correction of the global step count; the gates and Adam
    slots of registered clients outside the batch keep their bytes.
    The step binds new arrays to ``state`` and writes none in place, so
    arrays held from before the step, or by a shallow copy of ``state``
    with its own dicts, keep the pre-step values.
    """
    if len(head_deltas) < 2:
        raise UsageError("train_step needs at least two clients")
    cfg = state.config
    ids, deltas = _batch(state, head_deltas)
    noise = None
    if cfg.noise_enabled:
        # the one draw of gate noise: row r goes to canonical client r
        noise = state.rng.standard_normal((len(ids), cfg.num_experts))
    fw = _forward(state, ids, deltas, noise)
    loss = _mean_loss(state, fw)
    grads = _backward(state, fw)

    params = _parameters(state, ids)
    grad = _flat(grads[name] for name in params)
    if not np.all(np.isfinite(grad)):
        name = next(n for n in params if not np.all(np.isfinite(grads[n])))
        dump = "; ".join(f"{i}: {np.array2string(row)}" for i, row in zip(fw.ids, fw.logits))
        raise NumericError(f"non-finite meta-loss gradient for {name!r}; gate logits {dump}")

    def slots(store: dict[str, np.ndarray]) -> np.ndarray:
        return _flat(store[n] if n in store else np.zeros(a.size) for n, a in params.items())

    # every operation is elementwise, so one flat update gives each
    # array the bits of an update of its own
    state.adam_t += 1
    t = state.adam_t
    m = ADAM_BETA1 * slots(state.adam_m) + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * slots(state.adam_v) + (1 - ADAM_BETA2) * grad**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    new = _flat(params.values()) - cfg.server_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.adam_m.update(_split(m, params))
    state.adam_v.update(_split(v, params))
    _rebind(state, ids, _split(new, params))
    return loss
