"""Learnable server aggregator: graph attention over a mixture of experts.

The server never sees raw data, only each client's output-head delta.
A shared affine encoder embeds every delta; shared scoring experts rate
each neighbor's embedding; a per-client top-k gate mixes the expert
scores into one relevance logit per neighbor; a
temperature-scaled softmax over neighbors turns logits into attention
weights; and the personalized update blends the client's own delta with
the attention-weighted neighbor deltas.

The state is one flat parameter vector, with Adam's two moments shaped
like it: the shared arrays, then one gate block per registered client.
The named arrays are views of it.  All clients go through one batched
forward over the N x h matrix of head deltas.  The meta-loss gradient
is derived by hand in two parts: the objective's gradient in each
personalized row, then one chain back to a gradient shaped like the
parameters.  The meta step, lazy Adam on the shared entries and the
batch's gate blocks, binds new vectors and writes none of the old ones,
which is what lets a round discard a failed step by dropping a shallow
copy.  The state holds no generator; every call that draws is given one.

Experts read only the neighbor's embedding, without the encoder bias.
A term that depends on the scoring client alone is the same for every
neighbor and cancels in the softmax over neighbors; the client's own
embedding, an expert bias and the shared encoder bias are such terms.

The logit matrix ``mix @ scores.T`` has rank at most K, the number of
experts: one expert ranks every client's neighbors alike, the "static
attention" of Brody et al. (ICLR 2022), and ``top_k: 1`` gives the
gates an exactly zero gradient; no built-in kind forces either.  The
yardstick for the learned graph, ``single_attention``, is the
parameter-free cosine attention of FedAMP and pFedGraph.

A batch is a list of N client ids and the (N, h) matrix of their head
deltas; row i of every input and output belongs to ``ids[i]``.
Relabeling or reordering clients permutes every output bit for bit.
Each batch runs in a canonical order set by content: rows sorted by the
raw bytes of their head delta and gate block, ties by id.  The forward
and the backward follow it, so a relabeling changes no input of any
numeric operation and plain ``@`` and sums, BLAS included, give the
same bits.  Clients whose keys tie have identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, NumericError, StructuralError, UsageError, too_small, typed_fields,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Norms below this are treated as zero when computing cosine similarity.
NORM_TOLERANCE = 1e-12
COSINE_TEMPERATURE = 0.1


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
    # vestigial: only false is accepted
    noise_enabled: bool = False

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
        if "noise_enabled" not in bad and self.noise_enabled:
            problems.append("noise_enabled must be false: the noisy gate was removed")
        if problems:
            raise ConfigError(*problems)


class Aggregation(NamedTuple):
    """Output of one batch; row i belongs to ``ids[i]``.

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
    """All learnable server parameters plus Adam's moments.

    ``params`` is one flat vector: ``encoder_w`` (head_dim, embed_dim),
    ``encoder_b`` (embed_dim), ``experts_w`` (num_experts, embed_dim), then
    one (embed_dim, num_experts) gate weight per registered client in
    registration order; ``rows`` maps each client id to its block.  The
    four named arrays are properties without setters that return views of
    ``params``, so a write through one writes ``params``.  Expert k scores
    a neighbor embedding e_j as ``experts_w[k] . e_j``.  ``adam_m`` and
    ``adam_v`` are Adam's moments, shaped like ``params``; ``adam_t``
    counts the steps taken.
    """

    config: AggregatorConfig
    head_dim: int
    params: np.ndarray
    rows: dict[str, int]
    adam_m: np.ndarray
    adam_v: np.ndarray
    adam_t: int = 0

    @property
    def encoder_w(self) -> np.ndarray:
        d = self.config.embed_dim
        return self.params[: self.head_dim * d].reshape(self.head_dim, d)

    @property
    def encoder_b(self) -> np.ndarray:
        d = self.config.embed_dim
        return self.params[self.head_dim * d : (self.head_dim + 1) * d]

    @property
    def experts_w(self) -> np.ndarray:
        d = self.config.embed_dim
        return self.params[(self.head_dim + 1) * d : _shared_size(self)].reshape(-1, d)

    @property
    def gates(self) -> np.ndarray:
        return _gate_blocks(self, self.params)


def _shared_size(state: AggregatorState) -> int:
    """Entries of the shared arrays, which lead ``params``."""
    return (state.head_dim + 1 + state.config.num_experts) * state.config.embed_dim


def _gate_blocks(state: AggregatorState, flat: np.ndarray) -> np.ndarray:
    """The (C, embed_dim, num_experts) gate blocks of ``flat``, laid out
    as ``state.params``, as a view."""
    cfg = state.config
    return flat[_shared_size(state) :].reshape(-1, cfg.embed_dim, cfg.num_experts)


def init_aggregator(
    cfg: AggregatorConfig, head_dim: int, rng: np.random.Generator
) -> AggregatorState:
    """Uniform(-s, s) init with s = 1/sqrt(fan_in); gates start empty."""
    if head_dim < 1:
        raise ConfigError("head_dim must be >= 1")
    d = cfg.embed_dim
    s_enc, s_exp = 1.0 / math.sqrt(head_dim), 1.0 / math.sqrt(d)
    # encoder_w's draws, then encoder_b's, then experts_w's
    params = np.concatenate([rng.uniform(-s_enc, s_enc, size=(head_dim + 1) * d),
                             rng.uniform(-s_exp, s_exp, size=cfg.num_experts * d)])
    return AggregatorState(cfg, head_dim, params, rows={},
                           adam_m=np.zeros(params.size), adam_v=np.zeros(params.size))


def register_client(state: AggregatorState, client_ids, rng: np.random.Generator) -> None:
    """Append a gate block, drawn from ``rng``, with zero Adam moments for
    every id of ``client_ids`` not yet registered: one draw, blocks in
    sorted-id order.  New vectors are bound, none is written.  For
    reproducibility, pass the generator :func:`init_aggregator` drew from.
    """
    if isinstance(client_ids, str):
        raise UsageError(f"client_ids must be a sequence of ids, got the string {client_ids!r}")
    new = sorted(set(client_ids) - state.rows.keys())
    cfg = state.config
    s = 1.0 / math.sqrt(cfg.embed_dim)
    gates = rng.uniform(-s, s, size=len(new) * cfg.embed_dim * cfg.num_experts)
    state.rows = {**state.rows, **{c: len(state.rows) + k for k, c in enumerate(new)}}
    state.params = np.concatenate([state.params, gates])
    zeros = np.zeros(gates.size)
    state.adam_m, state.adam_v = (np.concatenate([a, zeros]) for a in (state.adam_m, state.adam_v))


def _content_order(deltas, ids=None, head_dim=None, gates=None):
    """``deltas`` as a float matrix of ``len(ids)`` rows of ``head_dim``
    (any sizes if None), the canonical order of its rows and the order's
    inverse: row ``order[r]`` runs at canonical row r, and caller row i
    at ``back[i]``.  Rows sort by the bytes of each delta, then of its
    gate block if given (bytes tell 0.0 from -0.0); ties by id, else by
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


def top_k_mask(logits: np.ndarray, k: int) -> np.ndarray:
    """True at the k largest logits of each row, ties to the lower index."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 1 <= k <= logits.shape[-1]:
        raise ConfigError(f"k must satisfy 1 <= k <= {logits.shape[-1]}, got {k}")
    order = np.argsort(-logits, axis=-1, kind="stable")[..., :k]
    kept = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(kept, order, True, axis=-1)
    return kept


def _masked_softmax(logits, kept, temperature=1.0):
    """Softmax of each row's ``logits / temperature`` over its ``kept`` entries."""
    z = np.where(kept, logits, -np.inf)
    ez = np.exp((z - z.max(axis=-1, keepdims=True)) / temperature)
    return ez / ez.sum(axis=-1, keepdims=True)


def _attention(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax over j != i of scores[i, j] / T; a lone client gets no row."""
    n = len(scores)
    if n < 2:
        return np.zeros((n, n))
    return _masked_softmax(scores, ~np.eye(n, dtype=bool), temperature)


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
    reads gate block ``rows[r]`` of the state."""

    rows: list[int]
    deltas: np.ndarray
    gate_w: np.ndarray
    linear: np.ndarray
    embeddings: np.ndarray
    logits: np.ndarray
    mix: np.ndarray
    scores: np.ndarray
    attention: np.ndarray
    personalized: np.ndarray


def _batch(state: AggregatorState, ids, deltas):
    """Gate blocks and head deltas of registered clients in canonical
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
    kept: np.ndarray | None = None,
) -> _Forward:
    """Embeddings, gates, attention and personalized deltas of all clients.

    ``kept`` pins the top-k selection instead of taking it from the logits.
    """
    cfg, gate_w = state.config, state.gates[rows]
    linear, emb = _encode(state, deltas)
    # row r reads its own gate
    logits = (emb[:, np.newaxis, :] @ gate_w)[:, 0]
    if kept is None:
        kept = top_k_mask(logits, cfg.top_k)
    mix = _masked_softmax(logits, kept)
    scores = expert_scores(state, linear)
    attention = _attention(mix @ scores.T, cfg.temperature)
    return _Forward(
        rows, deltas, gate_w, linear, emb, logits, mix, scores, attention,
        _blend(deltas, attention, cfg.w_self),
    )


def _objective(pers: np.ndarray, own: np.ndarray, alpha: float, beta: float):
    """Meta-loss of each row of ``pers`` against that of ``own`` (N,), and its gradient
    in ``pers`` (N, h); the cosine is 0, with no gradient, where a norm is below tolerance."""
    norm_p = np.sqrt(np.sum(pers * pers, axis=1))
    norm_u = np.sqrt(np.sum(own * own, axis=1))
    live = (norm_p >= NORM_TOLERANCE) & (norm_u >= NORM_TOLERANCE)
    cos = np.where(live, np.sum(pers * own, axis=1) / np.where(live, norm_p * norm_u, 1.0), 0.0)
    losses = alpha * np.sum((pers - own) ** 2, axis=1) + beta * (1.0 - cos)
    # d cos / d pers = own / (|p| |u|) - cos * pers / |p|^2
    norm_p, norm_u = (np.maximum(a, NORM_TOLERANCE)[:, np.newaxis] for a in (norm_p, norm_u))
    cos, live = cos[:, np.newaxis], live[:, np.newaxis]
    dcos = np.where(live, own / (norm_p * norm_u) - cos * pers / norm_p**2, 0.0)
    return losses, 2.0 * alpha * (pers - own) - beta * dcos


def _mean_loss(state: AggregatorState, fw: _Forward) -> tuple[float, np.ndarray]:
    """Mean meta-loss of a forward pass, and its gradient in each personalized row."""
    cfg = state.config
    losses, d_pers = _objective(fw.personalized, fw.deltas, cfg.alpha, cfg.beta)
    return float(np.mean(losses)), d_pers / len(losses)


def _backward(state: AggregatorState, fw: _Forward, d_pers: np.ndarray) -> np.ndarray:
    """Carry ``d_pers`` (N, h), a gradient in each row of ``fw.personalized``,
    back to one gradient shaped like ``state.params``: the shared entries,
    then each gate block in registration order, zero for clients outside
    the batch.

    Top-k selection and head deltas are constants.
    """
    cfg = state.config
    # a lone client has an all-zero attention row, so nothing flows back
    att = fw.attention
    d_att = (1.0 - cfg.w_self) * (d_pers @ fw.deltas.T)
    d_s = att * (d_att - np.sum(att * d_att, axis=1, keepdims=True)) / cfg.temperature
    d_mix = d_s @ fw.scores
    d_scores = d_s.T @ fw.mix
    d_logits = fw.mix * (d_mix - np.sum(fw.mix * d_mix, axis=1, keepdims=True))

    d_emb = (fw.gate_w @ d_logits[:, :, np.newaxis])[:, :, 0]
    d_encoder_w = fw.deltas.T @ (d_scores @ state.experts_w + d_emb)
    grad = np.concatenate([d_encoder_w.reshape(-1), d_emb.sum(axis=0),
                           (d_scores.T @ fw.linear).reshape(-1), np.zeros(state.gates.size)])
    _gate_blocks(state, grad)[fw.rows] = fw.embeddings[:, :, np.newaxis] * d_logits[:, np.newaxis]
    return grad


def aggregate_game(state: AggregatorState, ids, deltas) -> Aggregation:
    """Personalized deltas, attention and gates of clients ``ids`` with
    head deltas ``deltas`` (N, h)."""
    rows, canonical, _, back = _batch(state, ids, deltas)
    fw = _forward(state, rows, canonical)
    return Aggregation(
        fw.personalized[back], fw.attention[np.ix_(back, back)], fw.mix[back], fw.logits[back]
    )


def aggregate_single_attention(state: AggregatorState, ids, deltas) -> tuple[np.ndarray, ...]:
    """Personalized deltas and attention, rows as ``ids``: the blend with
    ``w_self`` of a softmax over j != i of cos(delta_i, delta_j) / COSINE_TEMPERATURE."""
    deltas, order, back = _content_order(deltas, ids, state.head_dim)
    deltas = deltas[order]
    norms = np.sqrt(np.sum(deltas * deltas, axis=1, keepdims=True))
    unit = np.where(norms >= NORM_TOLERANCE, deltas / np.maximum(norms, NORM_TOLERANCE), 0.0)
    attention = _attention(unit @ unit.T, COSINE_TEMPERATURE)
    return _blend(deltas, attention, state.config.w_self)[back], attention[np.ix_(back, back)]


def uniform_attention(n: int) -> np.ndarray:
    """Equal weight on every other client, as the ``mean`` baseline uses."""
    return np.where(np.eye(n, dtype=bool), 0.0, 1.0 / max(n - 1, 1))


def aggregate_mean(deltas, w_self: float) -> np.ndarray:
    """Fixed uniform neighbor averaging of the rows of ``deltas`` (N, h)
    with the same self blend, in the same row order."""
    deltas, order, back = _content_order(deltas)
    return _blend(deltas[order], uniform_attention(len(deltas)), w_self)[back]


def _pinned_forward(state, ids, deltas, masks) -> _Forward:
    """Forward pass with ``masks`` rows in the order of ``ids``."""
    rows, canonical, order, _ = _batch(state, ids, deltas)
    return _forward(state, rows, canonical, None if masks is None else np.asarray(masks)[order])


def mean_meta_loss(state: AggregatorState, ids, deltas, masks: np.ndarray | None = None) -> float:
    """Mean meta-loss; ``masks`` pins top-k selection."""
    return _mean_loss(state, _pinned_forward(state, ids, deltas, masks))[0]


def meta_gradient(
    state: AggregatorState, ids, deltas, masks: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of :func:`mean_meta_loss`, shaped like ``state.params``."""
    fw = _pinned_forward(state, ids, deltas, masks)
    return _backward(state, fw, _mean_loss(state, fw)[1])


def _adam(cfg: AggregatorConfig, t: int, grad, params, m, v):
    """New parameters and moments after Adam step ``t``; writes nothing."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
    m_hat = m / (1 - ADAM_BETA1**t)
    v_hat = v / (1 - ADAM_BETA2**t)
    return params - cfg.server_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


def train_step(state: AggregatorState, ids, deltas) -> float:
    """One lazy Adam step on the mean meta-loss of clients ``ids`` with
    head deltas ``deltas`` (N, h); returns the pre-step loss.  The top-k
    mask is a constant within the step.

    The shared entries and the gate blocks of the batch's clients step,
    with the bias correction of the global step count; the gates and
    Adam moments of registered clients outside the batch keep their
    bytes.  The step binds new vectors to ``state`` and writes none in
    place, so arrays held from before the step, or by a shallow copy of
    ``state``, keep the pre-step values.
    """
    if len(ids) < 2:
        raise UsageError("train_step needs at least two clients")
    cfg = state.config
    rows, canonical, _, back = _batch(state, ids, deltas)
    fw = _forward(state, rows, canonical)
    loss, d_pers = _mean_loss(state, fw)
    grad = _backward(state, fw, d_pers)
    if not np.isfinite(grad).all():
        dump = "; ".join(f"{i}: {np.array2string(row)}" for i, row in zip(ids, fw.logits[back]))
        raise NumericError(f"non-finite meta-loss gradient; gate logits {dump}")

    state.adam_t += 1
    # the shared entries and the batch's gate blocks step; the rest keep their bytes
    stepped = np.zeros(state.params.size, dtype=bool)
    stepped[: _shared_size(state)] = True
    _gate_blocks(state, stepped)[fw.rows] = True
    old = (state.params, state.adam_m, state.adam_v)
    new = _adam(cfg, state.adam_t, grad, *old)
    state.params, state.adam_m, state.adam_v = (np.where(stepped, a, b) for a, b in zip(new, old))
    return loss
