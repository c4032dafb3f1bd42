"""Tests for the attention mixture-of-experts server aggregator."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from fedgame.aggregator import (
    AggregatorConfig,
    aggregate_game,
    aggregate_mean,
    aggregate_single_attention,
    expert_scores,
    init_aggregator,
    mean_meta_loss,
    meta_gradient,
    register_client,
    top_k_mask,
    train_step,
    _backward,
    _batch,
    _encode,
    _forward,
    _masked_softmax,
    _objective,
)
from fedgame.errors import ConfigError, StructuralError, UsageError


def seeded_state(head_dim=6, clients=("a", "b", "c"), seed=0, **cfg_kw):
    """An aggregator with ``clients`` registered, and the generator that
    its init and registration drew from, for later draws to continue."""
    cfg = AggregatorConfig(embed_dim=cfg_kw.pop("embed_dim", 4), **cfg_kw)
    rng = np.random.default_rng(seed)
    state = init_aggregator(cfg, head_dim, rng)
    register_client(state, clients, rng)
    return state, rng


def make_state(*args, **kwargs):
    return seeded_state(*args, **kwargs)[0]


def random_deltas(state, clients, seed=1):
    """One head delta per client, rows in the order of ``clients``."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(len(clients), state.head_dim))


def gate(state, cid):
    """The client's gate block, a writable view: [0] is the weight, [1] the noise."""
    return state.gates[state.rows[cid]]


def laid_out(state, flat):
    """A state whose named arrays are views of ``flat``, laid out as ``state.params``."""
    return replace(state, params=flat)


def test_config_validation():
    with pytest.raises(ConfigError):
        AggregatorConfig(top_k=5, num_experts=4)
    with pytest.raises(ConfigError):
        AggregatorConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        AggregatorConfig(w_self=1.5)
    with pytest.raises(ConfigError):
        AggregatorConfig(alpha=-0.1)


def test_encode_zero_and_identity():
    state = make_state()
    state.encoder_w[...] = 0.0
    state.encoder_b[...] = 0.0
    np.testing.assert_array_equal(_encode(state, np.ones((1, 6)))[1], np.zeros((1, 4)))

    cfg = AggregatorConfig(embed_dim=5)
    ident = init_aggregator(cfg, 5, np.random.default_rng(0))
    ident.encoder_w[...] = np.eye(5)
    ident.encoder_b[...] = 0.0
    delta = np.arange(5.0)[np.newaxis]
    np.testing.assert_array_equal(_encode(ident, delta)[1], delta)


def test_encode_matches_matvec_oracle():
    state = make_state(seed=3)
    delta = np.random.default_rng(4).normal(size=6)
    expected = np.array(
        [
            math.fsum(delta[i] * state.encoder_w[i, j] for i in range(6)) + state.encoder_b[j]
            for j in range(4)
        ]
    )
    embedding = _encode(state, delta[np.newaxis])[1][0]
    np.testing.assert_allclose(embedding, expected, rtol=0, atol=1e-12)


def test_encode_rejects_wrong_length():
    state = make_state()
    with pytest.raises(StructuralError):
        aggregate_game(state, ["a"], np.ones((1, 7)))


def test_expert_scores_zero_and_sum_expert():
    state = make_state()
    state.experts_w[...] = 0.0
    np.testing.assert_array_equal(
        expert_scores(state, np.ones((2, 4))), np.zeros((2, state.config.num_experts))
    )

    single = make_state(num_experts=1, top_k=1)
    single.experts_w[...] = 1.0
    score = expert_scores(single, np.ones(4))
    assert score.shape == (1, 1)
    assert score[0, 0] == pytest.approx(4.0, abs=1e-12)


def noisy_logits(state, ids, deltas, draws):
    """Gate logits of the batched forward under fixed noise draws.

    Row i of ``draws`` (N(0, 1) draws) and of the result belong to
    ``ids[i]``, so the result does not depend on the order the batch
    runs in.
    """
    rows, canonical, order, back = _batch(state, ids, deltas)
    return _forward(state, rows, canonical, draws[order]).logits[back]


def fixed_draws(state, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, state.config.num_experts))


def test_gate_logits_clean_when_not_training():
    state = make_state(seed=8, noise_enabled=True)
    ids = ["a", "b", "c"]
    deltas = random_deltas(state, ids, seed=9)
    logits = aggregate_game(state, ids, deltas).logits
    for k, (cid, delta) in enumerate(zip(ids, deltas)):
        # re-derived entry by entry with exactly rounded sums
        e = [
            math.fsum(delta[i] * state.encoder_w[i, j] for i in range(6)) + state.encoder_b[j]
            for j in range(4)
        ]
        weight = gate(state, cid)[0]
        clean = [math.fsum(e[d] * weight[d, k] for d in range(4)) for k in range(4)]
        np.testing.assert_allclose(logits[k], clean, rtol=0, atol=1e-12)


def test_gate_logits_noise_vanishes_with_negative_noise_projection():
    state = make_state(seed=10)
    state.encoder_w[...] = 0.0
    state.encoder_b[...] = 1.0
    gate(state, "a")[1] = -50.0
    ids = ["a", "b", "c"]
    deltas = random_deltas(state, ids, seed=11)
    noisy = noisy_logits(state, ids, deltas, fixed_draws(state, 3, seed=12))
    # every embedding is all ones, so the clean logits are the gate's column sums
    clean = gate(state, "a")[0].sum(axis=0)
    np.testing.assert_allclose(noisy[0], clean, rtol=0, atol=1e-12)
    assert np.max(np.abs(noisy[1] - gate(state, "b")[0].sum(axis=0))) > 1e-3


def test_gate_logits_zero_embedding_noise_scale_is_log2():
    state = make_state(seed=11)
    state.encoder_w[...] = 0.0
    state.encoder_b[...] = 0.0
    ids = ["a", "b", "c"]
    deltas = random_deltas(state, ids, seed=12)
    draws = fixed_draws(state, 3, seed=99)
    noisy = noisy_logits(state, ids, deltas, draws)
    for k in range(3):
        np.testing.assert_allclose(noisy[k], draws[k] * math.log(2.0), rtol=0, atol=1e-12)


def test_gate_logits_reproducible_for_fixed_seed():
    a, rng = seeded_state(seed=12)
    b = make_state(seed=12)
    ids = ["a", "b", "c"]
    deltas = random_deltas(a, ids, seed=13)
    draws = fixed_draws(a, 3, seed=14)
    logits_a, logits_b = noisy_logits(a, ids, deltas, draws), noisy_logits(b, ids, deltas, draws)
    np.testing.assert_array_equal(logits_a, logits_b)

    # train_step draws its noise as one N x K block from the generator it is given
    expected = copy.deepcopy(rng)
    expected.standard_normal((3, a.config.num_experts))
    train_step(a, ids, deltas, rng)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_gate_logits_requires_registration():
    state = make_state()
    with pytest.raises(UsageError):
        aggregate_game(state, ["a", "ghost"], np.zeros((2, 6)))


def test_gate_weights_uniform_onehot_and_hand_softmax():
    zeros = np.zeros(4)
    np.testing.assert_allclose(
        _masked_softmax(zeros, top_k_mask(zeros, 4)), np.full(4, 0.25), rtol=0, atol=1e-12
    )
    logits = np.array([0.5, 2.0, 1.0])
    np.testing.assert_array_equal(
        _masked_softmax(logits, top_k_mask(logits, 1)), np.array([0.0, 1.0, 0.0])
    )
    logits = np.array([3.0, 1.0, 2.0, 0.0])
    out = _masked_softmax(logits, top_k_mask(logits, 2))
    e = math.e
    np.testing.assert_allclose(
        out, np.array([e / (1 + e), 0.0, 1 / (1 + e), 0.0]), rtol=0, atol=1e-12
    )


def test_gate_weights_breaks_ties_by_lower_index():
    logits = np.array([1.0, 1.0, 1.0, 0.5])
    kept = top_k_mask(logits, 2)
    np.testing.assert_array_equal(np.flatnonzero(kept), [0, 1])
    out = _masked_softmax(logits, kept)
    np.testing.assert_allclose(out, np.array([0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_gate_weights_sparsity_and_sum():
    rng = np.random.default_rng(14)
    for _ in range(10):
        logits = rng.normal(size=6)
        out = _masked_softmax(logits, top_k_mask(logits, 3))
        assert np.count_nonzero(out) == 3
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= 0.0)


def hand_state():
    """head_dim 1, embed_dim 1, one expert: fully hand-computable."""
    cfg = AggregatorConfig(
        embed_dim=1, num_experts=1, top_k=1, temperature=1.0, w_self=0.6,
        noise_enabled=False,
    )
    rng = np.random.default_rng(0)
    state = init_aggregator(cfg, 1, rng)
    state.encoder_w[...] = 1.0
    state.encoder_b[...] = 0.0
    state.experts_w[...] = np.array([[1.0]])
    register_client(state, ("a", "b", "c"), rng)
    state.gates[:, 0] = 1.0
    state.gates[:, 1] = 0.0
    return state


HAND_IDS, HAND_DELTAS = ["a", "b", "c"], np.array([[1.0], [2.0], [3.0]])


def test_attention_row_hand_case():
    # embeddings equal the deltas; the single expert reads the neighbor
    # embedding, so v_aj = delta_j and the row is softmax(2, 3)
    state = hand_state()
    out = aggregate_game(state, HAND_IDS, HAND_DELTAS)
    assert out.attention[0, 0] == 0.0
    expected = np.exp([2.0, 3.0] - np.array(3.0))
    expected = expected / expected.sum()
    np.testing.assert_allclose(out.attention[0, 1:], expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.mix[0], np.array([1.0]))


def test_attention_row_single_neighbor_gets_weight_one():
    state = make_state(clients=("a", "b"), seed=15)
    deltas = random_deltas(state, ("a", "b"), seed=16)
    attention = aggregate_game(state, ["a", "b"], deltas).attention
    np.testing.assert_array_equal(attention[0], np.array([0.0, 1.0]))


def test_attention_row_uniform_when_scores_equal():
    state = make_state(clients=("a", "b", "c", "d"), seed=17)
    state.experts_w[...] = 0.0
    deltas = random_deltas(state, ("a", "b", "c", "d"), seed=18)
    attention = aggregate_game(state, ["a", "b", "c", "d"], deltas).attention
    np.testing.assert_allclose(np.delete(attention[1], 1), np.full(3, 1.0 / 3.0),
                               rtol=0, atol=1e-12)


def test_attention_row_empty_for_lone_client():
    state = make_state(clients=("a",))
    out = aggregate_game(state, ["a"], np.ones((1, 6)))
    # the only entry is the diagonal: no neighbor, no weight
    np.testing.assert_array_equal(out.attention, np.zeros((1, 1)))
    np.testing.assert_array_equal(out.personalized, np.ones((1, 6)))


def test_attention_rows_match_formula_transcription_oracle():
    ids = ["a", "b", "c"]
    state = make_state(clients=ids, seed=19, num_experts=4, top_k=2)
    deltas = random_deltas(state, ids, seed=20)
    out = aggregate_game(state, ids, deltas)

    for i, cid in enumerate(ids):
        neighbors = [j for j in range(len(ids)) if j != i]
        e_i = deltas[i] @ state.encoder_w + state.encoder_b
        logits = e_i @ gate(state, cid)[0]
        kept = np.sort(np.argsort(-logits, kind="stable")[: state.config.top_k])
        ez = np.exp(logits[kept] - logits[kept].max())
        mix = np.zeros_like(logits)
        mix[kept] = ez / ez.sum()
        np.testing.assert_allclose(out.mix[i], mix, rtol=0, atol=1e-12)

        vs = []
        for j in neighbors:
            e_j = deltas[j] @ state.encoder_w + state.encoder_b
            s = state.experts_w @ e_j
            vs.append(mix @ s)
        vs = np.array(vs)
        ref = np.exp((vs - vs.max()) / state.config.temperature)
        ref = ref / ref.sum()
        np.testing.assert_allclose(out.attention[i, neighbors], ref, rtol=0, atol=1e-12)

        blend = 0.6 * deltas[i] + 0.4 * sum(
            w * deltas[j] for w, j in zip(ref, neighbors)
        )
        np.testing.assert_allclose(out.personalized[i], blend, rtol=0, atol=1e-12)


def test_attention_row_properties_random():
    state = make_state(clients=tuple("abcdef"), seed=21)
    deltas = random_deltas(state, tuple("abcdef"), seed=22)
    out = aggregate_game(state, list("abcdef"), deltas)
    for i, (weights, mix) in enumerate(zip(out.attention, out.mix)):
        assert weights[i] == 0.0
        assert abs(math.fsum(weights) - 1.0) < 1e-9
        assert np.all(weights >= 0.0)
        assert np.count_nonzero(mix) == state.config.top_k
        assert abs(math.fsum(mix) - 1.0) < 1e-9


def test_lower_temperature_sharpens_attention():
    maxima = []
    for temp in (2.0, 1.0, 0.5):
        state = hand_state()
        state.config = replace(state.config, temperature=temp)
        maxima.append(aggregate_game(state, HAND_IDS, HAND_DELTAS).attention[0].max())
    assert maxima[0] < maxima[1] < maxima[2]

    state = hand_state()
    state.config = replace(state.config, temperature=1e6)
    attention = aggregate_game(state, HAND_IDS, HAND_DELTAS).attention
    np.testing.assert_allclose(attention[0, 1:], np.full(2, 0.5), rtol=0, atol=1e-6)


def test_personalized_delta_self_only_and_convexity():
    ids = ["a", "b", "c"]
    state = make_state(clients=ids, seed=23, w_self=1.0)
    deltas = random_deltas(state, ids, seed=24)
    pers = aggregate_game(state, ids, deltas).personalized
    np.testing.assert_allclose(pers, deltas, rtol=0, atol=1e-15)

    state = make_state(clients=ids, seed=25)
    same = np.full((3, state.head_dim), 1.5)
    pers = aggregate_game(state, ids, same).personalized
    np.testing.assert_allclose(pers, same, rtol=0, atol=1e-12)


def test_personalized_delta_hand_weights():
    state = hand_state()
    out = aggregate_game(state, HAND_IDS, HAND_DELTAS)
    weights = out.attention[0, 1:]
    expected = 0.6 * 1.0 + 0.4 * (weights[0] * 2.0 + weights[1] * 3.0)
    np.testing.assert_allclose(out.personalized[0], [expected], rtol=0, atol=1e-12)


def reference_cosine(a, b):
    """cos(a, b) of two vectors in plain numpy, 0 where a norm is below 1e-12."""
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if min(norm_a, norm_b) < 1e-12 else float(a @ b) / (norm_a * norm_b)


def reference_meta_loss(pers, own, alpha, beta):
    """alpha |pers - own|^2 + beta (1 - cos(pers, own)) of two vectors."""
    return alpha * float(np.sum((pers - own) ** 2)) + beta * (1.0 - reference_cosine(pers, own))


def pair_objective(pers, own, alpha, beta):
    """The server objective of one pair of vectors, as a batch of one row."""
    return _objective(pers[np.newaxis], own[np.newaxis], alpha, beta)[0][0]


def test_meta_loss_reference_values():
    d = np.array([1.0, -2.0, 0.5])
    assert pair_objective(d, d, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert pair_objective(2 * d, d, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    val = pair_objective(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 0.5)
    assert val == pytest.approx(1.5, abs=1e-12)
    zero = pair_objective(np.zeros(3), d, 0.5, 0.5)
    assert zero == pytest.approx(0.5 * float(d @ d) + 0.5, abs=1e-12)
    # with alpha = 0 and beta = 1 the loss is 1 - cos: 0 for parallel
    # vectors, 2 for opposite ones, and 1 where a norm is zero
    a = np.array([1.0, 2.0, 3.0])
    assert pair_objective(a, 2.5 * a, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert pair_objective(a, -a, 0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    for pers, own in ((np.zeros(3), a), (a, np.zeros(3)), (np.zeros(3), np.zeros(3))):
        assert pair_objective(pers, own, 0.0, 1.0) == 1.0


def test_mean_meta_loss_matches_numpy_pipeline():
    state = make_state(clients=tuple("abcd"), seed=26, noise_enabled=False)
    ids = list("abcd")
    deltas = random_deltas(state, ids, seed=27)
    pers = aggregate_game(state, ids, deltas).personalized
    expected = np.mean(
        [reference_meta_loss(pers[i], deltas[i], 0.5, 0.5) for i in range(len(ids))]
    )
    assert mean_meta_loss(state, ids, deltas) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("num_experts,top_k", [(4, 2), (2, 1), (1, 1)])
def test_meta_gradient_matches_finite_differences(num_experts, top_k):
    check_meta_gradient(num_experts, top_k, temperature=1.0)


@pytest.mark.parametrize("temperature", [0.5, 2.0])
def test_meta_gradient_matches_finite_differences_off_unit_temperature(temperature):
    # the attention divides its logits by the temperature, which 1 hides
    check_meta_gradient(4, 2, temperature)


def check_meta_gradient(num_experts, top_k, temperature):
    state = make_state(
        head_dim=9,
        clients=("a", "b", "c"),
        seed=30 + num_experts,
        num_experts=num_experts,
        top_k=top_k,
        embed_dim=5,
        noise_enabled=False,
        temperature=temperature,
    )
    ids = ["a", "b", "c"]
    deltas = random_deltas(state, ids, seed=31)
    # the clean logits that made the selection, rows in the order of ids
    masks = top_k_mask(aggregate_game(state, ids, deltas).logits, top_k)
    marker = copy.deepcopy(state)
    marker.gates[:, 1] = np.nan
    noise_entries = np.isnan(marker.params)
    # fixed gate noise draws exercise the softplus noise-scale term
    draws = np.random.default_rng(32).standard_normal((3, num_experts))
    for noise in (None, draws):
        analytic = meta_gradient(state, ids, deltas, masks, noise)

        flat = state.params
        numeric = np.zeros_like(flat)
        eps = 1e-6
        for i in range(flat.size):
            flat[i] += eps
            hi = mean_meta_loss(state, ids, deltas, masks, noise)
            flat[i] -= 2 * eps
            lo = mean_meta_loss(state, ids, deltas, masks, noise)
            flat[i] += eps
            numeric[i] = (hi - lo) / (2 * eps)

        # an entry the loss does not read leaves it bit-identical: both
        # sides must be exactly 0 there, and only there
        zero = numeric == 0.0
        np.testing.assert_array_equal(analytic == 0.0, zero)
        if noise is None:
            assert zero[noise_entries].all()
        live = ~zero
        scale = np.maximum(np.abs(numeric[live]), 1e-6)
        assert np.max(np.abs(analytic[live] - numeric[live]) / scale) < 1e-4


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(40)
    pers, own = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    own[1] = 0.0  # a zero-norm row: its cosine is pinned to 0 whatever pers is
    alpha, beta = 0.3, 0.7
    losses, grad = _objective(pers, own, alpha, beta)
    expected = [reference_meta_loss(p, u, alpha, beta) for p, u in zip(pers, own)]
    np.testing.assert_allclose(losses, expected, rtol=0, atol=1e-12)
    numeric, eps = np.zeros_like(pers), 1e-6
    for idx in np.ndindex(pers.shape):
        hi, lo = pers.copy(), pers.copy()
        hi[idx] += eps
        lo[idx] -= eps
        hi_sum, lo_sum = (_objective(side, own, alpha, beta)[0].sum() for side in (hi, lo))
        numeric[idx] = (hi_sum - lo_sum) / (2 * eps)
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)
    # the pinned cosine gets no gradient: only the squared distance's is left
    np.testing.assert_array_equal(grad[1], 2 * alpha * pers[1])
    pers[2] = 0.0
    losses, grad = _objective(pers, own, alpha, beta)
    assert losses[2] == alpha * np.sum(own[2] ** 2) + beta
    np.testing.assert_array_equal(grad[2], -2 * alpha * own[2])
    # with alpha = 0 and beta = 1 each loss is 1 - cos, exactly 1 on the zero-norm rows
    cos = [reference_cosine(p, u) for p, u in zip(pers, own)]
    losses = _objective(pers, own, 0.0, 1.0)[0]
    np.testing.assert_allclose(losses, 1.0 - np.array(cos), rtol=0, atol=1e-15)
    assert losses[1] == losses[2] == 1.0


def test_backward_is_the_gradient_of_any_upstream_pairing():
    """The chain alone: ``_backward(state, fw, D)`` is the gradient of
    <personalized, D> for a fixed D, on a batch with noisy top-k gates."""
    state = make_state(head_dim=7, clients=tuple("abcde"), seed=41, num_experts=4, top_k=2,
                       embed_dim=5)
    ids = list("dbac")  # e sits out: its gate block must get no gradient
    rows, canonical, order, _ = _batch(state, ids, random_deltas(state, ids, seed=42))
    rng = np.random.default_rng(43)
    noise = rng.standard_normal((len(ids), 4))[order]
    fw = _forward(state, rows, canonical, noise)
    kept = top_k_mask(fw.logits, 2)  # the noisy selection, held fixed
    upstream = rng.normal(size=canonical.shape)

    analytic = _backward(state, fw, upstream)
    assert analytic.shape == state.params.shape

    flat = state.params
    numeric, eps = np.zeros_like(flat), 1e-6
    for i in range(flat.size):
        sides = []
        for step in (eps, -eps):
            flat[i] += step
            sides.append(np.sum(_forward(state, rows, canonical, noise, kept).personalized
                                * upstream))
            flat[i] -= step
        numeric[i] = (sides[0] - sides[1]) / (2 * eps)

    zero = numeric == 0.0
    np.testing.assert_array_equal(analytic == 0.0, zero)
    assert zero[-state.gates[0].size:].all()  # client e, last in registration order
    # the noise scale carries gradient
    assert np.any(laid_out(state, analytic).gates[rows, 1] != 0.0)
    scale = np.maximum(np.abs(numeric[~zero]), 1e-6)
    assert np.max(np.abs(analytic[~zero] - numeric[~zero]) / scale) < 1e-4


def test_train_step_identical_deltas_is_stationary():
    state, rng = seeded_state(clients=("a", "b"), seed=32, noise_enabled=False)
    before = state.params.copy()
    delta = np.random.default_rng(33).normal(size=state.head_dim)
    loss = train_step(state, ["a", "b"], np.stack([delta, delta]), rng)
    assert loss < 1e-12
    moved = np.max(np.abs(state.params - before))
    assert moved <= state.config.server_lr * 1e-7


def test_train_step_descends_on_fixed_batch():
    successes = 0
    for seed in range(20):
        state, rng = seeded_state(
            head_dim=8, clients=tuple("abcd"), seed=seed, noise_enabled=False,
            server_lr=1e-3,
        )
        deltas = random_deltas(state, tuple("abcd"), seed=100 + seed)
        losses = [train_step(state, list("abcd"), deltas, rng) for _ in range(50)]
        losses.append(mean_meta_loss(state, list("abcd"), deltas))
        if losses[-1] <= losses[0] + 1e-12:
            successes += 1
    assert successes >= 19


def test_train_step_deterministic_with_noise():
    def run(seed):
        state, rng = seeded_state(clients=("a", "b", "c"), seed=seed, noise_enabled=True)
        deltas = random_deltas(state, ("a", "b", "c"), seed=50)
        for _ in range(3):
            train_step(state, ["a", "b", "c"], deltas, rng)
        return state.params

    np.testing.assert_array_equal(run(7), run(7))


def parameter_arrays(state):
    """Name -> writable view of every learnable array, in ``params`` order."""
    arrays = {"encoder.w": state.encoder_w, "encoder.b": state.encoder_b,
              "experts.w": state.experts_w}
    for cid in sorted(state.rows, key=state.rows.get):
        arrays[f"gate:{cid}.w"], arrays[f"gate:{cid}.noise"] = gate(state, cid)
    return arrays


def adam_slots(state, slot):
    """Name -> Adam moment ``slot`` ("m" or "v") of each array of parameter_arrays."""
    return parameter_arrays(laid_out(state, getattr(state, f"adam_{slot}")))


def test_flat_adam_matches_a_per_array_update_bit_for_bit():
    clients = tuple("abcd")
    state, rng = seeded_state(head_dim=7, clients=clients, seed=70, noise_enabled=True)
    oracle, oracle_rng = copy.deepcopy(state), copy.deepcopy(rng)
    m, v = {}, {}
    for step in range(1, 4):
        if step == 2:
            # "0" sorts first but registers last: its block comes last and
            # starts with zero moments; every existing entry keeps its bytes
            size = state.params.size
            held = {name: getattr(state, name).tobytes() for name in ("params", "adam_m", "adam_v")}
            for agg, agg_rng in ((state, rng), (oracle, oracle_rng)):
                register_client(agg, ["0"], agg_rng)
            assert list(state.rows) == ["a", "b", "c", "d", "0"]
            for name, before in held.items():
                assert getattr(state, name)[:size].tobytes() == before, name
            assert not state.adam_m[size:].any() and not state.adam_v[size:].any()
            clients += ("0",)
        deltas = random_deltas(state, clients, seed=70 + step)
        # the step's one noise draw, in canonical rows, handed over in the rows of clients
        back = _batch(oracle, clients, deltas)[3]
        draws = oracle_rng.standard_normal((len(clients), state.config.num_experts))
        noise = draws[back]
        loss = mean_meta_loss(oracle, clients, deltas, None, noise)
        grad = meta_gradient(oracle, clients, deltas, None, noise)
        assert train_step(state, clients, deltas, rng) == loss
        start = 0
        for name, arr in parameter_arrays(oracle).items():
            g = grad[start : start + arr.size].reshape(arr.shape)
            start += arr.size
            m[name] = 0.9 * m.get(name, np.zeros_like(g)) + (1 - 0.9) * g
            v[name] = 0.999 * v.get(name, np.zeros_like(g)) + (1 - 0.999) * g**2
            m_hat = m[name] / (1 - 0.9**step)
            v_hat = v[name] / (1 - 0.999**step)
            arr -= state.config.server_lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.params.tobytes() == oracle.params.tobytes()
        for name in m:
            assert adam_slots(state, "m")[name].tobytes() == m[name].tobytes(), name
            assert adam_slots(state, "v")[name].tobytes() == v[name].tobytes(), name
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def gate_and_slots(state, cid):
    return {
        "weight": gate(state, cid)[0], "noise": gate(state, cid)[1],
        **{f"adam_{slot}:{part}": adam_slots(state, slot)[f"gate:{cid}.{part}"]
           for slot in ("m", "v") for part in ("w", "noise")},
    }


def test_absent_clients_keep_their_gates_and_adam_slots():
    """Lazy Adam: a client outside the batch keeps every byte of its
    gate pair and its Adam slots, even with momentum left over."""
    state, rng = seeded_state(head_dim=6, clients=tuple("abcd"), seed=72, noise_enabled=True)
    train_step(state, tuple("abcd"), random_deltas(state, tuple("abcd"), seed=73), rng)
    before = {name: arr.tobytes() for name, arr in gate_and_slots(state, "d").items()}
    assert np.any(adam_slots(state, "m")["gate:d.w"] != 0.0)
    moved = gate(state, "a")[0].copy(), state.encoder_w.copy()

    train_step(state, tuple("abc"), random_deltas(state, tuple("abc"), seed=74), rng)
    for name, arr in gate_and_slots(state, "d").items():
        assert arr.tobytes() == before[name], name
    assert state.adam_t == 2
    assert not np.array_equal(gate(state, "a")[0], moved[0])
    assert not np.array_equal(state.encoder_w, moved[1])


def test_train_step_requires_two_clients():
    state, rng = seeded_state(clients=("a",))
    with pytest.raises(UsageError):
        train_step(state, ["a"], np.ones((1, 6)), rng)


def test_game_single_attention_equivalence():
    state = make_state(
        clients=("a", "b", "c"), seed=34, num_experts=1, top_k=1, noise_enabled=False
    )
    deltas = random_deltas(state, ("a", "b", "c"), seed=35)
    game = aggregate_game(state, ["a", "b", "c"], deltas)
    single = aggregate_single_attention(state, ["a", "b", "c"], deltas)
    np.testing.assert_array_equal(game.personalized, single.personalized)
    np.testing.assert_array_equal(game.attention, single.attention)

    wide = make_state(clients=("a", "b"), seed=36)
    with pytest.raises(ConfigError):
        aggregate_single_attention(wide, ["a", "b"], random_deltas(wide, ("a", "b"), seed=37))


def test_zero_expert_single_attention_equals_mean():
    state = make_state(
        clients=("a", "b", "c", "d"), seed=38, num_experts=1, top_k=1,
        noise_enabled=False,
    )
    state.experts_w[...] = 0.0
    deltas = random_deltas(state, ("a", "b", "c", "d"), seed=39)
    pers = aggregate_single_attention(state, list("abcd"), deltas).personalized
    base = aggregate_mean(deltas, state.config.w_self)
    np.testing.assert_allclose(pers, base, rtol=0, atol=1e-12)


def test_aggregate_mean_cases():
    deltas = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = aggregate_mean(deltas, 0.6)
    np.testing.assert_allclose(out[0], 0.6 * deltas[0] + 0.4 * deltas[1], atol=1e-12)

    same = np.tile([2.0, -1.0], (3, 1))
    out = aggregate_mean(same, 0.6)
    np.testing.assert_allclose(out, same, rtol=0, atol=1e-12)

    solo = aggregate_mean(np.array([[5.0]]), 0.6)
    np.testing.assert_array_equal(solo, np.array([[5.0]]))

    rng = np.random.default_rng(40)
    four = rng.normal(size=(4, 3))
    out = aggregate_mean(four, 0.6)
    for i in range(4):
        others = np.mean(np.delete(four, i, axis=0), axis=0)
        np.testing.assert_allclose(out[i], 0.6 * four[i] + 0.4 * others, atol=1e-12)

    with pytest.raises(StructuralError):
        aggregate_mean(np.ones(3), 0.6)


def test_game_n2_equals_mean_n2():
    state = make_state(clients=("a", "b"), seed=41)
    deltas = random_deltas(state, ("a", "b"), seed=42)
    pers = aggregate_game(state, ["a", "b"], deltas).personalized
    np.testing.assert_array_equal(pers, aggregate_mean(deltas, state.config.w_self))


def assert_same_aggregation(out, other):
    for name, arr in out._asdict().items():
        np.testing.assert_array_equal(arr, getattr(other, name), err_msg=name)


def test_relabeling_clients_permutes_outputs_exactly():
    clients = ["a", "b", "c", "d"]
    mapping = {"a": "w", "b": "q", "c": "z", "d": "m"}
    state = make_state(clients=clients, seed=43, noise_enabled=False)
    renamed = make_state(clients=mapping.values(), seed=43, noise_enabled=False)
    for old, new in mapping.items():
        gate(renamed, new)[...] = gate(state, old)
    deltas = random_deltas(state, clients, seed=44)

    # row i of both outputs belongs to clients[i] under its two names
    out = aggregate_game(state, clients, deltas)
    out2 = aggregate_game(renamed, [mapping[c] for c in clients], deltas)
    assert_same_aggregation(out, out2)


def test_register_client_is_idempotent():
    state, rng = seeded_state(clients=("a",), seed=45)
    before, drawn = gate(state, "a")[0].copy(), rng.bit_generator.state
    register_client(state, ["a"], rng)
    np.testing.assert_array_equal(gate(state, "a")[0], before)
    assert rng.bit_generator.state == drawn


def test_register_client_draws_a_fleet_as_one_by_one():
    """One call draws the new gates in sorted-id order, the same bytes
    and generator state as one call per client in that order."""
    fleet, fleet_rng = seeded_state(clients=("a",), seed=46)
    single, single_rng = seeded_state(clients=("a",), seed=46)
    register_client(fleet, ["d", "a", "b", "c"], fleet_rng)
    for cid in ("b", "c", "d"):
        register_client(single, [cid], single_rng)
    assert fleet.rows == single.rows == {"a": 0, "b": 1, "c": 2, "d": 3}
    for name in ("params", "adam_m", "adam_v"):
        assert getattr(fleet, name).tobytes() == getattr(single, name).tobytes(), name
    assert fleet_rng.bit_generator.state == single_rng.bit_generator.state
    with pytest.raises(UsageError):
        register_client(fleet, "e", fleet_rng)


def test_caller_order_permutes_outputs_exactly():
    """The same clients in two orders: outputs are the same rows
    permuted bit for bit, and training leaves the same bytes."""
    clients = list("abcdef")
    state, rng = seeded_state(clients=clients, seed=47, noise_enabled=True)
    deltas = random_deltas(state, clients, seed=48)
    # a tie: equal deltas and gates, which ids alone order
    gate(state, "e")[...] = gate(state, "b")
    deltas[4] = deltas[1]
    perm = np.random.default_rng(49).permutation(len(clients))
    shuffled = [clients[k] for k in perm]

    out, out2 = aggregate_game(state, clients, deltas), aggregate_game(state, shuffled, deltas[perm])
    for name, arr in out._asdict().items():
        rows = arr[perm][:, perm] if name == "attention" else arr[perm]
        assert rows.tobytes() == getattr(out2, name).tobytes(), name
    mean = aggregate_mean(deltas, state.config.w_self)
    assert mean[perm].tobytes() == aggregate_mean(deltas[perm], state.config.w_self).tobytes()

    other, other_rng = copy.deepcopy(state), copy.deepcopy(rng)
    for step in range(3):
        step_deltas = deltas + 0.1 * step
        loss = train_step(state, clients, step_deltas, rng)
        assert train_step(other, shuffled, step_deltas[perm], other_rng) == loss
    for name in ("params", "adam_m", "adam_v"):
        assert getattr(state, name).tobytes() == getattr(other, name).tobytes(), name
    assert state.rows == other.rows


def test_batch_shape_and_ids_are_checked():
    state = make_state()
    for ids, deltas in ((["a", "b"], np.ones((3, 6))), (["a", "b"], np.ones(12)),
                        (["a", "b"], np.ones((2, 5)))):
        with pytest.raises(StructuralError):
            aggregate_game(state, ids, deltas)
    with pytest.raises(UsageError):
        aggregate_game(state, ["a", "a"], np.ones((2, 6)))


def renamed_state(state, mapping):
    """A deep copy of ``state`` with every client-keyed entry renamed."""
    renamed = copy.deepcopy(state)
    renamed.rows = {mapping[c]: row for c, row in renamed.rows.items()}
    return renamed


def assert_renamed_exactly(state, renamed, ids, deltas, mapping):
    """Parameters, Adam slots and the next aggregations agree bit for bit."""
    for name in ("encoder_w", "encoder_b", "experts_w"):
        np.testing.assert_array_equal(getattr(state, name), getattr(renamed, name))
    for c, new in mapping.items():
        np.testing.assert_array_equal(gate(state, c)[0], gate(renamed, new)[0])
        np.testing.assert_array_equal(gate(state, c)[1], gate(renamed, new)[1])
    as_renamed = renamed_state(state, mapping)
    for slots, renamed_slots in ((adam_slots(as_renamed, "m"), adam_slots(renamed, "m")),
                                 (adam_slots(as_renamed, "v"), adam_slots(renamed, "v"))):
        assert slots.keys() == renamed_slots.keys()
        for name in slots:
            np.testing.assert_array_equal(slots[name], renamed_slots[name])

    renamed_ids = [mapping[c] for c in ids]
    assert_same_aggregation(aggregate_game(state, ids, deltas),
                            aggregate_game(renamed, renamed_ids, deltas))


@pytest.mark.parametrize("noise_enabled", [True, False])
def test_trained_aggregator_is_exactly_relabeling_equivariant(noise_enabled):
    clients = [f"c{i:03d}" for i in range(120)]
    rng = np.random.default_rng(60)
    mapping = dict(zip(clients, (f"r{i:03d}" for i in rng.permutation(120))))
    state, rng = seeded_state(head_dim=8, clients=clients, seed=61, noise_enabled=noise_enabled)
    renamed, renamed_rng = renamed_state(state, mapping), copy.deepcopy(rng)
    renamed_ids = [mapping[c] for c in clients]
    for step in range(3):
        deltas = random_deltas(state, clients, seed=62 + step)
        loss = train_step(state, clients, deltas, rng)
        assert train_step(renamed, renamed_ids, deltas, renamed_rng) == loss
    assert_renamed_exactly(state, renamed, clients, deltas, mapping)


@pytest.mark.parametrize("noise_enabled", [True, False])
def test_relabeling_with_tied_clients(noise_enabled):
    """Two clients with the same delta and gates have identical inputs;
    their ids only decide which of the two tied rows each one takes."""
    clients = ["a", "b", "c", "d", "e"]
    state, rng = seeded_state(clients=clients, seed=63, noise_enabled=noise_enabled)
    gate(state, "d")[...] = gate(state, "b")
    deltas = random_deltas(state, clients, seed=64)
    deltas[3] = deltas[1]
    pers = aggregate_game(state, clients, deltas).personalized
    np.testing.assert_allclose(pers[1], pers[3], rtol=1e-14, atol=0)

    # the rename puts d's new id before b's, so the two trade rows
    mapping = {"a": "v", "b": "z", "c": "x", "d": "y", "e": "w"}
    renamed, renamed_rng = renamed_state(state, mapping), copy.deepcopy(rng)
    for step in range(3):
        step_deltas = deltas + 0.1 * step
        train_step(state, clients, step_deltas, rng)
        train_step(renamed, [mapping[c] for c in clients], step_deltas, renamed_rng)
    assert_renamed_exactly(state, renamed, clients, deltas, {**mapping, "b": "y", "d": "z"})
