"""Tests for the attention mixture-of-experts server aggregator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedgame.aggregator import (
    AggregatorConfig,
    GatePair,
    aggregate_game,
    aggregate_mean,
    aggregate_single_attention,
    clean_top_k_masks,
    encode,
    expert_scores,
    flatten_parameters,
    gate_logits,
    gate_weights,
    init_aggregator,
    load_parameters,
    mean_meta_loss,
    meta_gradient,
    meta_loss,
    register_client,
    top_k_mask,
    train_step,
)
from fedgame.errors import ConfigError, StructuralError, UsageError


def make_state(head_dim=6, clients=("a", "b", "c"), seed=0, **cfg_kw):
    cfg = AggregatorConfig(embed_dim=cfg_kw.pop("embed_dim", 4), **cfg_kw)
    state = init_aggregator(cfg, head_dim, np.random.default_rng(seed))
    for cid in sorted(clients):
        register_client(state, cid)
    return state


def random_deltas(state, clients, seed=1):
    rng = np.random.default_rng(seed)
    return {c: rng.normal(size=state.head_dim) for c in clients}


def attention_rows(state, deltas):
    """Attention rows of aggregate_game, keyed by client id."""
    return {row.client_id: row for row in aggregate_game(state, deltas)[1]}


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
    np.testing.assert_array_equal(encode(state, np.ones(6)), np.zeros(4))

    cfg = AggregatorConfig(embed_dim=5)
    ident = init_aggregator(cfg, 5, np.random.default_rng(0))
    ident.encoder_w[...] = np.eye(5)
    ident.encoder_b[...] = 0.0
    delta = np.arange(5.0)
    np.testing.assert_array_equal(encode(ident, delta), delta)


def test_encode_matches_matvec_oracle():
    state = make_state(seed=3)
    delta = np.random.default_rng(4).normal(size=6)
    expected = np.array(
        [
            math.fsum(delta[i] * state.encoder_w[i, j] for i in range(6)) + state.encoder_b[j]
            for j in range(4)
        ]
    )
    np.testing.assert_allclose(encode(state, delta), expected, rtol=0, atol=1e-12)


def test_encode_rejects_wrong_length():
    state = make_state()
    with pytest.raises(StructuralError):
        encode(state, np.ones(7))


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


def test_gate_logits_clean_when_not_training():
    state = make_state(seed=8)
    e = np.random.default_rng(9).normal(size=4)
    # the product is summed in index order, which makes it exact
    clean = sum(e[d] * state.gates["a"].weight[d] for d in range(4))
    np.testing.assert_array_equal(gate_logits(state, "a", e, training=False), clean)


def test_gate_logits_noise_vanishes_with_negative_noise_projection():
    state = make_state(seed=10)
    state.gates["a"].noise[...] = -50.0
    e = np.ones(4)
    clean = e @ state.gates["a"].weight
    noisy = gate_logits(state, "a", e, training=True)
    np.testing.assert_allclose(noisy, clean, rtol=0, atol=1e-12)


def test_gate_logits_zero_embedding_noise_scale_is_log2():
    state = make_state(seed=11)
    draw_rng = np.random.default_rng(99)
    state.rng = np.random.default_rng(99)
    e = np.zeros(4)
    noisy = gate_logits(state, "a", e, training=True)
    eps = draw_rng.standard_normal(state.config.num_experts)
    np.testing.assert_allclose(noisy, eps * math.log(2.0), rtol=0, atol=1e-12)


def test_gate_logits_reproducible_for_fixed_seed():
    a = make_state(seed=12)
    b = make_state(seed=12)
    e = np.random.default_rng(13).normal(size=4)
    np.testing.assert_array_equal(
        gate_logits(a, "b", e, training=True), gate_logits(b, "b", e, training=True)
    )


def test_gate_logits_requires_registration():
    state = make_state()
    with pytest.raises(UsageError):
        gate_logits(state, "ghost", np.zeros(4))


def test_gate_weights_uniform_onehot_and_hand_softmax():
    np.testing.assert_allclose(
        gate_weights(np.zeros(4), 4), np.full(4, 0.25), rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(
        gate_weights(np.array([0.5, 2.0, 1.0]), 1), np.array([0.0, 1.0, 0.0])
    )
    out = gate_weights(np.array([3.0, 1.0, 2.0, 0.0]), 2)
    e = math.e
    np.testing.assert_allclose(
        out, np.array([e / (1 + e), 0.0, 1 / (1 + e), 0.0]), rtol=0, atol=1e-12
    )


def test_gate_weights_breaks_ties_by_lower_index():
    kept = top_k_mask(np.array([1.0, 1.0, 1.0, 0.5]), 2)
    np.testing.assert_array_equal(np.flatnonzero(kept), [0, 1])
    out = gate_weights(np.array([1.0, 1.0, 1.0, 0.5]), 2)
    np.testing.assert_allclose(out, np.array([0.5, 0.5, 0.0, 0.0]), atol=1e-12)


def test_gate_weights_sparsity_and_sum():
    rng = np.random.default_rng(14)
    for _ in range(10):
        logits = rng.normal(size=6)
        out = gate_weights(logits, 3)
        assert np.count_nonzero(out) == 3
        assert math.fsum(out) == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= 0.0)


def hand_state():
    """head_dim 1, embed_dim 1, one expert: fully hand-computable."""
    cfg = AggregatorConfig(
        embed_dim=1, num_experts=1, top_k=1, temperature=1.0, w_self=0.6,
        noise_enabled=False,
    )
    state = init_aggregator(cfg, 1, np.random.default_rng(0))
    state.encoder_w[...] = 1.0
    state.encoder_b[...] = 0.0
    state.experts_w[...] = np.array([[1.0]])
    for cid in ("a", "b", "c"):
        register_client(state, cid)
        state.gates[cid].weight[...] = 1.0
        state.gates[cid].noise[...] = 0.0
    return state


def test_attention_row_hand_case():
    # embeddings equal the deltas; the single expert reads the neighbor
    # embedding, so v_aj = delta_j and the row is softmax(2, 3)
    state = hand_state()
    deltas = {"a": np.array([1.0]), "b": np.array([2.0]), "c": np.array([3.0])}
    row = attention_rows(state, deltas)["a"]
    assert row.neighbor_ids == ("b", "c")
    expected = np.exp([2.0, 3.0] - np.array(3.0))
    expected = expected / expected.sum()
    np.testing.assert_allclose(row.weights, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(row.expert_mix, np.array([1.0]))


def test_attention_row_single_neighbor_gets_weight_one():
    state = make_state(clients=("a", "b"), seed=15)
    deltas = random_deltas(state, ("a", "b"), seed=16)
    row = attention_rows(state, deltas)["a"]
    np.testing.assert_array_equal(row.weights, np.array([1.0]))


def test_attention_row_uniform_when_scores_equal():
    state = make_state(clients=("a", "b", "c", "d"), seed=17)
    state.experts_w[...] = 0.0
    deltas = random_deltas(state, ("a", "b", "c", "d"), seed=18)
    row = attention_rows(state, deltas)["b"]
    np.testing.assert_allclose(row.weights, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-12)


def test_attention_row_empty_for_lone_client():
    state = make_state(clients=("a",))
    row = attention_rows(state, {"a": np.ones(6)})["a"]
    assert row.neighbor_ids == ()
    assert row.weights.size == 0


def test_attention_rows_match_formula_transcription_oracle():
    state = make_state(clients=("a", "b", "c"), seed=19, num_experts=4, top_k=2)
    deltas = random_deltas(state, ("a", "b", "c"), seed=20)
    pers, rows = aggregate_game(state, deltas)

    for row in rows:
        i = row.client_id
        e_i = deltas[i] @ state.encoder_w + state.encoder_b
        logits = e_i @ state.gates[i].weight
        kept = np.sort(np.argsort(-logits, kind="stable")[: state.config.top_k])
        ez = np.exp(logits[kept] - logits[kept].max())
        mix = np.zeros_like(logits)
        mix[kept] = ez / ez.sum()
        np.testing.assert_allclose(row.expert_mix, mix, rtol=0, atol=1e-12)

        vs = []
        for j in row.neighbor_ids:
            e_j = deltas[j] @ state.encoder_w + state.encoder_b
            s = state.experts_w @ e_j
            vs.append(mix @ s)
        vs = np.array(vs)
        ref = np.exp((vs - vs.max()) / state.config.temperature)
        ref = ref / ref.sum()
        np.testing.assert_allclose(row.weights, ref, rtol=0, atol=1e-12)

        blend = 0.6 * deltas[i] + 0.4 * sum(
            w * deltas[j] for w, j in zip(ref, row.neighbor_ids)
        )
        np.testing.assert_allclose(pers[i], blend, rtol=0, atol=1e-12)


def test_attention_row_properties_random():
    state = make_state(clients=tuple("abcdef"), seed=21)
    deltas = random_deltas(state, tuple("abcdef"), seed=22)
    _, rows = aggregate_game(state, deltas)
    for row in rows:
        assert abs(math.fsum(row.weights) - 1.0) < 1e-9
        assert np.all(row.weights >= 0.0)
        assert np.count_nonzero(row.expert_mix) == state.config.top_k
        assert abs(math.fsum(row.expert_mix) - 1.0) < 1e-9


def test_lower_temperature_sharpens_attention():
    deltas = {"a": np.array([1.0]), "b": np.array([2.0]), "c": np.array([3.0])}
    maxima = []
    for temp in (2.0, 1.0, 0.5):
        state = hand_state()
        state.config = replace(state.config, temperature=temp)
        maxima.append(attention_rows(state, deltas)["a"].weights.max())
    assert maxima[0] < maxima[1] < maxima[2]

    state = hand_state()
    state.config = replace(state.config, temperature=1e6)
    row = attention_rows(state, deltas)["a"]
    np.testing.assert_allclose(row.weights, np.full(2, 0.5), rtol=0, atol=1e-6)


def test_personalized_delta_self_only_and_convexity():
    state = make_state(clients=("a", "b", "c"), seed=23, w_self=1.0)
    deltas = random_deltas(state, ("a", "b", "c"), seed=24)
    pers, _ = aggregate_game(state, deltas)
    for i in deltas:
        np.testing.assert_allclose(pers[i], deltas[i], rtol=0, atol=1e-15)

    state = make_state(clients=("a", "b", "c"), seed=25)
    same = {i: np.full(state.head_dim, 1.5) for i in ("a", "b", "c")}
    pers, _ = aggregate_game(state, same)
    for i in same:
        np.testing.assert_allclose(pers[i], same[i], rtol=0, atol=1e-12)


def test_personalized_delta_hand_weights():
    state = hand_state()
    deltas = {"a": np.array([1.0]), "b": np.array([2.0]), "c": np.array([3.0])}
    row = attention_rows(state, deltas)["a"]
    out = aggregate_game(state, deltas)[0]["a"]
    expected = 0.6 * 1.0 + 0.4 * (row.weights[0] * 2.0 + row.weights[1] * 3.0)
    np.testing.assert_allclose(out, [expected], rtol=0, atol=1e-12)


def test_meta_loss_reference_values():
    d = np.array([1.0, -2.0, 0.5])
    assert meta_loss(d, d, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert meta_loss(2 * d, d, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    val = meta_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 0.5)
    assert val == pytest.approx(1.5, abs=1e-12)
    zero = meta_loss(np.zeros(3), d, 0.5, 0.5)
    assert zero == pytest.approx(0.5 * float(d @ d) + 0.5, abs=1e-12)


def test_mean_meta_loss_matches_numpy_pipeline():
    state = make_state(clients=tuple("abcd"), seed=26, noise_enabled=False)
    deltas = random_deltas(state, tuple("abcd"), seed=27)
    pers, _ = aggregate_game(state, deltas)
    expected = np.mean(
        [meta_loss(pers[i], deltas[i], 0.5, 0.5) for i in sorted(deltas)]
    )
    assert mean_meta_loss(state, deltas) == pytest.approx(expected, abs=1e-12)


def test_flatten_load_roundtrip():
    state = make_state(seed=28)
    flat = flatten_parameters(state)
    other = make_state(seed=29)
    assert not np.allclose(flat, flatten_parameters(other))
    load_parameters(other, flat)
    np.testing.assert_array_equal(flatten_parameters(other), flat)
    with pytest.raises(StructuralError):
        load_parameters(other, flat[:-1])


@pytest.mark.parametrize("num_experts,top_k", [(4, 2), (2, 1), (1, 1)])
def test_meta_gradient_matches_finite_differences(num_experts, top_k):
    state = make_state(
        head_dim=9,
        clients=("a", "b", "c"),
        seed=30 + num_experts,
        num_experts=num_experts,
        top_k=top_k,
        embed_dim=5,
        noise_enabled=False,
    )
    deltas = random_deltas(state, ("a", "b", "c"), seed=31)
    masks = clean_top_k_masks(state, deltas)
    # fixed gate noise draws exercise the softplus noise-scale term
    draws = np.random.default_rng(32).standard_normal((3, num_experts))
    for noise in (None, draws):
        analytic = meta_gradient(state, deltas, masks, noise)

        flat = flatten_parameters(state)
        numeric = np.zeros_like(flat)
        eps = 1e-6
        for i in range(flat.size):
            flat[i] += eps
            load_parameters(state, flat)
            hi = mean_meta_loss(state, deltas, masks, noise)
            flat[i] -= 2 * eps
            load_parameters(state, flat)
            lo = mean_meta_loss(state, deltas, masks, noise)
            flat[i] += eps
            load_parameters(state, flat)
            numeric[i] = (hi - lo) / (2 * eps)

        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


def test_train_step_identical_deltas_is_stationary():
    state = make_state(clients=("a", "b"), seed=32, noise_enabled=False)
    before = flatten_parameters(state)
    delta = np.random.default_rng(33).normal(size=state.head_dim)
    loss = train_step(state, {"a": delta.copy(), "b": delta.copy()})
    assert loss < 1e-12
    moved = np.max(np.abs(flatten_parameters(state) - before))
    assert moved <= state.config.server_lr * 1e-7


def test_train_step_descends_on_fixed_batch():
    successes = 0
    for seed in range(20):
        state = make_state(
            head_dim=8, clients=tuple("abcd"), seed=seed, noise_enabled=False,
            server_lr=1e-3,
        )
        deltas = random_deltas(state, tuple("abcd"), seed=100 + seed)
        losses = [train_step(state, deltas) for _ in range(50)]
        losses.append(mean_meta_loss(state, deltas))
        if losses[-1] <= losses[0] + 1e-12:
            successes += 1
    assert successes >= 19


def test_train_step_deterministic_with_noise():
    def run(seed):
        state = make_state(clients=("a", "b", "c"), seed=seed, noise_enabled=True)
        deltas = random_deltas(state, ("a", "b", "c"), seed=50)
        for _ in range(3):
            train_step(state, deltas)
        return flatten_parameters(state)

    np.testing.assert_array_equal(run(7), run(7))


def test_train_step_requires_two_clients():
    state = make_state(clients=("a",))
    with pytest.raises(UsageError):
        train_step(state, {"a": np.ones(6)})


def test_game_single_attention_equivalence():
    state = make_state(
        clients=("a", "b", "c"), seed=34, num_experts=1, top_k=1, noise_enabled=False
    )
    deltas = random_deltas(state, ("a", "b", "c"), seed=35)
    game_pers, game_rows = aggregate_game(state, deltas)
    single_pers, single_rows = aggregate_single_attention(state, deltas)
    for i in deltas:
        np.testing.assert_array_equal(game_pers[i], single_pers[i])
    for ga, si in zip(game_rows, single_rows):
        np.testing.assert_array_equal(ga.weights, si.weights)

    wide = make_state(clients=("a", "b"), seed=36)
    with pytest.raises(ConfigError):
        aggregate_single_attention(wide, random_deltas(wide, ("a", "b"), seed=37))


def test_zero_expert_single_attention_equals_mean():
    state = make_state(
        clients=("a", "b", "c", "d"), seed=38, num_experts=1, top_k=1,
        noise_enabled=False,
    )
    state.experts_w[...] = 0.0
    deltas = random_deltas(state, ("a", "b", "c", "d"), seed=39)
    pers, _ = aggregate_single_attention(state, deltas)
    base = aggregate_mean(deltas, state.config.w_self)
    for i in deltas:
        np.testing.assert_allclose(pers[i], base[i], rtol=0, atol=1e-12)


def test_aggregate_mean_cases():
    deltas = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    out = aggregate_mean(deltas, 0.6)
    np.testing.assert_allclose(out["a"], 0.6 * deltas["a"] + 0.4 * deltas["b"], atol=1e-12)

    same = {i: np.array([2.0, -1.0]) for i in "abc"}
    out = aggregate_mean(same, 0.6)
    for i in same:
        np.testing.assert_allclose(out[i], same[i], rtol=0, atol=1e-12)

    solo = aggregate_mean({"a": np.array([5.0])}, 0.6)
    np.testing.assert_array_equal(solo["a"], np.array([5.0]))

    rng = np.random.default_rng(40)
    four = {i: rng.normal(size=3) for i in "abcd"}
    out = aggregate_mean(four, 0.6)
    for i in four:
        others = np.mean([four[j] for j in four if j != i], axis=0)
        np.testing.assert_allclose(out[i], 0.6 * four[i] + 0.4 * others, atol=1e-12)


def test_game_n2_equals_mean_n2():
    state = make_state(clients=("a", "b"), seed=41)
    deltas = random_deltas(state, ("a", "b"), seed=42)
    pers, _ = aggregate_game(state, deltas)
    base = aggregate_mean(deltas, state.config.w_self)
    for i in deltas:
        np.testing.assert_array_equal(pers[i], base[i])


def test_relabeling_clients_permutes_outputs_exactly():
    clients = ("a", "b", "c", "d")
    mapping = {"a": "w", "b": "q", "c": "z", "d": "m"}
    state = make_state(clients=clients, seed=43, noise_enabled=False)
    renamed = make_state(clients=mapping.values(), seed=43, noise_enabled=False)
    for old, new in mapping.items():
        renamed.gates[new] = GatePair(
            weight=state.gates[old].weight.copy(), noise=state.gates[old].noise.copy()
        )
    deltas = random_deltas(state, clients, seed=44)
    renamed_deltas = {mapping[i]: deltas[i] for i in clients}

    pers, rows = aggregate_game(state, deltas)
    pers2, rows2 = aggregate_game(renamed, renamed_deltas)
    row_by_id = {r.client_id: r for r in rows}
    row2_by_id = {r.client_id: r for r in rows2}
    for i in clients:
        np.testing.assert_array_equal(pers[i], pers2[mapping[i]])
        row = row_by_id[i]
        row2 = row2_by_id[mapping[i]]
        w1 = dict(zip(row.neighbor_ids, row.weights))
        w2 = dict(zip(row2.neighbor_ids, row2.weights))
        for j in row.neighbor_ids:
            assert w1[j] == w2[mapping[j]]


def test_register_client_is_idempotent():
    state = make_state(clients=("a",), seed=45)
    before = state.gates["a"].weight.copy()
    register_client(state, "a")
    np.testing.assert_array_equal(state.gates["a"].weight, before)
