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
    flatten_parameters,
    init_aggregator,
    load_parameters,
    mean_meta_loss,
    meta_gradient,
    meta_loss,
    register_client,
    top_k_mask,
    train_step,
    _batch,
    _encode,
    _forward,
    _masked_softmax,
    _sorted_rows,
)
from fedgame.errors import ConfigError, StructuralError, UsageError


def seeded_state(head_dim=6, clients=("a", "b", "c"), seed=0, **cfg_kw):
    """An aggregator with ``clients`` registered, and the generator that
    its init and registration drew from, for later draws to continue."""
    cfg = AggregatorConfig(embed_dim=cfg_kw.pop("embed_dim", 4), **cfg_kw)
    rng = np.random.default_rng(seed)
    state = init_aggregator(cfg, head_dim, rng)
    for cid in sorted(clients):
        register_client(state, cid, rng)
    return state, rng


def make_state(*args, **kwargs):
    return seeded_state(*args, **kwargs)[0]


def random_deltas(state, clients, seed=1):
    rng = np.random.default_rng(seed)
    return {c: rng.normal(size=state.head_dim) for c in clients}


def gate(state, cid):
    """The client's gate row, a writable view: [0] is the weight, [1] the noise."""
    return state.gates[state.rows[cid]]


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
        aggregate_game(state, {"a": np.ones(7)})


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


def noisy_logits(state, deltas, draws):
    """Gate logits of the batched forward under fixed noise draws.

    ``draws`` maps each client to its row of N(0, 1) draws, so the
    result does not depend on the order the batch runs in.
    """
    ids, stacked = _batch(state, deltas)
    fw = _forward(state, ids, stacked, np.array([draws[c] for c in ids]))
    return dict(zip(fw.ids, fw.logits))


def fixed_draws(state, clients, seed):
    rng = np.random.default_rng(seed)
    return {c: rng.standard_normal(state.config.num_experts) for c in clients}


def test_gate_logits_clean_when_not_training():
    state = make_state(seed=8, noise_enabled=True)
    deltas = random_deltas(state, ("a", "b", "c"), seed=9)
    rows = attention_rows(state, deltas)
    for cid, delta in deltas.items():
        # re-derived entry by entry with exactly rounded sums
        e = [
            math.fsum(delta[i] * state.encoder_w[i, j] for i in range(6)) + state.encoder_b[j]
            for j in range(4)
        ]
        weight = gate(state, cid)[0]
        clean = [math.fsum(e[d] * weight[d, k] for d in range(4)) for k in range(4)]
        np.testing.assert_allclose(rows[cid].logits, clean, rtol=0, atol=1e-12)


def test_gate_logits_noise_vanishes_with_negative_noise_projection():
    state = make_state(seed=10)
    state.encoder_w[...] = 0.0
    state.encoder_b[...] = 1.0
    gate(state, "a")[1] = -50.0
    deltas = random_deltas(state, ("a", "b", "c"), seed=11)
    noisy = noisy_logits(state, deltas, fixed_draws(state, deltas, seed=12))
    # every embedding is all ones, so the clean logits are the gate's column sums
    clean = gate(state, "a")[0].sum(axis=0)
    np.testing.assert_allclose(noisy["a"], clean, rtol=0, atol=1e-12)
    assert np.max(np.abs(noisy["b"] - gate(state, "b")[0].sum(axis=0))) > 1e-3


def test_gate_logits_zero_embedding_noise_scale_is_log2():
    state = make_state(seed=11)
    state.encoder_w[...] = 0.0
    state.encoder_b[...] = 0.0
    deltas = random_deltas(state, ("a", "b", "c"), seed=12)
    draws = fixed_draws(state, deltas, seed=99)
    noisy = noisy_logits(state, deltas, draws)
    for cid in deltas:
        np.testing.assert_allclose(noisy[cid], draws[cid] * math.log(2.0), rtol=0, atol=1e-12)


def test_gate_logits_reproducible_for_fixed_seed():
    a, rng = seeded_state(seed=12)
    b = make_state(seed=12)
    deltas = random_deltas(a, ("a", "b", "c"), seed=13)
    draws = fixed_draws(a, deltas, seed=14)
    logits_a, logits_b = noisy_logits(a, deltas, draws), noisy_logits(b, deltas, draws)
    for cid in deltas:
        np.testing.assert_array_equal(logits_a[cid], logits_b[cid])

    # train_step draws its noise as one N x K block from the generator it is given
    expected = copy.deepcopy(rng)
    expected.standard_normal((3, a.config.num_experts))
    train_step(a, deltas, rng)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_gate_logits_requires_registration():
    state = make_state()
    with pytest.raises(UsageError):
        aggregate_game(state, {"a": np.zeros(6), "ghost": np.zeros(6)})


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
    for cid in ("a", "b", "c"):
        register_client(state, cid, rng)
        gate(state, cid)[0] = 1.0
        gate(state, cid)[1] = 0.0
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
        logits = e_i @ gate(state, i)[0]
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
    # the clean logits that made the selection, rows in sorted-id order
    logits = np.stack([row.logits for row in aggregate_game(state, deltas)[1]])
    masks = top_k_mask(logits, top_k)
    marker = copy.deepcopy(state)
    marker.gates[:, 1] = np.nan
    noise_entries = np.isnan(flatten_parameters(marker))
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

        # an entry the loss does not read leaves it bit-identical: both
        # sides must be exactly 0 there, and only there
        zero = numeric == 0.0
        np.testing.assert_array_equal(analytic == 0.0, zero)
        if noise is None:
            assert zero[noise_entries].all()
        live = ~zero
        scale = np.maximum(np.abs(numeric[live]), 1e-6)
        assert np.max(np.abs(analytic[live] - numeric[live]) / scale) < 1e-4


def test_train_step_identical_deltas_is_stationary():
    state, rng = seeded_state(clients=("a", "b"), seed=32, noise_enabled=False)
    before = flatten_parameters(state)
    delta = np.random.default_rng(33).normal(size=state.head_dim)
    loss = train_step(state, {"a": delta.copy(), "b": delta.copy()}, rng)
    assert loss < 1e-12
    moved = np.max(np.abs(flatten_parameters(state) - before))
    assert moved <= state.config.server_lr * 1e-7


def test_train_step_descends_on_fixed_batch():
    successes = 0
    for seed in range(20):
        state, rng = seeded_state(
            head_dim=8, clients=tuple("abcd"), seed=seed, noise_enabled=False,
            server_lr=1e-3,
        )
        deltas = random_deltas(state, tuple("abcd"), seed=100 + seed)
        losses = [train_step(state, deltas, rng) for _ in range(50)]
        losses.append(mean_meta_loss(state, deltas))
        if losses[-1] <= losses[0] + 1e-12:
            successes += 1
    assert successes >= 19


def test_train_step_deterministic_with_noise():
    def run(seed):
        state, rng = seeded_state(clients=("a", "b", "c"), seed=seed, noise_enabled=True)
        deltas = random_deltas(state, ("a", "b", "c"), seed=50)
        for _ in range(3):
            train_step(state, deltas, rng)
        return flatten_parameters(state)

    np.testing.assert_array_equal(run(7), run(7))


def parameter_arrays(state):
    """Name -> writable view of every learnable array, in flattening order."""
    arrays = {"encoder.w": state.encoder_w, "encoder.b": state.encoder_b,
              "experts.w": state.experts_w}
    for cid in sorted(state.rows):
        arrays[f"gate:{cid}.w"], arrays[f"gate:{cid}.noise"] = gate(state, cid)
    return arrays


def adam_slots(state, slot):
    """Name -> Adam moment ``slot`` ("m" or "v") of each array of parameter_arrays."""
    flat, gates = getattr(state, f"adam_{slot}"), getattr(state, f"gate_{slot}")
    slots, start = {}, 0
    for name, arr in parameter_arrays(state).items():
        if name.startswith("gate:"):
            cid, part = name[len("gate:"):].rsplit(".", 1)
            slots[name] = gates[state.rows[cid], 0 if part == "w" else 1]
        else:
            slots[name] = flat[start : start + arr.size].reshape(arr.shape)
            start += arr.size
    return slots


def test_flat_adam_matches_a_per_array_update_bit_for_bit():
    clients = tuple("abcd")
    state, rng = seeded_state(head_dim=7, clients=clients, seed=70, noise_enabled=True)
    oracle, oracle_rng = copy.deepcopy(state), copy.deepcopy(rng)
    m, v = {}, {}
    for step in range(1, 4):
        deltas = random_deltas(state, clients, seed=70 + step)
        # the step's one noise draw, in canonical rows, handed over in sorted-id rows
        ids, _ = _batch(oracle, deltas)
        draws = oracle_rng.standard_normal((len(ids), state.config.num_experts))
        noise = draws[_sorted_rows(ids)]
        loss = mean_meta_loss(oracle, deltas, None, noise)
        grad = meta_gradient(oracle, deltas, None, noise)
        assert train_step(state, deltas, rng) == loss
        start = 0
        for name, arr in parameter_arrays(oracle).items():
            g = grad[start : start + arr.size].reshape(arr.shape)
            start += arr.size
            m[name] = 0.9 * m.get(name, np.zeros_like(g)) + (1 - 0.9) * g
            v[name] = 0.999 * v.get(name, np.zeros_like(g)) + (1 - 0.999) * g**2
            m_hat = m[name] / (1 - 0.9**step)
            v_hat = v[name] / (1 - 0.999**step)
            arr -= state.config.server_lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert flatten_parameters(state).tobytes() == flatten_parameters(oracle).tobytes()
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
    train_step(state, random_deltas(state, tuple("abcd"), seed=73), rng)
    before = {name: arr.tobytes() for name, arr in gate_and_slots(state, "d").items()}
    assert np.any(adam_slots(state, "m")["gate:d.w"] != 0.0)
    moved = gate(state, "a")[0].copy(), state.encoder_w.copy()

    train_step(state, random_deltas(state, tuple("abc"), seed=74), rng)
    for name, arr in gate_and_slots(state, "d").items():
        assert arr.tobytes() == before[name], name
    assert state.adam_t == 2
    assert not np.array_equal(gate(state, "a")[0], moved[0])
    assert not np.array_equal(state.encoder_w, moved[1])


def test_train_step_requires_two_clients():
    state, rng = seeded_state(clients=("a",))
    with pytest.raises(UsageError):
        train_step(state, {"a": np.ones(6)}, rng)


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
        gate(renamed, new)[...] = gate(state, old)
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
    state, rng = seeded_state(clients=("a",), seed=45)
    before = gate(state, "a")[0].copy()
    register_client(state, "a", rng)
    np.testing.assert_array_equal(gate(state, "a")[0], before)


def renamed_state(state, mapping):
    """A deep copy of ``state`` with every client-keyed entry renamed."""
    renamed = copy.deepcopy(state)
    renamed.rows = {mapping[c]: row for c, row in renamed.rows.items()}
    return renamed


def assert_renamed_exactly(state, renamed, deltas, mapping):
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

    renamed_deltas = {mapping[c]: d for c, d in deltas.items()}
    mean = aggregate_mean(deltas, state.config.w_self)
    mean2 = aggregate_mean(renamed_deltas, state.config.w_self)
    pers, rows = aggregate_game(state, deltas)
    pers2, rows2 = aggregate_game(renamed, renamed_deltas)
    rows2 = {r.client_id: r for r in rows2}
    for row in rows:
        new = rows2[mapping[row.client_id]]
        np.testing.assert_array_equal(pers[row.client_id], pers2[new.client_id])
        np.testing.assert_array_equal(mean[row.client_id], mean2[new.client_id])
        np.testing.assert_array_equal(row.logits, new.logits)
        np.testing.assert_array_equal(row.expert_mix, new.expert_mix)
        weights = dict(zip(new.neighbor_ids, new.weights))
        np.testing.assert_array_equal(row.weights, [weights[mapping[j]] for j in row.neighbor_ids])


@pytest.mark.parametrize("noise_enabled", [True, False])
def test_trained_aggregator_is_exactly_relabeling_equivariant(noise_enabled):
    clients = [f"c{i:03d}" for i in range(120)]
    rng = np.random.default_rng(60)
    mapping = dict(zip(clients, (f"r{i:03d}" for i in rng.permutation(120))))
    state, rng = seeded_state(head_dim=8, clients=clients, seed=61, noise_enabled=noise_enabled)
    renamed, renamed_rng = renamed_state(state, mapping), copy.deepcopy(rng)
    for step in range(3):
        deltas = random_deltas(state, clients, seed=62 + step)
        loss = train_step(state, deltas, rng)
        renamed_deltas = {mapping[c]: d for c, d in deltas.items()}
        assert train_step(renamed, renamed_deltas, renamed_rng) == loss
    assert_renamed_exactly(state, renamed, deltas, mapping)


@pytest.mark.parametrize("noise_enabled", [True, False])
def test_relabeling_with_tied_clients(noise_enabled):
    """Two clients with the same delta and gates have identical inputs;
    their ids only decide which of the two tied rows each one takes."""
    clients = ("a", "b", "c", "d", "e")
    state, rng = seeded_state(clients=clients, seed=63, noise_enabled=noise_enabled)
    gate(state, "d")[...] = gate(state, "b")
    deltas = random_deltas(state, clients, seed=64)
    deltas["d"] = deltas["b"].copy()
    pers, _ = aggregate_game(state, deltas)
    np.testing.assert_allclose(pers["b"], pers["d"], rtol=1e-14, atol=0)

    # the rename puts d's new id before b's, so the two trade rows
    mapping = {"a": "v", "b": "z", "c": "x", "d": "y", "e": "w"}
    renamed, renamed_rng = renamed_state(state, mapping), copy.deepcopy(rng)
    for step in range(3):
        step_deltas = {c: d + 0.1 * step for c, d in deltas.items()}
        train_step(state, step_deltas, rng)
        train_step(renamed, {mapping[c]: d for c, d in step_deltas.items()}, renamed_rng)
    assert_renamed_exactly(state, renamed, deltas, {**mapping, "b": "y", "d": "z"})
