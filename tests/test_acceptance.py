"""End-to-end acceptance checks for the federated forecasting stack.

Each test states the behavior it certifies and its tolerance.  The
heavier experiments are tuned to finish well inside their time
budgets on one CPU core.
"""

import copy
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from fedgame.aggregator import (
    AggregatorConfig,
    aggregate_game,
    aggregate_single_attention,
    init_aggregator,
    mean_meta_loss,
    meta_gradient,
    register_client,
    top_k_mask,
    train_step,
)
from fedgame.cli import comm_summary, config_from_dict, main
from fedgame.data import WindowedDataset, make_windows, synth_generate
from fedgame.forecaster import (
    ForecasterConfig,
    build_spec,
    init_forecaster,
    local_train,
    task_loss,
)
from fedgame.metrics import evaluate, icp, mil, quantile_score
from fedgame.params import total_params, head_length
from fedgame.protocol import (
    ExperimentConfig,
    HyperParams,
    attention_diagnostics,
    init_round_state,
    run_experiment,
    run_round,
    seed_stream,
)


def client_windows(cfg, n_clients, n_clusters, length, noise_sd, master_seed):
    shards = synth_generate(n_clients, n_clusters, length, noise_sd,
                            seed_stream(master_seed, "data"))
    return {
        s.client_id: make_windows(s, cfg.history_len, cfg.horizon, ExperimentConfig.train_frac)
        for s in shards
    }


def reference_fedavg_trajectory(cfg, train_data, master_seed, rounds):
    """Independent FedAvg on the single-hidden-layer quantile MLP.

    Re-derives forward, pinball gradient, SGD, and delta averaging
    from scratch with plain numpy so the protocol has a second,
    structurally unrelated implementation to agree with.
    """
    in_dim = cfg.history_len
    hid = cfg.hidden_sizes[0]
    out_dim = cfg.horizon * len(cfg.quantiles)
    nq = len(cfg.quantiles)
    q_flat = np.tile(np.asarray(cfg.quantiles), cfg.horizon)
    sizes = [in_dim * hid, hid, hid * out_dim, out_dim]
    offsets = np.cumsum([0] + sizes)

    def unpack(w):
        return (
            w[offsets[0]:offsets[1]].reshape(in_dim, hid),
            w[offsets[1]:offsets[2]],
            w[offsets[2]:offsets[3]].reshape(hid, out_dim),
            w[offsets[3]:offsets[4]],
        )

    w_global = init_forecaster(cfg, seed_stream(master_seed, "init")).values.copy()
    ids = sorted(train_data)

    trajectory = []
    for r in range(rounds):
        deltas = []
        for cid in ids:
            w = w_global.copy()
            X = np.asarray(train_data[cid].inputs)
            Y = np.asarray(train_data[cid].targets)
            # round r's stream: the client's seed stream advanced by r * 2**64 draws
            stream = seed_stream(master_seed, f"client:{cid}").bit_generator
            order = np.random.Generator(stream.advance(r << 64)).permutation(X.shape[0])
            for start in range(0, X.shape[0], cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                W1, b1, W2, b2 = unpack(w)
                x, y = X[idx], Y[idx]
                a1 = np.tanh(x @ W1 + b1)
                pred = a1 @ W2 + b2
                diff = pred - np.repeat(y, nq, axis=1)
                dpred = np.where(diff > 0, 1.0 - q_flat, -q_flat) / diff.size
                dW2 = a1.T @ dpred
                db2 = dpred.sum(axis=0)
                dz1 = (dpred @ W2.T) * (1.0 - a1 ** 2)
                grad = np.concatenate(
                    [(x.T @ dz1).ravel(), dz1.sum(axis=0), dW2.ravel(), db2]
                )
                w = w - cfg.local_lr * grad
            deltas.append(w - w_global)
        w_global = w_global + np.mean(np.stack(deltas), axis=0)
        trajectory.append(w_global.copy())
    return trajectory


def test_consensus_training_matches_standalone_fedavg_reference():
    """10 rounds, 4 clients: consensus trajectory within 1e-10, < 30 s."""
    started = time.perf_counter()
    cfg = ForecasterConfig(history_len=8, horizon=2, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(16,), local_lr=0.01, prox_mu=0.0,
                           batch_size=32)
    master_seed = 2024
    windows = client_windows(cfg, 4, 2, 240, 0.1, master_seed)
    train_data = {cid: w["train"] for cid, w in windows.items()}

    reference = reference_fedavg_trajectory(cfg, train_data, master_seed, rounds=10)

    state = init_round_state(cfg, list(train_data), master_seed)
    hyper = HyperParams(rounds=10, eta=1.0, aggregator_kind="fedavg")
    for round_index in range(10):
        state, _ = run_round(state, hyper, None, train_data)
        gap = np.max(np.abs(state.global_model.values - reference[round_index]))
        assert gap < 1e-10, f"round {round_index}: max |diff| = {gap}"
        for cid in state.client_models:
            np.testing.assert_array_equal(
                state.client_models[cid].values, state.global_model.values
            )
    assert time.perf_counter() - started < 30.0


def central_difference(fun, x, eps=1e-5):
    grad = np.zeros_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] += eps
        hi = fun(bumped)
        bumped[i] -= 2 * eps
        lo = fun(bumped)
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def assert_gradients_close(analytic, numeric, rel_tol=1e-4, floor=1e-8):
    """Structural zeros exactly, every other entry relatively.

    An entry the loss does not read leaves it bit-identical, so its
    numeric gradient is exactly 0; the analytic one must be exactly 0
    there and only there.  The rest must agree to ``rel_tol`` relative
    to max(|numeric|, floor).
    """
    zero = numeric == 0.0
    np.testing.assert_array_equal(analytic == 0.0, zero)
    live = ~zero
    assert live.any()
    rel = np.abs(analytic[live] - numeric[live]) / np.maximum(np.abs(numeric[live]), floor)
    assert rel.max() < rel_tol, f"worst relative error {rel.max()}"


def test_client_and_server_gradients_match_finite_differences():
    """Central differences, eps 1e-5; exact where the loss does not read
    a parameter, elsewhere rel err < 1e-4 against max(|g|, 1e-8); < 60 s."""
    started = time.perf_counter()

    cfg = ForecasterConfig(history_len=5, horizon=2, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(4,), prox_mu=0.2)
    model = init_forecaster(cfg, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    windows = rng.normal(size=(6, cfg.history_len))
    targets = rng.normal(size=(6, cfg.horizon)) + 5.0
    anchor = model.with_params(rng.normal(size=model.values.size))

    def prox_objective(values):
        bumped = model.with_params(values)
        pull = 0.5 * cfg.prox_mu * float(np.sum((values - anchor.values) ** 2))
        return task_loss(bumped, windows, targets) + pull

    # the gradient training applies: one full-batch SGD step w' = w - lr * g
    assert cfg.batch_size >= len(windows) and cfg.local_epochs == 1
    batch = WindowedDataset(windows, targets, mean=0.0, std=1.0)
    (stepped,), _ = local_train(cfg, ["c"], model.values[np.newaxis], [batch], anchor.values,
                                [np.random.default_rng(0)])
    analytic = (model.values - stepped) / cfg.local_lr
    numeric = central_difference(prox_objective, model.values.copy())
    assert_gradients_close(analytic, numeric)

    for num_experts, top_k in ((4, 2), (1, 1)):
        agg_cfg = AggregatorConfig(embed_dim=6, num_experts=num_experts, top_k=top_k)
        agg_rng = np.random.default_rng(33)
        state = init_aggregator(agg_cfg, 8, agg_rng)
        ids = ["a", "b", "c"]
        register_client(state, ids, agg_rng)
        delta_rng = np.random.default_rng(34)
        deltas = delta_rng.normal(size=(len(ids), 8))
        # the logits that made the selection, rows in the order of ids
        masks = top_k_mask(aggregate_game(state, ids, deltas).logits, top_k)

        def meta_objective(flat):
            return mean_meta_loss(replace(state, params=flat), ids, deltas, masks)

        analytic = meta_gradient(state, ids, deltas, masks)
        numeric = central_difference(meta_objective, state.params)
        assert_gradients_close(analytic, numeric)

    assert time.perf_counter() - started < 60.0


def relabeled_copy(state, mapping):
    renamed = replace(
        state,
        rows={mapping[c]: row for c, row in state.rows.items()},
    )
    return renamed


def test_attention_invariants_hold_across_random_states():
    """1,000 random states: simplex rows, exact sparsity, exact
    permutation equivariance, for game and the cosine yardstick."""
    names = ["a", "b", "c", "d", "e"]
    renames = ["z", "y", "x", "w", "v"]
    for trial in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([8100, trial]))
        num_experts = int(rng.integers(1, 5))
        cfg = AggregatorConfig(
            embed_dim=int(rng.integers(1, 5)),
            num_experts=num_experts,
            top_k=int(rng.integers(1, num_experts + 1)),
            temperature=float(rng.choice([0.5, 1.0, 2.0])),
            w_self=float(rng.uniform(0.0, 1.0)),
        )
        head_dim = int(rng.integers(1, 6))
        n_clients = int(rng.integers(2, 6))
        ids = names[:n_clients]
        state = init_aggregator(cfg, head_dim, rng)
        register_client(state, ids, rng)
        deltas = rng.normal(size=(n_clients, head_dim))

        out = aggregate_game(state, ids, deltas)
        for i in range(n_clients):
            weights = np.delete(out.attention[i], i)
            assert (weights >= 0.0).all()
            assert abs(weights.sum() - 1.0) <= 1e-9
            assert np.count_nonzero(out.mix[i]) == cfg.top_k

        single = aggregate_single_attention(state, ids, deltas)
        for i in range(n_clients):
            weights = np.delete(single[1][i], i)
            assert (weights >= 0.0).all()
            assert abs(weights.sum() - 1.0) <= 1e-9

        mapping = dict(zip(ids, renames))
        renamed = relabeled_copy(state, mapping)
        # row i of both outputs belongs to ids[i] under its two names
        out2 = aggregate_game(renamed, [mapping[c] for c in ids], deltas)
        single2 = aggregate_single_attention(renamed, [mapping[c] for c in ids], deltas)
        for i in range(n_clients):
            assert np.array_equal(out.personalized[i], out2.personalized[i])
            assert np.array_equal(single[0][i], single2[0][i])
            for j in range(n_clients):
                if j != i:
                    assert out2.attention[i, j] == out.attention[i, j]
                    assert single2[1][i, j] == single[1][i, j]


def test_communication_accounting_reproduces_published_numbers():
    """2,322/996,013 -> 0.115 %, 4,644/994,852 -> 0.235 %, ratio 1 + r/2,
    and integer byte counts in every round report."""
    for horizon, published_total, expected_head, expected_pct in (
        (6, 996_013, 2_322, 0.115),
        (12, 994_852, 4_644, 0.235),
    ):
        config, errors = config_from_dict({
            "arch": "lstm",
            "hidden_sizes": [256, 128],
            "horizon": horizon,
            "quantiles": [0.1, 0.5, 0.9],
            "published_total_params": published_total,
        })
        assert errors == []
        summary = comm_summary(config)
        assert summary["head_params"] == expected_head
        assert summary["overhead_percent"] == expected_pct
        r = expected_head / published_total
        assert summary["ratio"] == 1.0 + r / 2.0

    experiment = ExperimentConfig(n_clients=3, n_clusters=2, series_length=160,
                                  rounds=3, history_len=6, horizon=2,
                                  hidden_sizes=(6,), embed_dim=4, master_seed=1)
    spec = build_spec(experiment.forecaster_config())
    total = total_params(spec)
    head = head_length(spec)
    for kind, upstream, downstream in (
        ("game", 3 * total * 8, (3 * total + 3 * head) * 8),
        ("fedavg", 3 * total * 8, 3 * total * 8),
        ("local_only", 0, 0),
    ):
        result = run_experiment(experiment, kind)
        assert len(result.reports) == 3
        for report in result.reports:
            assert report.upstream_bytes == upstream
            assert report.downstream_bytes == downstream
            assert isinstance(report.upstream_bytes, int)
            assert isinstance(report.downstream_bytes, int)


def test_metrics_match_brute_force_oracles_and_nominal_coverage():
    """100 random instances to 1e-12; oracle-model ICP in 0.8 +/- 0.05."""
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        y = rng.normal(size=n)
        yhat = rng.normal(size=n)
        lower = rng.normal(size=n)
        upper = rng.normal(size=n)
        q = float(rng.uniform(0.05, 0.95))

        qs_oracle = sum(
            (1.0 - q) * abs(yi - fi) if yi < fi else q * abs(yi - fi)
            for yi, fi in zip(y, yhat)
        ) / n
        icp_oracle = sum(1.0 for yi, lo, hi in zip(y, lower, upper)
                         if lo <= yi <= hi) / n
        mil_oracle = sum(abs(hi - lo) for lo, hi in zip(lower, upper)) / n

        assert abs(quantile_score(y, yhat, q) - qs_oracle) < 1e-12
        assert abs(icp(y, lower, upper) - icp_oracle) < 1e-12
        assert abs(mil(lower, upper) - mil_oracle) < 1e-12

    cfg = ForecasterConfig(history_len=4, horizon=1, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(4,))
    spec = build_spec(cfg)
    values = np.zeros(spec[-1].stop)
    m, s, z90 = 1.0, 2.0, 1.2815515655446004
    for layer in spec:
        if layer.name == "out.b":
            values[layer.offset:layer.stop] = [m - z90 * s, m, m + z90 * s]
    from fedgame.forecaster import ForecasterModel

    model = ForecasterModel(values, cfg)
    n = 2000
    data = WindowedDataset(
        inputs=rng.normal(size=(n, cfg.history_len)),
        targets=m + s * rng.standard_normal((n, 1)),
        mean=0.0,
        std=1.0,
    )
    report = evaluate({"a": model}, {"a": data})
    assert abs(report.macro_icp - 0.8) <= 0.05


DESCENT_IDS = ["a", "b", "c", "d"]


def descent_state(seed, lr):
    cfg = AggregatorConfig(embed_dim=6, num_experts=4, top_k=2, server_lr=lr)
    rng = np.random.default_rng(seed + 500)
    state = init_aggregator(cfg, 10, rng)
    register_client(state, DESCENT_IDS, rng)
    deltas = np.random.default_rng(seed).normal(size=(4, 10))
    return state, deltas


def test_meta_loss_descends_on_fixed_batches():
    """Fixed 4-client batch, 50 steps, 20 seeds: net descent at
    lr 1e-3 and per-step non-increase at lr 3e-5, each >= 19/20;
    identical deltas give loss < 1e-10 and gradient norm < 1e-8."""
    net_ok = 0
    for seed in range(20):
        state, deltas = descent_state(seed, lr=1e-3)
        first = train_step(state, DESCENT_IDS, deltas)
        for _ in range(49):
            train_step(state, DESCENT_IDS, deltas)
        net_ok += mean_meta_loss(state, DESCENT_IDS, deltas) <= first
    assert net_ok >= 19

    monotone_ok = 0
    for seed in range(20):
        state, deltas = descent_state(seed, lr=3e-5)
        losses = [train_step(state, DESCENT_IDS, deltas) for _ in range(50)]
        losses.append(mean_meta_loss(state, DESCENT_IDS, deltas))
        monotone_ok += bool(np.all(np.diff(losses) <= 0))
    assert monotone_ok >= 19

    state, _ = descent_state(0, lr=1e-3)
    same = np.random.default_rng(77).normal(size=10)
    identical = np.tile(same, (4, 1))
    assert mean_meta_loss(state, DESCENT_IDS, identical) < 1e-10
    assert np.linalg.norm(meta_gradient(state, DESCENT_IDS, identical)) < 1e-8


E2E = dict(
    n_clients=8, n_clusters=2, series_length=480, noise_sd=0.15,
    history_len=12, horizon=2, hidden_sizes=(32,),
    local_lr=0.005, batch_size=32, prox_mu=0.2, local_epochs=1,
    embed_dim=16, num_experts=4, top_k=2, temperature=1.0,
    server_lr=0.02, noise_enabled=False,
    rounds=30, gamma=0.1,
)


def test_clustered_experiment_beats_consensus_and_isolation():
    """8 clients, 2 clusters, width-32 MLP, 30 rounds, 3 seeds: median
    QS of the learned aggregator <= FedAvg and <= local-only; final
    intra-cluster attention mass > the uniform share; attention entropy
    falls from round 1 to round 30.  Budget: < 15 min."""
    started = time.perf_counter()
    medians = {kind: [] for kind in ("game", "fedavg", "local_only")}
    masses, entropies = [], []
    uniform_mass = 3.0 / 7.0
    for seed in (0, 1, 2):
        config = ExperimentConfig(**E2E, master_seed=seed)
        results = {kind: run_experiment(config, kind) for kind in medians}
        for kind, result in results.items():
            medians[kind].append(result.eval_report.macro_qs)
        game = results["game"]
        diag = attention_diagnostics(game.reports, game.cluster_labels)
        masses.append(diag[-1]["intra_cluster_mass"])
        entropies.append((diag[0]["entropy"], diag[-1]["entropy"]))

    game_median = float(np.median(medians["game"]))
    assert game_median <= float(np.median(medians["fedavg"]))
    assert game_median <= float(np.median(medians["local_only"]))
    assert np.mean(masses) > uniform_mass
    for first, last in entropies:
        assert last < first
    assert time.perf_counter() - started < 900.0


def test_reruns_and_scheduling_orders_are_byte_identical(tmp_path):
    """Same config and seed: byte-identical rounds.jsonl and eval.json;
    round outputs independent of client iteration order."""
    payload = {
        "n_clients": 3, "n_clusters": 2, "series_length": 160, "rounds": 3,
        "history_len": 6, "horizon": 2, "hidden_sizes": [6], "embed_dim": 4,
        "master_seed": 11,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    for name in ("a", "b"):
        assert main(["run", str(config_path), "--output-dir", str(tmp_path / name)]) == 0
    for name in ("rounds.jsonl", "eval.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    cfg = ForecasterConfig(history_len=6, horizon=2, quantiles=(0.1, 0.5, 0.9),
                           hidden_sizes=(6,), local_lr=0.01, batch_size=16)
    windows = client_windows(cfg, 4, 2, 200, 0.1, master_seed=12)
    train_data = {cid: w["train"] for cid, w in windows.items()}
    state = init_round_state(cfg, list(train_data), 12)
    agg_rng = seed_stream(12, "server")
    agg = init_aggregator(AggregatorConfig(embed_dim=4, num_experts=2, top_k=1),
                          head_length(state.global_model.spec), agg_rng)
    register_client(agg, list(train_data), agg_rng)

    shuffled = copy.deepcopy(state)
    shuffled.client_models = dict(reversed(list(shuffled.client_models.items())))
    hyper = HyperParams(rounds=1, aggregator_kind="game")
    out_a, report_a = run_round(state, hyper, copy.deepcopy(agg), train_data)
    out_b, report_b = run_round(shuffled, hyper, copy.deepcopy(agg),
                                dict(reversed(list(train_data.items()))))
    assert (json.dumps(report_a.to_json_dict(), sort_keys=True)
            == json.dumps(report_b.to_json_dict(), sort_keys=True))
    for cid in out_a.client_models:
        np.testing.assert_array_equal(out_a.client_models[cid].values,
                                      out_b.client_models[cid].values)
