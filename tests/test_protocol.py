"""Round orchestration: state transitions, accounting, determinism."""

import copy
import json
import math
import typing

import numpy as np
import pytest

from fedgame.aggregator import (
    AggregatorConfig, aggregate_mean, init_aggregator, register_client,
    train_step,
)
from fedgame.cli import config_from_dict, config_to_dict
from fedgame.data import WindowedDataset
from fedgame.errors import ConfigError, NumericError, UsageError
from fedgame.forecaster import ForecasterConfig, build_spec, local_train
from fedgame.params import (
    head_length, scatter_head, select_head_values, total_params,
)
from fedgame.protocol import (
    ExperimentConfig,
    HyperParams,
    RoundReport,
    attention_diagnostics,
    init_round_state,
    run_experiment,
    round_stream,
    round_traffic,
    run_round,
    seed_stream,
)

CFG = ForecasterConfig(history_len=4, horizon=2, quantiles=(0.1, 0.5, 0.9),
                       hidden_sizes=(6,), local_lr=0.01, batch_size=8)


def batch(rng, n=12):
    return WindowedDataset(
        inputs=rng.normal(size=(n, CFG.history_len)),
        targets=rng.normal(size=(n, CFG.horizon)),
        mean=0.0,
        std=1.0,
    )


def build_setup(n_clients=3, seed=0):
    ids = [f"c{i}" for i in range(n_clients)]
    state = init_round_state(CFG, ids, seed)
    rng = np.random.default_rng(seed + 100)
    data = {cid: batch(rng) for cid in ids}
    return state, data


def fresh_aggregator(state, seed=0, **overrides):
    settings = {"embed_dim": 4, "num_experts": 2, "top_k": 1, **overrides}
    cfg = AggregatorConfig(**settings)
    rng = seed_stream(seed, "server")
    agg = init_aggregator(cfg, head_length(state.global_model.spec), rng)
    register_client(agg, list(state.client_models), rng)
    return agg


def test_seed_stream_is_deterministic_and_name_separated():
    a = seed_stream(5, "client:a").standard_normal(4)
    b = seed_stream(5, "client:a").standard_normal(4)
    c = seed_stream(5, "client:b").standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_round_streams_are_pure_and_separated():
    drawn = round_stream(5, "client:a", 3).standard_normal(64)
    # a stream is rebuilt from its arguments alone: drawing from one moves no other
    np.testing.assert_array_equal(round_stream(5, "client:a", 3).standard_normal(64), drawn)
    # round 0 of a role is the role's seed stream
    np.testing.assert_array_equal(round_stream(5, "client:a", 0).standard_normal(64),
                                  seed_stream(5, "client:a").standard_normal(64))
    others = [round_stream(5, "client:a", r) for r in (0, 2, 4)]
    others += [round_stream(5, role, 3) for role in ("client:b", "server", "gate_noise")]
    others.append(round_stream(6, "client:a", 3))
    for other in others:
        assert not np.array_equal(other.standard_normal(64), drawn)


def test_round_zero_gate_noise_is_no_set_up_stream(monkeypatch):
    given = []

    def spy(state, ids, deltas, rng):
        given.append(copy.deepcopy(rng))
        return train_step(state, ids, deltas, rng)

    monkeypatch.setattr("fedgame.protocol.train_step", spy)
    config = ExperimentConfig(**{**SMALL, "rounds": 1, "noise_enabled": True})
    run_experiment(config, "game")
    (noise,) = given
    draws = noise.standard_normal(64)
    # "aggregator" drew the encoder and the gates at set-up; noise must not replay it
    roles = ["init", "data", "aggregator", "server"]
    roles += [f"client:{cid}" for cid in ("client00", "client01", "client02")]
    for role in roles:
        assert not np.array_equal(draws, seed_stream(config.master_seed, role).standard_normal(64))


def generators_copied(obj):
    memo = {}
    copy.deepcopy(obj, memo)
    return [v for v in memo.values() if isinstance(v, (np.random.Generator,
                                                         np.random.BitGenerator))]


def test_no_state_holds_a_generator():
    state, data = build_setup(4)
    agg = fresh_aggregator(state, noise_enabled=True)
    hyper = HyperParams(rounds=1, aggregator_kind="game", participation=0.5)
    for _ in range(2):
        state, _ = run_round(state, hyper, agg, data)
    assert generators_copied(state) == []
    assert generators_copied(agg) == []


def test_batch_order_does_not_depend_on_participation_history():
    """A client's model is its rounds of solo training, each drawing its
    batch order from round_stream(seed, "client:<id>", r) of the round
    r it took part in, whatever happened in the rounds it sat out."""
    state, data = build_setup(4, seed=3)
    hyper = HyperParams(rounds=1, aggregator_kind="local_only", participation=0.5)
    expected = dict(state.client_models)
    rounds_in = {cid: [] for cid in expected}
    for r in range(4):
        state, report = run_round(state, hyper, None, data)
        for cid in report.client_ids:
            rounds_in[cid].append(r)
            stream = round_stream(3, f"client:{cid}", r)
            (values,), _ = local_train(CFG, [cid], expected[cid].values[np.newaxis], [data[cid]],
                                       state.global_model.values, [stream])
            expected[cid] = expected[cid].with_params(values)
    # some client sat out a round before one it took part in
    assert any(taken and len(taken) <= taken[-1] for taken in rounds_in.values())
    for cid, model in expected.items():
        assert state.client_models[cid].values.tobytes() == model.values.tobytes(), cid


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_master_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="master_seed"):
        init_round_state(CFG, ["a"], seed)


def test_master_seed_accepts_numpy_integers():
    assert init_round_state(CFG, ["a"], np.int64(7)).master_seed == 7


# Every integer field of the four config classes, hidden_sizes element-wise,
# with the fields a valid instance needs besides its defaults.
CONFIG_BASES = {
    ExperimentConfig: {"published_total_params": 1000, "published_head_params": 10},
    ForecasterConfig: {"history_len": 4, "horizon": 2},
    AggregatorConfig: {},
    HyperParams: {"rounds": 1},
}
INTEGER_FIELDS = [
    *((ExperimentConfig, key) for key in (
        "n_clients", "n_clusters", "series_length", "history_len", "horizon", "hidden_sizes",
        "local_epochs", "batch_size", "embed_dim", "num_experts", "top_k", "rounds",
        "master_seed", "published_total_params", "published_head_params")),
    *((ForecasterConfig, key) for key in (
        "history_len", "horizon", "hidden_sizes", "local_epochs", "batch_size")),
    *((AggregatorConfig, key) for key in ("embed_dim", "num_experts", "top_k")),
    (HyperParams, "rounds"),
]


@pytest.mark.parametrize("cls,key", INTEGER_FIELDS,
                         ids=[f"{cls.__name__}.{key}" for cls, key in INTEGER_FIELDS])
def test_integer_config_fields_reject_bools_and_fractions(cls, key):
    base = CONFIG_BASES[cls]
    good = getattr(cls(**base), key)
    element = key == "hidden_sizes"

    def build(value):
        return cls(**{**base, key: (value,) if element else value})

    value = good[0] if element else good
    for bad in (value + 0.5, True):
        with pytest.raises(ConfigError, match=f"{key} must be (an )?integer"):
            build(bad)
    assert getattr(build(np.int64(value)), key) == good


# Every annotated field of the four config classes, read from the
# annotations, so a new field is covered without editing the test.
ANNOTATED_FIELDS = [(cls, key, hint) for cls in CONFIG_BASES
                    for key, hint in typing.get_type_hints(cls).items()]
# a value of the wrong JSON type for each element type
WRONG_JSON = {int: "x", float: "x", str: 5, bool: 1}
NUMPY = {int: np.int64, float: np.float64, bool: np.bool_}


def element_type(hint):
    """int for ``int``, ``int | None`` and ``tuple[int, ...]``."""
    args = typing.get_args(hint)
    return args[0] if args else hint


@pytest.mark.parametrize("cls,key,hint", ANNOTATED_FIELDS,
                         ids=[f"{cls.__name__}.{key}" for cls, key, _ in ANNOTATED_FIELDS])
def test_every_annotated_field_is_typed_and_normalized_by_its_class(cls, key, hint):
    base = CONFIG_BASES[cls]
    kind, many = element_type(hint), typing.get_origin(hint) is tuple

    def build(value):
        return getattr(cls(**{**base, key: value}), key)

    wrong = [WRONG_JSON[kind]] if many else WRONG_JSON[kind]
    with pytest.raises(ConfigError) as info:
        build(wrong)
    (problem,) = info.value.problems
    assert problem.startswith(f"{key} must be ") and problem.endswith(f", got {wrong!r}")
    if key in ExperimentConfig.__dataclass_fields__:
        assert config_from_dict({key: wrong})[1] == [problem]
    # an array is named once too, and no sub-config or kind rule compares it
    array = np.array(["game", "mean"])
    with pytest.raises(ConfigError) as info:
        build(array)
    (problem,) = info.value.problems
    assert problem.startswith(f"{key} must be ") and problem.endswith(f", got {array!r}")
    if kind is float:
        with pytest.raises(ConfigError) as info:
            build([10**400] if many else 10**400)
        assert info.value.problems == [
            f"{key} must be {'numbers' if many else 'a number'}, "
            "got an integer too large for a float"
        ]
        for infinite in (math.inf, -math.inf):
            value = [infinite] if many else infinite
            with pytest.raises(ConfigError) as info:
                build(value)
            assert info.value.problems == [f"{key} must be finite, got {value!r}"]
            if key in ExperimentConfig.__dataclass_fields__:
                assert config_from_dict({key: value})[1] == info.value.problems

    good = getattr(cls(**base), key)
    if many:
        assert type(build(list(good))) is tuple and build(list(good)) == good
        if kind in NUMPY:
            typed = build([NUMPY[kind](v) for v in good])
            assert typed == good and all(type(v) is kind for v in typed)
    elif kind in NUMPY:
        typed = build(NUMPY[kind](good))
        assert type(typed) is kind and typed == good
        if kind is float and good.is_integer():
            assert type(build(int(good))) is float


def test_default_experiment_builds_each_sub_config_with_its_own_defaults():
    # the three fields the sub-configs require are the only ones the experiment restates
    inherited = {key for cls in (ForecasterConfig, AggregatorConfig, HyperParams)
                 for key in cls.__dataclass_fields__}
    assert inherited & set(ExperimentConfig.__annotations__) == {
        "history_len", "horizon", "rounds"}
    config = ExperimentConfig()
    assert config.forecaster_config() == ForecasterConfig(history_len=12, horizon=2)
    assert config.aggregator_config() == AggregatorConfig()
    assert config.hyper_params() == HyperParams(rounds=10)
    assert type(config.forecaster_config()) is ForecasterConfig


def test_an_ill_typed_kind_is_named_once_with_the_other_problems():
    kind = np.array(["game", "mean"])
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(aggregator_kind=kind, horizon=0)
    assert info.value.problems == [f"aggregator_kind must be a string, got {kind!r}",
                                   "horizon must be >= 1, got 0"]


def test_a_config_of_numpy_scalars_writes_the_same_json():
    plain = ExperimentConfig(**CONFIG_BASES[ExperimentConfig])
    numpy_values = {}
    for key, hint in typing.get_type_hints(ExperimentConfig).items():
        convert, value = NUMPY.get(element_type(hint)), getattr(plain, key)
        if convert and value is not None:
            numpy_values[key] = (tuple(map(convert, value)) if isinstance(value, tuple)
                                 else convert(value))
    config = ExperimentConfig(**numpy_values)
    assert json.dumps(config_to_dict(config)) == json.dumps(config_to_dict(plain))
    json.dumps(config_to_dict(ExperimentConfig(n_clients=np.int64(3),
                                               hidden_sizes=(np.int64(4),))))


def test_hyper_params_validation():
    with pytest.raises(ConfigError):
        HyperParams(rounds=-1)
    with pytest.raises(ConfigError):
        HyperParams(rounds=1, aggregator_kind="averaging")
    with pytest.raises(ConfigError):
        HyperParams(rounds=1, participation=0.0)
    with pytest.raises(ConfigError):
        HyperParams(rounds=1, eta=-0.1)


def test_init_round_state_clients_share_the_read_only_consensus():
    state, _ = build_setup(2)
    assert state.client_models["c0"] is state.client_models["c1"] is state.global_model
    # sharing is safe because no one can write the values
    with pytest.raises(ValueError):
        state.global_model.values[0] += 1.0
    with pytest.raises(ConfigError):
        init_round_state(CFG, ["x", "x"], 0)


def test_models_and_round_states_compare_by_identity_without_raising():
    state, _ = build_setup(2)
    model = state.global_model
    assert model == model
    assert model != model.with_params(model.values)
    assert state == state
    assert state != copy.deepcopy(state)


def test_comm_cost_closed_forms():
    spec = build_spec(CFG)
    total = total_params(spec)
    head = head_length(spec)
    game = round_traffic(5, total, head, "game")
    assert game["upstream"] == 5 * total
    assert game["downstream"] == 5 * total + 5 * head
    assert game["ratio"] == pytest.approx(1.0 + head / total / 2.0, abs=1e-15)
    assert round_traffic(5, total, head, "fedavg")["ratio"] == 1.0
    assert round_traffic(5, total, head, "local_only") == {
        "upstream": 0, "downstream": 0, "ratio": 0.0}


def test_fedavg_round_syncs_clients_to_consensus():
    state, data = build_setup(3)
    hyper = HyperParams(rounds=1, aggregator_kind="fedavg")
    new_state, report = run_round(state, hyper, None, data)
    for cid in new_state.client_models:
        assert new_state.client_models[cid] is new_state.global_model
    assert new_state.round_index == 1
    assert report.client_ids == ("c0", "c1", "c2")
    assert report.meta_loss == 0.0


def test_mean_round_applies_hand_reconstructed_update():
    state, data = build_setup(3)
    agg = fresh_aggregator(state)
    gamma = 0.5
    hyper = HyperParams(rounds=1, aggregator_kind="mean", gamma=gamma)
    before = state.global_model
    new_state, _ = run_round(state, hyper, agg, data)
    # run_round never mutates its input, so a round without head updates
    # on the same state trains the same local models
    prox_state, _ = run_round(state, HyperParams(rounds=1, aggregator_kind="fedprox_only"),
                              None, data)
    trained = {c: m.values for c, m in prox_state.client_models.items()}
    heads = np.stack([select_head_values(v - before.values, before.spec)
                      for v in trained.values()])
    pers = aggregate_mean(heads, agg.config.w_self)
    for k, cid in enumerate(trained):
        expected = trained[cid] + gamma * scatter_head(before.spec, pers[k])
        np.testing.assert_allclose(
            new_state.client_models[cid].values, expected, rtol=0, atol=1e-12
        )


def test_consensus_steps_eta_along_the_mean_delta():
    state, data = build_setup(3, seed=5)
    old = state.global_model.values
    new_state, _ = run_round(state, HyperParams(rounds=1, aggregator_kind="fedprox_only",
                                                eta=0.5), None, data)
    # a fedprox_only participant keeps its trained model as it is
    trained = np.stack([new_state.client_models[cid].values for cid in sorted(data)])
    assert new_state.global_model.values.tobytes() == (
        old + 0.5 * (trained - old).mean(axis=0)).tobytes()


def test_zero_gamma_game_matches_fedprox_only_trajectory():
    state_a, data = build_setup(3, seed=4)
    state_b = copy.deepcopy(state_a)
    agg = fresh_aggregator(state_a, seed=4)
    game = HyperParams(rounds=1, aggregator_kind="game", gamma=0.0)
    prox = HyperParams(rounds=1, aggregator_kind="fedprox_only")
    for _ in range(3):
        state_a, _ = run_round(state_a, game, agg, data)
        state_b, _ = run_round(state_b, prox, None, data)
    for cid in state_a.client_models:
        np.testing.assert_array_equal(
            state_a.client_models[cid].values,
            state_b.client_models[cid].values,
        )
    np.testing.assert_array_equal(state_a.global_model.values,
                                  state_b.global_model.values)


def test_first_round_consensus_is_identical_across_personalized_kinds():
    results = {}
    for kind in ("game", "mean", "single_attention"):
        state, data = build_setup(3, seed=8)
        if kind == "single_attention":
            agg = fresh_aggregator(state, seed=8, num_experts=1,
                                   noise_enabled=False)
        else:
            agg = fresh_aggregator(state, seed=8)
        hyper = HyperParams(rounds=1, aggregator_kind=kind)
        new_state, _ = run_round(state, hyper, agg, data)
        results[kind] = new_state.global_model.values
    np.testing.assert_array_equal(results["game"], results["mean"])
    np.testing.assert_array_equal(results["game"], results["single_attention"])


def test_local_only_round_touches_nothing_shared():
    state, data = build_setup(2)
    hyper = HyperParams(rounds=1, aggregator_kind="local_only")
    before = state.global_model.values.copy()
    client_before = state.client_models["c0"].values.copy()
    new_state, report = run_round(state, hyper, None, data)
    np.testing.assert_array_equal(new_state.global_model.values, before)
    assert not np.array_equal(new_state.client_models["c0"].values, client_before)
    assert report.upstream_bytes == 0 and report.downstream_bytes == 0


def test_report_bytes_match_closed_form():
    state, data = build_setup(3)
    total = total_params(state.global_model.spec)
    head = head_length(state.global_model.spec)
    agg = fresh_aggregator(state)
    # every client uploads its model; the personalized kinds add its head downstream
    for kind, aggregator, down in (("game", agg, total + head), ("fedavg", None, total),
                                   ("fedprox_only", None, total)):
        hyper = HyperParams(rounds=1, aggregator_kind=kind)
        _, report = run_round(state, hyper, aggregator, data)
        assert report.upstream_bytes == 3 * total * 8
        assert report.downstream_bytes == 3 * down * 8
        assert isinstance(report.upstream_bytes, int)
        assert isinstance(report.downstream_bytes, int)


def assert_same_round_state(state, snapshot):
    assert state.round_index == snapshot.round_index
    np.testing.assert_array_equal(state.global_model.values,
                                  snapshot.global_model.values)
    for cid in state.client_models:
        np.testing.assert_array_equal(state.client_models[cid].values,
                                      snapshot.client_models[cid].values)


def test_failed_round_leaves_state_untouched(monkeypatch):
    state, data = build_setup(2)
    data["c1"] = WindowedDataset(
        inputs=data["c1"].inputs,
        targets=np.full_like(data["c1"].targets, np.inf),
        mean=0.0,
        std=1.0,
    )
    snapshot = copy.deepcopy(state)
    hyper = HyperParams(rounds=1, aggregator_kind="fedavg")
    with pytest.raises(NumericError):
        run_round(state, hyper, None, data)
    assert_same_round_state(state, snapshot)

    # a game round that fails after the meta step leaves the aggregator untouched too
    state, data = build_setup(3)
    agg = fresh_aggregator(state)
    snapshot, agg_snapshot = copy.deepcopy(state), copy.deepcopy(agg)

    def fail(*args):
        raise NumericError("injected after the meta step")

    monkeypatch.setattr("fedgame.protocol.scatter_head", fail)
    with pytest.raises(NumericError, match="injected"):
        run_round(state, HyperParams(rounds=1, aggregator_kind="game"), agg, data)
    assert_same_round_state(state, snapshot)
    assert agg.adam_t == agg_snapshot.adam_t == 0
    assert not agg.adam_m.any() and not agg.adam_v.any()
    np.testing.assert_array_equal(agg.params, agg_snapshot.params)

    # the same round without the failure commits the meta step
    monkeypatch.undo()
    run_round(state, HyperParams(rounds=1, aggregator_kind="game"), agg, data)
    assert agg.adam_t == 1
    assert not np.array_equal(agg.params, agg_snapshot.params)


def aggregator_arrays(agg):
    """Every array the aggregator holds: its parameters and Adam's two moments.
    The named arrays are views of ``params``, new objects on every access."""
    return {name: getattr(agg, name) for name in ("params", "adam_m", "adam_v")}


def test_successful_game_round_rebinds_the_aggregator_without_writing_it():
    state, data = build_setup(4)
    agg = fresh_aggregator(state, noise_enabled=True)
    hyper = HyperParams(rounds=1, aggregator_kind="game")
    state, _ = run_round(state, hyper, agg, data)  # creates the Adam slots
    held = aggregator_arrays(agg)
    held_bytes = {name: arr.tobytes() for name, arr in held.items()}

    run_round(state, hyper, agg, data)
    assert agg.adam_t == 2
    now = aggregator_arrays(agg)
    assert now.keys() == held.keys()
    for name, arr in held.items():
        assert arr.tobytes() == held_bytes[name], name
        assert now[name] is not arr, name
    assert not np.array_equal(now["params"], held["params"])
    # the shared entries step too, not only the gate blocks
    shared = agg.params.size - agg.gates.size
    assert not np.array_equal(now["params"][:shared], held["params"][:shared])


def test_round_is_independent_of_dict_insertion_order():
    state, data = build_setup(4, seed=9)
    agg = fresh_aggregator(state, seed=9)
    shuffled = copy.deepcopy(state)
    shuffled.client_models = dict(reversed(list(shuffled.client_models.items())))
    data_rev = dict(reversed(list(data.items())))
    hyper = HyperParams(rounds=1, aggregator_kind="game")
    out_a, report_a = run_round(state, hyper, copy.deepcopy(agg), data)
    out_b, report_b = run_round(shuffled, hyper, copy.deepcopy(agg), data_rev)
    assert (json.dumps(report_a.to_json_dict(), sort_keys=True)
            == json.dumps(report_b.to_json_dict(), sort_keys=True))
    for cid in out_a.client_models:
        np.testing.assert_array_equal(out_a.client_models[cid].values,
                                      out_b.client_models[cid].values)


def test_missing_training_data_is_a_usage_error():
    state, data = build_setup(2)
    del data["c1"]
    with pytest.raises(UsageError, match="c1"):
        run_round(state, HyperParams(rounds=1, aggregator_kind="fedavg"), None, data)
    with pytest.raises(UsageError):
        run_round(state, HyperParams(rounds=1, aggregator_kind="game"), None,
                  {"c0": batch(np.random.default_rng(0)),
                   "c1": batch(np.random.default_rng(0))})


def test_participation_subsamples_clients():
    state, data = build_setup(4)
    hyper = HyperParams(rounds=1, aggregator_kind="fedavg", participation=0.5)
    before = {cid: m.values.copy() for cid, m in state.client_models.items()}
    new_state, report = run_round(state, hyper, None, data)
    assert len(report.client_ids) == 2
    assert list(report.client_ids) == sorted(report.client_ids)
    skipped = set(state.client_models) - set(report.client_ids)
    for cid in skipped:
        np.testing.assert_array_equal(new_state.client_models[cid].values,
                                      before[cid])


def test_round_report_serialization_excludes_wall_time():
    state, data = build_setup(2)
    _, report = run_round(state, HyperParams(rounds=1, aggregator_kind="fedavg"),
                          None, data)
    payload = report.to_json_dict()
    assert "wall_time" not in payload
    assert payload["round"] == 0
    assert "attention" not in payload  # attention.csv is its one copy
    json.dumps(payload)


def synthetic_report(ids, matrix, round_index=0):
    return RoundReport(
        round_index=round_index,
        client_ids=tuple(ids),
        train_losses={c: 0.0 for c in ids},
        meta_loss=0.0,
        attention=np.asarray(matrix, dtype=np.float64),
        gate_mixes={},
        upstream_bytes=0,
        downstream_bytes=0,
    )


def test_attention_diagnostics_hand_values():
    one_hot = synthetic_report(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    uniform = synthetic_report(
        ["a", "b", "c"],
        [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
        round_index=1,
    )
    diags = attention_diagnostics([one_hot, uniform], {"a": 0, "b": 0, "c": 1})
    assert diags[0]["entropy"] == pytest.approx(0.0, abs=1e-15)
    assert diags[0]["variance"] == pytest.approx(0.0, abs=1e-15)
    assert diags[0]["intra_cluster_mass"] == pytest.approx(1.0, abs=1e-15)
    assert diags[1]["entropy"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert diags[1]["intra_cluster_mass"] == pytest.approx((0.5 + 0.5 + 0.0) / 3,
                                                           abs=1e-15)


SMALL = dict(n_clients=3, n_clusters=2, series_length=160, rounds=2, history_len=6,
             horizon=2, hidden_sizes=(6,), embed_dim=4, master_seed=5)


def test_run_experiment_round_trip_and_kinds():
    config = ExperimentConfig(**SMALL)
    result = run_experiment(config, "game")
    assert len(result.reports) == 2
    assert result.eval_report.macro_qs > 0
    assert result.cluster_labels == {"client00": 0, "client01": 1, "client02": 0}
    assert result.aggregator is not None
    again = run_experiment(config, "game")
    for a, b in zip(result.reports, again.reports):
        assert (json.dumps(a.to_json_dict(), sort_keys=True)
                == json.dumps(b.to_json_dict(), sort_keys=True))


def test_run_experiment_single_client_game():
    config = ExperimentConfig(**{**SMALL, "n_clients": 1, "n_clusters": 1})
    result = run_experiment(config, "game")
    assert result.reports[0].attention.shape == (1, 1)
    assert result.reports[0].meta_loss == 0.0


def test_run_experiment_zero_rounds_evaluates_initial_models():
    config = ExperimentConfig(**{**SMALL, "rounds": 0})
    result = run_experiment(config, "fedavg")
    assert result.reports == []
    assert result.eval_report.macro_qs > 0


def test_aggregator_has_its_own_random_stream():
    config = ExperimentConfig(**{**SMALL, "rounds": 0})
    result = run_experiment(config, "game")
    head = head_length(result.state.global_model.spec)
    for name in ("aggregator", "server"):
        stream = seed_stream(config.master_seed, name)
        fresh = init_aggregator(config.aggregator_config(), head, stream)
        same = np.array_equal(result.aggregator.encoder_w, fresh.encoder_w)
        # participation sampling reads "server"; sharing it would correlate the two
        assert same == (name == "aggregator")


def test_run_experiment_wraps_failures_with_round_context(monkeypatch):
    def fail(*args):
        raise UsageError("injected in local training")

    monkeypatch.setattr("fedgame.protocol.local_train", fail)
    config = ExperimentConfig(**SMALL)
    with pytest.raises(UsageError, match="round 0"):
        run_experiment(config, "fedavg")


def test_two_clients_game_equals_mean():
    # each client's one peer takes all its attention, as under mean
    config = ExperimentConfig(**{**SMALL, "n_clients": 2})
    game, mean = (run_experiment(config, kind).eval_report for kind in ("game", "mean"))
    assert game.macro_qs == mean.macro_qs
    assert game.macro_mil == mean.macro_mil


def test_an_empty_kind_is_a_config_error_not_the_configured_kind():
    config = ExperimentConfig(**{**SMALL, "aggregator_kind": "fedavg"})
    for build in (run_experiment, ExperimentConfig.hyper_params,
                  ExperimentConfig.forecaster_config, ExperimentConfig.aggregator_config):
        with pytest.raises(ConfigError, match="aggregator_kind must be one of"):
            build(config, "")


def test_effective_forecaster_config_per_kind():
    config = ExperimentConfig(prox_mu=0.3)
    assert config.forecaster_config("game").prox_mu == 0.3
    assert config.forecaster_config("fedprox_only").prox_mu == 0.3
    assert config.forecaster_config("fedavg").prox_mu == 0.0
    assert config.forecaster_config("local_only").prox_mu == 0.0
    single = config.aggregator_config("single_attention")
    assert single.num_experts == 1 and single.top_k == 1 and not single.noise_enabled
