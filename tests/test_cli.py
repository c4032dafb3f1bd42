"""Config validation, subcommands, output files, and exit codes."""

import csv
import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from fedgame.cli import (
    comm_summary,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    write_run_outputs,
)
from fedgame.data import load_csv, shards_to_csv, synth_generate
from fedgame.errors import ConfigError, NumericError
from fedgame.protocol import ExperimentConfig, run_experiment
from tools.compare_artifacts import ARTIFACTS, MATRIX, cli_steps, first_difference

SMALL = {
    "n_clients": 3,
    "n_clusters": 2,
    "series_length": 160,
    "rounds": 2,
    "history_len": 6,
    "horizon": 2,
    "hidden_sizes": [6],
    "embed_dim": 4,
    "master_seed": 5,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_empty_config_uses_defaults():
    config, errors = config_from_dict({})
    assert errors == []
    assert config == ExperimentConfig()


def test_unknown_keys_are_rejected():
    _, errors = config_from_dict({"frobnicate": 1, "n_client": 3})
    assert len(errors) == 2
    assert any("frobnicate" in e for e in errors)
    assert any("n_client" in e for e in errors)


def test_all_errors_reported_at_once():
    _, errors = config_from_dict({
        "rounds": -1,
        "arch": "gru",
        "top_k": 9,
        "num_experts": 2,
        "train_frac": 0.9,
    })
    text = "\n".join(errors)
    assert len(errors) == 4
    assert "rounds" in text and "arch" in text and "sum to 1" in text
    assert "top_k" in text and "num_experts" in text


def test_type_errors_name_the_key():
    _, errors = config_from_dict({
        "rounds": True,
        "local_lr": "fast",
        "hidden_sizes": [8, "x"],
        "noise_enabled": 1,
    })
    assert len(errors) == 4
    for key in ("rounds", "local_lr", "hidden_sizes", "noise_enabled"):
        assert any(key in e for e in errors)


def test_every_field_round_trips_through_json():
    values = {
        "csv_path": "data.csv", "n_clients": 5, "n_clusters": 3, "series_length": 300,
        "noise_sd": 0.3, "train_frac": 0.6, "val_frac": 0.15, "test_frac": 0.25,
        "history_len": 8, "horizon": 3, "quantiles": (0.05, 0.5, 0.95),
        "hidden_sizes": (7, 5), "arch": "lstm", "local_lr": 0.01, "local_epochs": 2,
        "prox_mu": 0.5, "batch_size": 16, "embed_dim": 8, "num_experts": 3, "top_k": 1,
        "temperature": 0.5, "w_self": 0.25, "alpha": 1.5, "beta": 2.0, "server_lr": 0.01,
        "noise_enabled": False, "rounds": 4, "eta": 0.5, "gamma": 0.75,
        "aggregator_kind": "mean", "participation": 0.5, "master_seed": 11,
        "output_dir": "elsewhere", "baselines": ("game", "fedavg"),
        "published_total_params": 1000, "published_head_params": 10,
    }
    config = ExperimentConfig(**values)
    for field in fields(ExperimentConfig):
        assert getattr(config, field.name) != field.default, field.name
    text = json.dumps(config_to_dict(config))
    again, errors = config_from_dict(json.loads(text))
    assert errors == []
    assert again == config


def test_library_config_reports_every_problem_at_construction():
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(rounds=-1, arch="gru", master_seed=-1)
    problems = info.value.problems
    assert len(problems) == 3
    for key in ("rounds", "arch", "master_seed"):
        assert sum(p.startswith(key) for p in problems) == 1, key


def test_nan_values_are_config_errors():
    _, errors = config_from_dict(json.loads('{"local_lr": NaN, "train_frac": NaN}'))
    assert len(errors) == 2
    assert any("local_lr" in e for e in errors) and any("sum to 1" in e for e in errors)


def test_duplicate_keys_are_reported_with_the_other_problems(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"rounds": 3, "rounds": 5, "n_clients": 2, "arch": "gru"}',
                    encoding="utf-8")
    config, errors = load_config(str(path))
    assert config is None
    assert errors == ["key 'rounds' appears more than once",
                      "arch must be one of ['mlp', 'lstm'], got 'gru'"]
    assert main(["comm", str(path)]) == 2
    err = capsys.readouterr().err
    assert "2 error(s)" in err and "key 'rounds' appears more than once" in err
    path.write_text('{"rounds": 3, "rounds": 5, "rounds": 7}', encoding="utf-8")
    assert load_config(str(path)) == (None, ["key 'rounds' appears more than once"])


def test_load_config_reports_unreadable_and_bad_json(tmp_path):
    _, errors = load_config(str(tmp_path / "missing.json"))
    assert errors and "cannot read" in errors[0]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    _, errors = load_config(str(bad))
    assert errors and "JSON" in errors[0]
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    _, errors = load_config(str(listed))
    assert errors == ["config must be a JSON object"]


def test_comm_summary_published_six_step_model():
    config, errors = config_from_dict({
        "arch": "lstm",
        "hidden_sizes": [256, 128],
        "horizon": 6,
        "quantiles": [0.1, 0.5, 0.9],
        "published_total_params": 996013,
        "n_clients": 8,
    })
    assert errors == []
    summary = comm_summary(config)
    assert summary["head_params"] == 2322
    assert summary["overhead_percent"] == 0.115
    assert summary["ratio"] == pytest.approx(1.0 + 2322 / 996013 / 2.0, abs=1e-15)


def test_comm_summary_published_twelve_step_model():
    config, _ = config_from_dict({
        "arch": "lstm",
        "hidden_sizes": [256, 128],
        "horizon": 12,
        "quantiles": [0.1, 0.5, 0.9],
        "published_total_params": 994852,
    })
    summary = comm_summary(config)
    assert summary["head_params"] == 4644
    assert summary["overhead_percent"] == 0.235


def test_comm_summary_fedavg_ratio_is_one():
    config, _ = config_from_dict({"aggregator_kind": "fedavg"})
    summary = comm_summary(config)
    assert summary["ratio"] == 1.0
    assert summary["overhead_percent"] == 0.0
    assert summary["upstream_params"] == summary["downstream_params"]


def test_published_head_must_be_smaller_than_the_total(tmp_path, capsys):
    both = write_config(tmp_path, {"published_total_params": 100,
                                   "published_head_params": 500}, name="both.json")
    assert main(["comm", both]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err
    assert "published_total_params and published_head_params: the head count 500" in err
    # an unset count is the derived one: the default model has 614
    # parameters, 32 * 6 + 6 = 198 of them in the head
    total = write_config(tmp_path, {"published_total_params": 100}, name="total.json")
    assert main(["comm", total]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "published_total_params: the head count 198" in err
    _, errors = config_from_dict({"published_head_params": 614})
    assert errors == ["published_head_params: the head count 614 must be smaller "
                      "than the total count 614"]
    config, errors = config_from_dict({"published_head_params": 613})
    assert errors == [] and comm_summary(config)["head_params"] == 613


def test_run_writes_all_report_files(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {**SMALL, "output_dir": str(out)})
    assert main(["run", path]) == 0
    lines = (out / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == SMALL["rounds"]
    for line in lines:
        json.loads(line)
    eval_payload = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    assert "macro" in eval_payload
    with open(out / "eval.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[-1]["client_id"] == "macro"
    with open(out / "attention.csv", newline="", encoding="utf-8") as handle:
        attention = list(csv.DictReader(handle))
    assert set(attention[0]) == {"round", "i", "j", "w_ij"}
    assert len(attention) == SMALL["rounds"] * 3 * 2
    json.loads((out / "config.json").read_text(encoding="utf-8"))


def attention_reference(reports) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["round", "i", "j", "w_ij"])
    for report in reports:
        for i, src in enumerate(report.client_ids):
            for j, dst in enumerate(report.client_ids):
                if i != j:
                    writer.writerow([report.round_index, src, dst,
                                     repr(float(report.attention[i, j]))])
    return buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("ids, rounds", [
    (["a,b", 'q"t', "plain"], 2),
    (["a,b", 'q"t', "plain"], 0),
    (["a,b"], 2),
])
def test_attention_csv_matches_csv_writer_and_rebuilds_each_matrix(tmp_path, ids, rounds):
    shards = synth_generate(len(ids), 1, 160, 0.1, np.random.default_rng(3))
    for shard, cid in zip(shards, ids):
        shard.client_id = cid
    shards_to_csv(shards, tmp_path / "fleet.csv")
    config = replace(config_from_dict(SMALL)[0], n_clients=len(ids), n_clusters=1,
                     rounds=rounds, csv_path=str(tmp_path / "fleet.csv"))
    result = run_experiment(config)
    write_run_outputs(result, tmp_path / "out", config)
    written = (tmp_path / "out" / "attention.csv").read_bytes()
    assert written == attention_reference(result.reports)

    with open(tmp_path / "out" / "attention.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == rounds * len(ids) * (len(ids) - 1)
    for report in result.reports:
        index = {cid: k for k, cid in enumerate(report.client_ids)}
        rebuilt = np.zeros((len(ids), len(ids)))
        for row in rows:
            if int(row["round"]) == report.round_index:
                rebuilt[index[row["i"]], index[row["j"]]] = float(row["w_ij"])
        np.testing.assert_array_equal(rebuilt, report.attention)


def test_rerun_from_effective_config_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    path = write_config(tmp_path, {**SMALL, "output_dir": str(first)})
    assert main(["run", path]) == 0
    assert main(["run", str(first / "config.json"), "--output-dir", str(second)]) == 0
    for name in ("rounds.jsonl", "eval.json", "eval.csv", "attention.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("path", sorted(MATRIX))
def test_csv_fleet_reruns_are_byte_identical(tmp_path, path):
    """Synthesize a fleet as CSV and run on it, twice (the config matrix
    that tools/compare_artifacts.py compares across commits), and
    require the same bytes."""
    for name in ("a", "b"):
        for args in cli_steps(path, tmp_path / name):
            assert main(args) == 0
    for name in ARTIFACTS:
        first, second = (tmp_path / side / "out" / name for side in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()


def test_compare_artifacts_names_the_first_differing_file(tmp_path):
    same, flipped = tmp_path / "same" / "out", tmp_path / "flipped" / "out"
    for directory in (same, flipped):
        directory.mkdir(parents=True)
        for k, name in enumerate(ARTIFACTS):
            (directory / name).write_bytes(bytes([k, 1, 2, 3]))
        # config.json names its own run directory, the parent of the output
        # directory; only the rest of the file is compared
        run = {"csv_path": str(directory.parent / "synth.csv"), "output_dir": str(directory)}
        (directory / "config.json").write_text(json.dumps(run), encoding="utf-8")
    assert first_difference(same, flipped) is None
    moved = {"csv_path": str(tmp_path / "synth.csv"), "output_dir": str(flipped)}
    (flipped / "config.json").write_text(json.dumps(moved), encoding="utf-8")
    assert first_difference(same, flipped) == "config.json"
    (flipped / ARTIFACTS[2]).write_bytes(bytes([2, 1, 2, 2]))
    assert first_difference(same, flipped) == ARTIFACTS[2]
    (flipped / ARTIFACTS[1]).unlink()
    assert first_difference(same, flipped) == ARTIFACTS[1]


def test_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, {**SMALL, "output_dir": str(tmp_path / "a")})
    assert main(["run", path, "--seed", "99", "--output-dir", str(tmp_path / "b")]) == 0
    assert main(["run", path, "--seed", "99", "--output-dir", str(tmp_path / "c")]) == 0
    assert main(["run", path, "--seed", "100", "--output-dir", str(tmp_path / "d")]) == 0
    b = (tmp_path / "b" / "rounds.jsonl").read_bytes()
    c = (tmp_path / "c" / "rounds.jsonl").read_bytes()
    d = (tmp_path / "d" / "rounds.jsonl").read_bytes()
    assert b == c
    assert b != d
    written = json.loads((tmp_path / "b" / "config.json").read_text(encoding="utf-8"))
    assert written["master_seed"] == 99


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, SMALL)
    assert main(["run", path, "--seed", "-1", "--output-dir", out]) == 2
    assert "master_seed" in capsys.readouterr().err
    bad = write_config(tmp_path, {**SMALL, "master_seed": -1}, name="bad.json")
    assert main(["comm", bad]) == 2
    assert "master_seed" in capsys.readouterr().err
    # the flag is applied before the check, so it can replace a bad value
    assert main(["comm", bad, "--seed", "3"]) == 0


def test_env_var_sets_output_dir_and_flag_wins(tmp_path, monkeypatch):
    path = write_config(tmp_path, SMALL)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("FEDGAME_OUTPUT_DIR", str(env_dir))
    assert main(["run", path]) == 0
    assert (env_dir / "rounds.jsonl").exists()
    flag_dir = tmp_path / "flag_out"
    assert main(["run", path, "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "rounds.jsonl").exists()


def test_invalid_config_exits_two_listing_everything(tmp_path, capsys):
    path = write_config(tmp_path, {"rounds": -1, "arch": "gru", "bogus": 0})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "3 error(s)" in err
    assert "rounds" in err and "arch" in err and "bogus" in err


def test_descending_quantiles_are_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {
        **SMALL, "quantiles": [0.9, 0.5, 0.1], "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "strictly increasing" in err
    assert not (tmp_path / "out").exists()


def test_more_clusters_than_clients_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {
        **SMALL, "n_clusters": 4, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "n_clusters" in err and "n_clients" in err
    assert not (tmp_path / "out").exists()


def test_runtime_failure_exits_one_with_round_context(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise NumericError("injected in local training")

    monkeypatch.setattr("fedgame.protocol.local_train", fail)
    path = write_config(tmp_path, {**SMALL, "output_dir": str(tmp_path / "out")})
    assert main(["run", path]) == 1
    assert "round 0" in capsys.readouterr().err


def test_unreadable_csv_exits_two_before_any_output(tmp_path, capsys):
    path = write_config(tmp_path, {
        **SMALL, "csv_path": str(tmp_path / "absent.csv"), "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "csv_path: cannot read" in err and "absent.csv" in err
    assert not (tmp_path / "out").exists()


def test_series_too_short_for_a_test_window_exits_two(tmp_path, capsys):
    # 40 points at 0.7/0.1/0.2 leave 8 test points, fewer than 12 + 2
    path = write_config(tmp_path, {
        **SMALL, "series_length": 40, "history_len": 12,
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "client00" in err and "test window" in err
    assert not (tmp_path / "out").exists()


def test_ablate_writes_one_row_per_method(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        **SMALL,
        "output_dir": str(out),
        "baselines": ["game", "mean", "fedavg", "local_only"],
    })
    assert main(["ablate", path]) == 0
    with open(out / "ablation.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["method"] for r in rows] == ["game", "mean", "fedavg", "local_only"]
    assert set(rows[0]) == {"method", "qs", "mil", "icp"}


def test_ablate_two_clients_game_equals_mean(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        **SMALL,
        "n_clients": 2,
        "output_dir": str(out),
        "baselines": ["game", "mean"],
    })
    assert main(["ablate", path]) == 0
    with open(out / "ablation.csv", newline="", encoding="utf-8") as handle:
        rows = {r["method"]: r for r in csv.DictReader(handle)}
    assert rows["game"]["qs"] == rows["mean"]["qs"]
    assert rows["game"]["mil"] == rows["mean"]["mil"]


def test_synth_emits_loadable_csv(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {**SMALL, "output_dir": str(out)})
    assert main(["synth", path]) == 0
    shards = load_csv(str(out / "synth.csv"))
    assert len(shards) == SMALL["n_clients"]
    assert all(len(s.values) == SMALL["series_length"] for s in shards)
