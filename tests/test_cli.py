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
from fedgame.protocol import (
    AGGREGATOR_KINDS,
    BYTES_PER_PARAM,
    ExperimentConfig,
    round_traffic,
    run_experiment,
)
from tools.compare_artifacts import (
    ARTIFACTS, COMPARED, MATRIX, cli_steps, first_difference, report, run_difference,
)

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
        "train_frac": 1.5,
    })
    text = "\n".join(errors)
    assert len(errors) == 4
    assert "rounds" in text and "arch" in text and "train_frac must lie in (0, 1)" in text
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
        "noise_sd": 0.3, "train_frac": 0.6,
        "history_len": 8, "horizon": 3, "quantiles": (0.05, 0.5, 0.95),
        "hidden_sizes": (7, 5), "arch": "lstm", "local_lr": 0.01, "local_epochs": 2,
        "prox_mu": 0.5, "batch_size": 16, "embed_dim": 8, "num_experts": 3, "top_k": 1,
        "temperature": 0.5, "w_self": 0.25, "alpha": 1.5, "beta": 2.0, "server_lr": 0.01,
        "rounds": 4, "eta": 0.5, "gamma": 0.75,
        "aggregator_kind": "mean", "participation": 0.5, "master_seed": 11,
        "output_dir": "elsewhere",
        "published_total_params": 1000, "published_head_params": 10,
    }
    config = ExperimentConfig(**values)
    # noise_enabled is vestigial: its default is its only accepted value
    for field in fields(ExperimentConfig):
        if field.name != "noise_enabled":
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
    assert any("local_lr" in e for e in errors) and any(
        "train_frac must lie in (0, 1), got nan" in e for e in errors)


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


def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"eta": 1' + "0" * 400 + ', "arch": "gru"}', encoding="utf-8")
    config, errors = load_config(str(path))
    assert config is None
    assert errors == ["eta must be a number, got an integer too large for a float",
                      "arch must be one of ['mlp', 'lstm'], got 'gru'"]
    assert main(["comm", str(path)]) == 2
    assert "2 error(s)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["comm", "run"])
def test_an_infinite_float_exits_two_before_training(tmp_path, capsys, command):
    path = tmp_path / "inf.json"
    # JSON reads 1e400 as an infinite float
    path.write_text(json.dumps(SMALL)[:-1] + ', "eta": 1e400}', encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "eta must be finite, got inf" in err
    assert load_config(str(path)) == (None, ["eta must be finite, got inf"])
    assert not out.exists()


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


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_comm_overhead_is_the_personalized_heads(kind):
    # the default model has 614 parameters, 198 of them in the head: the
    # personalized kinds send a head share of 198 / 614 ~ 0.3225 more
    # downstream, half of that over both directions
    config, _ = config_from_dict({"aggregator_kind": kind})
    expected = 16.125 if kind in ("game", "mean", "single_attention") else 0.0
    assert comm_summary(config)["overhead_percent"] == expected


@pytest.mark.parametrize("kind,participation,stations", [
    ("game", 1.0, None), ("game", 0.5, None), ("game", 0.34, None),  # 0.34: one client a round
    ("local_only", 0.5, None), ("mean", 0.5, 5),
])
def test_comm_counts_the_traffic_of_every_round(tmp_path, kind, participation, stations):
    payload = {**SMALL, "aggregator_kind": kind, "participation": participation}
    if stations:
        csv_path = tmp_path / "fleet.csv"
        shards_to_csv(synth_generate(stations, 1, 160, 0.1, 0), csv_path)
        payload["csv_path"] = str(csv_path)
    config, errors = config_from_dict(payload)
    assert errors == []
    summary = comm_summary(config)
    reports = run_experiment(config).reports
    assert [len(r.client_ids) for r in reports] == [summary["participants"]] * config.rounds
    for report in reports:
        assert (report.upstream_bytes, report.downstream_bytes) == (
            summary["upstream_params"] * BYTES_PER_PARAM,
            summary["downstream_params"] * BYTES_PER_PARAM)


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
    # one row per client, then the macro averages over the summed window count
    clients = eval_payload["clients"]
    macro = eval_payload["macro"]
    assert [[r["client_id"], float(r["qs"]), float(r["mil"]), float(r["icp"]), int(r["n"])]
            for r in rows] == [
        *([c["client_id"], c["qs"], c["mil"], c["icp"], c["n"]] for c in clients),
        ["macro", macro["qs"], macro["mil"], macro["icp"], sum(c["n"] for c in clients)],
    ]
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
    # a run directory's fleet comes first: the outputs follow from it
    for directory in (same, flipped):
        (directory.parent / "synth.csv").write_bytes(b"t,s,d\n")
    assert run_difference(same.parent, same.parent) is None
    assert run_difference(same.parent, flipped.parent) == ARTIFACTS[1]
    (flipped.parent / "synth.csv").write_bytes(b"t,s,d\r\n")
    assert run_difference(same.parent, flipped.parent) == "synth.csv"
    (flipped.parent / "synth.csv").unlink()
    assert run_difference(same.parent, flipped.parent) == "synth.csv"


def test_compare_artifacts_reports_every_config_past_a_difference(tmp_path, capsys):
    # two prepared trees of run directories, one per config, in place of running the matrix
    sides = {side: tmp_path / side for side in ("ref", "checkout")}
    for runs in sides.values():
        for name in MATRIX:
            (runs / name / "out").mkdir(parents=True)
            (runs / name / "synth.csv").write_bytes(b"t,s,d\n")
            for file in COMPARED:
                (runs / name / "out" / file).write_bytes(name.encode())
    assert report(sides["ref"], sides["checkout"], "REF") == 0
    names = list(MATRIX)
    # the second config and the last differ; every config still gets its line
    (sides["checkout"] / names[1] / "out" / ARTIFACTS[1]).write_bytes(b"moved")
    (sides["checkout"] / names[-1] / "synth.csv").unlink()
    assert report(sides["ref"], sides["checkout"], "REF") == 1
    lines = capsys.readouterr().out.splitlines()[len(names):]
    assert [line.split(":")[0] for line in lines] == names
    assert lines[1] == f"{names[1]}: {ARTIFACTS[1]} differs from REF"
    assert lines[-1] == f"{names[-1]}: synth.csv differs from REF"
    assert all(line.endswith("byte-identical to REF") for line in lines[2:-1] + lines[:1])


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


def test_noise_enabled_true_exits_two_before_training(tmp_path, capsys):
    path = write_config(tmp_path, {
        **SMALL, "noise_enabled": True, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "noise_enabled must be false" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("val_frac", 0.1), ("test_frac", 0.2)])
def test_a_second_split_fraction_exits_two_before_training(tmp_path, capsys, key, value):
    # the test split is everything after train_frac: no other fraction exists
    path = write_config(tmp_path, {**SMALL, key: value, "output_dir": str(tmp_path / "out")})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and f"unknown key {key!r}" in err
    assert not (tmp_path / "out").exists()


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


def test_more_clusters_than_clients_is_allowed_with_a_csv_fleet(tmp_path, capsys):
    # a CSV run reads neither count; synth still refuses them, before writing
    csv_path = tmp_path / "fleet.csv"
    shards_to_csv(synth_generate(3, 1, 160, 0.1, 0), csv_path)
    out = tmp_path / "out"
    path = write_config(tmp_path, {
        **SMALL, "n_clusters": 5, "csv_path": str(csv_path), "output_dir": str(out),
    })
    assert main(["run", path]) == 0
    assert (out / "eval.json").exists()
    synth_out = tmp_path / "synth_out"
    assert main(["synth", path, "--output-dir", str(synth_out)]) == 2
    assert "n_clusters" in capsys.readouterr().err
    assert not synth_out.exists()


def test_comm_counts_a_csv_fleet_by_its_stations(tmp_path, capsys):
    # the default n_clients is 4; the file holds 3 stations, as many as a run trains
    csv_path = tmp_path / "fleet.csv"
    shards_to_csv(synth_generate(3, 1, 160, 0.1, 0), csv_path)
    path = write_config(tmp_path, {"csv_path": str(csv_path)})
    assert main(["comm", path]) == 0
    summary = json.loads(capsys.readouterr().out)
    config, _ = load_config(path)
    assert config.n_clients == 4 and summary == comm_summary(config)
    total, head = config.param_counts()
    traffic = round_traffic(3, total, head, config.aggregator_kind)
    assert (summary["n_clients"], summary["upstream_params"],
            summary["downstream_params"]) == (3, traffic["upstream"], traffic["downstream"])
    # an unreadable or empty file exits 2 and a malformed one exits 1, as for run
    absent = write_config(tmp_path, {"csv_path": str(tmp_path / "absent.csv")}, name="absent.json")
    assert main(["comm", absent]) == 2
    assert "csv_path: cannot read" in capsys.readouterr().err
    header_only = tmp_path / "header.csv"
    header_only.write_text("timestamp,station_id,demand_kwh\n", encoding="utf-8")
    empty = write_config(tmp_path, {"csv_path": str(header_only)}, name="empty.json")
    for command in ("comm", "run"):
        assert main([command, empty, "--output-dir", str(tmp_path / "out")]) == 2
        assert "csv_path: the CSV file has no data rows" in capsys.readouterr().err
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("timestamp,station_id,demand_kwh\n2024-01-01T00:00:00,a,x\n",
                       encoding="utf-8")
    bad = write_config(tmp_path, {"csv_path": str(bad_csv)}, name="bad.json")
    for command in ("comm", "run"):
        assert main([command, bad, "--output-dir", str(tmp_path / "out")]) == 1
        assert "line 2: unparseable demand_kwh 'x'" in capsys.readouterr().err
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


def test_an_empty_csv_path_is_a_config_error(tmp_path, capsys):
    # null asks for synthetic data; an empty path is not a file to read
    assert config_from_dict({"csv_path": ""})[1] == [
        "csv_path must not be empty; null selects the synthetic generator"]
    path = write_config(tmp_path, {**SMALL, "csv_path": "", "output_dir": str(tmp_path / "out")})
    assert main(["run", path]) == 2
    assert "1 error(s)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_empty_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an empty directory name would write into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEDGAME_OUTPUT_DIR", raising=False)
    assert config_from_dict({"output_dir": ""})[1] == ["output_dir must not be empty"]
    path = write_config(tmp_path, {**SMALL, "output_dir": ""})
    before = sorted(tmp_path.iterdir())
    assert main(["run", path]) == 2
    assert "output_dir must not be empty" in capsys.readouterr().err
    # an empty flag or environment value falls back to the config's value
    assert main(["run", path, "--output-dir", ""]) == 2
    monkeypatch.setenv("FEDGAME_OUTPUT_DIR", "")
    assert main(["run", path]) == 2
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command,below", [("run", ""), ("synth", "sub")])
def test_an_output_dir_under_a_file_exits_two_before_training(tmp_path, capsys, monkeypatch,
                                                              command, below):
    def train(*args):
        raise AssertionError("trained with an unusable output_dir")

    monkeypatch.setattr("fedgame.cli.run_experiment", train)
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    path = write_config(tmp_path, SMALL)
    assert main([command, path, "--output-dir", str(afile / below)]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and f"output_dir: {afile} is not a directory" in err
    assert afile.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]
    # comm writes nothing, so it does not check
    assert main(["comm", path, "--output-dir", str(afile / below)]) == 0


def test_an_output_file_that_cannot_be_written_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "rounds.jsonl").mkdir(parents=True)
    path = write_config(tmp_path, {**SMALL, "output_dir": str(out)})
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rounds.jsonl" in err and "Traceback" not in err


def test_baselines_is_an_unknown_key_and_ablate_no_command(tmp_path, capsys):
    # kinds are compared by tools/quality_sweep.py, not by the CLI
    path = write_config(tmp_path, {**SMALL, "baselines": ["fedavg"],
                                   "output_dir": str(tmp_path / "out")})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "1 error(s)" in err and "unknown key 'baselines'" in err
    with pytest.raises(SystemExit) as info:
        main(["ablate", write_config(tmp_path, SMALL, name="small.json")])
    assert info.value.code == 2
    assert "invalid choice: 'ablate'" in capsys.readouterr().err
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


def test_synth_emits_loadable_csv(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, {**SMALL, "output_dir": str(out)})
    assert main(["synth", path]) == 0
    shards = load_csv(str(out / "synth.csv"))
    assert len(shards) == SMALL["n_clients"]
    assert all(len(s.values) == SMALL["series_length"] for s in shards)
