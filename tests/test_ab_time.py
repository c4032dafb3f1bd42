"""The in-process A/B timer of tools/ab_time.py, on this checkout only."""

import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from tools.ab_time import (
    TARGETS, ab_time, bench_path, bench_record, digest, load_package, sign_test, write_record,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_sign_test_reference_values():
    assert sign_test(10, 0) == sign_test(0, 10) == 2 / 2**10
    assert sign_test(3, 3) == 1.0
    assert sign_test(0, 0) == 1.0


def test_ab_time_summarizes_pairs_of_identical_trees():
    out = ab_time(SRC, SRC, "aggregate_game", pairs=4, repeat=1)
    assert out["same_output"] and (out["target"], out["pairs"], out["repeat"]) == (
        "aggregate_game", 4, 1)
    assert 0 < out["ratio_q1"] <= out["ratio_median"] <= out["ratio_q3"]
    assert 0 <= out["b_wins"] <= 4 and 0 < out["sign_p"] <= 1


@pytest.mark.parametrize("target", ["local_train", "evaluate", "setup", "mlp_step", "lstm_step",
                                    "clustered_mlp", "wide_server"])
def test_ab_time_runs_each_heavier_target_on_identical_trees(target):
    # the reports' wall times differ from run to run and are left out
    assert ab_time(SRC, SRC, target, pairs=2, repeat=1)["same_output"]


def test_lstm_fedavg_digests_alike_from_two_work_directories(tmp_path):
    # timing it would take over 2 s; the output check alone is one run a side
    build, _ = TARGETS["lstm_fedavg"]
    digests = []
    for side in "ab":
        (tmp_path / side).mkdir()
        digests.append(digest(build(load_package(SRC, f"_test_{side}_fedgame"), tmp_path / side)()))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("pairs", [0, 1])
def test_ab_time_rejects_fewer_than_two_pairs_before_timing(pairs):
    with pytest.raises(ValueError, match="pairs must be at least 2"):
        ab_time(SRC, SRC, "lstm_fedavg", pairs=pairs)


@pytest.mark.parametrize("target", ["train_step", "wide_server"])
def test_ab_time_compares_results_not_how_the_state_stores_them(tmp_path, target):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "fedgame", changed / "fedgame",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "fedgame" / "aggregator.py"
    text = path.read_text(encoding="utf-8")
    field = "    adam_t: int = 0\n"
    assert text.count(field) == 1
    # a field that no computation reads: the results, and so the check, stay the same
    path.write_text(text.replace(field, field + "    unused: int = 0\n"), encoding="utf-8")
    assert ab_time(SRC, changed, target, pairs=2, repeat=1)["same_output"]


def test_ab_time_times_nothing_when_the_outputs_differ(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "fedgame", changed / "fedgame",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = changed / "fedgame" / "aggregator.py"
    text = path.read_text(encoding="utf-8")
    assert text.count("ADAM_EPS = 1e-8") == 1
    path.write_text(text.replace("ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7"), encoding="utf-8")
    with pytest.raises(RuntimeError, match="different bytes; nothing timed"):
        ab_time(SRC, changed, "train_step", pairs=2)
    # the forward does not read ADAM_EPS, so the same two trees agree there
    assert ab_time(SRC, changed, "aggregate_game", pairs=2, repeat=1)["same_output"]


def test_record_holds_each_target_the_machine_and_both_trees(tmp_path):
    out = ab_time(SRC, SRC, "aggregate_game", pairs=2, repeat=1)
    path = bench_path(tmp_path, "tiny")
    assert path == tmp_path / "BENCH_tiny.json" and not path.exists()
    write_record(path, bench_record([out], "a" * 40, "b" * 40, [" M src/fedgame/data.py"]))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert (record["a_sha"], record["b_sha"]) == ("a" * 40, "b" * 40)
    assert record["b_src_changes"] == [" M src/fedgame/data.py"]
    assert record["nproc"] >= 1
    assert (record["python"], record["numpy"]) == (platform.python_version(), np.__version__)
    assert set(record["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS"}
    target = record["targets"]["aggregate_game"]
    assert target == out
    assert target["a_s_per_call"] > 0 and target["b_s_per_call"] > 0
    assert (target["pairs"], target["repeat"]) == (2, 1)
    assert target["ratio_q1"] <= target["ratio_median"] <= target["ratio_q3"]
    # a record is never overwritten, and the tag is a plain name
    with pytest.raises(FileExistsError):
        bench_path(tmp_path, "tiny")
    with pytest.raises(FileExistsError):
        write_record(path, {})
    assert json.loads(path.read_text(encoding="utf-8")) == record
    for tag in ("", "../tiny", "a/b", ".hidden"):
        with pytest.raises(ValueError, match="record tag"):
            bench_path(tmp_path, tag)
