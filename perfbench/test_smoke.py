"""Smoke tests of the benchmark harness, on a tiny config.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import Bench
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(trace):
    proc = bench_run(["--workload", "smoke", "--seed", "3", "--seconds", "0.5",
                      "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if trace == "1":
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.9


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench_run(["--workload", "smoke", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rerun_gate_fails_operations_whose_bytes_differ(tmp_path, capsys):
    bench = Bench(None, "smoke", 0, 1.0, False, tmp_path, cap=0.0)
    ops = [
        {"index": 0, "master_seed": 0, "digest": "a", "failed": False},
        {"index": 1, "master_seed": 1, "digest": "b", "failed": False},
        {"index": 2, "master_seed": 0, "digest": "a", "failed": False},
        {"index": 3, "master_seed": 1, "digest": "c", "failed": False},
    ]
    bench.check_reruns(ops)
    assert [op["failed"] for op in ops] == [False, False, False, True]
    assert "workload=smoke seed=0 master_seed=1 run=3" in capsys.readouterr().err


def test_self_time_subtracts_direct_children():
    spans = [
        ["bench.operation", 0.0, 10.0, None, 0],
        ["protocol.run_round", 1.0, 6.0, 0, 0],
        ["forecaster.local_train", 2.0, 3.0, 1, 0],
        ["params.add_scaled", 4.0, 4.5, 1, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.5, 1.0, 0.5])
