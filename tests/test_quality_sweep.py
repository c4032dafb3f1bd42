"""The aggregator-kind comparison of tools/quality_sweep.py, on tiny grids."""

import json
import platform
from dataclasses import replace

import numpy as np
import pytest

from fedgame.errors import NumericError
from fedgame.protocol import ExperimentConfig, run_experiment
from test_acceptance import E2E
from test_cli import SMALL
import tools.quality_sweep as quality_sweep
from tools.quality_sweep import FLEETS, summarize, sweep

KINDS = ("game", "fedavg")
SEEDS = (0, 1)
BUDGETS = (2, 4)
TINY = {"small": SMALL}


def test_the_e2e_fleet_is_the_acceptance_config_without_rounds():
    assert FLEETS["e2e"] == {k: v for k, v in E2E.items() if k != "rounds"}


def test_tiny_sweep_cells_medians_and_win_counts():
    cells = sweep(TINY, KINDS, SEEDS, BUDGETS)
    assert [(c["rounds"], c["seed"], c["kind"]) for c in cells] == [
        (b, s, k) for b in BUDGETS for s in SEEDS for k in KINDS]
    common = {"fleet", "kind", "seed", "rounds", "macro_qs", "macro_mil", "macro_icp",
              "head_drift"}
    for cell in cells:
        extra = {"intra_cluster_mass", "entropy"} if cell["kind"] == "game" else set()
        assert set(cell) == common | extra
        assert cell["head_drift"] >= 0
    # a cell is a fresh run at its seed and budget
    last = cells[-1]
    fresh = run_experiment(replace(ExperimentConfig(**SMALL), master_seed=last["seed"],
                                   rounds=last["rounds"]), last["kind"]).eval_report
    assert (last["macro_qs"], last["macro_mil"], last["macro_icp"]) == (
        fresh.macro_qs, fresh.macro_mil, fresh.macro_icp)

    summary = summarize(cells)
    assert [(r["rounds"], r["kind"]) for r in summary] == [(b, k) for b in BUDGETS for k in KINDS]
    rows = {(r["kind"], r["rounds"]): r for r in summary}
    for (kind, rounds), row in rows.items():
        mine = [c for c in cells if (c["kind"], c["rounds"]) == (kind, rounds)]
        assert (row["fleet"], row["seeds"], row["errors"]) == ("small", 2, 0)
        for metric, value in row["median"].items():
            assert value == (mine[0][metric] + mine[1][metric]) / 2
        assert set(row["median"]) == set(mine[0]) - {"fleet", "kind", "seed", "rounds"}
        other = next(k for k in KINDS if k != kind)
        theirs = [c for c in cells if (c["kind"], c["rounds"]) == (other, rounds)]
        ties = sum(a["macro_qs"] == b["macro_qs"] for a, b in zip(mine, theirs))
        assert set(row["wins"]) == {other}
        assert row["wins"][other] + rows[other, rounds]["wins"][kind] + ties == len(SEEDS)


def test_a_run_that_raises_becomes_an_error_cell_that_loses(monkeypatch):
    def diverge(config, kind):
        if kind == "game":
            raise NumericError("non-finite loss")
        return run_experiment(config, kind)

    monkeypatch.setattr(quality_sweep, "run_experiment", diverge)
    cells = sweep(TINY, KINDS, SEEDS, (2,))
    assert [c["error"] for c in cells if c["kind"] == "game"] == [
        "NumericError: non-finite loss"] * 2
    game, fedavg = summarize(cells)
    assert (game["errors"], game["median"], game["wins"]) == (2, {}, {"fedavg": 0})
    assert (fedavg["errors"], fedavg["wins"]) == (0, {"game": 2})


def test_record_is_written_once_and_checked_before_running(monkeypatch, tmp_path):
    monkeypatch.setattr(quality_sweep, "ROOT", tmp_path)
    for name, value in (("FLEETS", TINY), ("AGGREGATOR_KINDS", KINDS), ("SEEDS", SEEDS),
                        ("BUDGETS", (2,))):
        monkeypatch.setattr(quality_sweep, name, value)
    assert quality_sweep.main(["--record", "tiny"]) == 0
    path = tmp_path / "QUALITY_tiny.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert len(record["sha"]) == 40 and isinstance(record["src_changes"], list)
    assert (record["python"], record["numpy"]) == (platform.python_version(), np.__version__)
    assert record["grid"] == {"fleets": json.loads(json.dumps(TINY)), "kinds": list(KINDS),
                              "seeds": list(SEEDS), "budgets": [2]}
    assert len(record["cells"]) == 4 and len(record["summary"]) == 2

    def ran(*args):
        raise AssertionError("swept before checking the record path")

    monkeypatch.setattr(quality_sweep, "sweep", ran)
    before = path.read_bytes()
    with pytest.raises(FileExistsError):
        quality_sweep.main(["--record", "tiny"])
    assert path.read_bytes() == before
    for tag in ("", "../tiny", ".hidden"):
        with pytest.raises(ValueError, match="record tag"):
            quality_sweep.main(["--record", tag])
