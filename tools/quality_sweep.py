#!/usr/bin/env python3
"""Compare every aggregator kind on fixed fleets, seeds and round budgets.

    python tools/quality_sweep.py [--record TAG]

The grid is fixed: each fleet of ``FLEETS`` (``e2e``, the acceptance
end-to-end config, and ``default``, ``ExperimentConfig()``), each of
the six aggregator kinds, master seeds ``SEEDS`` and round budgets
``BUDGETS``.  A cell is one fresh ``run_experiment`` at that seed and
budget, so every kind of a (fleet, seed, budget) shares the same seed
streams.  It holds the final ``macro_qs``, ``macro_mil`` and
``macro_icp``; the head drift, the mean over clients of the L2 distance
between a client's output head and the consensus head; and, for the
personalized kinds, the last round's ``intra_cluster_mass`` and
``entropy`` from ``attention_diagnostics``.  A run that raises
``FedGameError`` becomes a cell holding its ``error``.

The summary gives, for each fleet, kind and budget, the median of each
metric over the seeds that finished, and the paired win count against
every other kind: on how many seeds the kind's ``macro_qs`` is lower
(a seed that raised counts as worse than any that finished).

``--record TAG`` also writes the cells and the summary to
``QUALITY_<TAG>.json`` at the repository root, with the HEAD commit,
the uncommitted changes under ``src``, and the Python and numpy
versions; it refuses to overwrite a file, or a tag that is not a plain
name, before anything runs.  BLAS runs on one thread, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
from dataclasses import replace
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

# first: it pins BLAS to one thread before numpy loads
from tools.ab_time import _git, bench_path, write_record  # noqa: E402

import numpy as np  # noqa: E402

from fedgame.errors import FedGameError  # noqa: E402
from fedgame.params import select_head_values  # noqa: E402
from fedgame.protocol import (  # noqa: E402
    AGGREGATOR_KINDS,
    PERSONALIZED_KINDS,
    ExperimentConfig,
    attention_diagnostics,
    run_experiment,
)
from perfbench.workloads import ACCEPTANCE_E2E  # noqa: E402

FLEETS = {
    "e2e": {k: v for k, v in ACCEPTANCE_E2E.items() if k not in ("rounds", "aggregator_kind")},
    "default": {},
}
SEEDS = (0, 1, 2)
BUDGETS = (30, 100, 200)
METRICS = ("macro_qs", "macro_mil", "macro_icp", "head_drift", "intra_cluster_mass", "entropy")


def run_cell(config: ExperimentConfig, kind: str) -> dict:
    """The metrics of one ``run_experiment(config, kind)``, or its error."""
    try:
        result = run_experiment(config, kind)
    except FedGameError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    report, state = result.eval_report, result.state
    spec = state.global_model.spec
    heads = select_head_values(np.stack([m.values for m in state.client_models.values()]), spec)
    drift = np.linalg.norm(heads - select_head_values(state.global_model.values, spec), axis=1)
    cell = {"macro_qs": report.macro_qs, "macro_mil": report.macro_mil,
            "macro_icp": report.macro_icp, "head_drift": float(np.mean(drift))}
    if kind in PERSONALIZED_KINDS and result.reports:
        last = attention_diagnostics(result.reports[-1:], result.cluster_labels)[0]
        cell.update(intra_cluster_mass=last["intra_cluster_mass"], entropy=last["entropy"])
    return cell


def sweep(fleets: dict, kinds, seeds, budgets) -> list[dict]:
    """One cell per fleet, kind, seed and budget: each fleet's config dict
    built as ``ExperimentConfig``, run fresh at every seed and budget."""
    cells = []
    for fleet, fields in fleets.items():
        config = ExperimentConfig(**fields)
        for rounds in budgets:
            for seed in seeds:
                run = replace(config, master_seed=seed, rounds=rounds)
                for kind in kinds:
                    cells.append({"fleet": fleet, "kind": kind, "seed": seed, "rounds": rounds,
                                  **run_cell(run, kind)})
    return cells


def _qs(cell: dict) -> float:
    return cell.get("macro_qs", math.inf)


def summarize(cells: list[dict]) -> list[dict]:
    """Per fleet, budget and kind: the seed count, the seeds that raised,
    each metric's median over the seeds that finished (a metric no cell
    holds is left out), and the win count against every other kind."""
    groups: dict = {}
    for cell in cells:
        by_kind = groups.setdefault((cell["fleet"], cell["rounds"]), {})
        by_kind.setdefault(cell["kind"], {})[cell["seed"]] = cell
    rows = []
    for (fleet, rounds), by_kind in groups.items():
        for kind, by_seed in by_kind.items():
            medians = {}
            for metric in METRICS:
                values = [c[metric] for c in by_seed.values() if c.get(metric) is not None]
                if values:
                    medians[metric] = median(values)
            wins = {other: sum(_qs(cell) < _qs(theirs[seed]) for seed, cell in by_seed.items())
                    for other, theirs in by_kind.items() if other != kind}
            rows.append({"fleet": fleet, "kind": kind, "rounds": rounds, "seeds": len(by_seed),
                         "errors": sum("error" in c for c in by_seed.values()),
                         "median": medians, "wins": wins})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="TAG",
                        help="also write the cells and summary to QUALITY_<TAG>.json "
                             "at the repo root")
    args = parser.parse_args(argv)
    path = bench_path(ROOT, args.record, "QUALITY") if args.record is not None else None
    cells = sweep(FLEETS, AGGREGATOR_KINDS, SEEDS, BUDGETS)
    summary = summarize(cells)
    for row in summary:
        qs = row["median"].get("macro_qs", math.nan)
        wins = ", ".join(f"{other} {n}" for other, n in row["wins"].items())
        print(f"{row['fleet']:8s} {row['rounds']:4d} {row['kind']:17s} qs {qs:<12.4g} "
              f"errors {row['errors']}  wins: {wins}")
    if path:
        write_record(path, {
            "tool": "tools/quality_sweep.py", "sha": _git("rev-parse", "HEAD"),
            "src_changes": _git("status", "--porcelain", "--", "src").splitlines(),
            "python": platform.python_version(), "numpy": np.__version__,
            "grid": {"fleets": FLEETS, "kinds": AGGREGATOR_KINDS, "seeds": SEEDS,
                     "budgets": BUDGETS},
            "cells": cells, "summary": summary,
        })
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
