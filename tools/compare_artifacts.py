#!/usr/bin/env python3
"""Compare ``fedgame run`` output files between a git ref and this checkout.

    python tools/compare_artifacts.py REF

For every config of ``MATRIX`` the script synthesizes a fleet as CSV
with ``python -m fedgame.cli synth`` and runs ``python -m fedgame.cli
run`` on it, once on the ``src`` tree of REF (exported with ``git
archive`` into a temporary directory, so the repository gains no
worktree) and once on this checkout's ``src``.  It then compares
``ARTIFACTS`` byte for byte, prints one line per config, and exits 1
naming the first file that differs, 0 when every file matches.  A run
that fails ends the script with its error.

The matrix covers all six aggregator kinds, noisy gates, half
participation, a two-layer LSTM and the CSV ingest path; the byte-
identical rerun test in ``tests/test_cli.py`` runs the same matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ARTIFACTS = ("rounds.jsonl", "eval.json", "eval.csv", "attention.csv")
BASE = {"series_length": 160, "embed_dim": 4, "rounds": 2}
# The game rows: CSV ingest, a two-layer LSTM, a two-layer MLP, and noisy
# gates where half the clients sit out each round, which draws from all
# three per-round roles (batch order, participation, gate noise) and
# steps only the batch's gate rows.  Then one row per other kind.
MATRIX = {
    "csv": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4]},
    "lstm": {"n_clients": 3, "n_clusters": 1, "arch": "lstm", "hidden_sizes": [4, 3]},
    "mlp": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [8, 5],
            "aggregator_kind": "game"},
    "lazy_adam": {"n_clients": 6, "n_clusters": 2, "hidden_sizes": [8], "rounds": 3,
                  "aggregator_kind": "game", "participation": 0.5, "noise_enabled": True},
    **{kind: {"n_clients": 4, "n_clusters": 2, "hidden_sizes": [4], "aggregator_kind": kind}
       for kind in ("mean", "single_attention", "fedavg", "fedprox_only", "local_only")},
}


def cli_steps(name: str, workdir: Path) -> list[list[str]]:
    """``fedgame.cli`` argument lists that run config ``name`` in
    ``workdir``: synthesize its fleet as CSV, then run on that file,
    writing the artifacts to ``workdir / "out"``."""
    config = {**BASE, **MATRIX[name]}
    workdir.mkdir(parents=True, exist_ok=True)
    synth, run = workdir / "synth.json", workdir / "run.json"
    synth.write_text(json.dumps(config), encoding="utf-8")
    run.write_text(json.dumps({**config, "csv_path": str(workdir / "synth.csv")}),
                   encoding="utf-8")
    return [["synth", str(synth), "--output-dir", str(workdir)],
            ["run", str(run), "--output-dir", str(workdir / "out")]]


def first_difference(a: Path, b: Path) -> str | None:
    """The first of ``ARTIFACTS`` whose bytes differ between directories
    ``a`` and ``b`` (a missing file differs), else None."""
    for name in ARTIFACTS:
        left, right = a / name, b / name
        if not (left.is_file() and right.is_file()) or left.read_bytes() != right.read_bytes():
            return name
    return None


def run_matrix(src: Path, workdir: Path) -> None:
    """Every config of the matrix on the package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name in MATRIX:
        for args in cli_steps(name, workdir / name):
            subprocess.run([sys.executable, "-m", "fedgame.cli", *args], cwd=workdir,
                           env=env, check=True, stdout=subprocess.DEVNULL)


def export_src(root: Path, ref: str, dest: Path) -> Path:
    """The ``src`` tree of ``ref`` unpacked under ``dest``."""
    archive = subprocess.run(["git", "-C", str(root), "archive", ref, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git commit, tag or branch to compare against")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        sides = {"ref": export_src(root, args.ref, tmp / "ref"), "checkout": root / "src"}
        for side, src in sides.items():
            run_matrix(src, tmp / f"{side}-runs")
        for name in MATRIX:
            differs = first_difference(tmp / "ref-runs" / name / "out",
                                       tmp / "checkout-runs" / name / "out")
            if differs:
                print(f"{name}: {differs} differs from {args.ref}")
                return 1
            print(f"{name}: {', '.join(ARTIFACTS)} byte-identical to {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
