#!/usr/bin/env python3
"""Compare ``fedgame run`` output files between a git ref and this checkout.

    python tools/compare_artifacts.py REF

For every config of ``MATRIX`` the script synthesizes a fleet as CSV
with ``python -m fedgame.cli synth`` and runs ``python -m fedgame.cli
run`` on it, once on the ``src`` tree of REF (exported with ``git
archive`` into a temporary directory, so the repository gains no
worktree) and once on this checkout's ``src``.  It then compares
``ARTIFACTS`` and ``config.json`` byte for byte, prints one line per
config, and exits 1 naming the first file that differs, 0 when every
file matches.  ``config.json`` holds the run's own directory (in
``csv_path`` and ``output_dir``), the one part that differs between
the two sides, so each side's directory reads as a placeholder there.
A run that fails ends the script with its error.

The matrix covers all six aggregator kinds, noisy gates, half
participation, a two-layer LSTM, the CSV ingest path and whole numbers
given for float fields; the byte-identical rerun test in
``tests/test_cli.py`` runs the same matrix.
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
COMPARED = (*ARTIFACTS, "config.json")
BASE = {"series_length": 160, "embed_dim": 4, "rounds": 2}
# The game rows: CSV ingest, a two-layer LSTM, a two-layer MLP, and noisy
# gates where half the clients sit out each round, which draws from all
# three per-round roles (batch order, participation, gate noise) and
# steps only the batch's gate rows.  Then one row per other kind, and
# one whose float fields are given as JSON integers, which the config
# stores, and config.json writes, as floats.
MATRIX = {
    "csv": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4]},
    "lstm": {"n_clients": 3, "n_clusters": 1, "arch": "lstm", "hidden_sizes": [4, 3]},
    "mlp": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [8, 5],
            "aggregator_kind": "game"},
    "lazy_adam": {"n_clients": 6, "n_clusters": 2, "hidden_sizes": [8], "rounds": 3,
                  "aggregator_kind": "game", "participation": 0.5, "noise_enabled": True},
    **{kind: {"n_clients": 4, "n_clusters": 2, "hidden_sizes": [4], "aggregator_kind": kind}
       for kind in ("mean", "single_attention", "fedavg", "fedprox_only", "local_only")},
    "whole_floats": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4], "eta": 1,
                     "gamma": 1, "temperature": 2, "alpha": 1, "participation": 1},
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


def pinned_bytes(out: Path, name: str) -> bytes:
    """File ``name`` of the output directory ``out``; in ``config.json``
    the run directory, ``out``'s parent, reads as ``<run>``."""
    data = (out / name).read_bytes()
    if name == "config.json":
        data = data.replace(json.dumps(str(out.parent))[1:-1].encode(), b"<run>")
    return data


def first_difference(a: Path, b: Path) -> str | None:
    """The first of ``COMPARED`` whose bytes differ between the output
    directories ``a`` and ``b`` (a missing file differs), else None."""
    for name in COMPARED:
        if not ((a / name).is_file() and (b / name).is_file()):
            return name
        if pinned_bytes(a, name) != pinned_bytes(b, name):
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
            print(f"{name}: {', '.join(COMPARED)} byte-identical to {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
