#!/usr/bin/env python3
"""Compare ``fedgame run`` output files between a git ref and this checkout.

    python tools/compare_artifacts.py REF

For every config of ``MATRIX`` the script synthesizes a fleet as CSV
with ``python -m fedgame.cli synth`` and runs ``python -m fedgame.cli
run`` on it, once on the ``src`` tree of REF (exported with ``git
archive`` into a temporary directory, so the repository gains no
worktree) and once on this checkout's ``src``.  It then compares the
fleet ``synth.csv``, ``ARTIFACTS`` and ``config.json`` byte for byte
and prints one line per config: the first of its files that differs,
or that all match.  It exits 1 if any config differs, 0 when every
file matches.  ``config.json`` holds the run's own directory (in
``csv_path`` and ``output_dir``), the one part that differs between
the two sides, so each side's directory reads as a placeholder there.
A run that fails ends the script with its error.

The matrix covers all six aggregator kinds, half participation, one
participant a round, a two-layer LSTM, the CSV ingest path, stations of
uneven length and whole numbers given for float fields; the
byte-identical rerun test in ``tests/test_cli.py`` runs the same matrix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

ARTIFACTS = ("rounds.jsonl", "eval.json", "eval.csv", "attention.csv")
COMPARED = (*ARTIFACTS, "config.json")
BASE = {"series_length": 160, "embed_dim": 4, "rounds": 2}
# The game rows: CSV ingest, a two-layer LSTM, a two-layer MLP, and half
# the clients sitting out each round, which draws from both per-round
# roles (batch order, participation) and steps only the batch's gate
# blocks.  Then one row per other kind, and
# one whose float fields are given as JSON integers, which the config
# stores, and config.json writes, as floats.  The uneven row's stations
# have different lengths (``station_lengths``, written as CSV here, not
# synthesized), so local training and evaluation each run several stacks.
# The lone row has one participant a round: the attention and the blend
# take their lone-client rules, no meta step runs, and attention.csv holds
# only its header; its top_k = num_experts masks no gate logit, so each
# logged gate mix is a softmax over every expert.
MATRIX = {
    "csv": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4]},
    "lstm": {"n_clients": 3, "n_clusters": 1, "arch": "lstm", "hidden_sizes": [4, 3]},
    "mlp": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [8, 5],
            "aggregator_kind": "game"},
    "lazy_adam": {"n_clients": 6, "n_clusters": 2, "hidden_sizes": [8], "rounds": 3,
                  "aggregator_kind": "game", "participation": 0.5},
    **{kind: {"n_clients": 4, "n_clusters": 2, "hidden_sizes": [4], "aggregator_kind": kind}
       for kind in ("mean", "single_attention", "fedavg", "fedprox_only", "local_only")},
    "whole_floats": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4], "eta": 1,
                     "gamma": 1, "temperature": 2, "alpha": 1, "participation": 1},
    "uneven": {"hidden_sizes": [4], "station_lengths": [160, 148, 160, 136]},
    "lone": {"n_clients": 3, "n_clusters": 1, "hidden_sizes": [4], "rounds": 3,
             "aggregator_kind": "game", "participation": 0.34, "num_experts": 4, "top_k": 4},
}


def write_uneven_csv(path: Path, lengths: list[int]) -> None:
    """A fleet whose station k has ``lengths[k]`` hourly points: a daily
    cycle and a faster ripple, each with a phase of its own."""
    rows, start = ["timestamp,station_id,demand_kwh"], datetime(2024, 1, 1)
    for k, n in enumerate(lengths):
        for t in range(n):
            value = 10 + 5 * math.sin(2 * math.pi * t / 24 + k) + math.sin(1.7 * t + 3 * k)
            rows.append(f"{(start + timedelta(hours=t)).isoformat()},station{k},{value!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def cli_steps(name: str, workdir: Path) -> list[list[str]]:
    """``fedgame.cli`` argument lists that run config ``name`` in
    ``workdir``: synthesize its fleet as CSV (or write it, for a row with
    ``station_lengths``), then run on that file, writing the artifacts to
    ``workdir / "out"``."""
    config = {**BASE, **MATRIX[name]}
    lengths = config.pop("station_lengths", None)
    workdir.mkdir(parents=True, exist_ok=True)
    synth, run = workdir / "synth.json", workdir / "run.json"
    run.write_text(json.dumps({**config, "csv_path": str(workdir / "synth.csv")}),
                   encoding="utf-8")
    steps = [["run", str(run), "--output-dir", str(workdir / "out")]]
    if lengths:
        write_uneven_csv(workdir / "synth.csv", lengths)
        return steps
    synth.write_text(json.dumps(config), encoding="utf-8")
    return [["synth", str(synth), "--output-dir", str(workdir)], *steps]


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


def run_difference(a: Path, b: Path) -> str | None:
    """The first file that differs between the run directories ``a`` and
    ``b``: the fleet ``synth.csv`` the run read (a missing one differs),
    then ``first_difference`` of their output directories."""
    fleets = [run / "synth.csv" for run in (a, b)]
    if not all(f.is_file() for f in fleets) or fleets[0].read_bytes() != fleets[1].read_bytes():
        return "synth.csv"
    return first_difference(a / "out", b / "out")


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


def report(ref_runs: Path, checkout_runs: Path, ref: str) -> int:
    """Print every config's verdict, comparing its run directory under
    ``ref_runs`` with the one under ``checkout_runs``; 1 if any differs."""
    status = 0
    for name in MATRIX:
        differs = run_difference(ref_runs / name, checkout_runs / name)
        if differs:
            status = 1
            print(f"{name}: {differs} differs from {ref}")
        else:
            print(f"{name}: synth.csv, {', '.join(COMPARED)} byte-identical to {ref}")
    return status


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
        return report(tmp / "ref-runs", tmp / "checkout-runs", args.ref)


if __name__ == "__main__":
    sys.exit(main())
