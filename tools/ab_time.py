#!/usr/bin/env python3
"""Time one fedgame call on a git ref against this checkout, in one process.

    python tools/ab_time.py REF --target train_step

The ``src`` tree of REF is exported with ``git archive`` (see
``compare_artifacts.export_src``), and both trees' ``fedgame`` are
imported side by side under two package names; the package imports
itself relatively, so a renamed copy loads as is.  Each side builds the
same fixed inputs (``TARGETS``), and both must return the same bytes
before anything is timed.  A target returns what it computes, read
through names that REF and the checkout both have, not the records
that store it, so a change to how the state is stored can be timed
when the results agree.  The script then times the two sides in
alternation, swapping which goes first on every pair, and prints the
median of the per-pair ratios B/A (B is this checkout, A is REF; above 1
means slower), their quartiles, how many pairs B won and a two-sided
sign-test p-value.  Several targets may be named after ``--target``.

    python tools/ab_time.py REF --target mlp_step local_train --record TAG

``--record TAG`` also writes the results to ``BENCH_<TAG>.json`` at the
repository root, with the machine (``nproc``, the Python and numpy
versions, the BLAS thread settings) and both sides' commits; it refuses
to overwrite a file, before anything is timed.

Separate benchmark processes of the same code can differ by more than
10%, because the CPU's speed drifts; alternating call by call inside one
process lets both sides see the same drift.  Timings are evidence next
to the benchmark, not a replacement for it.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark pins it; set before numpy loads
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import argparse
import copy
import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEV_SEED, build_configs  # noqa: E402
from tools.compare_artifacts import export_src  # noqa: E402


def load_package(src: Path, name: str):
    """The ``fedgame`` package under ``src``, imported as ``name``; modules
    left under that name by an earlier load are dropped first."""
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]
    init = Path(src) / "fedgame" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    # the package's __init__ imports every module the targets call
    spec.loader.exec_module(package)
    return package


def _fleet(fg, config):
    """``config``'s synthetic shards and each one's windows, built as
    ``run_experiment`` builds them."""
    fcfg = config.forecaster_config()
    stream = fg.protocol.seed_stream(config.master_seed, "data")
    shards = fg.data.synth_generate(config.n_clients, config.n_clusters, config.series_length,
                                    config.noise_sd, stream)
    return shards, [fg.data.make_windows(s, fcfg.history_len, fcfg.horizon, config.train_frac)
                    for s in shards]


def _wide_server(fg, workdir: Path, split: str = "train"):
    """The ``wide_server`` workload's first config, its client ids, their
    ``split`` windows and its initial round state, built on package ``fg``."""
    config = build_configs(fg, "wide_server", DEV_SEED, workdir)[0]
    shards, windows = _fleet(fg, config)
    ids = [s.client_id for s in shards]
    data = [w[split] for w in windows]
    state = fg.protocol.init_round_state(config.forecaster_config(), ids, config.master_seed)
    return config, ids, data, state


def setup(fg, workdir: Path):
    """Generate and window the ``wide_server`` fleet, the data half of its set-up."""
    config = build_configs(fg, "wide_server", DEV_SEED, workdir)[0]
    return lambda: _fleet(fg, config)


def _server(fg, workdir: Path):
    """A game aggregator with wide_server's 32 clients registered and a
    seeded (32, h) matrix of their head deltas."""
    config, ids, _, state = _wide_server(fg, workdir)
    rng = np.random.default_rng(0)
    head = fg.params.head_length(state.global_model.spec)
    server = fg.aggregator.init_aggregator(config.aggregator_config(), head, rng)
    fg.aggregator.register_client(server, ids, rng)
    return server, ids, rng.normal(scale=0.05, size=(len(ids), head))


def train_step(fg, workdir: Path):
    """Two meta steps on a copy of the ``_server`` aggregator, so the
    second reads the Adam moments the first wrote; returns both losses
    and the stepped parameters, read by name."""
    server, ids, deltas = _server(fg, workdir)

    def call():
        # a shallow copy, as run_round steps one
        state = copy.copy(server)
        losses = [fg.aggregator.train_step(state, ids, deltas) for _ in range(2)]
        arrays = (state.encoder_w, state.encoder_b, state.experts_w, state.gates)
        return losses, arrays, state.rows, state.adam_t
    return call


def aggregate_game(fg, workdir: Path):
    server, ids, deltas = _server(fg, workdir)
    return lambda: fg.aggregator.aggregate_game(server, ids, deltas)


def local_train(fg, workdir: Path):
    config, ids, data, state = _wide_server(fg, workdir)
    values = np.stack([state.client_models[c].values for c in ids])
    anchor = state.global_model.values

    def call():
        rngs = [np.random.default_rng(k) for k in range(len(ids))]
        return fg.forecaster.local_train(config.forecaster_config(), ids, values, data,
                                         anchor, rngs)
    return call


def evaluate(fg, workdir: Path):
    """Score the ``wide_server`` fleet's test windows with its initial models."""
    _, ids, data, state = _wide_server(fg, workdir, "test")
    test_data = dict(zip(ids, data))
    return lambda: fg.metrics.evaluate(state.client_models, test_data)


def grad_step(workload: str):
    """One stacked ``task_loss_and_gradient`` at the size of a benchmark
    workload's first config: each client's model, initialized from a
    stream of its own, on a seeded batch of ``batch_size`` windows."""
    def build(fg, workdir: Path):
        config = build_configs(fg, workload, DEV_SEED, workdir)[0]
        fcfg, n = config.forecaster_config(), config.n_clients
        values = np.stack([fg.forecaster.init_forecaster(fcfg, np.random.default_rng(k)).values
                           for k in range(n)])
        rng = np.random.default_rng(n)
        batch = rng.normal(size=(n, fcfg.batch_size, fcfg.history_len))
        targets = rng.normal(size=(n, fcfg.batch_size, fcfg.horizon))
        return lambda: fg.forecaster.task_loss_and_gradient(fcfg, values, batch, targets)
    return build


def experiment(workload: str):
    """One ``run_experiment`` on the first config of a benchmark workload;
    returns its round reports, evaluation and final round state: what the
    run writes, plus the final models."""
    def build(fg, workdir: Path):
        config = build_configs(fg, workload, DEV_SEED, workdir)[0]

        def call():
            result = fg.protocol.run_experiment(config)
            return result.reports, result.eval_report, result.state
        return call
    return build


# each target's builder, and its calls per timed sample: about 50 ms of
# work on 2 CPUs, as shorter samples spread too widely to compare.  An
# LSTM step's 20-call samples read A/A quartiles as wide as 0.92-1.09,
# so it takes 80 calls
TARGETS = {
    "train_step": (train_step, 20),
    "aggregate_game": (aggregate_game, 150),
    "local_train": (local_train, 8),
    "evaluate": (evaluate, 50),
    "setup": (setup, 20),
    "mlp_step": (grad_step("clustered_mlp"), 250),
    "lstm_step": (grad_step("lstm_fedavg"), 80),
    **{name: (experiment(name), 1) for name in ("clustered_mlp", "wide_server", "lstm_fedavg")},
}


# dataclass fields that hold a clock reading, which no two runs share
MEASURED = {"wall_time"}


def digest(value, h=None) -> str:
    """sha256 of what ``value`` holds: arrays by dtype, shape and bytes,
    dataclasses field by field (except ``MEASURED``), containers item by
    item, anything else by ``repr``.  Equal results of two copies of the
    package digest alike."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            if field.name in MEASURED:
                continue
            h.update(field.name.encode())
            digest(getattr(value, field.name), h)
    elif isinstance(value, dict):
        h.update(b"{%d" % len(value))
        for key, item in value.items():
            digest(key, h)
            digest(item, h)
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            digest(item, h)
    else:
        h.update(repr(value).encode())
    return h.hexdigest() if top else ""


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n) if n else 1.0


def _seconds(call, repeat: int) -> float:
    start = time.perf_counter()
    for _ in range(repeat):
        call()
    return time.perf_counter() - start


def ab_time(src_a: Path, src_b: Path, target: str, pairs: int = 40,
            repeat: int | None = None) -> dict:
    """Time ``target`` on the packages under ``src_a`` (A) and ``src_b`` (B).

    Raises RuntimeError, having timed nothing, if the two return
    different bytes.  Each of ``pairs`` (at least 2) times ``repeat``
    calls a side, the first side alternating between pairs; ``ratio_*``
    summarize B/A per pair, and ``a_s_per_call`` and ``b_s_per_call``
    are each side's median seconds a call.
    """
    if pairs < 2:
        raise ValueError(f"pairs must be at least 2 for quartiles, got {pairs}")
    build, default_repeat = TARGETS[target]
    repeat = repeat or default_repeat
    with tempfile.TemporaryDirectory(prefix="ab-time-") as tmp:
        calls = []
        for side, src in (("a", src_a), ("b", src_b)):
            (Path(tmp) / side).mkdir()
            calls.append(build(load_package(src, f"_ab_{side}_fedgame"), Path(tmp) / side))
        if digest(calls[0]()) != digest(calls[1]()):
            raise RuntimeError(f"{target}: the two trees return different bytes; nothing timed")
        samples = []
        for k in range(pairs):
            gc.collect()
            gc.disable()
            try:
                first, second = (0, 1) if k % 2 == 0 else (1, 0)
                times = {first: _seconds(calls[first], repeat)}
                times[second] = _seconds(calls[second], repeat)
            finally:
                gc.enable()
            samples.append((times[0], times[1]))
    ratios = [b / a for a, b in samples]
    wins, losses = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    q1, _, q3 = quantiles(ratios, n=4)
    return {"target": target, "pairs": pairs, "repeat": repeat, "same_output": True,
            "a_s_per_call": median(a for a, _ in samples) / repeat,
            "b_s_per_call": median(b for _, b in samples) / repeat,
            "ratio_median": median(ratios), "ratio_q1": q1, "ratio_q3": q3,
            "b_wins": wins, "sign_p": sign_test(wins, losses)}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.rstrip("\n")


def bench_path(directory: Path, tag: str, prefix: str = "BENCH") -> Path:
    """``directory/<prefix>_<tag>.json``; a ValueError for a tag that is not
    a plain name and a FileExistsError for a file that is already there."""
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", tag):
        raise ValueError(f"record tag must be letters, digits, '.', '_' or '-', got {tag!r}")
    path = Path(directory) / f"{prefix}_{tag}.json"
    if path.exists():
        raise FileExistsError(f"{path} exists; records are never overwritten")
    return path


def bench_record(results: list[dict], a_sha: str, b_sha: str, b_src_changes: list[str]) -> dict:
    """What ``BENCH_*.json`` holds: each target's result, the machine and
    both sides' trees.  B is commit ``b_sha`` plus ``b_src_changes``,
    the ``git status --porcelain`` lines of its ``src`` (none when B is
    exactly that commit)."""
    return {
        "tool": "tools/ab_time.py", "a_sha": a_sha, "b_sha": b_sha,
        "b_src_changes": b_src_changes, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "targets": {out["target"]: out for out in results},
    }


def write_record(path: Path, record: dict) -> None:
    """``record`` as strict JSON in a new file ``path``: a record holding a
    NaN or an infinity raises ValueError and writes nothing."""
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    with open(path, "x", encoding="utf-8") as f:
        f.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git commit, tag or branch to time against (side A)")
    parser.add_argument("--target", required=True, nargs="+", choices=sorted(TARGETS))
    parser.add_argument("--record", metavar="TAG",
                        help="also write the results to BENCH_<TAG>.json at the repo root")
    args = parser.parse_args(argv)
    path = bench_path(ROOT, args.record) if args.record is not None else None
    results = []
    with tempfile.TemporaryDirectory(prefix="ab-time-ref-") as tmp:
        ref = export_src(ROOT, args.ref, Path(tmp) / "ref")
        for target in args.target:
            out = ab_time(ref, ROOT / "src", target)
            print(f"{out['target']}: B/A median {out['ratio_median']:.4f} "
                  f"(quartiles {out['ratio_q1']:.4f}-{out['ratio_q3']:.4f}), "
                  f"B faster on {out['b_wins']} of {out['pairs']} pairs, "
                  f"sign-test p = {out['sign_p']:.3g}; "
                  f"{out['repeat']} call(s) a side per pair, outputs byte-identical",
                  flush=True)
            results.append(out)
    if path:
        changes = _git("status", "--porcelain", "--", "src").splitlines()
        write_record(path, bench_record(results, _git("rev-parse", "--verify",
                                                      f"{args.ref}^{{commit}}"),
                                        _git("rev-parse", "HEAD"), changes))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
