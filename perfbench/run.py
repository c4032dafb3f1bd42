#!/usr/bin/env python3
"""fedgame benchmark: one workload in this process, one experiment at a time.

    python3 perfbench/run.py --workload clustered_mlp --seed 0 --seconds 35 --trace 0

One operation is what ``fedgame run`` does: ``run_experiment(config)``
followed by ``fedgame.cli.write_run_outputs`` into a scratch directory.
Operations run back to back (a closed loop with one caller), cycling
over the workload's master seeds, for ``--seconds`` and at least until
every seed has run twice and 100 rounds are pooled.  Every operation's
``rounds.jsonl`` and ``eval.json`` must match the other operations of
its master seed byte for byte, and its score must be finite.

``--trace 0`` reports the end-to-end metrics, measured with one clock
around ``run_round`` as the only instrumentation.  ``--trace 1``
alternates untraced and traced cycles of operations and reports the
per-layer metrics from spans around fedgame's public calls.  The last
line of standard output is one JSON object; the full record, and in
traced runs every span, goes to ``perfbench/out/``.  README.md in this
directory lists the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import fmean, median, quantiles

from spans import COUNT_METRICS, Patches, RoundClock, SetupDone, Tracer, layer_metrics, \
    operation_metrics, per_operation
from workloads import DEV_SEED, HELD_OUT_SEED, WORKLOADS, build_configs, master_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread (nproc is the ceiling): runs stay steady on a shared
# machine and every reduction keeps one order.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_ROUNDS = 100          # round_s_p90 needs ten samples beyond it
MIN_VISITS = 2            # each master seed runs at least twice: the byte check needs a pair
PROBES_PER_SEED = 5       # extra set-up samples, stopped at round 0
HARD_CAP_S = 150.0        # stop starting operations; the process must end within 180 s

END_TO_END = {
    "run_s": "s", "setup_s": "s", "round_s_p50": "s", "round_s_p90": "s",
    "samples_per_s": "1/s", "macro_qs": "kWh", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_us_p50": "us", "_ms_p50": "ms", "_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def import_fedgame():
    """fedgame from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fedgame.cli
        import fedgame.data
        import fedgame.forecaster
        import fedgame.protocol
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fedgame from {src}: {exc}")
    if Path(fedgame.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: fedgame was imported from {fedgame.__file__}, not {src}")
    return fedgame


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    def __init__(self, fedgame, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, cap: float) -> None:
        self.fedgame = fedgame
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.cap = cap
        self.clock = RoundClock()
        self.tracer = Tracer()
        self.failures: list[str] = []

    def fail(self, op: dict, message: str) -> None:
        op["failed"] = True
        text = (f"FAILED workload={self.workload} seed={self.seed} "
                f"master_seed={op['master_seed']} run={op['index']}: {message}")
        self.failures.append(text)
        print(text, file=sys.stderr)

    def probe_setup(self, config) -> float:
        """Seconds from entering run_experiment to the start of round 0."""
        self.clock.rounds = []
        self.clock.probe = True
        start = time.perf_counter()
        try:
            self.fedgame.protocol.run_experiment(config)
        except SetupDone:
            pass
        finally:
            self.clock.probe = False
        return self.clock.rounds[0][0] - start

    def operation(self, index: int, config, traced: bool) -> dict:
        fedgame = self.fedgame
        out_dir = self.work / f"op{index}"
        op = {"index": index, "master_seed": config.master_seed, "traced": traced,
              "failed": False}

        def body():
            result = fedgame.protocol.run_experiment(config)
            fedgame.cli.write_run_outputs(result, out_dir, config)
            return result

        self.clock.rounds = []
        patches = Patches()
        try:
            if traced:
                self.tracer.install(fedgame, patches)
            start = time.perf_counter()
            result = self.tracer.operation(index, body) if traced else body()
            op["run_s"] = time.perf_counter() - start
        except Exception:  # an operation that raises is counted, and the loop goes on
            self.fail(op, "raised\n" + traceback.format_exc())
            return op
        finally:
            patches.restore()
        try:
            op["rounds"] = self.clock.rounds
            op["setup_s"] = self.clock.rounds[0][0] - start if self.clock.rounds else None
            op["macro_qs"] = result.eval_report.macro_qs
            rounds_bytes = (out_dir / "rounds.jsonl").read_bytes()
            eval_bytes = (out_dir / "eval.json").read_bytes()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        op["digest"] = hashlib.sha256(rounds_bytes + b"\0" + eval_bytes).hexdigest()
        if not math.isfinite(op["macro_qs"]):
            self.fail(op, f"macro_qs is {op['macro_qs']}")
        lines = rounds_bytes.count(b"\n")
        if lines != config.rounds:
            self.fail(op, f"rounds.jsonl has {lines} lines, expected {config.rounds}")
        return op

    def check_reruns(self, ops: list[dict]) -> None:
        """Byte-identical outputs per master seed, traced or not."""
        first: dict[int, dict] = {}
        for op in ops:
            if "digest" not in op:
                continue
            ref = first.setdefault(op["master_seed"], op)
            if op["digest"] != ref["digest"]:
                self.fail(op, f"rounds.jsonl + eval.json differ from run {ref['index']} "
                              f"(sha256 {op['digest'][:12]} vs {ref['digest'][:12]})")

    def check_counts(self, ops: list[dict], traced_ops: dict[int, dict]) -> None:
        """Exact counts per master seed across traced operations."""
        first: dict[int, tuple[int, dict]] = {}
        for op in ops:
            if op["index"] not in traced_ops:
                continue
            counts = {k: v for k, v in operation_metrics(traced_ops[op["index"]]).items()
                      if k in COUNT_METRICS}
            index, ref = first.setdefault(op["master_seed"], (op["index"], counts))
            diff = {k: (counts[k], ref[k]) for k in COUNT_METRICS if counts[k] != ref[k]}
            if diff:
                self.fail(op, f"counts differ from run {index}: {diff}")

    def run(self) -> dict:
        fedgame = self.fedgame
        configs = build_configs(fedgame, self.workload, self.seed, self.work)
        patches = Patches()
        patches.replace(fedgame.protocol, "run_round", self.clock.wrap)
        try:
            setups = [self.probe_setup(c) for _ in range(PROBES_PER_SEED) for c in configs]
            cycles = MIN_VISITS * (2 if self.trace else 1)
            ops: list[dict] = []
            started = time.perf_counter()
            while True:
                now = time.perf_counter()
                pooled = sum(len(op.get("rounds", ())) for op in ops if not op["traced"])
                floor_met = (len(ops) >= cycles * len(configs)
                             and (self.trace or pooled >= MIN_ROUNDS))
                if (now - started >= self.seconds and floor_met) or now >= self.cap:
                    break
                index = len(ops)
                cycle, k = divmod(index, len(configs))
                ops.append(self.operation(index, configs[k], self.trace and cycle % 2 == 1))
        finally:
            patches.restore()

        self.check_reruns(ops)
        traced_ops = per_operation(self.tracer)
        self.check_counts(ops, traced_ops)
        return self.report(configs, setups, ops, traced_ops)

    def report(self, configs, setups, ops, traced_ops) -> dict:
        plain = [op for op in ops if not op["traced"] and "run_s" in op]
        rounds = [r for op in plain for r in op["rounds"]]
        durations = [end - start for start, end, _ in rounds]
        setups = setups + [op["setup_s"] for op in plain if op["setup_s"] is not None]
        seed_qs = {}
        for op in ops:
            if "macro_qs" in op:
                seed_qs.setdefault(op["master_seed"], op["macro_qs"])
        failed = sum(op["failed"] for op in ops)
        correct = failed == 0 and len(seed_qs) == len(configs) and bool(durations)

        metrics: dict[str, float] = {}
        if plain and durations:
            metrics.update({
                "run_s": median(op["run_s"] for op in plain),
                "setup_s": median(setups),
                "round_s_p50": median(durations),
                "round_s_p90": quantiles(durations, n=10, method="inclusive")[8],
                "samples_per_s": sum(s for _, _, s in rounds) / sum(durations),
                "macro_qs": fmean(seed_qs.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
        traced_run_s = [op["run_s"] for op in ops if op["traced"] and "run_s" in op]
        if self.trace and traced_ops and traced_run_s and plain:
            metrics.update(layer_metrics(
                traced_ops, {op["index"]: op["master_seed"] for op in ops}))
            metrics["trace.overhead_frac"] = median(traced_run_s) / metrics["run_s"] - 1.0
        elif self.trace:
            correct = False

        samples = {
            "operations": len(plain),
            "traced_operations": len(traced_run_s),
            "rounds": len(durations),
            "setups": len(setups),
            "grad_steps_pooled": sum(
                len(e["durations"]["forecaster.task_loss_and_gradient"])
                for e in traced_ops.values()),
            "train_steps_pooled": sum(
                len(e["durations"]["aggregator.train_step"]) for e in traced_ops.values()),
        }
        return {
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "failed_frac": failed / len(ops) if ops else 1.0,
            "metrics": metrics,
            "samples": samples,
            "macro_qs_by_master_seed": {str(k): v for k, v in sorted(seed_qs.items())},
            "failures": self.failures,
        }


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "master_seeds": master_seeds(seed),
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "config": WORKLOADS[workload],
    }


def print_human(report: dict, names: list[str], units) -> None:
    for name in names:
        print(f"{name:32s} {report['metrics'][name]:.6g} {units(name)}")
    print(f"{'failed_frac':32s} {report['failed_frac']:.6g} "
          f"({report['failed']} of {report['attempted']} operations)")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in report["samples"].items()))


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, op) in enumerate(tracer.spans):
            handle.write(json.dumps([index, name, start, end, parent, op]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED,
                        help=f"workload seed (default {DEV_SEED}; confirm claims on the "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    cap = time.perf_counter() + HARD_CAP_S
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    fedgame = import_fedgame()

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    bench = Bench(fedgame, args.workload, args.seed, args.seconds, bool(args.trace), work, cap)
    try:
        report = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    stem.with_suffix(".json").write_text(
        json.dumps({"record": record, **report}, indent=2, sort_keys=True) + "\n")
    if args.trace:
        write_spans(bench.tracer, stem.with_name(stem.name + "-spans.jsonl"))

    metrics = report["metrics"]
    if args.trace:
        names = [n for n in metrics if n not in END_TO_END]
        units = per_layer_unit
    else:
        names = list(END_TO_END)
        units = END_TO_END.get
    if not all(name in metrics for name in names) or not names:
        report["correct"] = False
    print_human(report, [n for n in names if n in metrics], units)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units(n)} for n in names if n in metrics},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
