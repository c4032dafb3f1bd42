"""Timing and spans around fedgame's public calls, taken from outside.

Each wrapper replaces a function at the module attribute that the run
path looks it up through, and ``Patches.restore`` puts the original
back.  ``fedgame.protocol`` imports its collaborators by name, so
``fedgame.protocol.local_train`` is the attribute ``run_round`` calls
and ``fedgame.protocol.evaluate`` the one ``run_experiment`` calls.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

LAYERS = ("data", "forecaster", "aggregator", "params", "protocol", "metrics", "cli")
OPERATION_SPAN = "bench.operation"
# Counts that must repeat exactly across operations of one master seed.
COUNT_METRICS = (
    "data.windows", "forecaster.local_train_calls", "forecaster.grad_steps",
    "forecaster.with_params_calls", "aggregator.pairs_scored",
    "protocol.bytes_exchanged", "metrics.eval_windows", "cli.bytes_written",
)


class SetupDone(Exception):
    """Raised by RoundClock at the first round of a set-up probe."""


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class RoundClock:
    """Start, end and training windows consumed of every run_round call.

    This is the only instrumentation in untraced operations.  With
    ``probe`` set, the first round raises SetupDone instead of running,
    which ends a set-up probe at the point a full run starts round 0.
    """

    def __init__(self) -> None:
        self.rounds: list[tuple[float, float, int]] = []
        self.probe = False

    def wrap(self, run_round):
        def timed(state, hyper, aggregator, train_data):
            start = time.perf_counter()
            if self.probe:
                self.rounds.append((start, start, 0))
                raise SetupDone
            new_state, report = run_round(state, hyper, aggregator, train_data)
            end = time.perf_counter()
            samples = sum(
                len(train_data[cid]) * state.client_models[cid].config.local_epochs
                for cid in report.client_ids
            )
            self.rounds.append((start, end, samples))
            return new_state, report

        return timed


def _bytes_in(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def _pairs(head_deltas) -> int:
    n = len(head_deltas)
    return n * (n - 1)


# (owner, attribute, span name, counts taken from (args, result)).
# Call counts come from the spans themselves.
TRACED_CALLS = (
    ("protocol", "run_experiment", "protocol.run_experiment", None),
    ("protocol", "init_round_state", "protocol.init_round_state", None),
    ("protocol", "run_round", "protocol.run_round",
     lambda a, r: {"protocol.bytes_exchanged": r[1].upstream_bytes + r[1].downstream_bytes}),
    ("protocol", "load_csv", "data.load_csv", None),
    ("protocol", "synth_generate", "data.synth_generate", None),
    ("protocol", "make_windows", "data.make_windows",
     lambda a, r: {"data.windows": sum(len(d) for d in r.values())}),
    ("protocol", "init_forecaster", "forecaster.init_forecaster", None),
    ("protocol", "local_train", "forecaster.local_train", None),
    ("forecaster", "task_loss_and_gradient", "forecaster.task_loss_and_gradient", None),
    ("forecaster.ForecasterModel", "with_params", "forecaster.with_params", None),
    ("protocol", "compute_delta", "params.compute_delta", None),
    ("protocol", "add_scaled", "params.add_scaled", None),
    ("protocol", "mean_deltas", "params.mean_deltas", None),
    ("protocol", "scatter_head", "params.scatter_head", None),
    ("protocol", "init_aggregator", "aggregator.init_aggregator", None),
    ("protocol", "register_client", "aggregator.register_client", None),
    ("protocol", "train_step", "aggregator.train_step", None),
    ("protocol", "aggregate_game", "aggregator.aggregate_game",
     lambda a, r: {"aggregator.pairs_scored": _pairs(a[1])}),
    ("protocol", "aggregate_single_attention", "aggregator.aggregate_single_attention",
     lambda a, r: {"aggregator.pairs_scored": _pairs(a[1])}),
    ("protocol", "aggregate_mean", "aggregator.aggregate_mean", None),
    ("protocol", "evaluate", "metrics.evaluate",
     lambda a, r: {"metrics.eval_windows": sum(c.n for c in r.clients)}),
    ("cli", "write_run_outputs", "cli.write_run_outputs",
     lambda a, r: {"cli.bytes_written": _bytes_in(a[1])}),
)


def resolve(fedgame, path: str):
    owner = fedgame
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, operation id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def wrap(self, name: str, count=None):
        spans, stack = self.spans, self._stack

        def decorate(fn):
            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
                stack.append(len(spans))
                spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
                if count is not None:
                    self.counts[self._op].update(count(args, result))
                return result

            return traced

        return decorate

    def install(self, fedgame, patches: Patches) -> None:
        for owner, attr, name, count in TRACED_CALLS:
            patches.replace(resolve(fedgame, owner), attr, self.wrap(name, count))

    def operation(self, op_id: int, body):
        """Run ``body()`` as the root span of operation ``op_id``."""
        self._op = op_id
        self.counts[op_id] = Counter()
        try:
            return self.wrap(OPERATION_SPAN)(body)()
        finally:
            self._op = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def per_operation(tracer: Tracer) -> dict[int, dict]:
    """Per traced operation: inclusive time, self time, calls and
    single-call durations by span name, plus the boundary counts."""
    ops: dict[int, dict] = defaultdict(lambda: {
        "total_s": Counter(), "self_s": Counter(), "calls": Counter(),
        "durations": defaultdict(list),
    })
    for (name, start, end, _, op), own in zip(tracer.spans, self_times(tracer.spans)):
        entry = ops[op]
        entry["total_s"][name] += end - start
        entry["self_s"][name] += own
        entry["calls"][name] += 1
        entry["durations"][name].append(end - start)
    for op, entry in ops.items():
        entry["counts"] = tracer.counts.get(op, Counter())
    return dict(ops)


def operation_metrics(entry: dict) -> dict[str, float]:
    """Per-layer metric values of one traced operation."""
    total, calls, counts = entry["total_s"], entry["calls"], entry["counts"]
    layer_self = Counter()
    for name, own in entry["self_s"].items():
        layer_self[name.split(".")[0]] += own
    out = {
        "data.load_csv_s": total["data.load_csv"],
        "data.synth_generate_s": total["data.synth_generate"],
        "data.make_windows_s": total["data.make_windows"],
        "data.windows": counts["data.windows"],
        "forecaster.local_train_s": total["forecaster.local_train"],
        "forecaster.local_train_calls": calls["forecaster.local_train"],
        "forecaster.grad_steps": calls["forecaster.task_loss_and_gradient"],
        "forecaster.with_params_s": total["forecaster.with_params"],
        "forecaster.with_params_calls": calls["forecaster.with_params"],
        "aggregator.train_step_s": total["aggregator.train_step"],
        "aggregator.aggregate_s": (total["aggregator.aggregate_game"]
                                   + total["aggregator.aggregate_single_attention"]
                                   + total["aggregator.aggregate_mean"]),
        "aggregator.pairs_scored": counts["aggregator.pairs_scored"],
        "params.compute_delta_s": total["params.compute_delta"],
        "params.add_scaled_s": total["params.add_scaled"],
        "params.mean_deltas_s": total["params.mean_deltas"],
        "params.scatter_head_s": total["params.scatter_head"],
        "protocol.run_round_s": total["protocol.run_round"],
        "protocol.round_self_s": entry["self_s"]["protocol.run_round"],
        "protocol.bytes_exchanged": counts["protocol.bytes_exchanged"],
        "metrics.evaluate_s": total["metrics.evaluate"],
        "metrics.eval_windows": counts["metrics.eval_windows"],
        "cli.write_outputs_s": total["cli.write_run_outputs"],
        "cli.bytes_written": counts["cli.bytes_written"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.accounted_frac"] = (
        sum(layer_self[layer] for layer in LAYERS) / total[OPERATION_SPAN])
    return out


def layer_metrics(ops: dict[int, dict], master_seed_of: dict[int, int]) -> dict[str, float]:
    """Times are medians over traced operations, per-call latencies are
    pooled over them, and each count is the mean over master seeds of
    that seed's count (which check_counts requires to repeat exactly)."""
    per_op = {op: operation_metrics(entry) for op, entry in ops.items()}
    out = {name: median(m[name] for m in per_op.values()) for name in next(iter(per_op.values()))}
    by_seed = {}
    for op, values in per_op.items():
        by_seed.setdefault(master_seed_of[op], values)
    for name in COUNT_METRICS:
        out[name] = sum(values[name] for values in by_seed.values()) / len(by_seed)

    def pooled(name):
        values = [d for entry in ops.values() for d in entry["durations"][name]]
        return median(values) if values else 0.0

    out["forecaster.grad_step_us_p50"] = pooled("forecaster.task_loss_and_gradient") * 1e6
    out["aggregator.train_step_ms_p50"] = pooled("aggregator.train_step") * 1e3
    return out
