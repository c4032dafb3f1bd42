"""Command-line entry point: config parsing, commands, report files.

Configs are flat JSON objects.  Validation is exhaustive: every
problem is reported at once and unknown or repeated keys are rejected,
so a typo cannot silently fall back to a default.  All output files are written
deterministically; re-running an emitted effective config reproduces
them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .data import shards_to_csv, synth_generate
from .errors import ConfigError, FedGameError
from .protocol import (
    PERSONALIZED_KINDS,
    ExperimentConfig,
    RunResult,
    round_traffic,
    run_experiment,
    seed_stream,
)

OUTPUT_DIR_ENV = "FEDGAME_OUTPUT_DIR"

def config_from_dict(raw: dict) -> tuple[ExperimentConfig | None, list[str]]:
    """Validate a parsed JSON object; returns (config, errors).

    Unknown keys come first, then every problem the config reports.
    """
    if not isinstance(raw, dict):
        return None, ["config must be a JSON object"]
    known = ExperimentConfig.__dataclass_fields__
    errors = [f"unknown key {key!r}" for key in raw if key not in known]
    try:
        config = ExperimentConfig(**{k: v for k, v in raw.items() if k in known})
    except ConfigError as exc:
        return None, errors + exc.problems
    return (None, errors) if errors else (config, [])


def load_config(
    path: str, overrides: dict | None = None
) -> tuple[ExperimentConfig | None, list[str]]:
    """Read and validate a config file; ``overrides`` replace file keys
    before validation, so they are checked like file values.  A key
    given twice in the file is an error, reported with the others."""
    repeated: list[str] = []

    def unique_keys(pairs):
        keys = [key for key, _ in pairs]
        repeated.extend(f"key {key!r} appears more than once"
                        for key in dict.fromkeys(keys) if keys.count(key) > 1)
        return dict(pairs)

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as exc:
        return None, [f"cannot read config file: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"config is not valid JSON: {exc}"]
    if isinstance(raw, dict) and overrides:
        raw = {**raw, **overrides}
    config, errors = config_from_dict(raw)
    return (None, repeated + errors) if repeated else (config, errors)


# every field by name; JSON writes the tuples as lists
config_to_dict = asdict


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_fields(values) -> dict[str, str]:
    """Each string as ``_write_csv`` writes it inside a row, quoted when it must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    out = {}
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        # the second of two fields: a row of one empty field would be quoted
        writer.writerow(["", value])
        out[value] = buffer.getvalue()[1:-1]
    return out


def _write_attention(path: Path, reports) -> None:
    """attention.csv: one ``round,i,j,w_ij`` row per off-diagonal entry,
    the same bytes as ``_write_csv`` with ``repr`` of each weight."""
    quoted = _csv_fields({cid for report in reports for cid in report.client_ids})
    lines = ["round,i,j,w_ij\n"]
    for report in reports:
        ids = [quoted[cid] for cid in report.client_ids]
        for i, row in enumerate(report.attention.tolist()):
            head = f"{report.round_index},{ids[i]},"
            del row[i]
            lines.extend([f"{head}{dst},{w!r}\n" for dst, w in zip(ids[:i] + ids[i + 1 :], row)])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("".join(lines))


def write_run_outputs(result: RunResult, out_dir: Path, config: ExperimentConfig) -> None:
    """rounds.jsonl, eval.json, eval.csv, attention.csv, config.json."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "rounds.jsonl", "w", encoding="utf-8") as handle:
        for report in result.reports:
            handle.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    _json_dump(result.eval_report.to_dict(), out_dir / "eval.json")
    rows = result.eval_report.csv_rows()
    _write_csv(
        out_dir / "eval.csv",
        ["client_id", "qs", "mil", "icp", "n"],
        [[r["client_id"], repr(r["qs"]), repr(r["mil"]), repr(r["icp"]), r["n"]] for r in rows],
    )
    _write_attention(out_dir / "attention.csv", result.reports)
    _json_dump(config_to_dict(config), out_dir / "config.json")


def cmd_run(config: ExperimentConfig, out_dir: Path) -> int:
    result = run_experiment(config)
    write_run_outputs(result, out_dir, config)
    print(f"wrote {out_dir / 'rounds.jsonl'} and evaluation reports")
    print(f"macro qs={result.eval_report.macro_qs:.6f} "
          f"mil={result.eval_report.macro_mil:.6f} "
          f"icp={result.eval_report.macro_icp:.6f}")
    return 0


def cmd_ablate(config: ExperimentConfig, out_dir: Path) -> int:
    """Same seeds per method; one comparison row per aggregator kind."""
    rows = []
    for kind in config.baselines:
        result = run_experiment(config, kind)
        report = result.eval_report
        rows.append([kind, repr(report.macro_qs), repr(report.macro_mil),
                     repr(report.macro_icp)])
        print(f"{kind:18s} qs={report.macro_qs:.6f} "
              f"mil={report.macro_mil:.6f} icp={report.macro_icp:.6f}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "ablation.csv", ["method", "qs", "mil", "icp"], rows)
    _json_dump(config_to_dict(config), out_dir / "config.json")
    print(f"wrote {out_dir / 'ablation.csv'}")
    return 0


def comm_summary(config: ExperimentConfig) -> dict:
    """Closed-form per-round traffic for the configured model.

    Published parameter counts, when provided, replace the counts
    derived from the layer layout, so externally reported model sizes
    can be checked without rebuilding the exact architecture.
    """
    total, head = config.param_counts()
    kind = config.aggregator_kind
    traffic = round_traffic(config.n_clients, total, head, kind)
    percent = 0.0
    if kind in PERSONALIZED_KINDS:
        # the published overhead: head share rounded to 4 places, halved
        percent = round(round(head / total, 4) / 2.0 * 100.0, 6)
    return {
        "aggregator_kind": kind,
        "n_clients": config.n_clients,
        "total_params": int(total),
        "head_params": int(head),
        "upstream_params": int(traffic["upstream"]),
        "downstream_params": int(traffic["downstream"]),
        "ratio": traffic["ratio"],
        "overhead_percent": percent,
    }


def cmd_comm(config: ExperimentConfig) -> int:
    print(json.dumps(comm_summary(config), sort_keys=True, indent=2))
    return 0


def cmd_synth(config: ExperimentConfig, out_dir: Path) -> int:
    shards = synth_generate(
        config.n_clients, config.n_clusters, config.series_length,
        config.noise_sd, seed_stream(config.master_seed, "data"),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "synth.csv"
    shards_to_csv(shards, path)
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgame",
        description="Personalized federated forecasting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "run one experiment and write round and evaluation reports",
        "ablate": "run every configured baseline on the same seeds",
        "comm": "print per-round communication cost for the configured model",
        "synth": "emit the configured synthetic dataset as CSV",
    }
    for name, text in descriptions.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("config", help="path to a JSON config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override master_seed from the config")
        cmd.add_argument("--output-dir", default=None,
                         help=f"override output directory (also {OUTPUT_DIR_ENV})")
    return parser


def _config_errors(errors: list[str]) -> int:
    print(f"config has {len(errors)} error(s):", file=sys.stderr)
    for error in errors:
        print(f"  - {error}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    out_override = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if out_override:
        overrides["output_dir"] = out_override
    config, errors = load_config(args.config, overrides)
    if errors:
        return _config_errors(errors)
    out_dir = Path(config.output_dir)

    try:
        if args.command == "run":
            return cmd_run(config, out_dir)
        if args.command == "ablate":
            return cmd_ablate(config, out_dir)
        if args.command == "comm":
            return cmd_comm(config)
        return cmd_synth(config, out_dir)
    except ConfigError as exc:
        # a fact known only from the data, such as a series too short to window
        return _config_errors(exc.problems)
    except FedGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
