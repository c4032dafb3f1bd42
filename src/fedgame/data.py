"""Series ingestion, windowing, normalization, synthetic generation.

CSV input uses the fixed schema ``timestamp,station_id,demand_kwh``.
Gaps in a station's timeline are filled with zero demand: an absent
charging record means nobody charged, not a broken sensor.

The synthetic generator produces clustered clients so experiments have
ground-truth neighborhoods: each cluster follows its own two-sinusoid
archetype and clients deviate from it in proportion to ``noise_sd``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import ConfigError, FormatError, StructuralError

CSV_COLUMNS = ("timestamp", "station_id", "demand_kwh")
STD_FLOOR = 1e-8
DEFAULT_SPLITS = (0.7, 0.1, 0.2)
SPLIT_NAMES = ("train", "val", "test")


@dataclass
class SeriesShard:
    """One client's raw demand series at a fixed sampling interval."""

    client_id: str
    values: np.ndarray
    interval_minutes: float = 5.0
    cluster_label: int | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.values)):
            raise StructuralError(f"shard {self.client_id!r} contains non-finite values")


@dataclass
class WindowedDataset:
    """Normalized stride-1 windows with the stats to undo the scaling."""

    inputs: np.ndarray
    targets: np.ndarray
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise StructuralError("inputs and targets disagree on window count")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values) * self.std + self.mean


def _parse_timestamp(raw: str, line_no: int) -> datetime:
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable timestamp {raw!r}") from exc


def _parse_demand(raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable demand_kwh {raw!r}") from exc
    if not math.isfinite(value):
        raise FormatError(f"line {line_no}: non-finite demand_kwh {raw!r}")
    return value


def _infer_interval(stamps: list[datetime]) -> timedelta:
    diffs = [b - a for a, b in zip(stamps, stamps[1:]) if b > a]
    if not diffs:
        return timedelta(minutes=5)
    return min(diffs)


def load_csv(path) -> list[SeriesShard]:
    """One shard per station, time-sorted, gaps filled with zeros.

    The sampling interval is inferred per station as the smallest
    positive timestamp difference; larger gaps must be whole multiples
    of it, and no single gap may fill more zeros than the station has
    rows (a mistyped year would otherwise expand into a series of
    millions of zeros).  A station with two rows at one timestamp is
    rejected.  The file must be UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {line_no}: not valid UTF-8 ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    for column in CSV_COLUMNS:
        if column not in header:
            raise FormatError(f"missing required column {column!r}")
    rows: dict[str, list[tuple[datetime, float, int]]] = {}
    for line_no, row in enumerate(reader, start=2):
        station = (row["station_id"] or "").strip()
        if not station:
            raise FormatError(f"line {line_no}: empty station_id")
        stamp = _parse_timestamp(row["timestamp"] or "", line_no)
        demand = _parse_demand(row["demand_kwh"] or "", line_no)
        rows.setdefault(station, []).append((stamp, demand, line_no))

    shards = []
    for station in sorted(rows):
        entries = sorted(rows[station], key=lambda item: item[0])
        stamps = [e[0] for e in entries]
        interval = _infer_interval(stamps)
        positions = [0]
        for idx in range(1, len(entries)):
            stamp, _, line_no = entries[idx]
            gap = stamp - stamps[idx - 1]
            if not gap:
                raise FormatError(
                    f"line {line_no}: repeats timestamp {stamp.isoformat()} "
                    f"of line {entries[idx - 1][2]} for station {station!r}"
                )
            steps = gap / interval
            if abs(steps - round(steps)) > 1e-6:
                raise FormatError(
                    f"line {line_no}: timestamp gap {gap} is not a multiple "
                    f"of the {interval} interval for station {station!r}"
                )
            steps = int(round(steps))
            if steps - 1 > len(entries):
                raise FormatError(
                    f"line {line_no}: timestamp gap {gap} would fill {steps - 1} zeros, "
                    f"more than the {len(entries)} rows of station {station!r}"
                )
            positions.append(positions[-1] + steps)
        values = np.zeros(positions[-1] + 1)
        values[positions] = [e[1] for e in entries]
        shards.append(
            SeriesShard(
                client_id=station,
                values=values,
                interval_minutes=interval.total_seconds() / 60.0,
            )
        )
    return shards


def _window_segment(segment: np.ndarray, h: int, p: int, mean: float, std: float):
    n = max(segment.size - h - p + 1, 0)
    normalized = (segment - mean) / std
    # window i is normalized[i : i + h + p]; filling one column (offset)
    # at a time takes h + p vectorized copies instead of one per window
    inputs, targets = np.empty((n, h)), np.empty((n, p))
    for k in range(h):
        inputs[:, k] = normalized[k : k + n]
    for k in range(p):
        targets[:, k] = normalized[h + k : h + k + n]
    return inputs, targets


def make_windows(
    shard: SeriesShard,
    history_len: int,
    horizon: int,
    splits: tuple[float, float, float] = DEFAULT_SPLITS,
) -> dict[str, WindowedDataset]:
    """Chronological train/val/test windowing with train-only z-scoring.

    Splits cut the series by index, windows never straddle a boundary,
    and the z-score stats come from the train segment alone (std floored
    at 1e-8 so constant series normalize to zeros).  A segment too short
    for a single window yields an empty dataset, without a warning:
    ``run_experiment`` reads only ``train`` and ``test`` and rejects an
    empty one with a ``ConfigError`` that names the clients.
    """
    if history_len < 1 or horizon < 1:
        raise ConfigError("history_len and horizon must be >= 1")
    if len(splits) != len(SPLIT_NAMES) or any(f < 0 for f in splits):
        raise ConfigError("splits must be three non-negative fractions")
    if abs(sum(splits) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(splits)}")

    n = shard.values.size
    n_train = int(math.floor(splits[0] * n))
    n_val = int(math.floor(splits[1] * n))
    segments = {
        "train": shard.values[:n_train],
        "val": shard.values[n_train : n_train + n_val],
        "test": shard.values[n_train + n_val :],
    }
    train_seg = segments["train"]
    mean = float(train_seg.mean()) if train_seg.size else 0.0
    std = max(float(train_seg.std()), STD_FLOOR) if train_seg.size else 1.0

    out = {}
    for name in SPLIT_NAMES:
        inputs, targets = _window_segment(segments[name], history_len, horizon, mean, std)
        out[name] = WindowedDataset(inputs=inputs, targets=targets, mean=mean, std=std)
    return out


def _archetype(cluster: int, length: int, n_clusters: int) -> np.ndarray:
    """Two-sinusoid daily shape; clusters differ in period, phase, level."""
    t = np.arange(length, dtype=np.float64)
    period = 48.0 / (2 * cluster + 1)
    phase = 2.0 * math.pi * cluster / max(n_clusters, 1)
    amplitude = 1.0 + 0.25 * cluster
    base = (
        amplitude * np.sin(2.0 * math.pi * t / period + phase)
        + 0.5 * amplitude * np.sin(4.0 * math.pi * t / period + 2.0 * phase)
        + 1.5 * amplitude
    )
    return np.maximum(base, 0.0)


def synth_generate(
    n_clients: int,
    n_clusters: int,
    length: int,
    noise_sd: float,
    seed: int | np.random.Generator,
) -> list[SeriesShard]:
    """Clustered synthetic demand series with ground-truth labels.

    Client i belongs to cluster i mod n_clusters.  Each client scales
    its cluster archetype by a jitter factor and adds Gaussian noise,
    both proportional to ``noise_sd``, then clips at zero; noise_sd = 0
    therefore makes all clients of a cluster identical.
    """
    if n_clients < 1 or length < 1:
        raise ConfigError("n_clients and length must be >= 1")
    if not 1 <= n_clusters <= n_clients:
        raise ConfigError("need 1 <= n_clusters <= n_clients")
    if noise_sd < 0:
        raise ConfigError("noise_sd must be >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    shards = []
    for i in range(n_clients):
        cluster = i % n_clusters
        base = _archetype(cluster, length, n_clusters)
        jitter = 1.0 + noise_sd * rng.uniform(-0.5, 0.5)
        noise = noise_sd * rng.standard_normal(length)
        values = np.maximum(jitter * base + noise, 0.0)
        shards.append(
            SeriesShard(
                client_id=f"client{i:02d}",
                values=values,
                interval_minutes=5.0,
                cluster_label=cluster,
            )
        )
    return shards


def shards_to_csv(shards: list[SeriesShard], path, start: datetime | None = None) -> None:
    """Write shards in the input CSV schema (cluster labels are not kept)."""
    start = start or datetime(2024, 1, 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for shard in shards:
            step = timedelta(minutes=shard.interval_minutes)
            for idx, value in enumerate(shard.values):
                writer.writerow(
                    [(start + idx * step).isoformat(), shard.client_id, repr(float(value))]
                )
