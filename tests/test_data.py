"""CSV ingestion, windowing, splits, and the synthetic generator."""

import csv
import io
import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from fedgame.data import (
    CHUNK_ROWS,
    SeriesShard,
    denormalize,
    load_csv,
    make_windows,
    shards_to_csv,
    synth_generate,
)
from fedgame.errors import ConfigError, FormatError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_two_stations(tmp_path):
    path = write(tmp_path / "two.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:10:00,a,3.0\n"
        "2024-01-01T00:00:00,b,4.0\n"
        "2024-01-01T00:05:00,b,5.0\n"
        "2024-01-01T00:10:00,b,6.0\n"
    ))
    shards = load_csv(path)
    assert [s.client_id for s in shards] == ["a", "b"]
    np.testing.assert_array_equal(shards[0].values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(shards[1].values, [4.0, 5.0, 6.0])


def test_load_csv_sorts_out_of_order_rows(tmp_path):
    path = write(tmp_path / "ooo.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:10:00,a,3.0\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
    ))
    shards = load_csv(path)
    np.testing.assert_array_equal(shards[0].values, [1.0, 2.0, 3.0])


def test_load_csv_rejects_duplicate_timestamp(tmp_path):
    path = write(tmp_path / "dup.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:05:00,b,7.0\n"
        "2024-01-01T00:05:00,a,2.5\n"
        "2024-01-01T00:10:00,a,3.0\n"
    ))
    with pytest.raises(FormatError, match=r"line 5: .*line 3 .*'a'"):
        load_csv(path)


def test_load_csv_fills_single_gap_with_zero(tmp_path):
    path = write(tmp_path / "gap.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:15:00,a,4.0\n"
    ))
    shards = load_csv(path)
    np.testing.assert_array_equal(shards[0].values, [1.0, 2.0, 0.0, 4.0])


def test_load_csv_fills_gap_as_long_as_the_station(tmp_path):
    path = write(tmp_path / "gap3.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:25:00,a,3.0\n"
    ))
    shards = load_csv(path)
    np.testing.assert_array_equal(shards[0].values, [1.0, 2.0, 0.0, 0.0, 0.0, 3.0])


def test_load_csv_rejects_mistyped_year_gap_with_line_number(tmp_path):
    path = write(tmp_path / "year.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2025-01-01T00:10:00,a,3.0\n"
        "2024-01-01T00:15:00,a,4.0\n"
    ))
    # 00:15 to 00:10 a (leap) year later is 105407 steps of 5 minutes
    with pytest.raises(FormatError, match=r"line 4: .* 105406 zeros, more than the 4 rows"):
        load_csv(path)


def test_load_csv_missing_column_names_it(tmp_path):
    path = write(tmp_path / "m.csv", "timestamp,station_id\n2024-01-01T00:00:00,a\n")
    with pytest.raises(FormatError, match="demand_kwh"):
        load_csv(path)


def test_load_csv_bad_timestamp_reports_line_number(tmp_path):
    path = write(tmp_path / "bad.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "not-a-time,a,2.0\n"
    ))
    with pytest.raises(FormatError, match="line 3"):
        load_csv(path)


def test_load_csv_bad_value_reports_line_number(tmp_path):
    path = write(tmp_path / "badval.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,oops\n"
    ))
    with pytest.raises(FormatError, match="line 2"):
        load_csv(path)


def test_load_csv_rejects_fractional_interval_gap(tmp_path):
    path = write(tmp_path / "frac.csv", (
        "timestamp,station_id,demand_kwh\n"
        "2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:12:30,a,3.0\n"
    ))
    with pytest.raises(FormatError):
        load_csv(path)


def test_load_csv_rejects_non_utf8_bytes_with_line_number(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(
        b"timestamp,station_id,demand_kwh\n"
        b"2024-01-01T00:00:00,a,1.0\n"
        b"2024-01-01T00:05:00,a,2.\xff\n"
    )
    with pytest.raises(FormatError, match="^line 3: not valid UTF-8"):
        load_csv(str(path))


def test_csv_files_are_utf8_whatever_the_locale(tmp_path):
    shards = [SeriesShard("station-\u00e9", np.array([1.0, 2.0]))]
    path = tmp_path / "utf8.csv"
    shards_to_csv(shards, path)
    assert b"station-\xc3\xa9" in path.read_bytes()
    assert [s.client_id for s in load_csv(str(path))] == ["station-\u00e9"]


def test_csv_round_trip_preserves_values(tmp_path):
    shards = synth_generate(3, 2, 50, 0.2, 9)
    path = tmp_path / "rt.csv"
    shards_to_csv(shards, path)
    loaded = load_csv(str(path))
    assert [s.client_id for s in loaded] == [s.client_id for s in shards]
    for original, read in zip(shards, loaded):
        np.testing.assert_array_equal(read.values, original.values)


def _ref_parse_timestamp(raw, line_no):
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable timestamp {raw!r}") from exc


def _ref_parse_demand(raw, line_no):
    try:
        value = float(raw)
    except ValueError as exc:
        raise FormatError(f"line {line_no}: unparseable demand_kwh {raw!r}") from exc
    if not math.isfinite(value):
        raise FormatError(f"line {line_no}: non-finite demand_kwh {raw!r}")
    return value


def ref_load_csv(path):
    """The row-at-a-time loader that ``load_csv`` replaced, kept as its
    oracle: a DictReader, one (datetime, float, line) tuple per row and
    timedelta gaps.  It numbers records rather than physical lines, so
    its messages are only right for files without blank lines or quoted
    newlines."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"line {line_no}: not valid UTF-8 ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    for column in ("timestamp", "station_id", "demand_kwh"):
        if column not in header:
            raise FormatError(f"missing required column {column!r}")
    rows = {}
    for line_no, row in enumerate(reader, start=2):
        station = (row["station_id"] or "").strip()
        if not station:
            raise FormatError(f"line {line_no}: empty station_id")
        stamp = _ref_parse_timestamp(row["timestamp"] or "", line_no)
        demand = _ref_parse_demand(row["demand_kwh"] or "", line_no)
        rows.setdefault(station, []).append((stamp, demand, line_no))

    shards = []
    for station in sorted(rows):
        entries = sorted(rows[station], key=lambda item: item[0])
        stamps = [e[0] for e in entries]
        diffs = [b - a for a, b in zip(stamps, stamps[1:]) if b > a]
        interval = min(diffs) if diffs else timedelta(minutes=5)
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
        shards.append(SeriesShard(station, values, interval.total_seconds() / 60.0))
    return shards


def _far_gap_rows():
    # 9078254179105727 us (~288 years) is 1296893454157961 intervals of
    # 7 us exactly, but float64(gap) / 7 is off the integer by 0.25
    start = datetime(1700, 1, 1)
    stamps = [start, start + timedelta(microseconds=7),
              start + timedelta(microseconds=7 + 9078254179105727)]
    return "".join(f"{stamp.isoformat()},a,1.0\n" for stamp in stamps)


HEADER = "timestamp,station_id,demand_kwh\n"
VALID_CSVS = {
    "unsorted": HEADER + (
        "2024-01-01T00:10:00,a,3.0\n2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:05:00,a,2.0\n2024-01-01T00:20:00,a,5.0\n"
    ),
    "interleaved": HEADER + "".join(
        f"2024-01-01T00:{5 * i:02d}:00,{station},{i + k}.5\n"
        for i in range(6) for k, station in enumerate(("b", "a", "c"))
    ),
    "zero_filled_gaps": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0\n"
        "2024-01-01T00:20:00,a,3.0\n2024-01-01T00:25:00,a,4.0\n"
        "2024-01-01T00:00:00,b,1.0\n2024-01-01T01:00:00,b,2.0\n"
    ),
    "reordered_and_extra_columns": (
        "note,demand_kwh,station_id,spare,timestamp\n"
        "x,1.0,a,,2024-01-01T00:00:00\ny,2.0,a,,2024-01-01T00:05:00\n"
        "z,3.0,b,9,2024-01-01T00:00:00,trailing\n"
    ),
    "short_rows_lacking_an_extra_column": (
        "timestamp,station_id,demand_kwh,note\n"
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0,n\n"
    ),
    "quoted_ids": HEADER + (
        '2024-01-01T00:00:00,"st,1",1.0\n2024-01-01T00:05:00,"st,1",2.0\n'
        '2024-01-01T00:00:00,"q""t",3.0\n"2024-01-01T00:05:00","q""t","4.0"\n'
    ),
    "padded_fields": HEADER + (
        " 2024-01-01T00:00:00 , a ,1.0 \n2024-01-01T00:05:00,a,  2.0\n"
    ),
    "crlf": HEADER.replace("\n", "\r\n") + (
        "2024-01-01T00:00:00,a,1.0\r\n2024-01-01T00:05:00,a,2.0\r\n"
        "2024-01-01T00:15:00,a,3.0\r\n"
    ),
    "trailing_blank_line": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0\n\n"
    ),
    "fractional_seconds": HEADER + (
        "2024-01-01T00:00:00.250000,a,1.0\n2024-01-01T00:00:00.500,a,2.0\n"
        "2024-01-01T00:00:01.250000,a,3.0\n2024-01-01T00:00:00,b,4.0\n"
        "2024-01-01T00:00:01.500000,b,5.0\n"
    ),
    "aware_across_a_dst_change": HEADER + (
        "2024-03-31T01:50:00+01:00,a,1.0\n2024-03-31T01:55:00+01:00,a,2.0\n"
        "2024-03-31T03:05:00+02:00,a,3.0\n2024-03-31T03:00:00+02:00,a,4.0\n"
        "2024-03-31T00:45:00+00:00,a,5.0\n"
    ),
    "single_row_station": HEADER + (
        "2024-01-01T00:00:00,solo,1.0\n2024-01-01T00:00:00,a,1.0\n"
        "2024-01-01T00:30:00,a,2.0\n"
    ),
    "header_only": HEADER,
    "runs_of_blank_lines_longer_than_a_chunk": HEADER + "\n" * CHUNK_ROWS + (
        "2024-01-01T00:00:00,a,1.0\n" + "\n" * (2 * CHUNK_ROWS + 1)
        + "2024-01-01T00:05:00,a,2.0\n2024-01-01T00:00:00,b,3.0\n" + "\n" * CHUNK_ROWS
        + "2024-01-01T00:15:00,a,4.0\n"
    ),
    "unicode_ids_sort_by_code_point": HEADER + (
        "2024-01-01T00:00:00,é,1.0\n2024-01-01T00:00:00,z,2.0\n"
        "2024-01-01T00:00:00,Z,3.0\n"
    ),
}


def assert_same_shards(actual, expected):
    assert [s.client_id for s in actual] == [s.client_id for s in expected]
    for got, want in zip(actual, expected):
        assert got.values.tobytes() == want.values.tobytes()
        assert got.interval_minutes == want.interval_minutes
        assert got.cluster_label == want.cluster_label


@pytest.mark.parametrize("name", sorted(VALID_CSVS))
def test_load_csv_matches_the_row_loader_byte_for_byte(tmp_path, name):
    path = write(tmp_path / f"{name}.csv", VALID_CSVS[name])
    assert_same_shards(load_csv(path), ref_load_csv(path))


def test_load_csv_matches_the_row_loader_on_a_synthetic_fleet(tmp_path):
    path = tmp_path / "fleet.csv"
    shards_to_csv(synth_generate(5, 2, 240, 0.15, 4), path)
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # leave gaps in one station, and shuffle the rows
    rows = [row for i, row in enumerate(rows) if not (",client03," in row and i % 3 == 1)]
    np.random.default_rng(0).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")
    shards = load_csv(str(path))
    assert shards[3].values.size == 240 and np.count_nonzero(shards[3].values == 0.0) >= 80
    assert_same_shards(shards, ref_load_csv(str(path)))


BAD_CSVS = {
    "empty_station": HEADER + "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00, ,2.0\n",
    "bad_timestamp": HEADER + "2024-01-01T00:00:00,a,1.0\n 2024-13-01 ,a,2.0\n",
    "bad_demand": HEADER + "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.o\n",
    "infinite_demand": HEADER + "2024-01-01T00:00:00,a,-inf\n",
    "nan_demand": HEADER + "2024-01-01T00:00:00,a,NaN\n",
    "short_row": HEADER + "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a\n",
    "first_bad_row_wins": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,x\n"
        "2024-01-01T00:10:00,,2.0\nsoon,a,1.0\n"
    ),
    "station_checked_before_timestamp": HEADER + "soon, ,x\n",
    "timestamp_checked_before_demand": HEADER + "soon,a,x\n",
    "row_error_after_a_repeat": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,x\n"
    ),
    "repeat": HEADER + (
        "2024-01-01T00:05:00+01:00,a,1.0\n2024-01-01T00:10:00+01:00,a,1.0\n"
        "2024-01-01T00:05:00+01:00,a,2.0\n"
    ),
    "repeat_across_offsets": HEADER + (
        "2024-01-01T01:05:00+01:00,a,1.0\n2024-01-01T00:05:00+00:00,a,2.0\n"
    ),
    "not_a_multiple": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0\n2024-01-01T00:12:30,a,3.0\n"
    ),
    "fills_too_many_zeros": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0\n"
        "2025-01-01T00:10:00,a,3.0\n2024-01-01T00:15:00,a,4.0\n"
    ),
    "fills_one_zero_more_than_the_rows": HEADER + (
        "2024-01-01T00:00:00,a,1.0\n2024-01-01T00:05:00,a,2.0\n2024-01-01T00:30:00,a,3.0\n"
    ),
    "gap_past_2_53_microseconds": HEADER + _far_gap_rows(),
    "stations_in_id_order_then_time_order": HEADER + (
        "2024-01-01T00:00:00,b,1.0\n2024-01-01T00:07:00,b,1.0\n"
        "2024-01-01T00:05:00,b,1.0\n2024-01-01T00:30:00,a,1.0\n"
        "2024-01-01T00:30:00,a,2.0\n2024-01-01T00:00:00,a,3.0\n"
        "2024-01-01T00:00:00,a,4.0\n"
    ),
    "bad_demand_past_the_first_chunks": HEADER + "".join(
        f"{(datetime(2024, 1, 1) + timedelta(minutes=5 * i)).isoformat()},a,"
        f"{'x' if i == 700 else i}\n"
        for i in range(900)
    ),
    "missing_column": "timestamp,station,demand_kwh\n2024-01-01T00:00:00,a,1.0\n",
    "blank_header": "\n" + HEADER + "2024-01-01T00:00:00,a,1.0\n",
    "empty_file": "",
}


@pytest.mark.parametrize("name", sorted(BAD_CSVS))
def test_load_csv_errors_match_the_row_loader(tmp_path, name):
    path = write(tmp_path / f"{name}.csv", BAD_CSVS[name])
    with pytest.raises(FormatError) as expected:
        ref_load_csv(path)
    with pytest.raises(FormatError) as actual:
        load_csv(path)
    assert str(actual.value) == str(expected.value)


def test_load_csv_names_a_bad_row_past_the_first_chunks(tmp_path):
    path = write(tmp_path / "late.csv", BAD_CSVS["bad_demand_past_the_first_chunks"])
    assert 700 > 2 * CHUNK_ROWS
    with pytest.raises(FormatError, match=r"^line 702: unparseable demand_kwh 'x'$"):
        load_csv(path)


def test_load_csv_non_utf8_error_matches_the_row_loader(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(HEADER.encode() + b"2024-01-01T00:00:00,\xe9,1.0\n")
    with pytest.raises(FormatError) as expected:
        ref_load_csv(str(path))
    with pytest.raises(FormatError) as actual:
        load_csv(str(path))
    assert str(actual.value) == str(expected.value) == "line 2: not valid UTF-8 (invalid continuation byte)"


@pytest.mark.parametrize("blank_lines", [1, 2 * CHUNK_ROWS + 1])
def test_load_csv_reports_physical_lines_after_blank_lines(tmp_path, blank_lines):
    path = write(tmp_path / "blank.csv", HEADER + (
        "2024-01-01T00:00:00,a,1.0\n" + "\n" * blank_lines + "2024-01-01T00:05:00,a,oops\n"
    ))
    line_no = blank_lines + 3
    with pytest.raises(FormatError, match=rf"^line {line_no}: unparseable demand_kwh 'oops'$"):
        load_csv(path)


def test_load_csv_counts_lone_carriage_returns_as_line_ends(tmp_path):
    rows = "2024-01-01T00:00:00,a,1.0\r2024-01-01T00:05:00,"
    path = tmp_path / "mac.csv"
    path.write_bytes((HEADER.replace("\n", "\r") + rows).encode() + b"\xe9,2.0\r")
    with pytest.raises(FormatError, match=r"^line 3: not valid UTF-8 "):
        load_csv(str(path))
    path.write_bytes((HEADER.replace("\n", "\r") + rows + "a,x\r").encode())
    with pytest.raises(FormatError, match=r"^line 3: unparseable demand_kwh 'x'$"):
        load_csv(str(path))


def test_load_csv_reports_the_line_a_multi_line_record_starts_on(tmp_path):
    path = write(tmp_path / "quoted.csv", HEADER + (
        '2024-01-01T00:00:00,"a",1.0\n2024-01-01T00:05:00,a,2.0\n'
        '2024-01-01T00:00:00,"b\nsouth",1.0\n2024-01-01T00:00:00,"b\nsouth",2.0\n'
    ))
    with pytest.raises(FormatError, match=r"^line 6: repeats timestamp \S+ of line 4 for station 'b\\nsouth'$"):
        load_csv(path)


def test_load_csv_names_the_line_of_a_field_over_the_csv_size_limit(tmp_path):
    huge = "x" * (csv.field_size_limit() + 1)
    limit = rf"field larger than field limit \({csv.field_size_limit()}\)$"
    first = "2024-01-01T00:00:00,a,1.0\n"
    cases = [
        (HEADER + first + f"2024-01-01T00:05:00,{huge},2.0\n", rf"^line 3: {limit}"),
        (HEADER + first + f'\n2024-01-01T00:05:00,"b\n{huge}",2.0\n', rf"^line 4: {limit}"),
        (f"timestamp,station_id,demand_kwh,{huge}\n" + first, rf"^line 1: {limit}"),
        # an earlier bad row is still the one reported
        (HEADER + "2024-01-01T00:00:00,a,x\n" + f"2024-01-01T00:05:00,{huge},2.0\n",
         r"^line 2: unparseable demand_kwh 'x'$"),
    ]
    for k, (text, message) in enumerate(cases):
        path = write(tmp_path / f"huge{k}.csv", text)
        with pytest.raises(FormatError, match=message):
            load_csv(path)


def test_load_csv_rejects_mixed_naive_and_aware_stamps_in_one_station(tmp_path):
    path = write(tmp_path / "mixed.csv", HEADER + (
        "2024-01-01T01:30:00+00:00,b,1.0\n2024-01-01T01:35:00,b,1.0\n"
        "2024-01-01T01:30:00,a,1.0\n2024-01-01T01:35:00,a,2.0\n"
        "2024-01-01T01:40:00+00:00,a,3.0\n2024-01-01T01:45:00+00:00,a,4.0\n"
    ))
    with pytest.raises(FormatError, match=(
        r"^line 6: timestamp 2024-01-01T01:40:00\+00:00 has a UTC offset, "
        r"unlike line 4 of station 'a'$"
    )):
        load_csv(path)


def test_load_csv_keeps_stations_that_are_wholly_naive_or_wholly_aware(tmp_path):
    path = write(tmp_path / "per_station.csv", HEADER + (
        "2024-01-01T01:30:00+05:30,a,1.0\n2024-01-01T01:35:00+05:30,a,2.0\n"
        "2024-01-01T01:30:00,b,3.0\n2024-01-01T01:40:00,b,4.0\n2024-01-01T01:45:00,b,5.0\n"
    ))
    shards = load_csv(path)
    np.testing.assert_array_equal(shards[0].values, [1.0, 2.0])
    np.testing.assert_array_equal(shards[1].values, [3.0, 0.0, 4.0, 5.0])


def test_load_csv_rejects_a_required_column_given_twice(tmp_path):
    path = write(tmp_path / "twice.csv", (
        "timestamp,station_id,demand_kwh,demand_kwh\n2024-01-01T00:00:00,a,1.0,2.0\n"
    ))
    with pytest.raises(FormatError, match=r"^line 1: column 'demand_kwh' appears more than once$"):
        load_csv(path)


def test_load_csv_drops_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "2024-01-01T00:00:00,a,1.0\n").encode())
    shards = load_csv(str(path))
    assert [s.client_id for s in shards] == ["a"]
    np.testing.assert_array_equal(shards[0].values, [1.0])


def test_make_windows_hand_enumeration():
    shard = SeriesShard("a", np.arange(1.0, 11.0))
    splits = make_windows(shard, 3, 2, 1.0)
    assert list(splits) == ["train", "test"]
    train = splits["train"]
    assert len(train) == 6
    np.testing.assert_allclose(denormalize(train.inputs[0], train.mean, train.std), [1.0, 2.0, 3.0],
                               atol=1e-12)
    np.testing.assert_allclose(denormalize(train.targets[0], train.mean, train.std), [4.0, 5.0],
                               atol=1e-12)
    np.testing.assert_allclose(denormalize(train.inputs[5], train.mean, train.std), [6.0, 7.0, 8.0],
                               atol=1e-12)
    assert len(splits["test"]) == 0


def brute_force_windows(segment, h, p, mean, std):
    """Every stride-1 window, one element at a time."""
    n = max(segment.size - h - p + 1, 0)
    inputs = np.zeros((n, h))
    targets = np.zeros((n, p))
    for i in range(n):
        for k in range(h):
            inputs[i, k] = (segment[i + k] - mean) / std
        for k in range(p):
            targets[i, k] = (segment[i + h + k] - mean) / std
    return inputs, targets


@pytest.mark.parametrize("length", [4, 5, 8, 31, 50, 480])
def test_make_windows_matches_brute_force_oracle(length):
    # with h + p = 5: 4 points are shorter than one window and 5 points are
    # exactly one, yet neither split holds a whole window; 8 points give
    # the 5-point train split exactly one window and leave the 3-point test
    # split empty, and 31 points give the 10-point test split six
    values = np.random.default_rng(length).normal(size=length) * 3.0 + 1.0
    h, p = 3, 2
    splits = make_windows(SeriesShard("a", values), h, p, 0.7)
    n_train = int(np.floor(0.7 * length))
    segments = {"train": values[:n_train], "test": values[n_train:]}
    assert list(splits) == list(segments)
    # the stats are numpy's mean and population std of the train segment, bit for bit
    train = segments["train"]
    assert (splits["train"].mean, splits["train"].std) == (float(train.mean()), float(train.std()))
    sizes = {}
    for name, segment in segments.items():
        data = splits[name]
        assert (data.mean, data.std) == (splits["train"].mean, splits["train"].std)
        inputs, targets = brute_force_windows(segment, h, p, data.mean, data.std)
        assert data.inputs.shape == inputs.shape and data.targets.shape == targets.shape
        np.testing.assert_array_equal(data.inputs, inputs)
        np.testing.assert_array_equal(data.targets, targets)
        assert data.inputs.flags.c_contiguous and data.inputs.flags.owndata
        assert data.targets.flags.c_contiguous and data.targets.flags.owndata
        sizes[name] = len(data)
    empty = {"train": 0, "test": 0}
    expected = {4: empty, 5: empty, 8: {"train": 1, "test": 0},
                31: {"train": 17, "test": 6}, 50: {"train": 31, "test": 11},
                480: {"train": 332, "test": 140}}
    assert sizes == expected[length]
    if length <= 8:
        assert splits["test"].inputs.shape == (0, h) and splits["test"].targets.shape == (0, p)


def test_windows_never_leak_future_values():
    shard = SeriesShard("a", np.arange(40.0))
    splits = make_windows(shard, 3, 1, 0.7)
    train, test = splits["train"], splits["test"]
    max_train = denormalize(train.inputs, train.mean, train.std).max()
    max_train_target = denormalize(train.targets, train.mean, train.std).max()
    min_test = denormalize(test.inputs, test.mean, test.std).min()
    assert max(max_train, max_train_target) < min_test
    for dataset in (train, test):
        raw_in = denormalize(dataset.inputs, dataset.mean, dataset.std)
        raw_tg = denormalize(dataset.targets, dataset.mean, dataset.std)
        for window, target in zip(raw_in, raw_tg):
            assert window.max() < target.min()


def test_split_sizes_are_chronological_floors():
    # floor(0.7 * 23) = 16 train points; the test split is the other 7
    shard = SeriesShard("a", np.arange(23.0))
    splits = make_windows(shard, 3, 2, 0.7)
    train, test = splits["train"], splits["test"]
    assert len(train) == 16 - 3 - 2 + 1
    assert len(test) == 7 - 3 - 2 + 1
    np.testing.assert_allclose(denormalize(train.targets[-1], train.mean, train.std),
                               [14.0, 15.0], atol=1e-12)
    np.testing.assert_allclose(denormalize(test.inputs[0], test.mean, test.std),
                               [16.0, 17.0, 18.0], atol=1e-12)
    np.testing.assert_allclose(denormalize(test.targets[-1], test.mean, test.std),
                               [21.0, 22.0], atol=1e-12)


def test_short_split_returns_empty_without_warning():
    shard = SeriesShard("a", np.arange(20.0))
    # a 3-point test split is 2 points shorter than one window
    splits = make_windows(shard, 3, 2, 0.85)
    assert [len(splits[name]) for name in ("train", "test")] == [13, 0]
    assert splits["test"].inputs.shape == (0, 3) and splits["test"].targets.shape == (0, 2)
    # a 2-point train split ends 3 points before its first window would
    splits = make_windows(shard, 3, 2, 0.1)
    assert [len(splits[name]) for name in ("train", "test")] == [0, 14]
    # a 3-point series is 2 points shorter than one window
    splits = make_windows(SeriesShard("b", np.arange(3.0)), 3, 2, 1.0)
    assert [len(splits[name]) for name in ("train", "test")] == [0, 0]


def test_constant_series_normalizes_to_zero():
    shard = SeriesShard("a", np.full(12, 7.0))
    splits = make_windows(shard, 3, 1, 1.0)
    train = splits["train"]
    np.testing.assert_array_equal(train.inputs, np.zeros_like(train.inputs))
    np.testing.assert_allclose(denormalize(train.inputs, train.mean, train.std), 7.0, atol=1e-12)


def test_normalization_round_trip():
    shard = SeriesShard("a", np.random.default_rng(3).normal(5.0, 2.0, size=60))
    train = make_windows(shard, 4, 2, 1.0)["train"]
    raw = np.array([shard.values[i : i + 4] for i in range(len(train))])
    np.testing.assert_allclose(denormalize(train.inputs, train.mean, train.std), raw, atol=1e-12)


def test_make_windows_validates_fractions():
    shard = SeriesShard("a", np.arange(30.0))
    for train_frac in (1.2, -0.1, math.nan):
        with pytest.raises(ConfigError, match=r"^train_frac must lie in \[0, 1\], got "):
            make_windows(shard, 3, 1, train_frac)
    # the ends are one empty split or the other
    assert [len(d) for d in make_windows(shard, 3, 1, 0.0).values()] == [0, 27]
    assert [len(d) for d in make_windows(shard, 3, 1, 1.0).values()] == [27, 0]


def test_synth_same_seed_same_output():
    a = synth_generate(4, 2, 100, 0.3, 17)
    b = synth_generate(4, 2, 100, 0.3, 17)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.values, sb.values)
        assert sa.client_id == sb.client_id and sa.cluster_label == sb.cluster_label


def test_synth_zero_noise_single_cluster_identical():
    shards = synth_generate(3, 1, 80, 0.0, 1)
    for shard in shards[1:]:
        np.testing.assert_array_equal(shard.values, shards[0].values)


def test_synth_zero_noise_same_cluster_identical():
    shards = synth_generate(4, 2, 80, 0.0, 1)
    np.testing.assert_array_equal(shards[0].values, shards[2].values)
    np.testing.assert_array_equal(shards[1].values, shards[3].values)
    assert not np.array_equal(shards[0].values, shards[1].values)


def test_synth_clusters_correlate_within_not_across():
    shards = synth_generate(6, 2, 300, 0.1, 23)
    series = np.stack([s.values for s in shards])
    labels = [s.cluster_label for s in shards]
    corr = np.corrcoef(series)
    within, across = [], []
    for i in range(6):
        for j in range(i + 1, 6):
            (within if labels[i] == labels[j] else across).append(corr[i, j])
    assert min(within) > max(across)


def test_synth_labels_and_bounds():
    shards = synth_generate(5, 3, 40, 0.2, 2)
    assert [s.cluster_label for s in shards] == [0, 1, 2, 0, 1]
    for shard in shards:
        assert shard.values.min() >= 0.0
    with pytest.raises(ConfigError):
        synth_generate(2, 3, 40, 0.1, 0)


def per_client_synth(n_clients, n_clusters, length, noise_sd, seed):
    """The generator one client at a time, building each client's archetype anew."""
    rng = np.random.default_rng(seed)
    series = []
    for i in range(n_clients):
        cluster = i % n_clusters
        t = np.arange(length, dtype=np.float64)
        period = 48.0 / (2 * cluster + 1)
        phase = 2.0 * math.pi * cluster / n_clusters
        amplitude = 1.0 + 0.25 * cluster
        base = np.maximum(amplitude * np.sin(2.0 * math.pi * t / period + phase)
                          + 0.5 * amplitude * np.sin(4.0 * math.pi * t / period + 2.0 * phase)
                          + 1.5 * amplitude, 0.0)
        jitter = 1.0 + noise_sd * rng.uniform(-0.5, 0.5)
        noise = noise_sd * rng.standard_normal(length)
        series.append(np.maximum(jitter * base + noise, 0.0))
    return series


@pytest.mark.parametrize("n_clients,n_clusters,noise_sd",
                         [(1, 1, 0.2), (5, 3, 0.2), (6, 6, 0.2), (5, 3, 0.0)])
def test_synth_matches_a_per_client_reference_bit_for_bit(n_clients, n_clusters, noise_sd):
    shards = synth_generate(n_clients, n_clusters, 97, noise_sd, 31)
    reference = per_client_synth(n_clients, n_clusters, 97, noise_sd, 31)
    assert [(s.client_id, s.cluster_label) for s in shards] == [
        (f"client{i:02d}", i % n_clusters) for i in range(n_clients)]
    for shard, values in zip(shards, reference, strict=True):
        assert shard.values.dtype == values.dtype and shard.values.tobytes() == values.tobytes()


def test_shard_rejects_non_finite_values():
    with pytest.raises(Exception):
        SeriesShard("a", np.array([1.0, np.nan]))
