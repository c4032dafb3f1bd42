"""CSV ingestion, windowing, splits, and the synthetic generator."""

import numpy as np
import pytest

from fedgame.data import (
    SeriesShard,
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


def test_csv_round_trip_preserves_values(tmp_path):
    shards = synth_generate(3, 2, 50, 0.2, 9)
    path = tmp_path / "rt.csv"
    shards_to_csv(shards, path)
    loaded = load_csv(str(path))
    assert [s.client_id for s in loaded] == [s.client_id for s in shards]
    for original, read in zip(shards, loaded):
        np.testing.assert_array_equal(read.values, original.values)


def test_make_windows_hand_enumeration():
    shard = SeriesShard("a", np.arange(1.0, 11.0))
    splits = make_windows(shard, 3, 2, (1.0, 0.0, 0.0))
    train = splits["train"]
    assert len(train) == 6
    np.testing.assert_allclose(train.denormalize(train.inputs[0]), [1.0, 2.0, 3.0],
                               atol=1e-12)
    np.testing.assert_allclose(train.denormalize(train.targets[0]), [4.0, 5.0],
                               atol=1e-12)
    np.testing.assert_allclose(train.denormalize(train.inputs[5]), [6.0, 7.0, 8.0],
                               atol=1e-12)
    assert len(splits["val"]) == 0 and len(splits["test"]) == 0


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


@pytest.mark.parametrize("length", [8, 31, 50, 480])
def test_make_windows_matches_brute_force_oracle(length):
    # with h + p = 5: 8 points give the 5-point train split exactly one
    # window and leave val and test empty, 31 points leave the 3-point
    # val split empty, and 50 points give the 5-point val split one window
    values = np.random.default_rng(length).normal(size=length) * 3.0 + 1.0
    h, p = 3, 2
    splits = make_windows(SeriesShard("a", values), h, p, (0.7, 0.1, 0.2))
    n_train, n_val = int(np.floor(0.7 * length)), int(np.floor(0.1 * length))
    segments = {"train": values[:n_train], "val": values[n_train:n_train + n_val],
                "test": values[n_train + n_val:]}
    sizes = {}
    for name, segment in segments.items():
        data = splits[name]
        inputs, targets = brute_force_windows(segment, h, p, data.mean, data.std)
        assert data.inputs.shape == inputs.shape and data.targets.shape == targets.shape
        np.testing.assert_array_equal(data.inputs, inputs)
        np.testing.assert_array_equal(data.targets, targets)
        assert data.inputs.flags.c_contiguous and data.inputs.flags.owndata
        assert data.targets.flags.c_contiguous and data.targets.flags.owndata
        sizes[name] = len(data)
    expected = {8: {"train": 1, "val": 0, "test": 0}, 31: {"train": 17, "val": 0, "test": 3},
                50: {"train": 31, "val": 1, "test": 6}, 480: {"train": 332, "val": 44, "test": 92}}
    assert sizes == expected[length]
    if length == 8:
        assert splits["val"].inputs.shape == (0, h) and splits["val"].targets.shape == (0, p)


def test_windows_never_leak_future_values():
    shard = SeriesShard("a", np.arange(40.0))
    splits = make_windows(shard, 3, 1, (0.7, 0.1, 0.2))
    train, val, test = splits["train"], splits["val"], splits["test"]
    max_train = train.denormalize(train.inputs).max()
    max_train_target = train.denormalize(train.targets).max()
    min_val = val.denormalize(val.inputs).min()
    min_test = test.denormalize(test.inputs).min()
    assert max(max_train, max_train_target) < min_val < min_test
    for dataset in (train, val, test):
        raw_in = dataset.denormalize(dataset.inputs)
        raw_tg = dataset.denormalize(dataset.targets)
        for window, target in zip(raw_in, raw_tg):
            assert window.max() < target.min()


def test_split_sizes_are_chronological_floors():
    shard = SeriesShard("a", np.arange(20.0))
    splits = make_windows(shard, 3, 2, (0.7, 0.1, 0.2))
    assert len(splits["train"]) == 14 - 3 - 2 + 1
    assert len(splits["val"]) == 0
    assert len(splits["test"]) == 0


def test_short_split_returns_empty_without_warning():
    shard = SeriesShard("a", np.arange(20.0))
    splits = make_windows(shard, 3, 2, (0.7, 0.1, 0.2))
    assert [len(splits[name]) for name in ("train", "val", "test")] == [10, 0, 0]
    assert splits["test"].inputs.shape == (0, 3) and splits["test"].targets.shape == (0, 2)


def test_constant_series_normalizes_to_zero():
    shard = SeriesShard("a", np.full(12, 7.0))
    splits = make_windows(shard, 3, 1, (1.0, 0.0, 0.0))
    train = splits["train"]
    np.testing.assert_array_equal(train.inputs, np.zeros_like(train.inputs))
    np.testing.assert_allclose(train.denormalize(train.inputs), 7.0, atol=1e-12)


def test_normalization_round_trip():
    shard = SeriesShard("a", np.random.default_rng(3).normal(5.0, 2.0, size=60))
    train = make_windows(shard, 4, 2, (1.0, 0.0, 0.0))["train"]
    raw = np.array([shard.values[i : i + 4] for i in range(len(train))])
    np.testing.assert_allclose(train.denormalize(train.inputs), raw, atol=1e-12)


def test_make_windows_validates_fractions():
    shard = SeriesShard("a", np.arange(30.0))
    with pytest.raises(ConfigError):
        make_windows(shard, 3, 1, (0.5, 0.2, 0.2))
    with pytest.raises(ConfigError):
        make_windows(shard, 3, 1, (1.2, -0.1, -0.1))


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


def test_shard_rejects_non_finite_values():
    with pytest.raises(Exception):
        SeriesShard("a", np.array([1.0, np.nan]))
