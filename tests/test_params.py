"""Tests for the parameter layout and the delta algebra."""

import numpy as np
import pytest

from fedgame.errors import NumericError, StructuralError, UsageError
from fedgame.forecaster import ForecasterConfig, build_spec
from fedgame.params import (
    add_scaled,
    compute_delta,
    head_length,
    mean_deltas,
    scatter_head,
    select_head_values,
    total_params,
)

# hidden0.w [0, 6), hidden0.b [6, 9), out.w [9, 15), out.b [15, 17)
SPEC = build_spec(ForecasterConfig(history_len=2, horizon=2, quantiles=(0.5,), hidden_sizes=(3,)))


def make_vector(seed=0):
    return np.random.default_rng(seed).normal(size=total_params(SPEC))


# (config overrides, the input width of each layer); the last width
# feeds the output head
LAYOUT_CASES = [
    (dict(hidden_sizes=(5,)), [6, 5]),
    (dict(hidden_sizes=(5, 4)), [6, 5, 4]),
    (dict(hidden_sizes=()), [6]),
    (dict(arch="lstm", hidden_sizes=(4,)), [1, 4]),
    (dict(arch="lstm", hidden_sizes=(4, 3)), [1, 4, 3]),
]


def test_build_spec_tiles_the_vector_with_the_head_last():
    for overrides, widths in LAYOUT_CASES:
        cfg = ForecasterConfig(history_len=6, horizon=2, quantiles=(0.1, 0.5, 0.9), **overrides)
        spec = build_spec(cfg)
        lstm = cfg.arch == "lstm"
        # one block per weight and bias: MLP w, b; LSTM wx, wh, b
        assert len(spec) == (3 if lstm else 2) * len(cfg.hidden_sizes) + 2, overrides
        assert spec[0].offset == 0, overrides
        for prev, cur in zip(spec, spec[1:]):
            assert cur.offset == prev.stop, (overrides, cur.name)
        for block in spec:
            assert block.length == np.prod(block.shape) > 0, (overrides, block.name)
        assert total_params(spec) == spec[-1].stop
        pairs = list(zip(widths, widths[1:]))
        if lstm:
            body = sum(4 * w * (i + w + 1) for i, w in pairs)
        else:
            body = sum(w * (i + 1) for i, w in pairs)
        assert spec[-1].stop == body + 6 * (widths[-1] + 1), overrides
        assert [b.name for b in spec if b.kind == "output_head"] == ["out.w", "out.b"]
        assert [b.kind for b in spec[-2:]] == ["output_head"] * 2
        assert spec[-2].shape == (widths[-1], 6) and spec[-1].shape == (6,)
        # the head is the layout's tail, the columns select_head_values reads
        assert spec[-1].stop == total_params(spec)
        np.testing.assert_array_equal(
            select_head_values(np.arange(float(total_params(spec))), spec),
            np.arange(spec[-2].offset, spec[-1].stop))
        # fan_in: the layer's input width for the MLP and the head, the
        # layer's own width for every LSTM block
        for i, width in enumerate(cfg.hidden_sizes):
            expected = width if lstm else widths[i]
            layer = [b for b in spec if b.name.startswith(f"{'lstm' if lstm else 'hidden'}{i}.")]
            assert [b.fan_in for b in layer] == [expected] * len(layer), (overrides, i)
        assert spec[-2].fan_in == spec[-1].fan_in == widths[-1], overrides


def test_head_length_and_indices():
    assert head_length(SPEC) == 8
    np.testing.assert_array_equal(select_head_values(np.arange(17.0), SPEC), np.arange(9, 17))


def make_matrix(seeds):
    return np.stack([make_vector(seed) for seed in seeds])


def test_select_scatter_roundtrip():
    private = make_matrix((1, 2, 3))
    heads = select_head_values(private, SPEC)
    assert heads.shape == (3, 8)
    rebuilt = scatter_head(SPEC, heads)
    assert rebuilt.shape == (3, 17)
    np.testing.assert_array_equal(select_head_values(rebuilt, SPEC), heads)
    np.testing.assert_array_equal(rebuilt[:, :9], np.zeros((3, 9)))
    # a flat vector is a row of its own
    np.testing.assert_array_equal(scatter_head(SPEC, heads[1]), rebuilt[1])
    np.testing.assert_array_equal(select_head_values(private[1], SPEC), heads[1])


def test_scatter_rejects_wrong_head_size():
    with pytest.raises(StructuralError):
        scatter_head(SPEC, np.zeros((2, 5)))
    with pytest.raises(StructuralError):
        scatter_head(SPEC, np.zeros((2, 2, 8)))


def test_compute_delta_matches_subtraction_and_head():
    private = make_matrix((1, 3, 4))
    global_values = make_vector(2)
    delta = compute_delta(private, global_values, SPEC)
    for row, seed in zip(delta, (1, 3, 4)):
        np.testing.assert_array_equal(row, make_vector(seed) - global_values)
    np.testing.assert_array_equal(select_head_values(delta, SPEC), delta[:, 9:17])
    with pytest.raises(StructuralError):
        compute_delta(private[:, :-1], global_values, SPEC)
    with pytest.raises(StructuralError):
        compute_delta(private[0], global_values, SPEC)


def test_compute_delta_identical_models_is_zero():
    vec = make_vector()
    delta = compute_delta(np.stack([vec, vec]), vec.copy(), SPEC)
    assert np.all(delta == 0.0)


def test_compute_delta_rejects_all_head_layout():
    # a layerless MLP is all head: out.w (2, 2) and out.b (2,)
    cfg = ForecasterConfig(history_len=2, horizon=2, quantiles=(0.5,), hidden_sizes=())
    with pytest.raises(StructuralError, match="head fraction"):
        compute_delta(np.zeros((2, 6)), np.zeros(6), build_spec(cfg))


def test_mean_deltas_is_the_row_mean_in_row_order():
    deltas = compute_delta(make_matrix((1, 2, 3, 4)), make_vector(0), SPEC)
    mean = mean_deltas(deltas)
    np.testing.assert_array_equal(mean, np.stack(list(deltas)).mean(axis=0))
    np.testing.assert_allclose(mean, sum(deltas) / 4, rtol=0, atol=1e-15)


def test_mean_deltas_rejects_empty():
    with pytest.raises(UsageError):
        mean_deltas(np.zeros((0, 17)))


def test_add_scaled_exact_and_finite():
    base = make_vector(1)
    delta = compute_delta(make_matrix((2,)), base, SPEC)[0]
    out = add_scaled(base, delta, 0.5)
    np.testing.assert_array_equal(out, base + 0.5 * delta)
    rows = make_matrix((3, 4))
    np.testing.assert_array_equal(add_scaled(rows, rows, 0.25), rows + 0.25 * rows)
    with pytest.raises(StructuralError):
        add_scaled(rows, rows[0], 0.5)
    with pytest.raises(NumericError):
        add_scaled(base, np.full(17, 1e308), 1e308)


def test_select_head_values_returns_a_writable_copy():
    # selecting copies, so the result is the caller's to write, even from
    # read-only model values
    values = make_matrix((1, 2))
    values.flags.writeable = False
    for source in (values[0], values):
        select_head_values(source, SPEC)[..., 0] = 1.0
    np.testing.assert_array_equal(values, make_matrix((1, 2)))

