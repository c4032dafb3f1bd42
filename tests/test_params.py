"""Tests for the flat parameter vector and delta algebra."""

import numpy as np
import pytest

from fedgame.errors import ConfigError, NumericError, StructuralError, UsageError
from fedgame.params import (
    LayerSpec,
    ParameterVector,
    add_scaled,
    compute_delta,
    cosine_similarity,
    head_indices,
    head_length,
    mean_deltas,
    scatter_head,
    select_head_values,
    total_params,
    validate_layout,
)

SPEC = (
    LayerSpec("body.w", 0, 6, "dense"),
    LayerSpec("body.b", 6, 3, "dense"),
    LayerSpec("out.w", 9, 6, "output_head"),
    LayerSpec("out.b", 15, 2, "output_head"),
)


def make_vector(seed=0):
    rng = np.random.default_rng(seed)
    return ParameterVector(rng.normal(size=total_params(SPEC)), SPEC)


def test_validate_layout_accepts_contiguous_spec():
    assert validate_layout(SPEC) == 17


def test_validate_layout_rejects_gap():
    spec = (LayerSpec("a", 0, 4, "dense"), LayerSpec("b", 5, 4, "output_head"))
    with pytest.raises(ConfigError):
        validate_layout(spec)


def test_validate_layout_rejects_nonzero_start():
    spec = (LayerSpec("a", 1, 4, "output_head"),)
    with pytest.raises(ConfigError):
        validate_layout(spec)


def test_validate_layout_requires_output_head():
    spec = (LayerSpec("a", 0, 4, "dense"),)
    # the spec is contiguous, so the missing head is what is rejected
    with pytest.raises(ConfigError, match="no output_head"):
        validate_layout(spec)


def test_layer_spec_rejects_bad_kind_and_length():
    with pytest.raises(ConfigError):
        LayerSpec("a", 0, 4, "conv")
    with pytest.raises(ConfigError):
        LayerSpec("a", 0, 0, "dense")


def test_parameter_vector_validates_size_and_finiteness():
    with pytest.raises(StructuralError):
        ParameterVector(np.zeros(5), SPEC)
    bad = np.zeros(17)
    bad[3] = np.nan
    with pytest.raises(NumericError):
        ParameterVector(bad, SPEC)


def test_head_length_and_indices():
    assert head_length(SPEC) == 8
    np.testing.assert_array_equal(head_indices(SPEC), np.arange(9, 17))


def make_matrix(seeds):
    return np.stack([make_vector(seed).values for seed in seeds])


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
    global_model = make_vector(2)
    delta = compute_delta(private, global_model)
    for row, seed in zip(delta, (1, 3, 4)):
        np.testing.assert_array_equal(row, make_vector(seed).values - global_model.values)
    np.testing.assert_array_equal(select_head_values(delta, SPEC), delta[:, 9:17])
    with pytest.raises(StructuralError):
        compute_delta(private[:, :-1], global_model)
    with pytest.raises(StructuralError):
        compute_delta(private[0], global_model)


def test_compute_delta_identical_models_is_zero():
    vec = make_vector()
    delta = compute_delta(np.stack([vec.values, vec.values]), vec.copy())
    assert np.all(delta == 0.0)


def test_compute_delta_rejects_all_head_layout():
    spec = (LayerSpec("out.w", 0, 4, "output_head"),)
    with pytest.raises(StructuralError, match="head fraction"):
        compute_delta(np.zeros((2, 4)), ParameterVector(np.zeros(4), spec))


def test_mean_deltas_is_the_row_mean_in_row_order():
    deltas = compute_delta(make_matrix((1, 2, 3, 4)), make_vector(0))
    mean = mean_deltas(deltas)
    np.testing.assert_array_equal(mean, np.stack(list(deltas)).mean(axis=0))
    np.testing.assert_allclose(mean, sum(deltas) / 4, rtol=0, atol=1e-15)


def test_mean_deltas_rejects_empty():
    with pytest.raises(UsageError):
        mean_deltas(np.zeros((0, 17)))


def test_add_scaled_exact_and_finite():
    base = make_vector(1)
    delta = compute_delta(make_matrix((2,)), base)[0]
    out = add_scaled(base.values, delta, 0.5)
    np.testing.assert_array_equal(out, base.values + 0.5 * delta)
    rows = make_matrix((3, 4))
    np.testing.assert_array_equal(add_scaled(rows, rows, 0.25), rows + 0.25 * rows)
    with pytest.raises(StructuralError):
        add_scaled(rows, rows[0], 0.5)
    with pytest.raises(NumericError):
        add_scaled(base.values, np.full(17, 1e308), 1e308)


def test_invalid_layout_raises_on_every_call():
    gap = (LayerSpec("a", 0, 4, "dense"), LayerSpec("b", 5, 4, "output_head"))
    headless = (LayerSpec("a", 0, 4, "dense"),)
    for _ in range(3):
        with pytest.raises(ConfigError, match="not contiguous"):
            validate_layout(gap)
        with pytest.raises(ConfigError, match="not contiguous"):
            ParameterVector(np.zeros(9), gap)
        with pytest.raises(ConfigError, match="no output_head"):
            head_indices(headless)
    # the same spec as a list is the same layout
    assert validate_layout(list(SPEC)) == validate_layout(SPEC) == 17


def test_head_indices_are_read_only_and_shared():
    idx = head_indices(SPEC)
    assert head_indices(list(SPEC)) is idx
    with pytest.raises(ValueError):
        idx[0] = 0
    # selecting copies, so the result is the caller's to write
    heads = select_head_values(make_vector().values, SPEC)
    heads[0] = 1.0
    np.testing.assert_array_equal(head_indices(SPEC), np.arange(9, 17))


def test_cosine_similarity_reference_values():
    a = np.array([1.0, 2.0, 3.0])
    assert cosine_similarity(a, 2.5 * a) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_similarity_zero_norm_is_zero():
    a = np.zeros(4)
    b = np.ones(4)
    assert cosine_similarity(a, b) == 0.0
    assert cosine_similarity(b, a) == 0.0
    assert cosine_similarity(a, a) == 0.0
