"""Tests for the flat parameter vector and delta algebra."""

import numpy as np
import pytest

from fedgame.errors import ConfigError, NumericError, StructuralError, UsageError
from fedgame.params import (
    DeltaUpdate,
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
    with pytest.raises(ConfigError):
        validate_layout(spec)
    assert validate_layout(spec, require_head=False) == 4


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


def test_parameter_vector_layer_returns_named_slice():
    vec = make_vector()
    np.testing.assert_array_equal(vec.layer("out.w"), vec.values[9:15])
    with pytest.raises(ConfigError):
        vec.layer("missing")


def test_head_length_and_indices():
    assert head_length(SPEC) == 8
    np.testing.assert_array_equal(head_indices(SPEC), np.arange(9, 17))


def test_select_scatter_roundtrip():
    vec = make_vector()
    head = select_head_values(vec.values, vec.spec)
    assert head.shape == (8,)
    rebuilt = scatter_head(ParameterVector.zeros(SPEC), head)
    np.testing.assert_array_equal(select_head_values(rebuilt.values, rebuilt.spec), head)
    np.testing.assert_array_equal(rebuilt.values[:9], np.zeros(9))


def test_scatter_rejects_wrong_head_size():
    with pytest.raises(StructuralError):
        scatter_head(make_vector(), np.zeros(5))


def test_compute_delta_matches_subtraction_and_head():
    private = make_vector(1)
    global_model = make_vector(2)
    delta = compute_delta(private, global_model, round_index=3, client_id="c7")
    np.testing.assert_array_equal(delta.full.values, private.values - global_model.values)
    np.testing.assert_array_equal(delta.head, delta.full.values[9:17])
    assert delta.round_index == 3 and delta.client_id == "c7"
    assert 0.0 < delta.head_fraction < 1.0


def test_compute_delta_identical_models_is_zero():
    vec = make_vector()
    delta = compute_delta(vec, vec.copy())
    assert np.all(delta.full.values == 0.0)


def test_delta_update_rejects_all_head_layout():
    spec = (LayerSpec("out.w", 0, 4, "output_head"),)
    with pytest.raises(StructuralError, match="head fraction"):
        DeltaUpdate(full=ParameterVector(np.zeros(4), spec))


def test_mean_deltas_is_order_independent():
    base = make_vector(0)
    deltas = [
        compute_delta(make_vector(seed), base, client_id=f"c{seed}") for seed in (1, 2, 3, 4)
    ]
    forward = mean_deltas(deltas)
    backward = mean_deltas(list(reversed(deltas)))
    np.testing.assert_array_equal(forward.values, backward.values)
    expected = np.mean([d.full.values for d in deltas], axis=0)
    np.testing.assert_allclose(forward.values, expected, rtol=0, atol=1e-15)


def test_mean_deltas_rejects_empty():
    with pytest.raises(UsageError):
        mean_deltas([])


def test_add_scaled_exact_and_finite():
    base = make_vector(1)
    delta = compute_delta(make_vector(2), base)
    out = add_scaled(base, delta.full, 0.5)
    np.testing.assert_array_equal(out.values, base.values + 0.5 * delta.full.values)
    with pytest.raises(NumericError):
        add_scaled(base, ParameterVector(np.full(17, 1e308), SPEC), 1e308)


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
