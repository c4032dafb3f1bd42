"""Flat parameter vectors with a layer registry, plus the delta algebra.

Every model in the simulator stores its parameters as one contiguous
float64 vector described by a list of :class:`LayerSpec` blocks.  Keeping
the storage flat makes the exchange protocol trivial: parameter
differences, consensus averaging, norms and output-head slicing are all
plain vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, StructuralError, UsageError

LAYER_KINDS = ("recurrent", "dense", "output_head")

# Norms below this are treated as zero when computing cosine similarity.
NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    """One contiguous block of a flat parameter vector.

    ``kind`` is one of ``recurrent``, ``dense`` or ``output_head``; the
    output-head blocks are the slice exchanged for personalized
    aggregation.
    """

    name: str
    offset: int
    length: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ConfigError(f"unknown layer kind {self.kind!r} for layer {self.name!r}")
        if self.offset < 0 or self.length <= 0:
            raise ConfigError(
                f"layer {self.name!r} must have offset >= 0 and length > 0, "
                f"got offset={self.offset}, length={self.length}"
            )

    @property
    def stop(self) -> int:
        return self.offset + self.length


def validate_layout(spec: Sequence[LayerSpec], *, require_head: bool = True) -> int:
    """Check that layers tile [0, total) contiguously; return the total length."""
    if not spec:
        raise ConfigError("layer spec is empty")
    ordered = sorted(spec, key=lambda s: s.offset)
    if ordered[0].offset != 0:
        raise ConfigError(f"first layer {ordered[0].name!r} must start at offset 0")
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.offset != prev.stop:
            raise ConfigError(
                f"layers {prev.name!r} and {cur.name!r} are not contiguous: "
                f"{prev.stop} != {cur.offset}"
            )
    if require_head and not any(s.kind == "output_head" for s in spec):
        raise ConfigError("layer spec has no output_head layer")
    return ordered[-1].stop


def total_params(spec: Sequence[LayerSpec]) -> int:
    return sum(s.length for s in spec)


def head_layers(spec: Sequence[LayerSpec]) -> tuple[LayerSpec, ...]:
    return tuple(s for s in spec if s.kind == "output_head")


def head_length(spec: Sequence[LayerSpec]) -> int:
    return sum(s.length for s in head_layers(spec))


def head_indices(spec: Sequence[LayerSpec]) -> np.ndarray:
    """Flat positions of all output-head entries, in spec order."""
    heads = head_layers(spec)
    if not heads:
        raise ConfigError("layer spec has no output_head layer")
    return np.concatenate([np.arange(s.offset, s.stop) for s in heads])


@dataclass
class ParameterVector:
    """A flat float64 parameter vector bound to its layer registry."""

    values: np.ndarray
    spec: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        self.spec = tuple(self.spec)
        total = validate_layout(self.spec)
        self.values = np.array(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != total:
            raise StructuralError(
                f"parameter vector has {self.values.size} entries, spec requires {total}"
            )
        if not np.all(np.isfinite(self.values)):
            raise NumericError("parameter vector contains non-finite entries")

    @classmethod
    def zeros(cls, spec: Sequence[LayerSpec]) -> "ParameterVector":
        return cls(np.zeros(total_params(spec)), tuple(spec))

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.spec)

    def layer(self, name: str) -> np.ndarray:
        for s in self.spec:
            if s.name == name:
                return self.values[s.offset : s.stop]
        raise ConfigError(f"no layer named {name!r}")

    def __len__(self) -> int:
        return self.values.size


@dataclass
class DeltaUpdate:
    """A client's parameter difference; ``head`` is its output-head slice."""

    full: ParameterVector
    round_index: int = 0
    client_id: str = ""

    def __post_init__(self) -> None:
        head = head_length(self.full.spec)
        if not 0 < head < len(self.full):
            raise StructuralError(
                "head fraction must satisfy 0 < len(head)/len(full) < 1; "
                f"got {head}/{len(self.full)}"
            )

    @property
    def head(self) -> np.ndarray:
        return select_head_values(self.full.values, self.full.spec)

    @property
    def head_fraction(self) -> float:
        return head_length(self.full.spec) / len(self.full)


def select_head_values(values: np.ndarray, spec: Sequence[LayerSpec]) -> np.ndarray:
    """Concatenated output-head entries of flat ``values``, in spec order."""
    return np.asarray(values)[head_indices(spec)]


def compute_delta(
    private: ParameterVector,
    global_model: ParameterVector,
    *,
    round_index: int = 0,
    client_id: str = "",
) -> DeltaUpdate:
    """Parameter difference private - global."""
    if private.spec != global_model.spec:
        raise StructuralError("private and global models use different layer specs")
    full = ParameterVector(private.values - global_model.values, private.spec)
    return DeltaUpdate(full=full, round_index=round_index, client_id=client_id)


def scatter_head(template: ParameterVector, head: np.ndarray) -> ParameterVector:
    """Inverse of :func:`select_head_values`: write ``head`` into the head slots of a copy
    of ``template``, leaving everything else unchanged."""
    head = np.asarray(head, dtype=np.float64).reshape(-1)
    idx = head_indices(template.spec)
    if head.size != idx.size:
        raise StructuralError(f"head has {head.size} entries, spec requires {idx.size}")
    values = template.values.copy()
    values[idx] = head
    return ParameterVector(values, template.spec)


def mean_deltas(deltas: Sequence[DeltaUpdate]) -> ParameterVector:
    """Elementwise mean of the full deltas.

    Deltas are stacked in sorted client-id order before reduction so the
    result does not depend on the caller's scheduling order.
    """
    if not deltas:
        raise UsageError("mean_deltas needs at least one delta")
    spec = deltas[0].full.spec
    for d in deltas[1:]:
        if d.full.spec != spec:
            raise StructuralError("deltas use different layer specs")
    ordered = sorted(deltas, key=lambda d: d.client_id)
    stacked = np.stack([d.full.values for d in ordered])
    return ParameterVector(stacked.mean(axis=0), spec)


def add_scaled(base: ParameterVector, delta: np.ndarray | ParameterVector, step: float) -> ParameterVector:
    """base + step * delta."""
    vec = delta.values if isinstance(delta, ParameterVector) else np.asarray(delta, dtype=np.float64)
    if vec.shape != base.values.shape:
        raise StructuralError(f"delta has shape {vec.shape}, base has {base.values.shape}")
    with np.errstate(over="ignore"):
        out = base.values + step * vec
    if not np.all(np.isfinite(out)):
        raise NumericError("add_scaled produced non-finite entries")
    return ParameterVector(out, base.spec)


def cosine_similarity(a: np.ndarray, b: np.ndarray):
    """a.b / (|a||b|) along the last axis, 0 where a norm is below tolerance.

    Returning 0 (maximum dissimilarity, 1 - cos = 1) instead of raising
    lets the server meta-loss penalize degenerate zero updates, which do
    occur in round 0.  Vectors give a float, stacks of rows an array.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise StructuralError(f"vectors have different shapes {a.shape} and {b.shape}")
    na = np.sqrt(np.sum(a * a, axis=-1))
    nb = np.sqrt(np.sum(b * b, axis=-1))
    live = (na >= NORM_TOLERANCE) & (nb >= NORM_TOLERANCE)
    cos = np.where(live, np.sum(a * b, axis=-1) / np.where(live, na * nb, 1.0), 0.0)
    return float(cos) if cos.ndim == 0 else cos
