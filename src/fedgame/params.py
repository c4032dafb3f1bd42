"""Flat parameter vectors, their block layout, and the delta algebra.

Every model in the simulator stores its parameters as one contiguous
float64 vector.  Its layout is the tuple of :class:`LayerSpec` blocks
that the forecaster config plans (``forecaster.build_spec``): blocks
tile [0, P) in storage order and end with the output head.  Keeping the
storage flat makes the exchange protocol trivial: a round's clients
form one matrix, a row per client, and parameter differences, consensus
averaging, norms and output-head slicing are plain row and column
operations on it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericError, StructuralError, UsageError

# Norms below this are treated as zero when computing cosine similarity.
NORM_TOLERANCE = 1e-12


class LayerSpec(NamedTuple):
    """One contiguous block of a flat parameter vector.

    ``kind`` is ``recurrent``, ``dense`` or ``output_head``; the
    output-head blocks are the slice exchanged for personalized
    aggregation.  ``fan_in`` is the input width of the layer the block
    belongs to, which scales its initialization.
    """

    name: str
    shape: tuple[int, ...]
    kind: str
    offset: int
    length: int
    fan_in: int

    @property
    def stop(self) -> int:
        return self.offset + self.length


def total_params(spec: Sequence[LayerSpec]) -> int:
    return sum(s.length for s in spec)


def head_length(spec: Sequence[LayerSpec]) -> int:
    return sum(s.length for s in spec if s.kind == "output_head")


def head_indices(spec: Sequence[LayerSpec]) -> np.ndarray:
    """Flat positions of all output-head entries, in spec order; read-only
    and built once per distinct spec tuple."""
    return _head_indices(tuple(spec))


@functools.cache
def _head_indices(spec: tuple[LayerSpec, ...]) -> np.ndarray:
    idx = np.concatenate([np.arange(s.offset, s.stop) for s in spec if s.kind == "output_head"])
    idx.flags.writeable = False
    return idx


# The delta algebra works on client matrices: one row per client, in the
# sorted-id order of the round's participants, one column per parameter.


def select_head_values(values: np.ndarray, spec: Sequence[LayerSpec]) -> np.ndarray:
    """Output-head columns of flat ``values`` (P,) or a client matrix (N, P),
    in spec order."""
    return np.asarray(values)[..., head_indices(spec)]


def compute_delta(
    private: np.ndarray, global_values: np.ndarray, spec: Sequence[LayerSpec]
) -> np.ndarray:
    """Parameter differences private - global, one row per client.

    ``private`` is the (N, P) matrix of the clients' parameters and
    ``global_values`` the (P,) consensus, both laid out by ``spec``.
    The layout must split into a shared body and an output head, the
    slice the personalized stream exchanges.
    """
    total, head = total_params(spec), head_length(spec)
    if not 0 < head < total:
        raise StructuralError(
            f"head fraction must satisfy 0 < len(head)/len(full) < 1; got {head}/{total}"
        )
    private = np.asarray(private, dtype=np.float64)
    if private.ndim != 2 or private.shape[1] != total:
        raise StructuralError(
            f"client matrix has shape {private.shape}, spec requires (*, {total})"
        )
    with np.errstate(over="ignore"):
        delta = private - global_values
    if not np.all(np.isfinite(delta)):
        raise NumericError("compute_delta produced non-finite entries")
    return delta


def scatter_head(spec: Sequence[LayerSpec], heads: np.ndarray) -> np.ndarray:
    """Inverse of :func:`select_head_values`: ``heads`` (h,) or (N, h)
    written into the head columns of zeros shaped (P,) or (N, P)."""
    heads = np.asarray(heads, dtype=np.float64)
    idx = head_indices(spec)
    if heads.ndim not in (1, 2) or heads.shape[-1] != idx.size:
        raise StructuralError(f"heads have shape {heads.shape}, spec requires (*, {idx.size})")
    out = np.zeros(heads.shape[:-1] + (total_params(spec),))
    out[..., idx] = heads
    return out


def mean_deltas(deltas: np.ndarray) -> np.ndarray:
    """Column means of the (N, P) delta matrix.

    Rows are reduced in the order given, which the protocol fixes to
    sorted client ids, so the result does not depend on scheduling.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 2 or not len(deltas):
        raise UsageError(f"mean_deltas needs an (N, P) matrix with N >= 1, got {deltas.shape}")
    return deltas.mean(axis=0)


def add_scaled(base: np.ndarray, delta: np.ndarray, step: float) -> np.ndarray:
    """base + step * delta, for flat vectors or client matrices alike."""
    base = np.asarray(base, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != base.shape:
        raise StructuralError(f"delta has shape {delta.shape}, base has {base.shape}")
    with np.errstate(over="ignore"):
        out = base + step * delta
    if not np.all(np.isfinite(out)):
        raise NumericError("add_scaled produced non-finite entries")
    return out


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
