"""Probabilistic-forecast evaluation: quantile score, coverage, width.

All three metrics operate on de-normalized values so reports are in the
original demand units.  The headline numbers are macro averages, i.e.
unweighted means over clients; sample-weighted variants are included in
every report for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import denormalize
from .errors import NumericError, StructuralError, UsageError
from .forecaster import ForecasterModel, checked_batch, pinball_weights, predict, stack_groups


@dataclass(frozen=True)
class ClientScore:
    """Evaluation of one client on its own test windows."""

    client_id: str
    qs: float
    mil: float
    icp: float
    n: int
    qs_per_quantile: tuple[float, ...]


@dataclass(frozen=True)
class EvalReport:
    """Per-client scores plus macro and sample-weighted averages."""

    quantiles: tuple[float, ...]
    clients: tuple[ClientScore, ...]
    excluded: tuple[str, ...]
    macro_qs: float
    macro_mil: float
    macro_icp: float
    weighted_qs: float
    weighted_mil: float
    weighted_icp: float

    def to_dict(self) -> dict:
        return {
            "quantiles": list(self.quantiles),
            "clients": [
                {
                    "client_id": c.client_id,
                    "qs": c.qs,
                    "mil": c.mil,
                    "icp": c.icp,
                    "n": c.n,
                    "qs_per_quantile": dict(zip(map(str, self.quantiles), c.qs_per_quantile)),
                }
                for c in self.clients
            ],
            "excluded": list(self.excluded),
            "macro": {"qs": self.macro_qs, "mil": self.macro_mil, "icp": self.macro_icp},
            "weighted": {
                "qs": self.weighted_qs,
                "mil": self.weighted_mil,
                "icp": self.weighted_icp,
            },
        }


def _paired(y, other, name: str) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    other = np.asarray(other, dtype=np.float64).reshape(-1)
    if y.size == 0:
        raise UsageError(f"{name} needs at least one sample")
    if y.shape != other.shape:
        raise StructuralError(f"{name} inputs have different lengths")
    return y, other


def quantile_score(y: np.ndarray, yhat: np.ndarray, q: float) -> float:
    """Mean pinball deviation at one quantile level.

    Over-prediction (y < yhat) costs (1-q)|y - yhat|, under- or exact
    prediction costs q|y - yhat|.
    """
    y, yhat = _paired(y, yhat, "quantile_score")
    if not 0.0 < q < 1.0:
        raise UsageError(f"quantile level must lie in (0, 1), got {q}")
    diff = yhat - y
    return float(np.mean(pinball_weights(diff, q) * diff))


def icp(y: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Fraction of observations inside [lower, upper], inclusive.

    Crossed intervals (lower > upper) are kept as-is and simply fail to
    cover, so calibration problems stay visible.
    """
    y, lower = _paired(y, lower, "icp")
    _, upper = _paired(y, upper, "icp")
    return float(np.mean((lower <= y) & (y <= upper)))


def mil(lower: np.ndarray, upper: np.ndarray) -> float:
    """Mean absolute interval width."""
    lower, upper = _paired(lower, upper, "mil")
    return float(np.mean(np.abs(upper - lower)))


def _score_stack(ids: list[str], models: dict, test_data: dict) -> list[ClientScore]:
    """Scores of clients ``ids``, which share a config and a test-set size,
    from one stacked forward.  Each quantity is one mean over the last
    axis of contiguous rows, a row per client (and level): the bits of
    ``np.mean`` of the client's own array, as if it were scored alone."""
    cfg = models[ids[0]].config
    sets = [test_data[c] for c in ids]
    checked = [checked_batch(cfg, d.inputs, d.targets) for d in sets]
    values = np.stack([models[c].values for c in ids])
    try:
        pred = predict(cfg, ids, values, np.stack([b for b, _ in checked]))
    except NumericError as exc:
        raise NumericError(f"evaluate: {exc}") from exc
    q = np.asarray(cfg.quantiles, dtype=np.float64)
    mean = np.array([d.mean for d in sets])[:, np.newaxis, np.newaxis]
    std = np.array([d.std for d in sets])[:, np.newaxis, np.newaxis]
    n, size = pred.shape[:2]
    preds = denormalize(pred, mean, std).reshape(n, size, cfg.horizon, q.size)
    targets = denormalize(np.stack([t for _, t in checked]), mean, std)
    diff = preds - targets[..., np.newaxis]
    loss = pinball_weights(diff, q) * diff
    # (N, n_quantiles, size * horizon): one contiguous row per client and level
    by_level = np.ascontiguousarray(np.moveaxis(loss, 3, 1)).reshape(n, q.size, -1)
    lo = preds[..., int(np.argmin(q))]
    hi = preds[..., int(np.argmax(q))]
    qs, mils, icps = (a.reshape(n, -1).mean(axis=1).tolist()
                      for a in (loss, np.abs(hi - lo), (lo <= targets) & (targets <= hi)))
    return [
        ClientScore(cid, qs[k], mils[k], icps[k], size, tuple(level.tolist()))
        for k, (cid, level) in enumerate(zip(ids, by_level.mean(axis=2)))
    ]


def evaluate(models: dict[str, ForecasterModel], test_data: dict) -> EvalReport:
    """Score every client on its own test windows.

    ``test_data`` maps client ids to :class:`~fedgame.data.WindowedDataset`
    splits.  Each output column is scored at the quantile level the
    models were configured with, so every model must share one quantile
    set.  Clients with no test windows are excluded from all averages
    and listed in the report.  Predictions and targets are converted
    back to original units with each dataset's normalization stats.
    """
    if not models:
        raise UsageError("evaluate needs at least one client model")
    levels = {m.config.quantiles for m in models.values()}
    if len(levels) > 1:
        raise StructuralError(f"models disagree on their quantile levels: {sorted(levels)}")
    (quantiles,) = levels

    excluded = [c for c in sorted(models) if test_data.get(c) is None or not len(test_data[c])]
    ids = [c for c in sorted(models) if c not in excluded]
    if not ids:
        raise UsageError("every client was excluded: no test windows at all")
    scored = {}
    for group in stack_groups([(models[c].config, len(test_data[c])) for c in ids]):
        stack = [ids[k] for k in group]
        scored.update(zip(stack, _score_stack(stack, models, test_data)))
    scores = [scored[c] for c in ids]

    ns = np.array([c.n for c in scores], dtype=np.float64)

    def macro(attr):
        return float(np.mean([getattr(c, attr) for c in scores]))

    def weighted(attr):
        vals = np.array([getattr(c, attr) for c in scores])
        return float(np.sum(vals * ns) / np.sum(ns))

    return EvalReport(
        quantiles=quantiles,
        clients=tuple(scores),
        excluded=tuple(excluded),
        macro_qs=macro("qs"),
        macro_mil=macro("mil"),
        macro_icp=macro("icp"),
        weighted_qs=weighted("qs"),
        weighted_mil=weighted("mil"),
        weighted_icp=weighted("icp"),
    )
