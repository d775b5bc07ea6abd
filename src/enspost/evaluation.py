"""Probabilistic forecast verification: mean CRPS, central prediction
intervals at the ensemble-size-dependent nominal level, and PIT histograms.

Forecasts come in two shapes.  A batched distribution object, one
:class:`~enspost.dist.TruncLogistic` or
:class:`~enspost.dist.BernsteinQuantile` with one entry per observation, is
scored by :func:`evaluate`: truncated-logistic forecasts in closed form,
Bernstein forecasts as K-point empirical forecasts via the ensemble CRPS.
An (n, K) quantile matrix, such as an aggregated pool or the raw ensemble
itself (the EPS baseline), is scored by :func:`evaluate_quantiles`; a
multi-seed pool's random k-subsets by :func:`resample_and_score`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import dist
from .data import Dataset
from .dist import BernsteinQuantile, TruncLogistic
from .errors import ContractError, DomainError


@dataclass(frozen=True)
class EvaluationReport:
    """The verification columns of a method row: CRPS, PI, PIT."""

    mean_crps: float
    pi_level: float
    mean_pi_length: float
    pi_coverage: float          # percent of observations inside the PI
    pit_histogram: tuple        # counts over equal-width bins on [0, 1]
    n_samples: int

    def __post_init__(self):
        if not 0.0 <= self.pi_coverage <= 100.0:
            raise DomainError("coverage must be a percentage")
        if sum(self.pit_histogram) != self.n_samples:
            raise ContractError("PIT histogram must count every sample")

    def to_dict(self):
        return {**asdict(self), "pit_histogram": list(self.pit_histogram)}


def nominal_pi_level(m):
    """Nominal central-interval level (M-1)/(M+1) of an M-member ensemble.

    Returned as an exact rational; round ``float(level)`` for display.
    """
    if m < 2:
        raise DomainError("ensemble size must be at least 2")
    return Fraction(m - 1, m + 1)


def pi_bounds(forecast, level):
    """Central prediction intervals (lo, hi) of a forecast at a level."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly inside (0, 1)")
    p_lo, p_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    if isinstance(forecast, TruncLogistic):
        return (dist.tlogis_quantile(forecast, p_lo),
                dist.tlogis_quantile(forecast, p_hi))
    if isinstance(forecast, BernsteinQuantile):
        return (dist.bqn_quantile(forecast, p_lo),
                dist.bqn_quantile(forecast, p_hi))
    raise DomainError(f"unsupported forecast type {type(forecast).__name__}")


def _checked(batch_shape, observations, level):
    """Validated (observations, level) of one evaluation call."""
    observations = np.asarray(observations, dtype=np.float64)
    if tuple(batch_shape) != observations.shape:
        raise ContractError("forecasts and observations differ in length")
    if observations.size == 0:
        raise DomainError("nothing to evaluate")
    level = float(level)
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly inside (0, 1)")
    return observations, level


def _report(crps, lo, hi, pits, observations, level, pit_bins):
    """EvaluationReport from per-sample CRPS, PI bounds and PIT values.

    Coverage counts boundary hits as covered.
    """
    covered = (lo <= observations) & (observations <= hi)
    hist, _ = np.histogram(pits, bins=pit_bins, range=(0.0, 1.0))
    return EvaluationReport(
        mean_crps=float(np.mean(crps)),
        pi_level=level,
        mean_pi_length=float(np.mean(hi - lo)),
        pi_coverage=100.0 * float(covered.mean()),
        pit_histogram=tuple(int(c) for c in hist),
        n_samples=int(observations.size),
    )


def evaluate(forecast, observations, level, pit_bins=20, rng=None,
             n_levels=dist.DEFAULT_N_LEVELS):
    """Score a batch of forecasts, one per observation.

    ``forecast`` is one TruncLogistic or BernsteinQuantile with array
    parameters, e.g. ``model.forecast(test)``.  Truncated-logistic
    forecasts use the closed-form CRPS; Bernstein forecasts are scored with
    the ensemble CRPS of their quantiles on ``dist.level_grid(n_levels)``
    (default the 99-level percent grid).
    """
    lo, hi = pi_bounds(forecast, level)
    observations, level = _checked(np.shape(lo), observations, level)
    rng = rng if rng is not None else np.random.default_rng(0)
    if isinstance(forecast, TruncLogistic):
        crps = dist.crps_tlogis(forecast, observations)
    else:
        crps = dist.crps_sample_batch(
            dist.bqn_quantile(forecast, dist.level_grid(n_levels)),
            observations)
    return _report(crps, lo, hi, dist.pit(forecast, observations, rng),
                   observations, level, pit_bins)


def _interp_rows(x, xp, fp):
    """``np.interp(x, xp, row)`` for every finite row of ``fp``, bit for bit."""
    j = int(np.searchsorted(xp, x, side="right")) - 1
    if j < 0:
        return fp[:, 0]
    if j >= xp.size - 1 or xp[j] == x:
        return fp[:, j]
    slope = (fp[:, j + 1] - fp[:, j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[:, j]


def evaluate_quantiles(quantiles, observations, level, pit_bins=20,
                       rng=None):
    """Vectorized :func:`evaluate` for an (n, K) matrix of sorted quantiles
    at the levels ``dist.level_grid(K)``.

    PI bounds interpolate each row linearly on that grid; PIT is the rank
    position among the row's values, uniformly randomized across ties.
    """
    quantiles = np.asarray(quantiles, dtype=np.float64)
    if quantiles.ndim != 2:
        raise ContractError("quantiles must be an (n, K) matrix")
    observations, level = _checked(quantiles.shape[:1], observations, level)
    lv = dist.level_grid(quantiles.shape[1])
    rng = rng if rng is not None else np.random.default_rng(0)

    crps = dist.crps_sample_batch(quantiles, observations)
    lo = _interp_rows((1.0 - level) / 2.0, lv, quantiles)
    hi = _interp_rows((1.0 + level) / 2.0, lv, quantiles)
    y = observations[:, None]
    below = np.count_nonzero(quantiles < y, axis=1)
    ties = np.count_nonzero(quantiles == y, axis=1)
    pits = ((below + rng.uniform(size=observations.size) * (1 + ties))
            / (quantiles.shape[1] + 1.0))
    return _report(crps, lo, hi, pits, observations, level, pit_bins)


def model_mean_crps(model, dataset: Dataset):
    """Mean CRPS (:func:`~enspost.dist.theta_crps`) of a fitted model on a
    dataset, from one forward pass."""
    return inputs_mean_crps(model, model.inputs(dataset), dataset.obs)


def inputs_mean_crps(model, inputs, observations):
    """:func:`model_mean_crps` of graph inputs from ``model.inputs`` (or
    ``model.shuffled_inputs``) and their observations."""
    return dist.theta_mean_crps(model.forward(inputs), observations,
                                model.family, model.config.n_quantile_levels)


def raw_eps_report(dataset: Dataset, level=None, pit_bins=20, rng=None):
    """Score the raw primary ensemble itself (the EPS baseline row).

    The sorted members are a quantile forecast at the order-statistic levels
    k/(M+1); at the nominal (M-1)/(M+1) level the PI is exactly the ensemble
    range.  PIT is the randomized rank position.
    """
    members = np.sort(dataset.ens[:, :, dataset.primary], axis=1)
    if level is None:
        level = float(nominal_pi_level(members.shape[1]))
    return evaluate_quantiles(members, dataset.obs, level, pit_bins=pit_bins,
                              rng=rng)


def resample_and_score(pool, test: Dataset, k=10, reps=50, rng=None,
                       level=None, pit_bins=20):
    """Score ``reps`` random k-subsets of a ``ModelPool`` on the test set.

    Draws are without replacement within a draw.  Each pool member's
    quantiles are computed once and kept, so memory grows with the pool
    size, not the draw size; a draw averages them level-wise.  Returns the
    list of per-draw EvaluationReports and a summary dict
    (mean/min/max/spread of the mean CRPS across draws).
    """
    if not 1 <= k <= len(pool):
        raise DomainError(f"draw size {k} outside 1..{len(pool)} (pool size)")
    if reps < 1:
        raise DomainError("reps must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    n_levels = pool.config.n_quantile_levels
    if level is None:
        level = float(nominal_pi_level(test.n_members))

    stack = np.empty((len(pool), len(test), n_levels))
    for i, model in enumerate(pool.models):
        stack[i] = model.quantiles(test, n_levels)
    reports = []
    for _ in range(reps):
        idx = rng.choice(len(pool), size=k, replace=False)
        total = stack[idx[0]].copy()
        for i in idx[1:]:   # in draw order, as np.mean of the drawn list
            total += stack[i]
        reports.append(evaluate_quantiles(
            total / k, test.obs, level, pit_bins=pit_bins, rng=rng))
    scores = np.array([r.mean_crps for r in reports])
    summary = {
        "mean_crps": float(scores.mean()),
        "min_crps": float(scores.min()),
        "max_crps": float(scores.max()),
        "spread": float(scores.max() - scores.min()),
        "reps": reps,
        "draw_size": k,
    }
    return reports, summary


# ---------------------------------------------------------------------------
# Text/CSV rendering
# ---------------------------------------------------------------------------


def report_table(rows):
    """Aligned-column text table from ``{method name: EvaluationReport}``."""
    header = ("method", "mean_crps", "pi_length", "pi_coverage_%")
    lines = [list(header)]
    for name, rep in rows.items():
        lines.append([name, f"{rep.mean_crps:.4f}", f"{rep.mean_pi_length:.4f}",
                      f"{rep.pi_coverage:.2f}"])
    widths = [max(len(row[j]) for row in lines) for j in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in lines) + "\n"


def pit_csv(report: EvaluationReport):
    """CSV text (bin_lo, bin_hi, count) of a report's PIT histogram."""
    n = len(report.pit_histogram)
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(report.pit_histogram):
        lines.append(f"{i / n:.6f},{(i + 1) / n:.6f},{count}")
    return "\n".join(lines) + "\n"
