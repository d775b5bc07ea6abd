"""Probabilistic forecast verification: mean CRPS, central prediction
intervals at the ensemble-size-dependent nominal level, and PIT histograms.

Forecasts come in two shapes.  A batched distribution object, one
:class:`~enspost.dist.TruncLogistic` or
:class:`~enspost.dist.BernsteinQuantile` with one entry per observation, is
scored by :func:`evaluate`: truncated-logistic forecasts in closed form,
Bernstein forecasts as K-point empirical forecasts via the ensemble CRPS.
An (n, K) quantile matrix, such as an aggregated pool or the raw ensemble
itself (the EPS baseline), is scored by :func:`evaluate_quantiles`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .data import Dataset
from .dist import (BernsteinQuantile, QuantileLevels, TruncLogistic,
                   bqn_quantile, crps_sample_batch, crps_tlogis, level_grid,
                   pit, theta_mean_crps, tlogis_quantile)
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
        return (tlogis_quantile(forecast, p_lo), tlogis_quantile(forecast, p_hi))
    if isinstance(forecast, BernsteinQuantile):
        return bqn_quantile(forecast, p_lo), bqn_quantile(forecast, p_hi)
    raise DomainError(f"unsupported forecast type {type(forecast).__name__}")


def ensemble_pit(values, y, rng):
    """Unified PIT of an observation against an empirical forecast.

    Rank position among the values, uniformly randomized across ties, mapped
    to (0, 1) by the (M+1) convention.
    """
    values = np.asarray(values, dtype=np.float64)
    below = int(np.count_nonzero(values < y))
    ties = int(np.count_nonzero(values == y))
    return (below + rng.uniform() * (1 + ties)) / (values.size + 1.0)


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
             levels=None):
    """Score a batch of forecasts, one per observation.

    ``forecast`` is one TruncLogistic or BernsteinQuantile with array
    parameters, e.g. ``model.forecast(test)``.  Truncated-logistic
    forecasts use the closed-form CRPS; Bernstein forecasts are scored with
    the ensemble CRPS of their quantiles on ``levels`` (default the 99-level
    percent grid).
    """
    lo, hi = pi_bounds(forecast, level)
    observations, level = _checked(np.shape(lo), observations, level)
    rng = rng if rng is not None else np.random.default_rng(0)
    if isinstance(forecast, TruncLogistic):
        crps = crps_tlogis(forecast, observations)
    else:
        levels = QuantileLevels.equidistant() if levels is None else levels
        crps = crps_sample_batch(bqn_quantile(forecast, level_grid(levels)),
                                 observations)
    return _report(crps, lo, hi, pit(forecast, observations, rng),
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


def evaluate_quantiles(quantiles, observations, level, levels=None,
                       pit_bins=20, rng=None):
    """Vectorized :func:`evaluate` for an (n, K) matrix of sorted quantiles.

    PI bounds interpolate each row linearly on the level grid; PIT is the
    rank position among the row's values, uniformly randomized across ties.
    """
    quantiles = np.asarray(quantiles, dtype=np.float64)
    if quantiles.ndim != 2:
        raise ContractError("quantiles must be an (n, K) matrix")
    observations, level = _checked(quantiles.shape[:1], observations, level)
    if levels is None:
        levels = QuantileLevels.equidistant(quantiles.shape[1])
    lv = level_grid(levels)
    if lv.shape != quantiles.shape[1:]:
        raise ContractError(f"{lv.size} levels for {quantiles.shape[1]} "
                            "quantile columns")
    rng = rng if rng is not None else np.random.default_rng(0)

    crps = crps_sample_batch(quantiles, observations)
    lo = _interp_rows((1.0 - level) / 2.0, lv, quantiles)
    hi = _interp_rows((1.0 + level) / 2.0, lv, quantiles)
    y = observations[:, None]
    below = np.count_nonzero(quantiles < y, axis=1)
    ties = np.count_nonzero(quantiles == y, axis=1)
    pits = ((below + rng.uniform(size=observations.size) * (1 + ties))
            / (quantiles.shape[1] + 1.0))
    return _report(crps, lo, hi, pits, observations, level, pit_bins)


def model_mean_crps(model, dataset: Dataset, ens=None):
    """Mean CRPS of a fitted model on a dataset, from one forward pass.

    Truncated-logistic families use the closed form; quantile families are
    scored as K-point empirical forecasts at the model's level grid.
    ``ens``, an (n, M, p) block, stands in for ``dataset.ens``.
    """
    return theta_mean_crps(
        model.raw_theta(dataset, ens), dataset.obs, model.family,
        QuantileLevels.equidistant(model.config.n_quantile_levels))


def raw_eps_report(dataset: Dataset, primary=None, level=None, pit_bins=20,
                   rng=None):
    """Score the raw primary ensemble itself (the EPS baseline row).

    The sorted members are a quantile forecast at the order-statistic levels
    k/(M+1); at the nominal (M-1)/(M+1) level the PI is exactly the ensemble
    range.  PIT is the randomized rank position.
    """
    primary = dataset.primary if primary is None else int(primary)
    if not 0 <= primary < dataset.n_predictors:
        raise DomainError("primary predictor index out of range")
    members = np.sort(dataset.ens[:, :, primary], axis=1)
    m = members.shape[1]
    level = float(nominal_pi_level(m)) if level is None else level
    return evaluate_quantiles(members, dataset.obs, level,
                              levels=QuantileLevels.equidistant(m),
                              pit_bins=pit_bins, rng=rng)


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
