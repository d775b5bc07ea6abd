"""Forecast distributions, proper scoring rules and PIT computation.

Two forecast representations are supported: a logistic distribution
left-truncated at a lower bound (default 0) parameterized by location and
scale, and a Bernstein quantile function with non-decreasing coefficients.
The scoring rules (closed-form CRPS, ensemble CRPS, mean quantile score)
double as training losses and as evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from . import autodiff as ad
from .errors import DomainError

SCALE_FLOOR = 1e-6  # keeps CRPS gradients bounded for degenerate forecasts
DEFAULT_N_LEVELS = 99


# ---------------------------------------------------------------------------
# Distribution types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncLogistic:
    """Logistic distribution left-truncated at ``lower``."""

    location: float
    scale: float
    lower: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise DomainError("scale must be positive")


@dataclass(frozen=True)
class BernsteinQuantile:
    """Quantile function sum_v alpha_v * B_{v,d}(p) with monotone alpha."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim != 1 or alpha.size < 2:
            raise DomainError("alpha must be a 1-D array of length >= 2")
        if not np.all(np.isfinite(alpha)):
            raise DomainError("alpha must be finite")
        if np.any(np.diff(alpha) < 0):
            raise DomainError("alpha must be non-decreasing")
        object.__setattr__(self, "alpha", alpha)

    @property
    def degree(self):
        return self.alpha.size - 1


@dataclass(frozen=True)
class QuantileLevels:
    """Strictly increasing quantile levels in (0, 1)."""

    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        if levels.ndim != 1 or levels.size == 0:
            raise DomainError("levels must be a non-empty 1-D array")
        if np.any(levels <= 0) or np.any(levels >= 1):
            raise DomainError("levels must lie strictly inside (0, 1)")
        if np.any(np.diff(levels) <= 0):
            raise DomainError("levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def equidistant(cls, n=DEFAULT_N_LEVELS):
        """The grid k/(n+1) for k = 1..n."""
        return cls(np.arange(1, n + 1) / (n + 1.0))

    def __len__(self):
        return self.levels.size


class _NumpyOps:
    """Shared arithmetic shim so one formula serves numpy and Tensors."""

    softplus = staticmethod(lambda x: np.logaddexp(0.0, x))
    sigmoid = staticmethod(ad._sigmoid)
    exp = staticmethod(np.exp)
    trunc_tail = staticmethod(ad._trunc_tail_value)
    where = staticmethod(np.where)
    value = staticmethod(np.asarray)
    concat = staticmethod(lambda parts: np.concatenate(parts, axis=-1))


class _TensorOps:
    softplus = staticmethod(ad.softplus)
    sigmoid = staticmethod(ad.sigmoid)
    exp = staticmethod(ad.exp)
    trunc_tail = staticmethod(ad.trunc_tail)
    where = staticmethod(ad.where)
    value = staticmethod(lambda x: x.value if isinstance(x, ad.Tensor) else np.asarray(x))
    concat = staticmethod(lambda parts: ad.concat(parts, axis=-1))


NUMPY_OPS = _NumpyOps()
TENSOR_OPS = _TensorOps()


# ---------------------------------------------------------------------------
# Bernstein quantile functions
# ---------------------------------------------------------------------------


def bernstein_basis(degree, p):
    """Bernstein basis values ``C(d,v) p^v (1-p)^(d-v)`` for v = 0..d.

    ``p`` may be a scalar or an array; the basis axis is appended last.
    The entries form a partition of unity.
    """
    if degree < 1:
        raise DomainError("degree must be >= 1")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise DomainError("p must lie in [0, 1]")
    nu = np.arange(degree + 1)
    pe = p[..., None]
    return comb(degree, nu) * pe**nu * (1.0 - pe) ** (degree - nu)


def bqn_coefficients(theta, ops=NUMPY_OPS):
    """Map raw outputs to non-decreasing coefficients.

    ``alpha_0 = theta_0`` and ``alpha_v = alpha_{v-1} + softplus(theta_v)``
    for v >= 1, as increments times upper-triangular ones.  Works on
    trailing axes; ``ops=TENSOR_OPS`` builds it for the training loss.
    """
    if ops is NUMPY_OPS:
        theta = np.asarray(theta, dtype=np.float64)
    increments = ops.concat([theta[..., :1], ops.softplus(theta[..., 1:])])
    size = ops.value(theta).shape[-1]
    return increments @ np.triu(np.ones((size, size)))


def bqn_quantile(dist: BernsteinQuantile, p):
    """Evaluate the Bernstein quantile function at level(s) ``p``."""
    return bernstein_basis(dist.degree, p) @ dist.alpha


def quantile_score_mean(dist: BernsteinQuantile, y, levels: QuantileLevels):
    """Mean pinball score 2(1{y < Q(tau)} - tau)(Q(tau) - y) over levels."""
    q = bqn_quantile(dist, levels.levels)
    return float(np.mean(pinball(q, y, levels.levels)))


def pinball(quantiles, y, levels):
    """Elementwise quantile score; broadcastable over batched quantiles."""
    quantiles = np.asarray(quantiles, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if quantiles.ndim == y.ndim + 1:
        y = y[..., None]
    indicator = (y < quantiles).astype(np.float64)
    return 2.0 * (indicator - np.asarray(levels)) * (quantiles - y)


# ---------------------------------------------------------------------------
# Truncated logistic
# ---------------------------------------------------------------------------


def tlogis_params(theta, ops=NUMPY_OPS):
    """Location and scale of raw (..., 2) outputs: identity and softplus."""
    return theta[..., 0], ops.softplus(theta[..., 1]) + SCALE_FLOOR


def tlogis_map(theta):
    """Raw 2-vector to TruncLogistic: identity location, softplus scale."""
    mu, sigma = tlogis_params(np.asarray(theta, dtype=np.float64))
    return TruncLogistic(float(mu), float(sigma))


_TRUNC_CLAMP = 300.0  # switch to the deep-truncation limit beyond this


def crps_tlogis_core(mu, sigma, y, lower, ops=NUMPY_OPS):
    """Closed-form CRPS of a left-truncated logistic distribution.

    With standardized observation u (clamped below at the standardized
    truncation point lb) and softplus SP, the survival function of the
    truncated distribution is exp(SP(lb) - SP(x)), and integrating the
    squared CDF error gives

        CRPS / sigma = (u - lb) + 2 e^{SP(lb)} (SP(-u) - SP(-lb))
                       + g(lb) + (lower - y)_+ / sigma

    where g is the stable tail term of :func:`autodiff.trunc_tail`.  This
    form holds full accuracy however much probability mass the truncation
    removes (the textbook 1/(1 - F(lb))^2 normalization cancels
    catastrophically once most mass lies below the bound).  Past lb = 300
    the middle term is replaced by its deep-truncation limit
    2 (e^{-(u - lb)} - 1), exact there to within 1e-130, which avoids the
    e^{SP(lb)} overflow while keeping the dominant (u - lb) term intact.
    """
    y_std = (y - mu) / sigma
    lb = (lower - mu) / sigma
    above = ops.value(y_std) > ops.value(lb)
    t = ops.where(above, y_std - lb, 0.0 * y_std)
    deep = ops.value(lb) >= _TRUNC_CLAMP
    # direct branch, on arguments capped so e^{SP(lb)} cannot overflow
    lb_c = ops.where(deep, _TRUNC_CLAMP + 0.0 * lb, lb)
    amp = ops.exp(ops.softplus(lb_c))
    mid_direct = 2.0 * amp * (ops.softplus(-(lb_c + t)) - ops.softplus(-lb_c))
    mid_limit = 2.0 * (ops.exp(-t) - 1.0)
    mid = ops.where(deep, mid_limit, mid_direct)
    core = t + mid + ops.trunc_tail(lb_c)
    below_obs = ops.value(y) < lower
    below = ops.where(below_obs, (lower - y) / sigma, 0.0 * y_std)
    return sigma * (core + below)


def crps_tlogis(dist: TruncLogistic, y):
    """CRPS of a truncated logistic forecast; vectorized over ``y``."""
    out = crps_tlogis_core(dist.location, dist.scale, np.asarray(y, dtype=np.float64),
                           dist.lower)
    return float(out) if np.ndim(y) == 0 else out


def tlogis_cdf(dist: TruncLogistic, y):
    """CDF of the truncated distribution, clamped to [0, 1]."""
    f = NUMPY_OPS.sigmoid((np.asarray(y, dtype=np.float64) - dist.location) / dist.scale)
    flb = NUMPY_OPS.sigmoid((dist.lower - dist.location) / dist.scale)
    out = np.clip((f - flb) / (1.0 - flb), 0.0, 1.0)
    return float(out) if np.ndim(y) == 0 else out


def tlogis_quantile(dist: TruncLogistic, p):
    """Exact inverse CDF of the truncated logistic."""
    p_arr = np.asarray(p, dtype=np.float64)
    if np.any(p_arr <= 0) or np.any(p_arr >= 1):
        raise DomainError("p must lie strictly inside (0, 1)")
    out = tlogis_quantile_core(dist.location, dist.scale, p_arr, dist.lower)
    return float(out) if np.ndim(p) == 0 else out


def tlogis_quantile_core(mu, sigma, p, lower=0.0, ops=NUMPY_OPS):
    """Inverse CDF of the truncated logistic, broadcasting (mu, sigma) over p.

    With lb = (lower - mu) / sigma the truncated level p maps to the base
    level qq = sigmoid(lb) + p sigmoid(-lb).  The standardized offset from
    the bound, logit(qq) - lb, simplifies to softplus(log p - lb) -
    log1p(-p).  This form keeps full relative accuracy however much mass the
    truncation removes, where mu + sigma logit(qq) rounds 1 - qq to 0 and
    returns +inf.
    """
    lb = (lower - mu) / sigma
    # Tensor operands first: ndarray - Tensor would build an object array
    return lower + sigma * (ops.softplus(-lb + np.log(p)) - np.log1p(-p))


# ---------------------------------------------------------------------------
# Ensemble CRPS
# ---------------------------------------------------------------------------


def crps_sample(values, y):
    """CRPS of an empirical (ensemble) forecast with sorted members."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DomainError("ensemble must contain at least one member")
    m = values.size
    term1 = np.mean(np.abs(values - y))
    k = np.arange(m)
    # for sorted x: sum_ij |x_i - x_j| = 2 * sum_k x_k (2k - m + 1)
    term2 = np.sum(values * (2.0 * k - m + 1.0)) / (m * m)
    return float(term1 - term2)


def crps_sample_batch(values, y):
    """Vectorized ensemble CRPS; ``values`` is (n, m) sorted row-wise."""
    values = np.asarray(values, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = values.shape[-1]
    term1 = np.mean(np.abs(values - y[..., None]), axis=-1)
    k = np.arange(m)
    term2 = values @ (2.0 * k - m + 1.0) / (m * m)
    return term1 - term2


# ---------------------------------------------------------------------------
# Batched forecast core: raw model outputs theta (n, D) to quantiles and CRPS
# ---------------------------------------------------------------------------


def level_grid(levels):
    """Level array of a :class:`QuantileLevels` or of an array-like."""
    if isinstance(levels, QuantileLevels):
        return levels.levels
    return np.asarray(levels, dtype=np.float64)


def theta_quantiles(theta, family, levels, ops=NUMPY_OPS):
    """(n, K) quantile matrix of raw outputs at the given levels.

    ``family`` is "tlogis" (theta holds location and raw scale) or "bqn"
    (theta holds the raw Bernstein coefficients of degree D - 1).
    ``ops=TENSOR_OPS`` builds the same matrix for the training losses.
    """
    levels = level_grid(levels)
    if family == "tlogis":
        mu, sigma = tlogis_params(theta, ops)
        return tlogis_quantile_core(mu[:, None], sigma[:, None], levels,
                                    ops=ops)
    degree = ops.value(theta).shape[1] - 1
    return bqn_coefficients(theta, ops) @ bernstein_basis(degree, levels).T


def theta_mean_crps(theta, obs, family, levels):
    """Mean CRPS of raw outputs against observations.

    Truncated-logistic forecasts use the closed form; Bernstein forecasts
    are scored as K-point empirical forecasts on the level grid.
    """
    if family == "tlogis":
        mu, sigma = tlogis_params(theta)
        return float(np.mean(crps_tlogis_core(mu, sigma, obs, 0.0)))
    return float(crps_sample_batch(theta_quantiles(theta, family, levels),
                                   obs).mean())


# ---------------------------------------------------------------------------
# Probability integral transform
# ---------------------------------------------------------------------------


def _bisect_level(dist: BernsteinQuantile, y, side, tol=1e-10):
    """Extreme level p with Q(p) = y; ``side`` selects the flat-segment end."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        q = float(bqn_quantile(dist, mid))
        if q < y or (side == "right" and q == y):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pit(dist, y, rng):
    """(Unified) probability integral transform of an observation.

    For the Bernstein representation the quantile function is inverted by
    bisection; on flat segments a uniform draw from the matching level set is
    returned, which keeps PIT histograms uniform for calibrated forecasts.
    """
    if isinstance(dist, TruncLogistic):
        return float(tlogis_cdf(dist, y))
    if isinstance(dist, BernsteinQuantile):
        if y < dist.alpha[0]:
            return 0.0
        if y > dist.alpha[-1]:
            return 1.0
        left = _bisect_level(dist, y, "left")
        right = _bisect_level(dist, y, "right")
        if right - left <= 1e-9:
            return 0.5 * (left + right)
        return float(rng.uniform(left, right))
    raise DomainError(f"unsupported distribution type {type(dist).__name__}")
