"""Forecast distributions, proper scoring rules and PIT computation.

Two forecast representations are supported: a logistic distribution
left-truncated at 0 parameterized by location and scale, and a Bernstein
quantile function with non-decreasing coefficients.
The scoring rules (closed-form and ensemble CRPS) double as training losses
and as evaluation metrics: one formula serves NumPy arrays and autodiff
Tensors alike (an ``ad.*`` op on arrays returns an array) and gives both the
same bits, so a model is selected and judged on the score it minimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError

SCALE_FLOOR = 1e-6  # keeps CRPS gradients bounded for degenerate forecasts
DEFAULT_N_LEVELS = 99


# ---------------------------------------------------------------------------
# Distribution types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncLogistic:
    """Logistic distributions left-truncated at 0, one forecast per entry
    of ``location`` and ``scale`` (scalars for a single forecast)."""

    location: float | np.ndarray
    scale: float | np.ndarray

    def __post_init__(self):
        if np.shape(self.location) != np.shape(self.scale):
            raise DomainError("location and scale differ in shape")
        if not (np.all(np.isfinite(self.location))
                and np.all(np.isfinite(self.scale))):
            raise DomainError("location and scale must be finite")
        if not np.all(np.asarray(self.scale) > 0):
            raise DomainError("scale must be positive")


@dataclass(frozen=True)
class BernsteinQuantile:
    """Quantile functions sum_v alpha_v * B_{v,d}(p) with monotone alpha,
    of shape (d+1,) for one forecast or (n, d+1) for a batch."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim not in (1, 2) or alpha.shape[-1] < 2:
            raise DomainError("alpha must be (d+1,) or (n, d+1) with d >= 1")
        if not np.all(np.isfinite(alpha)):
            raise DomainError("alpha must be finite")
        if np.any(np.diff(alpha, axis=-1) < 0):
            raise DomainError("alpha must be non-decreasing")
        object.__setattr__(self, "alpha", alpha)

    @property
    def degree(self):
        return self.alpha.shape[-1] - 1


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
    binom = np.array([math.comb(degree, v) for v in nu], dtype=np.float64)
    pe = p[..., None]
    return binom * pe**nu * (1.0 - pe) ** (degree - nu)


def bqn_coefficients(theta):
    """Map raw outputs to non-decreasing coefficients.

    ``alpha_0 = theta_0`` and ``alpha_v = alpha_{v-1} + softplus(theta_v)``
    for v >= 1, as increments times upper-triangular ones.  Works on
    trailing axes; a Tensor ``theta`` builds it for the training loss.
    """
    increments = ad.concat([theta[..., :1], ad.softplus(theta[..., 1:])])
    size = theta.shape[-1]
    return increments @ np.triu(np.ones((size, size)))


def bqn_quantile(dist: BernsteinQuantile, p):
    """Quantile functions at level(s) ``p``, level axes last; one product
    per forecast row, so each row equals ``basis @ alpha_row`` bit for bit."""
    return _scalar_or_array(
        (bernstein_basis(dist.degree, p) @ dist.alpha[..., None])[..., 0])


# ---------------------------------------------------------------------------
# Truncated logistic
# ---------------------------------------------------------------------------


def tlogis_params(theta):
    """Location and scale of raw (..., 2) outputs: identity and softplus."""
    return theta[..., 0], ad.softplus(theta[..., 1]) + SCALE_FLOOR


def tlogis_map(theta):
    """Raw (..., 2) outputs to one TruncLogistic: identity location,
    softplus scale."""
    return TruncLogistic(*tlogis_params(np.asarray(theta, dtype=np.float64)))


_TRUNC_CLAMP = 300.0  # switch to the deep-truncation limit beyond this


def _trunc_tail_value(lb):
    """Stable evaluation of ``e^{2 softplus(lb)} (softplus(-lb) - sigmoid(-lb))``.

    This is the tail contribution of the truncated-logistic CRPS.  Written
    in terms of ``w = sigmoid(-lb)`` it equals ``(-log1p(-w) - w) / w**2``,
    which tends to 1/2 as lb grows; the naive difference of softplus and
    sigmoid cancels catastrophically there, so small ``w`` switches to the
    Taylor series ``1/2 + w/3 + w^2/4 + w^3/5 + w^4/6``.  Its derivative
    follows from d/dw[(-log1p(-w) - w)/w^2] together with dw/dlb = -w(1-w):
    it collapses to ``g'(lb) = 2 sigmoid(lb) g(lb) - 1``.
    """
    lb = np.asarray(lb, dtype=np.float64)
    small = lb > 6.9  # w = sigmoid(-lb) < 1e-3
    lb_d = np.minimum(lb, 6.9)  # keeps the unused direct branch finite
    direct = np.exp(2.0 * np.logaddexp(0.0, lb_d)) * (
        np.logaddexp(0.0, -lb_d) - ad._sigmoid(-lb_d)
    )
    w = ad._sigmoid(-lb)
    series = 0.5 + w * (1.0 / 3.0 + w * (0.25 + w * (0.2 + w / 6.0)))
    return np.where(small, series, direct)


def crps_tlogis_core(mu, sigma, y):
    """Closed-form CRPS of a logistic distribution left-truncated at 0.

    With standardized observation u (clamped below at the standardized
    truncation point lb) and softplus SP, the survival function of the
    truncated distribution is exp(SP(lb) - SP(x)), and integrating the
    squared CDF error gives

        CRPS / sigma = (u - lb) + 2 e^{SP(lb)} (SP(-u) - SP(-lb))
                       + g(lb) + (-y)_+ / sigma

    where g is the stable tail term of :func:`_trunc_tail_value`.
    This form holds full accuracy however much probability mass the
    truncation removes (the textbook 1/(1 - F(lb))^2 normalization cancels
    catastrophically once most mass lies below the bound).  Past lb = 300
    the middle term is replaced by its deep-truncation limit
    2 (e^{-(u - lb)} - 1), exact there to within 1e-130, which avoids the
    e^{SP(lb)} overflow while keeping the dominant (u - lb) term intact.

    A Tensor ``mu`` or ``sigma`` makes the CRPS one tape node whose backward
    is closed-form.  Write t = (u - lb)_+, lb_c = min(lb, 300), core for the
    first three terms as a function of (t, lb_c), A = e^{SP(lb_c)} and σ for
    the sigmoid.  Then

        ∂core/∂t    = 1 - 2 A σ(-(lb_c + t))                (u > lb)
        ∂core/∂lb_c = 2 A [σ(lb_c) (SP(-(lb_c + t)) - SP(-lb_c))
                           - σ(-(lb_c + t)) + σ(-lb_c)] + g'(lb_c)

    with g'(lb) = 2 σ(lb) g(lb) - 1; past the clamp ∂core/∂t is
    1 - 2 e^{-t} and ∂core/∂lb_c is 0.  As ∂u/∂mu = ∂lb/∂mu = -1/sigma,
    ∂u/∂sigma = -u/sigma and ∂lb/∂sigma = -lb/sigma, and the below-bound
    term times sigma depends on neither parameter,

        ∂CRPS/∂mu    = -∂core/∂lb_c
        ∂CRPS/∂sigma = core - t ∂core/∂t - lb ∂core/∂lb_c.
    """
    mu_v, sigma_v, y = ad.value_of(mu), ad.value_of(sigma), ad.value_of(y)
    y_std = (y - mu_v) / sigma_v
    lb = (0.0 - mu_v) / sigma_v
    above = y_std > lb
    t = np.where(above, y_std - lb, 0.0 * y_std)
    deep = lb >= _TRUNC_CLAMP
    # direct branch, on arguments capped so e^{SP(lb)} cannot overflow
    lb_c = np.where(deep, _TRUNC_CLAMP + 0.0 * lb, lb)
    amp = np.exp(np.logaddexp(0.0, lb_c))
    sp_t = np.logaddexp(0.0, -(lb_c + t))
    sp_lb = np.logaddexp(0.0, -lb_c)
    mid_direct = 2.0 * amp * (sp_t - sp_lb)
    decay = np.exp(-t)
    mid = np.where(deep, 2.0 * (decay - 1.0), mid_direct)
    tail = _trunc_tail_value(lb_c)
    core = t + mid + tail
    below = np.where(y < 0.0, (0.0 - y) / sigma_v, 0.0 * y_std)

    def backward(g):
        sig_lb, sig_t = ad._sigmoid(lb_c), ad._sigmoid(-(lb_c + t))
        d_t = np.where(above, np.where(deep, 1.0 - 2.0 * decay,
                                       1.0 - 2.0 * amp * sig_t), 0.0)
        d_lb = np.where(deep, 0.0, 2.0 * amp * (
            sig_lb * (sp_t - sp_lb) - sig_t + ad._sigmoid(-lb_c))
            + 2.0 * sig_lb * tail - 1.0)
        if isinstance(mu, ad.Tensor):
            mu._accumulate(ad._unbroadcast(-g * d_lb, mu_v.shape))
        if isinstance(sigma, ad.Tensor):
            sigma._accumulate(ad._unbroadcast(
                g * (core - t * d_t - lb * d_lb), sigma_v.shape))

    return ad._node(sigma_v * (core + below), (mu, sigma), backward,
                    "crps_tlogis")


def _scalar_or_array(out):
    """A float for a 0-d result, else the array itself."""
    return float(out) if np.ndim(out) == 0 else out


def crps_tlogis(dist: TruncLogistic, y):
    """CRPS of truncated logistic forecasts; broadcasts forecasts and ``y``."""
    return _scalar_or_array(crps_tlogis_core(
        dist.location, dist.scale, np.asarray(y, dtype=np.float64)))


def tlogis_cdf(dist: TruncLogistic, y):
    """CDF of the truncated distribution as one minus the survival ratio,
    -expm1(SP(lb) - SP(u)) with softplus SP (as in :func:`crps_tlogis_core`):
    accurate however much mass the truncation removes."""
    u = (np.asarray(y, dtype=np.float64) - dist.location) / dist.scale
    lb = (0.0 - dist.location) / dist.scale
    # log survival ratio, capped at 0 below the bound; "0.0 -" returns +0.0
    log_ratio = np.minimum(ad.softplus(lb) - ad.softplus(u), 0.0)
    return _scalar_or_array(0.0 - np.expm1(log_ratio))


def tlogis_quantile(dist: TruncLogistic, p):
    """Exact inverse CDF of the truncated logistic."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0) or np.any(p >= 1):
        raise DomainError("p must lie strictly inside (0, 1)")
    return _scalar_or_array(
        tlogis_quantile_core(dist.location, dist.scale, p))


def tlogis_quantile_core(mu, sigma, p):
    """Inverse CDF of the truncated logistic, broadcasting (mu, sigma) over p.

    With lb = -mu / sigma the truncated level p maps to the base
    level qq = sigmoid(lb) + p sigmoid(-lb).  The standardized offset from
    the bound, logit(qq) - lb, simplifies to softplus(log p - lb) -
    log1p(-p).  This form keeps full relative accuracy however much mass the
    truncation removes, where mu + sigma logit(qq) rounds 1 - qq to 0 and
    returns +inf.
    """
    lb = (0.0 - mu) / sigma
    return 0.0 + sigma * (ad.softplus(-lb + np.log(p)) - np.log1p(-p))


# ---------------------------------------------------------------------------
# Ensemble CRPS
# ---------------------------------------------------------------------------


def crps_sample_batch(values, y):
    """Vectorized ensemble CRPS; ``values`` is an (n, m) array or Tensor
    sorted row-wise.  Term 1 sums and divides, as ``np.mean`` does."""
    y = np.asarray(y, dtype=np.float64)
    m = values.shape[-1]
    term1 = ad._sum(ad.absolute(values - y[..., None]), axis=-1) / m
    k = np.arange(m)
    term2 = values @ (2.0 * k - m + 1.0) / (m * m)
    return term1 - term2


# ---------------------------------------------------------------------------
# Batched forecast core: raw model outputs theta (n, D) to quantiles and CRPS
# ---------------------------------------------------------------------------


def level_grid(n=DEFAULT_N_LEVELS):
    """The equidistant level grid k/(n+1), k = 1..n, of every quantile
    forecast: the quantile loss, the Bernstein CRPS, a pool average and the
    raw ensemble's n members."""
    if n < 1:
        raise DomainError(f"a level grid needs at least 1 level, not {n}")
    return np.arange(1, n + 1) / (n + 1.0)


def quantile_map(family, n_levels, degree):
    """Function from raw outputs theta (n, degree + 1) to their
    (n, n_levels) quantile matrix on :func:`level_grid` of ``n_levels``.

    ``family`` is "tlogis" (theta holds location and raw scale) or "bqn"
    (theta holds the raw Bernstein coefficients), whose basis is built here
    once.  A Tensor ``theta`` builds the same matrix for the training losses.
    """
    levels = level_grid(n_levels)
    if family == "tlogis":
        def quantiles(theta):
            mu, sigma = tlogis_params(theta)
            return tlogis_quantile_core(mu[:, None], sigma[:, None], levels)
        return quantiles
    basis = bernstein_basis(degree, levels).T
    return lambda theta: bqn_coefficients(theta) @ basis


def theta_quantiles(theta, family, n_levels):
    """(n, n_levels) quantile matrix of raw outputs; see
    :func:`quantile_map`."""
    return quantile_map(family, n_levels, theta.shape[1] - 1)(theta)


def crps_map(family, n_levels, degree):
    """Function from raw outputs theta (an array or, for a loss, a Tensor)
    and observations to their per-row CRPS.

    Truncated-logistic forecasts use the closed form; Bernstein forecasts
    are scored as n_levels-point empirical forecasts on the level grid,
    through one :func:`quantile_map`; only they build a grid.
    """
    if family == "tlogis":
        def crps(theta, obs):
            mu, sigma = tlogis_params(theta)
            return crps_tlogis_core(mu, sigma, obs)
        return crps
    quantiles = quantile_map(family, n_levels, degree)
    return lambda theta, obs: crps_sample_batch(quantiles(theta), obs)


def theta_crps(theta, obs, family, n_levels):
    """Per-row CRPS of raw outputs; see :func:`crps_map`."""
    return crps_map(family, n_levels, theta.shape[1] - 1)(theta, obs)


def theta_mean_crps(theta, obs, family, n_levels):
    """Mean of :func:`theta_crps` as a float."""
    return float(np.mean(theta_crps(theta, obs, family, n_levels)))


# ---------------------------------------------------------------------------
# Probability integral transform
# ---------------------------------------------------------------------------


def _bisect_level(dist: BernsteinQuantile, y, side, tol=1e-10):
    """Extreme levels p with Q(p) = y, one per row; ``side`` selects the
    flat-segment end.  Every row halves the same width from [0, 1]."""
    lo, hi = np.zeros(np.shape(y)), np.ones(np.shape(y))
    width = 1.0
    while width > tol:
        mid = 0.5 * (lo + hi)
        basis = bernstein_basis(dist.degree, mid)
        q = (basis[..., None, :] @ dist.alpha[..., None])[..., 0, 0]
        up = (q < y) | ((q == y) & (side == "right"))
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        width *= 0.5
    return 0.5 * (lo + hi)


def pit(dist, y, rng):
    """(Unified) probability integral transform of observations.

    For the Bernstein representation the quantile functions are inverted by
    bisection; on a flat segment a uniform draw from the matching level set
    is returned (one draw per flat row, in row order), which keeps PIT
    histograms uniform for calibrated forecasts.  Observations outside
    [alpha_0, alpha_d] map to 0 or 1.
    """
    if isinstance(dist, TruncLogistic):
        return tlogis_cdf(dist, y)
    if isinstance(dist, BernsteinQuantile):
        y = np.asarray(y, dtype=np.float64)
        below, above = y < dist.alpha[..., 0], y > dist.alpha[..., -1]
        left = _bisect_level(dist, y, "left")
        right = _bisect_level(dist, y, "right")
        out = np.where(below, 0.0, np.where(above, 1.0, 0.5 * (left + right)))
        flat = ~below & ~above & (right - left > 1e-9)
        out[flat] = rng.uniform(left[flat], right[flat])
        return _scalar_or_array(out)
    raise DomainError(f"unsupported distribution type {type(dist).__name__}")
