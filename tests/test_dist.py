"""Unit tests for forecast distributions and scoring rules."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import comb

import enspost.autodiff as ad
from enspost import dist
from enspost.errors import DomainError
from oracles import (bernstein_quantile_ref, crps_ensemble_exact,
                     crps_ensemble_pairwise, crps_sample,
                     crps_sample_batch_numpy, crps_tlogis_composed,
                     crps_tlogis_mp, crps_tlogis_quad, pinball_ref,
                     quantile_score_mean, tlogis_cdf_mp, tlogis_quantile_mp)


# ---------------------------------------------------------------------------
# Distribution types
# ---------------------------------------------------------------------------


def test_trunc_logistic_validates_scale():
    with pytest.raises(DomainError):
        dist.TruncLogistic(1.0, 0.0)
    with pytest.raises(DomainError):
        dist.TruncLogistic(1.0, -2.0)
    with pytest.raises(DomainError):
        dist.TruncLogistic(np.zeros(3), np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        dist.TruncLogistic(np.zeros(3), np.ones(2))
    for location, scale in ((np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf),
                            (np.array([0.0, np.nan]), np.ones(2))):
        with pytest.raises(DomainError, match="finite"):
            dist.TruncLogistic(location, scale)
    batch = dist.TruncLogistic(np.zeros(3), np.ones(3))
    assert batch.location.shape == batch.scale.shape == (3,)


def test_bernstein_quantile_requires_monotone_alpha():
    dist.BernsteinQuantile(np.array([0.0, 0.0, 1.0]))   # ties allowed
    with pytest.raises(DomainError):
        dist.BernsteinQuantile(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(DomainError):
        dist.BernsteinQuantile(np.array([0.0, np.inf]))
    batch = dist.BernsteinQuantile(np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 3.0]]))
    assert batch.degree == 2
    for bad in ([[0.0, 1.0, 1.0], [2.0, 1.0, 3.0]], [[0.0, 1.0, np.nan]],
                np.zeros((2, 2, 3)), [[0.0], [1.0]]):
        with pytest.raises(DomainError):
            dist.BernsteinQuantile(np.array(bad))


def test_quantile_levels_equidistant_grid():
    levels = dist.level_grid()
    assert levels.size == 99
    assert levels[0] == pytest.approx(0.01)
    assert levels[-1] == pytest.approx(0.99)
    np.testing.assert_array_equal(dist.level_grid(1), [0.5])
    with pytest.raises(DomainError):
        dist.level_grid(0)


# ---------------------------------------------------------------------------
# Bernstein machinery
# ---------------------------------------------------------------------------


def test_bernstein_basis_partition_of_unity_and_oracle():
    p = np.linspace(0.0, 1.0, 21)
    basis = dist.bernstein_basis(12, p)
    np.testing.assert_allclose(basis.sum(axis=-1), 1.0, atol=1e-12)
    alpha = np.sort(np.random.default_rng(0).normal(0, 2, 13))
    bq = dist.BernsteinQuantile(alpha)
    for pi in (0.0, 0.013, 0.5, 0.87, 1.0):
        assert float(dist.bqn_quantile(bq, pi)) == pytest.approx(
            bernstein_quantile_ref(alpha, pi), abs=1e-12)


def test_bernstein_binomials_are_exact():
    # at p = 1/2 every power is an exact power of two, so scaling by 2^d
    # recovers the binomial factors without rounding
    for degree in range(1, 61):
        factors = dist.bernstein_basis(degree, 0.5) * 2.0**degree
        exact = np.array([math.comb(degree, v) for v in range(degree + 1)],
                         dtype=np.float64)
        np.testing.assert_array_equal(factors, exact)
        if degree <= 30:
            # scipy's float comb is off by ulps from degree 31 on
            np.testing.assert_array_equal(
                factors, comb(degree, np.arange(degree + 1)))


def test_bqn_coefficients_monotone_and_batched():
    rng = np.random.default_rng(1)
    theta = rng.normal(0, 3, size=(50, 13))
    alpha = dist.bqn_coefficients(theta)
    assert alpha.shape == (50, 13)
    assert np.all(np.diff(alpha, axis=-1) >= 0)
    np.testing.assert_allclose(alpha[:, 0], theta[:, 0])


def test_quantile_score_mean_matches_pinball_oracle():
    alpha = np.array([0.0, 1.0, 3.0])
    bq = dist.BernsteinQuantile(alpha)
    levels = dist.level_grid(3)
    y = 1.2
    expected = np.mean([2.0 * pinball_ref(
        bernstein_quantile_ref(alpha, p), y, p) for p in levels])
    assert quantile_score_mean(bq, y, levels) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Truncated logistic CRPS against quadrature oracles
# ---------------------------------------------------------------------------


def _check_crps_tlogis_against_oracle(mu, sigma, y):
    """Quadrature at 1e-9 while the truncation point lies less than 10
    scales above the location; past that float64 quadrature loses digits
    (2.6e-9 at mu = -2, sigma = 0.1015625, y = 0), so mpmath at rel 1e-10."""
    ours = dist.crps_tlogis(dist.TruncLogistic(mu, sigma), y)
    if mu >= -10.0 * sigma:
        assert ours == pytest.approx(crps_tlogis_quad(mu, sigma, y), abs=1e-9)
    else:
        assert ours == pytest.approx(crps_tlogis_mp(mu, sigma, y), rel=1e-10)
    return ours


def test_crps_tlogis_matches_quadrature_moderate_regime():
    rng = np.random.default_rng(2)
    for _ in range(25):
        mu = rng.uniform(-3, 12)
        sigma = rng.uniform(0.1, 5)
        y = rng.uniform(-2, 15)
        _check_crps_tlogis_against_oracle(mu, sigma, y)


@settings(max_examples=60)
@given(mu=st.floats(-3, 12), sigma=st.floats(0.1, 5), y=st.floats(-2, 15))
@example(mu=-2.0, sigma=0.1015625, y=0.0)
def test_crps_tlogis_nonnegative_and_matches_quadrature_property(mu, sigma, y):
    assert _check_crps_tlogis_against_oracle(mu, sigma, y) >= 0.0


def test_crps_tlogis_stable_under_heavy_truncation():
    # standardized truncation points from mild to far past the deep-regime
    # switch; the textbook closed form loses all digits here
    cases = [(-14.9, 7e-4, 23.5), (-47.6, 6.6e-4, 53.0), (-1e4, 1e-3, 5.0),
             (-500.0, 0.01, -2.0), (-16.35, 1.0, 3.0), (-32.0, 1.0, 1.0),
             (5.0, 1e-5, 5.2), (299.0, 1.0, 310.0), (301.0, 1.0, 310.0)]
    for mu, sigma, y in cases:
        ours = dist.crps_tlogis(dist.TruncLogistic(mu, sigma), y)
        ref = crps_tlogis_mp(mu, sigma, y)
        assert ours == pytest.approx(ref, rel=1e-10), (mu, sigma, y)


def test_trunc_tail_value_matches_high_precision_reference():
    # reference (-log(1 - w) - w) / w^2 with w = sigmoid(-lb), evaluated in
    # 50-digit arithmetic so every branch of the implementation is covered
    for lb in (-30.0, -2.0, 0.0, 3.0, 6.85, 6.95, 9.0, 40.0, 1e6):
        with mpmath.workdps(50):
            w = 1 / (1 + mpmath.e ** mpmath.mpf(lb))
            if lb > 30:
                # series sum_{k>=2} w^{k-2} / k of the same expression,
                # needed once 1 - w rounds to 1 even at 50 digits
                ref = float(sum(w ** (k - 2) / k for k in range(2, 8)))
            else:
                ref = float((-mpmath.log(1 - w) - w) / w**2)
        got = float(dist._trunc_tail_value(np.array([lb]))[0])
        assert got == pytest.approx(ref, rel=1e-12), lb
    # asymptote: all mass truncated
    assert float(dist._trunc_tail_value(np.array([1e8]))[0]) == \
        pytest.approx(0.5)


def test_crps_tlogis_observation_below_bound_adds_linear_penalty():
    d = dist.TruncLogistic(2.0, 1.0)
    base = dist.crps_tlogis(d, 0.0)
    below = dist.crps_tlogis(d, -3.0)
    assert below == pytest.approx(base + 3.0)


def test_crps_tlogis_differentiable_core_matches_numpy_core():
    rng = np.random.default_rng(3)
    mu = rng.normal(5, 3, size=8)
    sigma = rng.uniform(0.2, 3, size=8)
    y = rng.normal(5, 4, size=8)
    plain = dist.crps_tlogis_core(mu, sigma, y)
    tens = dist.crps_tlogis_core(ad.Tensor(mu), ad.Tensor(sigma), y)
    np.testing.assert_allclose(tens.value, plain, rtol=1e-14)


# One forecast row: the standardized bound lb = (0 - mu) / sigma, where y
# sits ("above" the bound by a drawn gap, "at" it, or "below" it) and sigma.
_CRPS_ROW = st.tuples(
    st.one_of(st.floats(-60.0, 60.0), st.floats(280.0, 450.0)),
    st.sampled_from(["above", "at", "below"]), st.floats(1e-3, 30.0),
    st.floats(1e-3, 1e3))


def _crps_rows(rows):
    """(mu, sigma, y) arrays of drawn rows, truncated at 0."""
    lb, where, gap, sigma = (np.array(col) for col in zip(*rows))
    mu = -lb * sigma
    step = np.select([where == "above", where == "below"], [gap, -gap], 0.0)
    # "at" puts y on the bound itself, where u == lb exactly
    return mu, sigma, np.where(where == "at", 0.0, mu + (lb + step) * sigma)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_CRPS_ROW, min_size=1, max_size=6))
@example(rows=[(0.0, "at", 1.0, 1.0), (-3.0, "above", 2.0, 0.5),
               (1.0, "below", 4.0, 2.0), (320.0, "above", 1.5, 1.0),
               (300.0, "at", 1.0, 1e-3), (5.0, "above", 3.0, 800.0)])
def test_fused_crps_node_matches_the_composed_graph(rows):
    mu, sigma, y = _crps_rows(rows)
    # on arrays: today's expressions, bit for bit
    plain = dist.crps_tlogis_core(mu, sigma, y)
    assert plain.tobytes() == crps_tlogis_composed(mu, sigma, y).tobytes()
    pv = ad.ParamVector(np.concatenate([mu, sigma]),
                        {"mu": (0, mu.shape), "sigma": (mu.size, mu.shape)})
    weight = np.linspace(0.5, 1.5, mu.size)

    def loss(crps):
        return lambda P, I: ad._sum(crps(P["mu"], P["sigma"], y) * weight)

    v_fused, g_fused = ad.value_and_grad(loss(dist.crps_tlogis_core), pv)
    v_composed, g_composed = ad.value_and_grad(loss(crps_tlogis_composed), pv)
    assert v_fused == pytest.approx(v_composed, rel=1e-12)
    # single components near 0 cancel in the composed graph; compare each
    # against the largest
    assert np.max(np.abs(g_fused - g_composed)) <= 1e-10 * np.max(
        np.abs(g_composed))


def test_fused_crps_is_one_tape_node():
    pv = ad.ParamVector(np.array([0.5, -1.0, 1.0, 2.0]),
                        {"mu": (0, (2,)), "sigma": (2, (2,))})
    y = np.array([1.0, 3.0])
    out, leaves = ad._run(
        lambda P, I: dist.crps_tlogis_core(P["mu"], P["sigma"], y), pv,
        None)
    assert out.op == "crps_tlogis"
    assert out._parents == [leaves["mu"], leaves["sigma"]]
    # one operand on the tape is a node with one parent
    out = dist.crps_tlogis_core(pv.view("mu"), leaves["sigma"], y)
    assert out.op == "crps_tlogis" and out._parents == [leaves["sigma"]]


def test_tlogis_cdf_quantile_roundtrip():
    d = dist.TruncLogistic(1.5, 0.7)
    p = np.linspace(0.01, 0.99, 25)
    x = dist.tlogis_quantile(d, p)
    np.testing.assert_allclose(dist.tlogis_cdf(d, x), p, atol=1e-12)
    assert np.all(np.asarray(x) >= 0.0)
    with pytest.raises(DomainError):
        dist.tlogis_quantile(d, 0.0)


@pytest.mark.parametrize("ratio", [-800.0, -40.0, -5.0, 0.0, 5.0, 40.0,
                                   800.0])
def test_tlogis_cdf_matches_high_precision_oracle(ratio):
    # sigma and the offsets are binary fractions, so the standardized
    # observation is exact and only the CDF formula itself can lose digits
    sigma = 0.5
    mu = ratio * sigma
    offsets = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.5, 10.0, 30.0])
    y = np.concatenate([offsets, mu + sigma * np.array([-3.0, 0.0, 3.0])])
    ours = dist.tlogis_cdf(dist.TruncLogistic(mu, sigma), y)
    ref = [tlogis_cdf_mp(v, mu, sigma) for v in y]
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-300)


def test_tlogis_cdf_keeps_digits_under_heavy_truncation():
    # the renormalized form gave 0.631829 here and NaN from about 37 scales
    assert dist.tlogis_cdf(dist.TruncLogistic(-30.0, 1.0), 1.0) == \
        pytest.approx(-math.expm1(-1.0), rel=1e-14)
    assert dist.tlogis_cdf(dist.TruncLogistic(-60.0, 1.0), 1.0) == \
        pytest.approx(-math.expm1(-1.0), rel=1e-14)


@pytest.mark.parametrize("ratio", [-40.0, -5.0, 0.0, 5.0])
def test_tlogis_quantile_matches_high_precision_oracle(ratio):
    p = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9])
    for scale in (0.3, 1.0, 2.5):
        d = dist.TruncLogistic(ratio * scale, scale)
        expected = [tlogis_quantile_mp(d.location, d.scale, q) for q in p]
        np.testing.assert_allclose(dist.tlogis_quantile(d, p), expected,
                                   rtol=1e-13)


def test_tlogis_quantile_is_finite_under_deep_truncation():
    # nearly all mass lies below the bound: what remains is close to an
    # exponential tail starting at 0, whose median is log 2
    d = dist.TruncLogistic(-40.0, 1.0)
    assert dist.tlogis_quantile(d, 0.5) == pytest.approx(np.log(2.0),
                                                         rel=1e-12)
    from enspost.evaluation import pi_bounds
    assert np.all(np.isfinite(pi_bounds(d, 0.9)))


def test_tlogis_quantile_core_serves_tensors_and_numpy_alike():
    rng = np.random.default_rng(5)
    mu = rng.normal(0, 20, size=(6, 1))
    sigma = rng.uniform(0.1, 3.0, size=(6, 1))
    p = dist.level_grid(9)
    plain = dist.tlogis_quantile_core(mu, sigma, p)
    tens = dist.tlogis_quantile_core(ad.Tensor(mu), ad.Tensor(sigma), p)
    assert tens.value.tobytes() == plain.tobytes()


def _numpy_path_results():
    rng = np.random.default_rng(8)
    y = rng.normal(2, 2, size=5)
    tlogis, bqn = rng.normal(2, 2, size=(5, 2)), rng.normal(0, 1, size=(5, 4))
    forecast = dist.tlogis_map(tlogis)
    # deep truncation (lb past 300) and an observation below the bound
    deep = dist.TruncLogistic(np.array([-400.0, 1.0]), np.array([1.0, 1.0]))
    return [dist.theta_mean_crps(tlogis, y, "tlogis", 9),
            dist.theta_mean_crps(bqn, y, "bqn", 9),
            dist.theta_quantiles(tlogis, "tlogis", 9),
            dist.theta_quantiles(bqn, "bqn", 9),
            dist.crps_tlogis(forecast, y), dist.tlogis_cdf(forecast, y),
            dist.tlogis_quantile(forecast, 0.3),
            dist.crps_tlogis(deep, np.array([2.0, -1.0]))]


def test_numpy_inputs_build_no_tensor(monkeypatch):
    expected = _numpy_path_results()

    def refuse(*args, **kwargs):
        raise AssertionError("a Tensor was built from NumPy inputs")

    monkeypatch.setattr(ad.Tensor, "__init__", refuse)
    for got, want in zip(_numpy_path_results(), expected, strict=True):
        np.testing.assert_array_equal(got, want)


def test_tensor_inputs_build_tensors():
    rng = np.random.default_rng(9)
    mu, sigma = rng.normal(5, 3, size=6), rng.uniform(0.2, 3, size=6)
    y = rng.normal(5, 4, size=6)
    crps = dist.crps_tlogis_core(ad.Tensor(mu), ad.Tensor(sigma), y)
    assert isinstance(crps, ad.Tensor)
    theta = rng.normal(0, 1, size=(6, 5))
    alpha = dist.bqn_coefficients(ad.Tensor(theta))
    assert isinstance(alpha, ad.Tensor)
    np.testing.assert_array_equal(alpha.value, dist.bqn_coefficients(theta))


def test_theta_core_matches_per_forecast_objects():
    rng = np.random.default_rng(6)
    levels = dist.level_grid(19)
    y = rng.normal(2, 2, size=7)
    theta = rng.normal(2, 2, size=(7, 2))
    per_row = [dist.tlogis_quantile(dist.tlogis_map(t), levels)
               for t in theta]
    np.testing.assert_array_equal(
        dist.theta_quantiles(theta, "tlogis", 19), per_row)
    assert dist.theta_mean_crps(theta, y, "tlogis", 19) == pytest.approx(
        np.mean([dist.crps_tlogis(dist.tlogis_map(t), v)
                 for t, v in zip(theta, y)]), rel=1e-14)
    theta = rng.normal(0, 1, size=(7, 6))      # degree 5 from the width
    q = dist.theta_quantiles(theta, "bqn", 19)
    alpha = dist.bqn_coefficients(theta)
    np.testing.assert_array_equal(
        q, alpha @ dist.bernstein_basis(5, levels).T)
    assert dist.theta_mean_crps(theta, y, "bqn", 19) == \
        float(dist.crps_sample_batch(q, y).mean())


def test_tlogis_map_softplus_scale():
    d = dist.tlogis_map(np.array([3.0, -40.0]))
    assert d.location == 3.0
    assert d.scale == pytest.approx(dist.SCALE_FLOOR, rel=1e-6)


def test_batched_objects_match_per_forecast_objects():
    rng = np.random.default_rng(7)
    theta = rng.normal(2, 2, size=(9, 2))
    y = rng.normal(2, 2, size=9)
    batch = dist.tlogis_map(theta)
    rows = [dist.tlogis_map(t) for t in theta]
    for fn, arg in ((dist.crps_tlogis, y), (dist.tlogis_cdf, y),
                    (dist.tlogis_quantile, 0.3)):
        out = fn(batch, arg)
        assert out.shape == (9,)
        np.testing.assert_array_equal(
            out, [fn(r, a) for r, a in zip(rows, np.broadcast_to(arg, 9))])
    alpha = dist.bqn_coefficients(rng.normal(0, 1, size=(9, 6)))
    bq = dist.BernsteinQuantile(alpha)
    p = dist.level_grid()
    for level in (0.3, p):
        np.testing.assert_array_equal(
            dist.bqn_quantile(bq, level),
            [dist.bernstein_basis(5, level) @ a for a in alpha])
    # one forecast: a float back, however many forecasts share the object
    assert isinstance(dist.crps_tlogis(rows[0], 1.0), float)
    assert isinstance(dist.bqn_quantile(dist.BernsteinQuantile(alpha[0]), 0.3),
                      float)


# ---------------------------------------------------------------------------
# Ensemble CRPS
# ---------------------------------------------------------------------------


def test_crps_sample_matches_exact_ecdf_integral():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(2, 11))
        members = np.sort(rng.normal(0, 3, m))
        y = rng.normal(0, 3)
        ours = dist.crps_sample_batch(members[None], np.array([y]))[0]
        assert ours == pytest.approx(crps_ensemble_exact(members, y),
                                     abs=1e-12)
        assert ours == pytest.approx(crps_ensemble_pairwise(members, y),
                                     abs=1e-12)


# members and observations with ties, both signed zeros and wide magnitudes
_MEMBER = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.25]),
                    st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@example(n=1, m=1, data=None)
@given(n=st.integers(1, 5), m=st.integers(1, 9), data=st.data())
def test_crps_sample_batch_equals_the_numpy_oracle_bit_for_bit(n, m, data):
    if data is None:       # one member, the observation on it, signed zeros
        values, y = np.array([[-0.0]]), np.array([0.0])
    else:
        values = np.sort(np.array(data.draw(st.lists(
            st.lists(_MEMBER, min_size=m, max_size=m),
            min_size=n, max_size=n))), axis=1)
        y = np.array(data.draw(st.lists(_MEMBER, min_size=n, max_size=n)))
        on_member = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                max_size=n)))
        y = np.where(on_member, values[:, data.draw(st.integers(0, m - 1))],
                     y)
    got = dist.crps_sample_batch(values, y)
    assert got.tobytes() == crps_sample_batch_numpy(values, y).tobytes()
    # a training loss of the same members gives the score's bits
    taped = dist.crps_sample_batch(ad.Tensor(values), y)
    assert isinstance(taped, ad.Tensor)
    assert taped.value.tobytes() == got.tobytes()


def test_tensor_crps_sample_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    values = np.sort(rng.normal(0, 2, size=(4, 6)), axis=1)
    y = rng.normal(0, 2, size=4)
    pv = ad.ParamVector(values.ravel(), {"v": (0, values.shape)})

    def loss(P, I):
        return ad.mean(dist.crps_sample_batch(P["v"], y))

    assert ad.value_and_grad(loss, pv)[0] == float(
        np.mean(dist.crps_sample_batch(values, y)))
    assert ad.finite_diff_check(loss, pv) < 1e-6


def test_crps_sample_batch_matches_scalar():
    rng = np.random.default_rng(5)
    values = np.sort(rng.normal(0, 2, size=(20, 7)), axis=1)
    y = rng.normal(0, 2, size=20)
    batch = dist.crps_sample_batch(values, y)
    scalar = [crps_sample(row, yi) for row, yi in zip(values, y)]
    np.testing.assert_allclose(batch, scalar, rtol=1e-13)


def test_crps_sample_degenerate_singleton_is_absolute_error():
    np.testing.assert_allclose(
        dist.crps_sample_batch(np.array([[2.0], [-1.0]]), np.array([5.0, 0.5])),
        [3.0, 1.5])


# ---------------------------------------------------------------------------
# PIT
# ---------------------------------------------------------------------------


def test_pit_tlogis_is_cdf():
    d = dist.TruncLogistic(2.0, 1.0)
    rng = np.random.default_rng(6)
    assert dist.pit(d, 2.0, rng) == pytest.approx(dist.tlogis_cdf(d, 2.0))


def test_pit_bernstein_inverts_quantile_function():
    alpha = np.array([0.0, 0.5, 1.5, 4.0])
    bq = dist.BernsteinQuantile(alpha)
    rng = np.random.default_rng(7)
    for p in (0.1, 0.42, 0.9):
        y = float(dist.bqn_quantile(bq, p))
        assert dist.pit(bq, y, rng) == pytest.approx(p, abs=1e-6)
    assert dist.pit(bq, -1.0, rng) == 0.0
    assert dist.pit(bq, 9.0, rng) == 1.0


def test_pit_bernstein_flat_segment_randomizes_uniformly():
    # a degenerate (constant) quantile function maps its single support
    # point to uniform draws over the whole unit interval
    alpha = np.array([1.0, 1.0, 1.0, 1.0])
    bq = dist.BernsteinQuantile(alpha)
    rng = np.random.default_rng(8)
    draws = np.array([dist.pit(bq, 1.0, rng) for _ in range(200)])
    assert draws.std() > 0.05          # actually randomized
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_pit_calibrated_tlogis_sample_is_uniform():
    d = dist.TruncLogistic(3.0, 1.2)
    rng = np.random.default_rng(9)
    y = dist.tlogis_quantile(d, rng.uniform(size=2000))
    pits = dist.tlogis_cdf(d, y)
    hist, _ = np.histogram(pits, bins=10, range=(0, 1))
    assert hist.min() > 140 and hist.max() < 260
