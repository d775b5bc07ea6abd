"""Unit tests for forecast verification."""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

from enspost.data import SynthConfig, generate_synthetic, split_temporal
from enspost.dist import (DEFAULT_N_LEVELS, BernsteinQuantile, TruncLogistic,
                          bernstein_basis, bqn_coefficients,
                          crps_sample_batch, crps_tlogis, level_grid,
                          tlogis_cdf, tlogis_map, tlogis_quantile)
from enspost.errors import ContractError, DomainError
from enspost.evaluation import (EvaluationReport, evaluate,
                                evaluate_quantiles, model_mean_crps,
                                nominal_pi_level, pi_bounds, pit_csv,
                                raw_eps_report, report_table)
from oracles import crps_sample, crps_tlogis_quad, ensemble_pit


# ---------------------------------------------------------------------------
# Nominal levels and intervals
# ---------------------------------------------------------------------------


def test_nominal_pi_level_exact_fractions():
    assert nominal_pi_level(20) == Fraction(19, 21)
    assert nominal_pi_level(11) == Fraction(5, 6)
    assert nominal_pi_level(51) == Fraction(25, 26)
    with pytest.raises(DomainError):
        nominal_pi_level(1)


def test_pi_bounds_tlogis_are_central_quantiles():
    d = TruncLogistic(3.0, 1.0)
    lo, hi = pi_bounds(d, 0.8)
    assert lo == pytest.approx(tlogis_quantile(d, 0.1))
    assert hi == pytest.approx(tlogis_quantile(d, 0.9))
    with pytest.raises(DomainError):
        pi_bounds(d, 1.0)


def test_pi_bounds_bernstein():
    bq = BernsteinQuantile(np.array([0.0, 1.0, 2.0]))
    lo, hi = pi_bounds(bq, 0.8)
    assert lo == pytest.approx(2 * 0.1, abs=1e-12)   # Q(p) = 2p here
    assert hi == pytest.approx(2 * 0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# PIT of empirical forecasts
# ---------------------------------------------------------------------------


def test_ensemble_pit_rank_position():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(0)
    p = ensemble_pit(values, 2.5, rng)
    assert (2 + 0.0) / 5 <= p <= (2 + 1.0) / 5
    # ties randomize across the tied block
    draws = [ensemble_pit(np.array([1.0, 2.0, 2.0, 3.0]), 2.0,
                          np.random.default_rng(i)) for i in range(200)]
    assert min(draws) < 0.35 and max(draws) > 0.65


def test_ensemble_pit_of_self_drawn_sample_is_uniform():
    rng = np.random.default_rng(1)
    n, m = 4000, 10
    pits = []
    for _ in range(n):
        pool = rng.normal(size=m + 1)
        pits.append(ensemble_pit(pool[:m], pool[m], rng))
    hist, _ = np.histogram(pits, bins=10, range=(0, 1))
    assert hist.min() > 300 and hist.max() < 500


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def test_evaluation_report_validation():
    with pytest.raises(DomainError):
        EvaluationReport(1.0, 0.9, 1.0, 150.0, (1,), 1)
    with pytest.raises(ContractError):
        EvaluationReport(1.0, 0.9, 1.0, 50.0, (1, 1), 3)
    rep = EvaluationReport(1.0, 0.9, 1.0, 50.0, (1, 1), 2)
    assert rep.to_dict()["pit_histogram"] == [1, 1]


def test_evaluate_parametric_forecasts_closed_form_crps():
    rng = np.random.default_rng(2)
    params = rng.uniform([2.0, 0.5], [8.0, 2.0], size=(10, 2))
    forecast = TruncLogistic(params[:, 0], params[:, 1])
    obs = forecast.location + 0.3
    rep = evaluate(forecast, obs, 0.9, rng=np.random.default_rng(0))
    expected = np.mean([crps_tlogis_quad(mu, sigma, y)
                        for mu, sigma, y in zip(*params.T, obs)])
    assert rep.mean_crps == pytest.approx(expected, abs=1e-8)
    assert rep.n_samples == 10
    assert sum(rep.pit_histogram) == 10


def test_evaluate_input_validation():
    one = TruncLogistic(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ContractError):
        evaluate(one, np.array([1.0, 2.0]), 0.9)
    with pytest.raises(DomainError):
        evaluate(TruncLogistic(np.array([]), np.array([])), np.array([]), 0.9)
    with pytest.raises(DomainError):
        evaluate(one, np.array([1.0]), 1.5)
    with pytest.raises(ContractError):     # a single forecast is no batch
        evaluate(TruncLogistic(1.0, 1.0), np.array([1.0]), 0.9)
    with pytest.raises(DomainError):       # object lists are gone
        evaluate([TruncLogistic(1.0, 1.0)], np.array([1.0]), 0.9)
    with pytest.raises(DomainError):       # quantile matrices go elsewhere
        evaluate(np.zeros((1, 3)), np.array([1.0]), 0.9)


@pytest.mark.parametrize("shape", [(9,), (4, 9, 1)])
def test_evaluate_quantiles_rejects_a_matrix_unlike_its_level_grid(shape):
    quantiles = np.sort(np.random.default_rng(0).normal(size=shape), axis=-1)
    with pytest.raises(ContractError):
        evaluate_quantiles(quantiles, np.zeros(shape[0]), 0.8)


def test_coverage_counts_boundary_hits():
    quantiles = np.array([[0.0, 1.0, 2.0]])
    # on the levels 1/4, 1/2, 3/4 with level 0.5 the PI is exactly [0, 2];
    # an observation on the edge counts as covered
    rep = evaluate_quantiles(quantiles, np.array([2.0]), 0.5)
    assert rep.pi_coverage == 100.0


def _per_row_quantile_report(quantiles, obs, level, levels, pit_bins, rng):
    """evaluate_quantiles written one sample at a time."""
    p_lo, p_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    lo = np.array([np.interp(p_lo, levels, q) for q in quantiles])
    hi = np.array([np.interp(p_hi, levels, q) for q in quantiles])
    covered = (lo <= obs) & (obs <= hi)
    pits = [ensemble_pit(q, y, rng) for q, y in zip(quantiles, obs)]
    hist, _ = np.histogram(pits, bins=pit_bins, range=(0.0, 1.0))
    return EvaluationReport(
        float(crps_sample_batch(quantiles, obs).mean()), level,
        float(np.mean(hi - lo)), 100.0 * float(covered.mean()),
        tuple(int(c) for c in hist), obs.size)


@pytest.mark.parametrize("level", [0.8, 0.9, 18 / 20])
def test_evaluate_quantiles_is_bit_identical_to_per_row_reference(level):
    for k in (1, 2, 19):       # the grid comes from the column count
        rng = np.random.default_rng(8)
        # values on a coarse grid so that observations tie with quantiles
        quantiles = np.sort(np.round(rng.normal(5, 2, size=(300, k)) * 2) / 2,
                            axis=1)
        obs = np.round(rng.normal(5, 2, size=300) * 2) / 2
        rng_v, rng_s = np.random.default_rng(9), np.random.default_rng(9)
        rep_v = evaluate_quantiles(quantiles, obs, level, pit_bins=300,
                                   rng=rng_v)
        rep_s = _per_row_quantile_report(quantiles, obs, level, level_grid(k),
                                         300, rng_s)
        assert rep_v == rep_s, k
        assert rng_v.bit_generator.state == rng_s.bit_generator.state


def _per_row_bisect(alpha, y, side, tol=1e-10):
    """Extreme level p with Q(p) = y of one Bernstein quantile function."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        q = float(bernstein_basis(alpha.size - 1, mid) @ alpha)
        if q < y or (side == "right" and q == y):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _per_row_pit(alpha, y, rng):
    """Unified PIT of one observation, drawing on flat segments."""
    if y < alpha[0]:
        return 0.0
    if y > alpha[-1]:
        return 1.0
    left = _per_row_bisect(alpha, y, "left")
    right = _per_row_bisect(alpha, y, "right")
    if right - left <= 1e-9:
        return 0.5 * (left + right)
    return float(rng.uniform(left, right))


def _per_row_report(forecast, obs, level, levels, pit_bins, rng):
    """evaluate written one sample at a time, on one scalar forecast each."""
    p_lo, p_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    rows = []
    for i, y in enumerate(obs):
        if isinstance(forecast, TruncLogistic):
            one = TruncLogistic(float(forecast.location[i]),
                                float(forecast.scale[i]))
            rows.append((crps_tlogis(one, y), tlogis_quantile(one, p_lo),
                         tlogis_quantile(one, p_hi), tlogis_cdf(one, y)))
        else:
            alpha = forecast.alpha[i]
            d = alpha.size - 1
            rows.append((crps_sample(bernstein_basis(d, levels) @ alpha, y),
                         float(bernstein_basis(d, p_lo) @ alpha),
                         float(bernstein_basis(d, p_hi) @ alpha),
                         _per_row_pit(alpha, y, rng)))
    crps, lo, hi, pits = (np.array(col) for col in zip(*rows))
    covered = (lo <= obs) & (obs <= hi)
    hist, _ = np.histogram(pits, bins=pit_bins, range=(0.0, 1.0))
    return EvaluationReport(
        float(np.mean(crps)), level, float(np.mean(hi - lo)),
        100.0 * float(covered.mean()), tuple(int(c) for c in hist), obs.size)


def _assert_matches_per_row_reference(forecast, obs, level,
                                      n_levels=DEFAULT_N_LEVELS):
    rng_b, rng_s = np.random.default_rng(9), np.random.default_rng(9)
    rep_b = evaluate(forecast, obs, level, pit_bins=300, rng=rng_b,
                     n_levels=n_levels)
    rep_s = _per_row_report(forecast, obs, level, level_grid(n_levels), 300,
                            rng_s)
    for field in dataclasses.fields(EvaluationReport):
        assert getattr(rep_b, field.name) == getattr(rep_s, field.name), \
            field.name
    assert rng_b.bit_generator.state == rng_s.bit_generator.state


@pytest.mark.parametrize("level", [0.8, 0.9, 18 / 20])
def test_evaluate_tlogis_batch_is_bit_identical_to_per_row_reference(level):
    rng = np.random.default_rng(10)
    theta = np.column_stack([rng.normal(3, 3, 500), rng.normal(1, 0.5, 500)])
    theta[::50, 0] = -2.0              # most of the mass below the bound
    forecast = tlogis_map(theta)
    obs = np.abs(rng.normal(3, 4, 500))
    _assert_matches_per_row_reference(forecast, obs, level)


@pytest.mark.parametrize("degree,n_levels", [(3, 9), (5, 99), (12, 99),
                                             (24, 9)])
@pytest.mark.parametrize("level", [0.8, 18 / 20])
def test_evaluate_bernstein_batch_is_bit_identical_to_per_row_reference(
        degree, n_levels, level):
    rng = np.random.default_rng(degree)
    theta = rng.normal(0, 1, size=(400, degree + 1))
    theta[::4, 1:] = -800.0            # constant rows: softplus is exactly 0
    theta[1::7, 2:4] = -800.0          # a flat segment inside the range
    alpha = bqn_coefficients(theta)
    obs = rng.normal(0, 2, size=400)
    obs[::4] = alpha[::4, 0]           # ties at the flat values
    obs[1::7] = alpha[1::7, 2]
    obs[2::9] = alpha[2::9, 0] - 1.0   # below alpha_0
    obs[3::11] = alpha[3::11, -1] + 1.0  # above alpha_d
    _assert_matches_per_row_reference(BernsteinQuantile(alpha), obs, level,
                                      n_levels)


def test_bernstein_batch_pit_draws_once_per_flat_row():
    alpha = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [2.0, 2.0, 2.0]])
    obs = np.array([1.0, 1.0, 3.0])     # flat, strictly increasing, above
    rng = np.random.default_rng(11)
    rep = evaluate(BernsteinQuantile(alpha), obs, 0.5, pit_bins=4, rng=rng)
    expected = np.random.default_rng(11)
    expected.uniform(0.0, 1.0)          # the single flat row draws once
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rep.pit_histogram[-1] == 1   # above alpha_d maps to PIT 1


# ---------------------------------------------------------------------------
# Model scoring and the EPS baseline
# ---------------------------------------------------------------------------


def _quick_model():
    from enspost.models import ModelConfig
    from enspost.train import train_model
    ds = generate_synthetic(SynthConfig(stations=3, days=40, members=8))
    train, val, test = split_temporal(ds, (0.6, 0.2, 0.2))
    cfg = ModelConfig(architecture="drn", hidden_sizes=(6, 5),
                      latent_width=8, attention_heads=2,
                      n_attention_blocks=2, bernstein_degree=4,
                      embedding_dim=3, n_quantile_levels=9, max_epochs=5)
    model, _ = train_model(cfg, train, val)
    return model, test


def test_model_mean_crps_matches_forecast_scoring():
    model, test = _quick_model()
    fast = model_mean_crps(model, test)
    forecast = model.forecast(test)
    assert isinstance(forecast, TruncLogistic)
    assert forecast.location.shape == (len(test),)
    rep = evaluate(forecast, test.obs, 0.9)
    assert fast == pytest.approx(rep.mean_crps, rel=1e-10)


def test_raw_eps_report_nominal_interval_is_ensemble_range():
    ds = generate_synthetic(SynthConfig(stations=3, days=30, members=10))
    rep = raw_eps_report(ds, rng=np.random.default_rng(0))
    assert rep.pi_level == pytest.approx(float(nominal_pi_level(10)))
    members = np.sort(ds.ens[:, :, ds.primary], axis=1)
    expected = np.mean(members[:, -1] - members[:, 0])
    assert rep.mean_pi_length == pytest.approx(expected)


def test_raw_eps_report_is_evaluate_quantiles_on_sorted_members():
    ds = generate_synthetic(SynthConfig(stations=3, days=30, members=10))
    rep = raw_eps_report(ds, rng=np.random.default_rng(4))
    members = np.sort(ds.ens[:, :, ds.primary], axis=1)
    ref = evaluate_quantiles(members, ds.obs, float(nominal_pi_level(10)),
                             rng=np.random.default_rng(4))
    for field in dataclasses.fields(EvaluationReport):
        assert getattr(rep, field.name) == getattr(ref, field.name), field.name


@pytest.mark.parametrize("arch", ["emos", "drn", "bqn", "ed-drn", "ed-bqn",
                                  "st-drn", "st-bqn"])
def test_model_mean_crps_runs_one_forward_pass(arch):
    from enspost.data import fit_norm
    from enspost.models import (EMOSModel, ModelConfig, NeuralModel,
                                emos_params, init_params)
    ds = generate_synthetic(SynthConfig(stations=2, days=10, members=6))
    cfg = ModelConfig(architecture=arch, hidden_sizes=(6, 5), latent_width=8,
                      attention_heads=2, n_attention_blocks=1,
                      bernstein_degree=4, embedding_dim=3,
                      n_quantile_levels=9)
    if arch == "emos":
        model = EMOSModel(cfg, emos_params([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                          [], norm=None, n_stations=ds.n_stations,
                          primary=ds.primary,
                          predictor_names=ds.predictor_names,
                          scalar_names=ds.scalar_names)
    else:
        params = init_params(cfg, ds.n_predictors, ds.n_scalars,
                             ds.n_stations, rng=np.random.default_rng(0))
        model = NeuralModel(cfg, params, fit_norm(ds), ds.n_stations,
                            ds.primary, ds.predictor_names, ds.scalar_names)
    calls = []
    forward = model.forward
    model.forward = lambda inputs: calls.append(1) or forward(inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # EMOS without cells falls back
        assert np.isfinite(model_mean_crps(model, ds))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def test_report_table_and_pit_csv_formats():
    rep = EvaluationReport(1.2345, 0.9, 2.5, 88.0, (2, 1, 1), 4)
    table = report_table({"eps": rep})
    lines = table.strip().split("\n")
    assert lines[0].split() == ["method", "mean_crps", "pi_length",
                                "pi_coverage_%"]
    assert "1.2345" in lines[1] and "88.00" in lines[1]
    csv = pit_csv(rep)
    rows = csv.strip().split("\n")
    assert rows[0] == "bin_lo,bin_hi,count"
    assert len(rows) == 4
    assert rows[1].endswith(",2")
