"""End-to-end acceptance gate.

Eleven criteria covering structural constants, oracle equivalences,
invariants, qualitative orderings on the synthetic benchmark, importance
behaviour, CLI reproducibility and self-consistency calibration.  Each
test prints a single PASS/FAIL line; the slow benchmark fixtures are
shared across criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import os
import time

import numpy as np

from enspost.autodiff import ParamVector, finite_diff_check
from enspost.cli import main as cli_main
from enspost.data import (SynthConfig, fit_norm, generate_synthetic,
                          split_temporal)
from enspost.dist import (QuantileLevels, TruncLogistic,
                          bernstein_basis, bqn_coefficients,
                          crps_sample_batch, crps_tlogis, tlogis_quantile)
from enspost.evaluation import (evaluate, nominal_pi_level, raw_eps_report,
                                resample_and_score)
from enspost.importance import (PerturbationSpec, chi, chi_ratio, delta0,
                                perturb, preservation_matrix)
from enspost.models import (ARCHITECTURES, ModelConfig, graph_inputs,
                            init_params)
from enspost.train import loss_graph, train_pool
from oracles import (aggregate_quantiles, crps_ensemble_exact,
                     crps_tlogis_quad, multinomial_band, with_ensemble)


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {label}: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} ({detail})"


# ---------------------------------------------------------------------------
# 1. Nominal prediction-interval levels
# ---------------------------------------------------------------------------


def test_criterion_01_nominal_pi_levels():
    got = {m: round(100 * float(nominal_pi_level(m)), 2)
           for m in (20, 11, 51)}
    ok = got == {20: 90.48, 11: 83.33, 51: 96.15}
    _verdict(1, "nominal PI levels 20/11/51 members", ok, f"{got}")


# ---------------------------------------------------------------------------
# 2. Scoring-rule oracles
# ---------------------------------------------------------------------------


def test_criterion_02_scoring_rule_oracles():
    rng = np.random.default_rng(0)
    worst_t = 0.0
    for _ in range(100):
        mu = rng.uniform(-2, 10)
        sigma = rng.uniform(0.05, 4)
        y = rng.uniform(0, 15)
        ours = crps_tlogis(TruncLogistic(mu, sigma), y)
        ref = crps_tlogis_quad(mu, sigma, y)
        worst_t = max(worst_t, abs(ours - ref))
    worst_s = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 11))
        members = np.sort(rng.normal(5, 2, size=m))
        y = rng.normal(5, 3)
        ours = float(crps_sample_batch(members[None], np.array([y]))[0])
        worst_s = max(worst_s, abs(ours - crps_ensemble_exact(members, y)))
    ok = worst_t <= 1e-6 and worst_s <= 1e-10
    _verdict(2, "CRPS closed forms vs quadrature/ECDF oracles", ok,
             f"tlogis {worst_t:.2e} <= 1e-6, sample {worst_s:.2e} <= 1e-10")


# ---------------------------------------------------------------------------
# 3. Permutation invariance
# ---------------------------------------------------------------------------

_TINY = dict(hidden_sizes=(6, 5), latent_width=8, attention_heads=2,
             n_attention_blocks=2, bernstein_degree=4, embedding_dim=3,
             n_quantile_levels=9)


def _theta(config, params, data, norm):
    import enspost.autodiff as ad
    from enspost.models import build_graph
    return ad.eval_graph(build_graph(config), params,
                         dict(graph_inputs(config, data, norm)))


def test_criterion_03_permutation_invariance():
    ds = generate_synthetic(SynthConfig(stations=4, days=30, members=12,
                                        seed=1))
    norm = fit_norm(ds)
    rng = np.random.default_rng(2)
    worst = {}
    for arch in ("ed-drn", "ed-bqn", "st-drn", "st-bqn", "drn", "bqn"):
        config = ModelConfig(architecture=arch, **_TINY)
        params = init_params(config, ds.n_predictors, ds.n_scalars,
                             ds.n_stations, rng=np.random.default_rng(0))
        rel = 0.0
        for _ in range(100):
            idx = np.array([int(rng.integers(len(ds)))])
            sample = ds.subset(idx)
            permuted = sample.ens[:, rng.permutation(ds.n_members), :]
            a = _theta(config, params, sample, norm)
            b = _theta(config, params, with_ensemble(sample, permuted), norm)
            if arch.startswith(("drn", "bqn")):
                rel = max(rel, float(np.max(np.abs(a - b))))   # exact
            else:
                scale = np.maximum(np.abs(a), 1e-12)
                rel = max(rel, float(np.max(np.abs(a - b) / scale)))
        worst[arch] = rel
    set_ok = all(worst[a] <= 1e-9
                 for a in ("ed-drn", "ed-bqn", "st-drn", "st-bqn"))
    summary_ok = worst["drn"] == 0.0 and worst["bqn"] == 0.0
    _verdict(3, "member-permutation invariance of all architectures",
             set_ok and summary_ok,
             f"set max rel {max(worst[a] for a in worst if '-' in a):.2e}"
             f" <= 1e-9, summary exact")


# ---------------------------------------------------------------------------
# 4. Gradients of every architecture + loss
# ---------------------------------------------------------------------------


_GRAD = dict(hidden_sizes=(4, 3), latent_width=4, attention_heads=2,
             n_attention_blocks=1, bernstein_degree=3, embedding_dim=2,
             n_quantile_levels=5)


def test_criterion_04_gradient_suite():
    t0 = time.perf_counter()
    ds = generate_synthetic(SynthConfig(stations=3, days=10, members=5,
                                        seed=1))
    norm = fit_norm(ds)
    worst = 0.0
    for arch in ARCHITECTURES:
        config = ModelConfig(architecture=arch, **_GRAD)
        data = ds.subset(np.arange(4))
        inputs = dict(graph_inputs(config, data, norm))
        inputs["y"] = data.obs
        for loss in ("crps", "quantile_score"):
            graph = loss_graph(config, loss)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                if arch == "emos":
                    params = ParamVector(
                        rng.normal(0.5, 0.3, size=6),
                        {"gamma_mat": (0, (2, 2)), "gamma_vec": (4, (2,))})
                else:
                    params = init_params(config, data.n_predictors,
                                         data.n_scalars, data.n_stations,
                                         rng=rng)
                worst = max(worst, finite_diff_check(graph, params, inputs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120
    _verdict(4, "finite-difference check, 7 architectures x 2 losses", ok,
             f"worst {worst:.2e} < 1e-4 in {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 5. Bernstein quantile network structure
# ---------------------------------------------------------------------------


def test_criterion_05_bqn_structure():
    rng = np.random.default_rng(3)
    theta = rng.normal(0, 3, size=(1000, 13))          # degree 12
    alpha = bqn_coefficients(theta)
    monotone = bool(np.all(np.diff(alpha, axis=1) >= 0))
    grid = np.linspace(0.0, 1.0, 1001)
    basis = bernstein_basis(12, grid)
    q = alpha @ basis.T
    nondecreasing = bool(np.all(np.diff(q, axis=1) >= -1e-12))

    ds = generate_synthetic(SynthConfig(stations=3, days=40, members=8))
    train, val, test = split_temporal(ds, (0.6, 0.2, 0.2))
    config = ModelConfig(architecture="bqn", bernstein_degree=12,
                         hidden_sizes=(6, 5), latent_width=8,
                         attention_heads=2, n_attention_blocks=2,
                         embedding_dim=3, n_quantile_levels=9, max_epochs=3)
    pool = train_pool(config, train, val, n=3)
    levels = QuantileLevels.equidistant(9)
    agg = aggregate_quantiles(pool.models, test, levels)
    mean_alpha = np.mean([bqn_coefficients(m.raw_theta(test))
                          for m in pool.models], axis=0)
    direct = mean_alpha @ bernstein_basis(12, levels.levels).T
    agg_err = float(np.max(np.abs(agg - direct)))
    ok = monotone and nondecreasing and agg_err <= 1e-12
    _verdict(5, "BQN monotonicity and coefficient-mean aggregation", ok,
             f"monotone={monotone}, nondecreasing={nondecreasing}, "
             f"aggregation err {agg_err:.1e} <= 1e-12")


# ---------------------------------------------------------------------------
# 6 + 7. Synthetic benchmark orderings (shared fixtures)
# ---------------------------------------------------------------------------

_BASE = dict(hidden_sizes=(32, 16), latent_width=16, attention_heads=4,
             n_attention_blocks=2, embedding_dim=4, max_epochs=20,
             patience=5)


def test_criterion_06_end_to_end_ordering():
    ds = generate_synthetic(SynthConfig(stations=8, days=3400))
    train, val, test = split_temporal(ds, (0.74, 0.08, 0.18))
    assert len(train) > 2e4 and len(test) >= 4.5e3
    eps = raw_eps_report(test, rng=np.random.default_rng(0)).mean_crps
    scores, spreads = {}, []
    for arch in ("emos", "drn"):
        pool = train_pool(ModelConfig(architecture=arch, **_BASE),
                          train, val, n=5, workers=4)
        _, summary = resample_and_score(pool, test, k=4, reps=20,
                                        rng=np.random.default_rng(1))
        scores[arch] = summary["mean_crps"]
        spreads.append(summary["spread"])
    spread = max(spreads)
    gap1 = eps - scores["emos"]
    gap2 = scores["emos"] - scores["drn"]
    ok = gap1 > 3 * spread and gap2 > 3 * spread
    _verdict(6, "mean CRPS ordering raw EPS > EMOS > DRN", ok,
             f"EPS {eps:.4f} > EMOS {scores['emos']:.4f} > "
             f"DRN {scores['drn']:.4f}, gaps {gap1:.4f}/{gap2:.4f} "
             f"> 3x spread {3 * spread:.4f}")


def test_criterion_07_member_level_information():
    ds = generate_synthetic(SynthConfig(stations=8, days=1000, seed=3))
    train, val, test = split_temporal(ds, (0.7, 0.15, 0.15))
    scores, spreads = {}, []
    for arch in ("drn", "ed-drn", "st-drn"):
        pool = train_pool(ModelConfig(architecture=arch, **_BASE),
                          train, val, n=3, workers=3)
        _, summary = resample_and_score(pool, test, k=2, reps=10,
                                        rng=np.random.default_rng(2))
        scores[arch] = summary["mean_crps"]
        spreads.append(summary["spread"])
    spread = max(spreads)
    margin_ed = scores["drn"] - scores["ed-drn"]
    margin_st = scores["drn"] - scores["st-drn"]
    ok = margin_ed > 2 * spread and margin_st > 2 * spread
    _verdict(7, "set models recover the hidden skewness signal", ok,
             f"DRN {scores['drn']:.4f} vs ED {scores['ed-drn']:.4f} / "
             f"ST {scores['st-drn']:.4f}, margins {margin_ed:.4f}/"
             f"{margin_st:.4f} > 2x spread {2 * spread:.4f}")


# ---------------------------------------------------------------------------
# 8. Importance machinery
# ---------------------------------------------------------------------------


def test_criterion_08_importance_machinery():
    t0 = time.perf_counter()
    ds = generate_synthetic(SynthConfig(stations=8, days=1250, seed=5))
    train, val, test = split_temporal(ds, (0.7, 0.15, 0.15))
    pool = train_pool(ModelConfig(architecture="drn", **_BASE),
                      train, val, n=2, workers=2)
    model = pool.models[0]

    identity = delta0(model, test)
    spec = PerturbationSpec(0, "rank_aware", seed=1)
    ratio = chi_ratio(model, test, spec, spec).value
    dead = delta0(model, test, PerturbationSpec(3, "fully_random", seed=0))
    chi_mean = chi(model, test, 0, "mean", bins=50, seed=0).value
    chi_kurt = chi(model, test, 0, "kurtosis", bins=50, seed=0).value
    diag = float(np.diag(preservation_matrix(ds, 0, bins=100,
                                             seed=0)).min())
    elapsed = time.perf_counter() - t0
    ok = (identity == 0.0 and ratio == 1.0 and abs(dead) < 1e-3
          and chi_mean > 0.9 and chi_kurt < 0.3 and diag > 0.99
          and elapsed < 300)
    _verdict(8, "importance identities, chi pattern, preservation", ok,
             f"delta0(id)={identity!r}, chi(R|R)={ratio!r}, "
             f"|dead|={abs(dead):.1e} < 1e-3, chi(mean)={chi_mean:.3f} "
             f"> 0.9, chi(kurt)={chi_kurt:.3f} < 0.3, diag={diag:.4f} "
             f"> 0.99, {elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 9. Perturbation conservation
# ---------------------------------------------------------------------------


def test_criterion_09_perturbation_conservation():
    ds = generate_synthetic(SynthConfig(stations=4, days=50, members=10,
                                        seed=4))
    rng = np.random.default_rng(5)
    kinds = ("fully_random", "rank_aware", "conditional")
    stats = ("mean", "std", "skewness", "kurtosis", "range", "iqr")
    conserved = ranks_ok = True
    for i in range(50):
        kind = kinds[i % 3]
        stat = stats[int(rng.integers(len(stats)))] \
            if kind == "conditional" else None
        j = int(rng.integers(ds.n_predictors))
        spec = PerturbationSpec(j, kind, statistic=stat,
                                bins=int(rng.integers(2, 30)),
                                seed=int(rng.integers(1000)))
        col = ds.ens[:, :, j]
        out = perturb(col, spec)
        conserved &= np.array_equal(np.sort(out.ravel()),
                                    np.sort(col.ravel()))
        if kind != "fully_random":
            before = np.argsort(np.argsort(col, axis=1), axis=1)
            after = np.argsort(np.argsort(out, axis=1), axis=1)
            ranks_ok &= np.array_equal(before, after)
    ok = conserved and ranks_ok
    _verdict(9, "perturbations conserve multisets and rank patterns", ok,
             f"50 random specs, conserved={conserved}, ranks={ranks_ok}")


# ---------------------------------------------------------------------------
# 10. CLI reproducibility
# ---------------------------------------------------------------------------


def _cli(command, out, sets, workers):
    argv = [command, "--out", str(out), "--seed", "11",
            "--workers", str(workers)]
    for item in sets:
        argv += ["--set", item]
    assert cli_main(argv) == 0
    with open(os.path.join(out, "run_manifest.json")) as fh:
        return json.load(fh)["run_hash"]


def test_criterion_10_cli_reproducibility(tmp_path):
    synth = ["synth.stations=3", "synth.days=80", "synth.members=8"]
    model = ["model.architecture=drn", "model.hidden_sizes=[6,5]",
             "model.latent_width=8", "model.attention_heads=2",
             "model.n_attention_blocks=2", "model.bernstein_degree=4",
             "model.embedding_dim=3", "model.n_quantile_levels=9",
             "model.max_epochs=3", "train.pool_size=4"]
    hashes = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        train_dir = tmp_path / f"train_{tag}"
        h_train = _cli("train", train_dir, synth + model, workers)
        h_eval = _cli("evaluate", tmp_path / f"eval_{tag}", synth + [
            f'eval.checkpoints="{train_dir}"', "eval.draw_size=2",
            "eval.reps=3"], workers)
        h_imp = _cli("importance", tmp_path / f"imp_{tag}", synth + [
            f'importance.checkpoints="{train_dir}"', "importance.bins=15",
            'importance.statistics=["mean","std"]',
            "importance.predictors=[0]"], workers)
        hashes[tag] = (h_train, h_eval, h_imp)
    ok = hashes["a"] == hashes["b"] == hashes["c"]
    _verdict(10, "train/evaluate/importance hashes reproducible", ok,
             "identical across reruns and workers 1 vs 4")


# ---------------------------------------------------------------------------
# 11. Self-consistency calibration
# ---------------------------------------------------------------------------


def test_criterion_11_self_consistency_calibration():
    rng = np.random.default_rng(6)
    n = 10_000
    # row-major draws: location then scale per forecast, then observations
    params = rng.uniform([2.0, 0.3], [10.0, 2.0], size=(n, 2))
    forecast = TruncLogistic(params[:, 0], params[:, 1])
    obs = tlogis_quantile(forecast, rng.uniform(size=n))
    level = 0.9
    rep = evaluate(forecast, obs, level, pit_bins=20,
                   rng=np.random.default_rng(7))
    cov_ok = abs(rep.pi_coverage - 100 * level) <= 2.0
    lo, hi = multinomial_band(n, 20, n_sigma=4.0)
    hist = np.asarray(rep.pit_histogram)
    pit_ok = bool(np.all((hist >= lo) & (hist <= hi)))
    ok = cov_ok and pit_ok
    _verdict(11, "self-drawn forecasts are calibrated", ok,
             f"coverage {rep.pi_coverage:.2f}% within 90+/-2, PIT counts "
             f"in [{lo:.0f}, {hi:.0f}] (min {hist.min()}, max {hist.max()})")
