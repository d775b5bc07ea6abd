"""Unit tests for losses, the optimizer and the training loops."""

import inspect
import os
import tempfile
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enspost.autodiff as ad
import enspost.train as train_mod
from enspost import dist
from enspost.data import (SynthConfig, fit_norm, generate_synthetic,
                          split_temporal)
from enspost.dist import bernstein_basis, bqn_coefficients, level_grid
from enspost.errors import ConfigError, ContractError, DomainError
from enspost.evaluation import (evaluate_quantiles, model_mean_crps,
                                nominal_pi_level, resample_and_score)
from enspost.models import (ARCHITECTURES, POOLING_KINDS, ModelConfig,
                            emos_params, graph_inputs, init_params,
                            load_model, save_model)
from enspost.train import (Adam, ModelPool, TrainReport, loss_graph,
                           train_model, train_pool)
from oracles import aggregate_quantiles, emos_cells_sequential, pinball_ref

TINY = dict(hidden_sizes=(6, 5), latent_width=8, attention_heads=2,
            n_attention_blocks=2, bernstein_degree=4, embedding_dim=3,
            n_quantile_levels=9)


def _splits(days=60, stations=3, members=8, seed=0):
    ds = generate_synthetic(SynthConfig(stations=stations, days=days,
                                        members=members, seed=seed))
    return split_temporal(ds, (0.6, 0.2, 0.2))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_has_unit_scaled_magnitude():
    opt = Adam(3, lr=0.1)
    values = np.zeros(3)
    opt.step(values, np.array([1.0, -2.0, 0.5]))
    # bias-corrected first step is -lr * sign(g) up to eps
    np.testing.assert_allclose(values, [-0.1, 0.1, -0.1], rtol=1e-6)


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    opt = Adam(4, lr=0.01)
    values = rng.normal(size=4)
    ref_values = values.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        g = rng.normal(size=4)
        opt.step(values, g)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref_values -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12)


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ConfigError):
        Adam(2, lr=0.0)


# ---------------------------------------------------------------------------
# Loss graphs
# ---------------------------------------------------------------------------


def _loss_value(cfg, loss, ds):
    inputs = dict(graph_inputs(cfg, ds, fit_norm(ds)))
    inputs["y"] = ds.obs
    params = init_params(cfg, ds.n_predictors, ds.n_scalars, ds.n_stations,
                         rng=np.random.default_rng(0))
    return float(ad.eval_graph(loss_graph(cfg, loss), params, inputs)), \
        params, inputs


def test_every_autodiff_op_is_used_by_a_loss_graph(monkeypatch):
    # each op function autodiff defines must be called while the loss
    # graphs of the seven architectures (both losses, every pooling kind of
    # the ed- models) are differentiated; an op no graph uses fails here
    ops = {name: fn for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__
           and not name.startswith("_") and name not in ad.__all__}
    called = set()
    for name, fn in ops.items():
        def spy(*args, _name=name, _fn=fn, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ad, name, spy)   # ops are looked up when called
    ds = generate_synthetic(SynthConfig(stations=2, days=4, members=6))
    norm = fit_norm(ds)
    for arch in ARCHITECTURES:
        poolings = POOLING_KINDS if arch.startswith("ed-") else ("attention",)
        for pooling in poolings:
            cfg = ModelConfig(architecture=arch, pooling=pooling, **TINY)
            params = init_params(cfg, ds.n_predictors, ds.n_scalars,
                                 ds.n_stations)
            inputs = {**graph_inputs(cfg, ds, norm), "y": ds.obs}
            for loss in ("crps", "quantile_score"):
                ad.value_and_grad(loss_graph(cfg, loss), params, inputs)
    assert sorted(set(ops) - called) == []


_LOSS_CASES = [(arch, pooling, loss) for arch in ARCHITECTURES
               for pooling in (POOLING_KINDS if arch.startswith("ed-")
                               else ("attention",))
               for loss in ("crps", "quantile_score")]


@pytest.mark.parametrize("arch,pooling,loss", _LOSS_CASES)
def test_tape_value_equals_the_forward_bit_for_bit(arch, pooling, loss):
    # the loss a model is trained on and the score of the same graph on
    # arrays are one set of bits: every op's forward on the tape is the
    # NumPy expression eval_graph runs
    cfg = ModelConfig(architecture=arch, pooling=pooling, **TINY)
    graph = loss_graph(cfg, loss)
    for seed in range(6):
        ds = generate_synthetic(SynthConfig(stations=2, days=5, members=6,
                                            seed=seed))
        inputs = {**graph_inputs(cfg, ds, fit_norm(ds)), "y": ds.obs}
        params = init_params(cfg, ds.n_predictors, ds.n_scalars,
                             ds.n_stations)
        params.values[:] = np.random.default_rng(seed).normal(
            0.0, 0.7, params.size)
        value = ad.value_and_grad(graph, params, inputs)[0]
        assert value == float(ad.eval_graph(graph, params, inputs)), seed


def test_loss_graph_rejects_unknown_loss():
    with pytest.raises(ConfigError):
        loss_graph(ModelConfig(architecture="drn", **TINY), "mse")


def test_bqn_quantile_score_matches_pinball_oracle():
    cfg = ModelConfig(architecture="bqn", **TINY)
    ds = generate_synthetic(SynthConfig(stations=2, days=4, members=6))
    value, params, inputs = _loss_value(cfg, "quantile_score", ds)
    # recompute from the forward graph outputs with the oracle pinball
    from enspost.models import build_graph
    theta = ad.eval_graph(build_graph(cfg),
                          params, {k: v for k, v in inputs.items()
                                   if k != "y"})
    alpha = bqn_coefficients(theta)
    levels = level_grid(cfg.n_quantile_levels)
    basis = bernstein_basis(cfg.bernstein_degree, levels)
    quantiles = alpha @ basis.T
    expected = np.mean([[2.0 * pinball_ref(q, y, p)
                         for q, p in zip(row, levels)]
                        for row, y in zip(quantiles, ds.obs)])
    assert value == pytest.approx(expected, rel=1e-12)


def test_tlogis_crps_loss_matches_closed_form():
    cfg = ModelConfig(architecture="drn", **TINY)
    ds = generate_synthetic(SynthConfig(stations=2, days=4, members=6))
    value, params, inputs = _loss_value(cfg, "crps", ds)
    from enspost.dist import SCALE_FLOOR, crps_tlogis_core
    from enspost.models import build_graph
    theta = ad.eval_graph(build_graph(cfg), params,
                          {k: v for k, v in inputs.items() if k != "y"})
    mu = theta[:, 0]
    sigma = np.logaddexp(0.0, theta[:, 1]) + SCALE_FLOOR
    expected = float(np.mean(crps_tlogis_core(mu, sigma, ds.obs)))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("loss", ["quantile_score", "crps"])
@pytest.mark.parametrize("arch", ["bqn", "drn"])
def test_loss_graph_builds_the_bernstein_basis_once(arch, loss, monkeypatch):
    calls, basis = [], dist.bernstein_basis
    monkeypatch.setattr(dist, "bernstein_basis",
                        lambda degree, p: calls.append(degree) or basis(
                            degree, p))
    cfg = ModelConfig(architecture=arch, **TINY)
    ds = generate_synthetic(SynthConfig(stations=2, days=4, members=6))
    graph = loss_graph(cfg, loss)
    inputs = {**graph_inputs(cfg, ds, fit_norm(ds)), "y": ds.obs}
    params = init_params(cfg, ds.n_predictors, ds.n_scalars, ds.n_stations)
    for _ in range(3):
        ad.value_and_grad(graph, params, inputs)
        ad.eval_graph(graph, params, inputs)
    assert calls == ([cfg.bernstein_degree] if arch == "bqn" else [])


# ---------------------------------------------------------------------------
# TrainReport
# ---------------------------------------------------------------------------


def test_train_report_equality_ignores_wall_time():
    a = TrainReport(seed=1, train_losses=[1.0], val_crps=[2.0, 1.5],
                    selected_epoch=1, wall_time=10.0)
    b = TrainReport(seed=1, train_losses=[1.0], val_crps=[2.0, 1.5],
                    selected_epoch=1, wall_time=99.0)
    assert a == b
    c = TrainReport(seed=2, train_losses=[1.0], val_crps=[2.0, 1.5],
                    selected_epoch=1, wall_time=10.0)
    assert a != c


def test_train_report_selected_epoch_must_be_minimum():
    with pytest.raises(ContractError):
        TrainReport(seed=0, train_losses=[1.0], val_crps=[1.0, 2.0],
                    selected_epoch=1, wall_time=0.0)


# ---------------------------------------------------------------------------
# train_model
# ---------------------------------------------------------------------------


def test_train_model_improves_over_initialization():
    train, val, test = _splits()
    cfg = ModelConfig(architecture="drn", max_epochs=15, patience=5, **TINY)
    model, report = train_model(cfg, train, val)
    assert report.val_crps[report.selected_epoch] == min(report.val_crps)
    assert min(report.val_crps) < report.val_crps[0]
    assert model_mean_crps(model, test) < 2.0


def test_train_model_is_deterministic():
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="bqn", max_epochs=4, **TINY)
    m1, r1 = train_model(cfg, train, val)
    m2, r2 = train_model(cfg, train, val)
    assert r1 == r2
    np.testing.assert_array_equal(m1.params.values, m2.params.values)


def test_train_model_patience_zero_keeps_initial_params():
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="drn", patience=0, max_epochs=50, **TINY)
    model, report = train_model(cfg, train, val)
    assert report.selected_epoch == 0
    assert report.train_losses == []


def test_train_model_rejects_overlapping_splits():
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="drn", **TINY)
    with pytest.raises(DomainError):
        train_model(cfg, train, train)


def test_check_split_compares_dates_exactly():
    ds = generate_synthetic(SynthConfig(stations=2, days=12, members=4))
    day = (ds.times - ds.times[0]).astype(np.int64)
    even, odd = ds.subset(day % 2 == 0), ds.subset(day % 2 == 1)
    # interleaved dates, none shared, in either role
    train_mod._check_split(even, odd)
    train_mod._check_split(odd, even)
    # exactly one shared date, first, inside or last
    for shared in (0, 6, 10):
        val = ds.subset((day % 2 == 1) | (day == shared))
        with pytest.raises(DomainError, match="share times"):
            train_mod._check_split(even, val)
    with pytest.raises(DomainError, match="share times"):
        train_mod._check_split(odd, ds.subset(day == 11))


def test_emos_cell_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    cell = np.array([1, 2, 1, 3, 2, 1])
    table = emos_params(rng.normal(0.5, 0.3, size=(4, 6)))
    inputs = {"features": rng.normal(2.0, 1.0, size=(6, 2)), "cell": cell,
              "y": np.array([0.0, 1.5, 3.0, 0.2, 4.0, 2.5]),
              "weight": 1.0 / np.bincount(cell)[cell]}
    assert ad.finite_diff_check(train_mod._cell_loss, table, inputs) < 1e-4


@pytest.mark.filterwarnings("ignore:.*global EMOS coefficients.*")
def test_train_emos_runs_and_beats_trivial_scale():
    # short temporal split: test months unseen in training fall back to the
    # global coefficients, which warns by design
    train, val, test = _splits(days=90)
    cfg = ModelConfig(architecture="emos", max_epochs=60, patience=10, **TINY)
    model, report = train_model(cfg, train, val)
    assert model_mean_crps(model, test) < 2.0
    theta = model.raw_theta(test)
    assert theta.shape == (len(test), 2)


@settings(max_examples=8)
@given(stations=st.integers(1, 3), days=st.integers(12, 110),
       seed=st.integers(0, 3))
@example(stations=1, days=15, seed=0)   # 9 January rows: no cell fitted
@example(stations=2, days=60, seed=1)   # 31 January rows, 5 February rows
def test_batched_emos_cell_fit_matches_sequential_reference(stations, days,
                                                            seed):
    ds = generate_synthetic(SynthConfig(stations=stations, days=days,
                                        members=6, seed=seed))
    train, val, _ = split_temporal(ds, (0.6, 0.2, 0.2))
    cfg = ModelConfig(architecture="emos", max_epochs=3, seed=seed, **TINY)
    model, _ = train_model(cfg, train, val)
    table = model.params.view("cells")
    ref = emos_cells_sequential(cfg, train, table[0])
    assert [tuple(k) for k in model.keys.tolist()] == list(ref)
    for (key, expected), got in zip(ref.items(), table[1:]):
        # relative to the cell's largest coefficient: gradients are summed
        # in another order, which moves near-zero entries by rounding only
        assert np.max(np.abs(got - expected)) <= \
            1e-12 * np.max(np.abs(expected)), key


def test_trained_emos_table_checkpoint_round_trip_and_layout(tmp_path,
                                                            monkeypatch):
    train, val, test = _splits(days=90)
    cfg = ModelConfig(architecture="emos", max_epochs=5, **TINY)
    model, _ = train_model(cfg, train, val)
    assert model.keys.shape == (6, 2)   # 3 stations x (January, February)
    # the cell fit leaves row 0 bit for bit at the global fit, which is
    # the whole table when no cell is large enough to fit
    monkeypatch.setattr(train_mod, "MIN_EMOS_CELL", len(train) + 1)
    global_only, _ = train_model(cfg, train, val)
    assert global_only.keys.shape == (0, 2)
    np.testing.assert_array_equal(global_only.params.values,
                                  model.params.view("cells")[0])
    path = tmp_path / "trained.bin"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.keys, model.keys)
    np.testing.assert_array_equal(back.params.values, model.params.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # March is not in the training set
        np.testing.assert_array_equal(back.raw_theta(test),
                                      model.raw_theta(test))
    # the block is the global row first, then the cells in sorted
    # (station, month) order
    assert model.keys.tolist() == sorted(model.keys.tolist())
    assert path.read_bytes().endswith(
        model.params.view("cells").astype("<f8").tobytes())


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def test_truncated_logistic_training_and_scoring_build_no_level_grid(
        monkeypatch):
    # the closed-form CRPS is the loss, the validation score and the
    # selection score of a truncated-logistic model: none reads a grid
    def refuse(*args, **kwargs):
        raise AssertionError("a truncated-logistic model built a level grid")

    train, val, test = _splits(days=20)
    monkeypatch.setattr(dist, "level_grid", refuse)
    model, report = train_model(
        ModelConfig(architecture="drn", max_epochs=1, **TINY), train, val)
    assert len(report.val_crps) == 2    # the initial and one trained epoch
    assert np.isfinite(model_mean_crps(model, test))


def _tiny_pool(n=3, arch="drn", days=30):
    train, val, test = _splits(days=days)
    cfg = ModelConfig(architecture=arch, max_epochs=4, **TINY)
    return train_pool(cfg, train, val, n=n), test


def test_train_pool_seeds_are_sequential_and_independent_of_workers():
    pool, _ = _tiny_pool()
    assert [r.seed for r in pool.reports] == [0, 1, 2]
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="drn", max_epochs=4, **TINY)
    par = train_pool(cfg, train, val, n=3, workers=2)
    for a, b in zip(pool.reports, par.reports):
        assert a == b
    for a, b in zip(pool.models, par.models):
        np.testing.assert_array_equal(a.params.values, b.params.values)


def _checkpoint_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=6)
@given(arch=st.sampled_from(["emos", "drn"]), n=st.integers(1, 3),
       seed=st.integers(0, 7))
def test_train_pool_is_independent_of_workers_property(arch, n, seed):
    # at most 2 worker processes start
    train, val, _ = _splits(days=30, seed=seed)
    cfg = ModelConfig(architecture=arch, max_epochs=2, seed=seed, **TINY)
    serial = train_pool(cfg, train, val, n=n, workers=1)
    parallel = train_pool(cfg, train, val, n=n, workers=2)
    assert serial.reports == parallel.reports
    assert [_checkpoint_bytes(m) for m in serial.models] == \
        [_checkpoint_bytes(m) for m in parallel.models]


@pytest.fixture
def started(monkeypatch):
    """The worker counts train_pool asks a process pool for; the pool maps
    in process, so no process starts."""
    import concurrent.futures
    counts = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            counts.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # train_pool imports the executor when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    return counts


def test_train_pool_caps_workers_at_pool_size(started, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="drn", max_epochs=2, **TINY)
    pool = train_pool(cfg, train, val, n=2, workers=64)
    assert started == [2]
    assert [r.seed for r in pool.reports] == [0, 1]
    train_pool(cfg, train, val, n=3, workers=2)
    assert started == [2, 2]


def test_train_pool_caps_workers_at_usable_cpus(started, monkeypatch):
    # fits that train nothing, so 5000 of them cost only their configs
    monkeypatch.setattr(train_mod, "_fit_one", lambda task: (
        SimpleNamespace(family="tlogis"), None))
    train, val, _ = _splits(days=30)
    cfg = ModelConfig(architecture="drn", **TINY)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert len(train_pool(cfg, train, val, n=5000, workers=5000)) == 5000
    monkeypatch.delattr(os, "sched_getaffinity")   # the CPU count instead
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    train_pool(cfg, train, val, n=5000, workers=5000)
    for cpus in (1, None):       # one CPU or an unknown count: in process
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert len(train_pool(cfg, train, val, n=5000, workers=5000)) == 5000
    assert started == [3, 2]


@settings(max_examples=60)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
@example([0.1, 0.2])
@example([0.3, 0.1, 0.2])
def test_val_crps_summary_is_numpy_min_median_max_bit_for_bit(scores):
    reports = [TrainReport(seed=i, train_losses=[], val_crps=[s],
                           selected_epoch=0, wall_time=0.0)
               for i, s in enumerate(scores)]
    pool = ModelPool(config=ModelConfig(**TINY),
                     models=[SimpleNamespace(family="tlogis")] * len(scores),
                     reports=reports)
    expected = (np.min(scores), np.median(scores), np.max(scores))
    assert [float(v).hex() for v in pool.val_crps_summary()] == \
        [float(v).hex() for v in expected]


def test_model_pool_validation():
    with pytest.raises(DomainError):
        train, val, _ = _splits(days=30)
        train_pool(ModelConfig(architecture="drn", **TINY), train, val, n=0)
    with pytest.raises(ContractError):
        ModelPool(config=ModelConfig(**TINY), models=[], reports=[])


def test_aggregate_quantiles_is_levelwise_mean():
    pool, test = _tiny_pool()
    n_levels = TINY["n_quantile_levels"]
    agg = aggregate_quantiles(pool.models, test, n_levels)
    manual = np.mean([m.quantiles(test, n_levels) for m in pool.models],
                     axis=0)
    np.testing.assert_array_equal(agg, manual)
    assert np.all(np.diff(agg, axis=1) >= -1e-12)


def test_resample_and_score_summary_and_determinism():
    pool, test = _tiny_pool(n=4)
    reports, summary = resample_and_score(
        pool, test, k=2, reps=5, rng=np.random.default_rng(3))
    assert len(reports) == 5
    assert summary["reps"] == 5 and summary["draw_size"] == 2
    assert summary["min_crps"] <= summary["mean_crps"] <= summary["max_crps"]
    again, summary2 = resample_and_score(
        pool, test, k=2, reps=5, rng=np.random.default_rng(3))
    assert summary == summary2
    with pytest.raises(DomainError):
        resample_and_score(pool, test, k=10, reps=2)


def _count_quantiles(monkeypatch, models):
    calls = []
    for model in models:
        inner = model.quantiles

        def counted(dataset, n_levels, inner=inner):
            calls.append(1)
            return inner(dataset, n_levels)

        monkeypatch.setattr(model, "quantiles", counted)
    return calls


@pytest.mark.parametrize("reps", [1, 7])
def test_resample_and_score_forwards_each_member_once(monkeypatch, reps):
    pool, test = _tiny_pool(n=3)
    calls = _count_quantiles(monkeypatch, pool.models)
    resample_and_score(pool, test, k=2, reps=reps,
                       rng=np.random.default_rng(0))
    assert len(calls) == len(pool)


def test_resample_and_score_matches_per_draw_aggregation():
    pool, test = _tiny_pool(n=4)
    reports, _ = resample_and_score(pool, test, k=3, reps=6, pit_bins=5,
                                    rng=np.random.default_rng(11))
    rng = np.random.default_rng(11)
    level = float(nominal_pi_level(test.n_members))
    for report in reports:
        idx = rng.choice(len(pool), size=3, replace=False)
        quantiles = aggregate_quantiles([pool.models[i] for i in idx], test,
                                        TINY["n_quantile_levels"])
        expected = evaluate_quantiles(quantiles, test.obs, level, pit_bins=5,
                                      rng=rng)
        assert report.to_dict() == expected.to_dict()


def test_pools_reject_mixed_families_and_empty_draws():
    pool_a, test = _tiny_pool(n=1, arch="drn")
    pool_b, _ = _tiny_pool(n=1, arch="bqn")
    mixed = pool_a.models + pool_b.models
    with pytest.raises(ContractError):
        ModelPool(config=pool_a.config, models=mixed)
    with pytest.raises(DomainError):
        resample_and_score(pool_a, test, k=0, reps=1)


def test_resample_with_full_pool_draws_is_constant():
    pool, test = _tiny_pool(n=3)
    reports, summary = resample_and_score(
        pool, test, k=3, reps=4, rng=np.random.default_rng(0))
    crps = [r.mean_crps for r in reports]
    assert max(crps) - min(crps) < 1e-12
