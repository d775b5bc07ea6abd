"""Unit tests for the ensemble permutation-importance machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

import enspost.data
import enspost.importance as importance
import enspost.models as models
from enspost.data import (Dataset, SynthConfig, derive_seed, fit_norm,
                          generate_synthetic, split_temporal,
                          summary_statistic)
from enspost.errors import ConfigError, ContractError, DomainError
from enspost.evaluation import inputs_mean_crps, model_mean_crps
from enspost.importance import (PERTURBATION_KINDS, SUMMARY_KINDS, ChiResult,
                                PerturbationSpec, _box_stats, _Column,
                                _conditional_donors, _donors, _members,
                                _midranks, chi, chi_ratio, conditional_bins,
                                delta0, importance_report,
                                perturb, preservation_csv,
                                preservation_matrix, spearman)
from enspost.models import (ARCHITECTURES, EMOSModel, ModelConfig,
                            NeuralModel, emos_params, init_params)
from enspost.train import train_model
from oracles import (conditional_donors_per_bin, donors_per_bin,
                     members_per_bin, perturb_per_bin,
                     preservation_matrix_recomputed, rebuilt_shuffled_inputs,
                     spearman_ref, summary_stat_ref, with_ensemble)


# ---------------------------------------------------------------------------
# Summary statistics against scipy oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", SUMMARY_KINDS)
def test_summary_statistic_matches_oracle(kind):
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = rng.normal(0, 2, size=int(rng.integers(2, 30)))
        ours = float(summary_statistic(values, kind))
        assert ours == pytest.approx(summary_stat_ref(values, kind),
                                     rel=1e-10, abs=1e-12), kind


def test_summary_statistic_vectorizes_and_handles_constants():
    rows = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    assert summary_statistic(rows, "skewness")[0] == 0.0
    assert summary_statistic(rows, "kurtosis")[0] == 0.0
    assert summary_statistic(rows, "std")[0] == 0.0
    out = summary_statistic(rows, "mean")
    np.testing.assert_allclose(out, [1.0, 2.0])
    with pytest.raises(DomainError):
        summary_statistic(np.array([1.0]), "mean")
    with pytest.raises(ConfigError):
        summary_statistic(rows, "mode")


@settings(max_examples=300)
@given(row=st.lists(st.integers(-10**6, 10**6).map(lambda v: v / 1000),
                    min_size=2, max_size=30),
       scale=st.integers(-600, 600).map(lambda k: 2.0**k))
@example(row=[0.0, 1.0, 3.0], scale=1e-110)
@example(row=[0.0, 1.0, 3.0], scale=1e110)
@example(row=[0.0, 1.0, 3.0], scale=1e-170)
@example(row=[0.0, 1.0, 3.0], scale=1e160)
def test_skewness_and_kurtosis_are_scale_free(row, scale):
    # powers of two (about 1e-180 to 1e180) scale each member exactly; the
    # squares, cubes and fourth powers of such rows under- or overflow
    # unless scaled; the std scales with the row
    row = np.array(row)
    for kind in ("std", "skewness", "kurtosis"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = summary_statistic(scale * row, kind)
        expected = summary_statistic(row, kind)
        np.testing.assert_allclose(
            scaled, scale * expected if kind == "std" else expected,
            rtol=1e-12)


@st.composite
def _member_blocks(draw):
    """An (n, M) block whose members are drawn from a small pool of values,
    so that rows hold ties; the pool may hold -0.0 and 0.0 together."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 30))
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=m))
    if draw(st.booleans()):
        pool += [-0.0, 0.0]
    return draw(hnp.arrays(np.float64, (n, m),
                           elements=st.sampled_from(pool)))


@pytest.mark.parametrize("kind", SUMMARY_KINDS)
@settings(max_examples=200)
@given(block=_member_blocks(), seed=st.integers(0, 2**32 - 1))
@example(block=np.random.default_rng(0).normal(size=(5, 8)), seed=0)
def test_summary_statistic_is_exactly_member_order_invariant(kind, block,
                                                             seed):
    """The same bits under any member order and in any memory layout: a
    Fortran-ordered copy, and a predictor column of a fancy-indexed
    (n, M, p) block, which NumPy stores members outermost."""
    rng = np.random.default_rng(seed)
    permuted = rng.permuted(block, axis=1)
    stacked = np.stack([block, block], axis=-1)[:, rng.permutation(
        block.shape[1])]
    expected = summary_statistic(block, kind).tobytes()
    for values in (permuted, np.asfortranarray(permuted), stacked[:, :, 1]):
        assert summary_statistic(values, kind).tobytes() == expected


@settings(max_examples=200)
@given(n=st.integers(2, 60), rows=st.one_of(st.none(), st.integers(1, 4)),
       data=st.data())
def test_percentiles_are_numpy_percentile_bit_for_bit(n, rows, data):
    """1-D values, or 2-D values along the last axis, sorted for
    ``_percentiles``, with ties drawn from a small pool of values; + 0.0 turns -0.0 into 0.0, whose place among
    equal zeros a sort and NumPy's partition may choose differently."""
    pool = data.draw(st.lists(st.floats(-1e6, 1e6).map(lambda v: v + 0.0),
                              min_size=1, max_size=n))
    shape = (n,) if rows is None else (rows, n)
    values = data.draw(hnp.arrays(np.float64, shape,
                                  elements=st.sampled_from(pool)))
    qs = data.draw(st.lists(st.sampled_from([25, 50, 75]), min_size=1,
                            max_size=3))
    got = np.asarray(enspost.data._percentiles(np.sort(values, axis=-1), qs))
    assert got.tobytes() == np.percentile(values, qs, axis=-1).tobytes()


# ---------------------------------------------------------------------------
# Spec validation and binning
# ---------------------------------------------------------------------------


def test_perturbation_spec_validation():
    PerturbationSpec(0, "fully_random")
    PerturbationSpec(1, "conditional", statistic="mean", bins=10)
    with pytest.raises(ConfigError):
        PerturbationSpec(0, "swap")
    with pytest.raises(ConfigError):
        PerturbationSpec(0, "conditional")          # no statistic
    with pytest.raises(ConfigError):
        PerturbationSpec(0, "conditional", statistic="mean", bins=1)
    with pytest.raises(ConfigError):
        PerturbationSpec(-1, "fully_random")


def test_conditional_bins_rank_unique_values():
    stat = np.array([3.0, 1.0, 1.0, 2.0, 5.0, 4.0])   # 5 unique values
    bin_ids, n_bins = conditional_bins(stat, bins=2)
    # runs of ceil(5/2)=3 unique values: {1,2,3} then {4,5}
    np.testing.assert_array_equal(bin_ids, [0, 0, 0, 0, 1, 1])
    assert n_bins == 2
    ids2, n2 = conditional_bins(stat, bins=100)
    assert n2 == 5                     # every unique value its own bin
    assert ids2[1] == ids2[2]          # ties always share a bin
    for bins in (0, -3):
        with pytest.raises(ConfigError, match="bin"):
            conditional_bins(stat, bins=bins)


# ---------------------------------------------------------------------------
# Shuffling operators
# ---------------------------------------------------------------------------


def _dataset(days=40, stations=4, members=10, seed=0):
    return generate_synthetic(SynthConfig(stations=stations, days=days,
                                          members=members, seed=seed))


@pytest.mark.parametrize("kind,stat", [("fully_random", None),
                                       ("rank_aware", None),
                                       ("conditional", "std")])
def test_perturb_conserves_value_multiset(kind, stat):
    ds = _dataset()
    col = ds.ens[:, :, 1]
    spec = PerturbationSpec(1, kind, statistic=stat, bins=10, seed=3)
    out = perturb(col, spec)
    assert out.shape == col.shape
    np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(col.ravel()))


@pytest.mark.parametrize("kind,stat", [("rank_aware", None),
                                       ("conditional", "mean")])
def test_rank_operators_preserve_member_rank_patterns(kind, stat):
    ds = _dataset()
    col = ds.ens[:, :, 0]
    spec = PerturbationSpec(0, kind, statistic=stat, bins=10, seed=4)
    out = perturb(col, spec)
    before = np.argsort(np.argsort(col, axis=1), axis=1)
    after = np.argsort(np.argsort(out, axis=1), axis=1)
    np.testing.assert_array_equal(before, after)


def test_perturb_is_deterministic_in_seed():
    col = _dataset().ens[:, :, 0]
    spec = PerturbationSpec(0, "fully_random", seed=5)
    np.testing.assert_array_equal(perturb(col, spec), perturb(col, spec))
    other = PerturbationSpec(0, "fully_random", seed=6)
    assert not np.array_equal(perturb(col, spec), perturb(col, other))


def test_perturb_rejects_bad_inputs():
    col = _dataset().ens[:1, :, 0]
    with pytest.raises(DomainError):
        perturb(col, PerturbationSpec(0, "fully_random"))


def test_conditional_with_singleton_bins_is_identity():
    col = _dataset(days=10, stations=2).ens[:, :, 0]
    spec = PerturbationSpec(0, "conditional", statistic="mean",
                            bins=10**9, seed=0)
    np.testing.assert_array_equal(perturb(col, spec), col)


def _untrained(arch, ds):
    """A model of each architecture with random parameters."""
    config = ModelConfig(architecture=arch, hidden_sizes=(6, 5),
                         latent_width=8, attention_heads=2,
                         n_attention_blocks=1, bernstein_degree=4,
                         embedding_dim=3, n_quantile_levels=9)
    fields = dict(n_stations=ds.n_stations, primary=ds.primary,
                  predictor_names=ds.predictor_names,
                  scalar_names=ds.scalar_names)
    rng = np.random.default_rng(0)
    if arch == "emos":
        keys = sorted({(int(s), int(m))
                       for s, m in zip(ds.station, ds.months())})
        table = rng.normal(size=(1 + len(keys), 6))
        return EMOSModel(config, emos_params(table), keys, norm=None,
                         **fields)
    params = init_params(config, ds.n_predictors, ds.n_scalars,
                         ds.n_stations, rng=rng)
    return NeuralModel(config, params, fit_norm(ds), **fields)


def _shuffle(ds, spec):
    """(donor rows, shuffled column) of one spec, drawn as importance does."""
    column, rng = _Column(ds.ens[:, :, spec.predictor]), \
        np.random.default_rng(spec.seed)
    donors = _donors(column, spec, rng)
    return donors, _members(column, spec, donors, rng)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_stand_in_block_gives_the_bits_of_a_rebuilt_dataset(arch):
    # a forward on the model's inputs with one predictor's part shuffled
    # equals a forward on a Dataset constructed from the shuffled block
    ds = _dataset(days=12, stations=3, members=6, seed=1)
    model = _untrained(arch, ds)
    inputs = model.inputs(ds)
    for i in range(ds.n_predictors):
        for kind in PERTURBATION_KINDS:
            spec = PerturbationSpec(i, kind, statistic="std", bins=5, seed=i)
            donors, col = _shuffle(ds, spec)
            np.testing.assert_array_equal(col, perturb(ds.ens[:, :, i], spec))
            ens = ds.ens.copy()
            ens[:, :, i] = col
            rebuilt = with_ensemble(ds, ens)
            shuffled = model.shuffled_inputs(inputs, i, donors, lambda: col)
            np.testing.assert_equal(shuffled, model.inputs(rebuilt))
            np.testing.assert_array_equal(model.forward(shuffled),
                                          model.raw_theta(rebuilt))
            assert inputs_mean_crps(model, shuffled, ds.obs) \
                == model_mean_crps(model, rebuilt)
    # the base inputs are never written
    np.testing.assert_equal(inputs, model.inputs(ds))


@pytest.mark.parametrize("arch", ["emos", "drn", "bqn"])
def test_summary_models_do_not_build_the_shuffled_column(arch):
    ds = _dataset(days=12, stations=3, members=6, seed=1)
    model = _untrained(arch, ds)

    def members():
        raise AssertionError("summary models read donor rows only")

    for i in range(ds.n_predictors):
        donors = np.random.default_rng(i).permutation(len(ds))
        model.shuffled_inputs(model.inputs(ds), i, donors, members)


# ---------------------------------------------------------------------------
# Importance scores on a trained model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def drn_and_test():
    ds = _dataset(days=250, stations=4, members=10, seed=2)
    train, val, test = split_temporal(ds, (0.6, 0.2, 0.2))
    base = dict(hidden_sizes=(8, 6), latent_width=8, attention_heads=2,
                n_attention_blocks=2, bernstein_degree=4, embedding_dim=3,
                n_quantile_levels=9, max_epochs=12, patience=4)
    model, _ = train_model(ModelConfig(architecture="drn", **base),
                           train, val)
    emos, _ = train_model(ModelConfig(architecture="emos", **base),
                          train, val)
    return model, emos, test


def test_delta0_identity_is_exactly_zero(drn_and_test):
    model, _, test = drn_and_test
    assert delta0(model, test) == 0.0


def test_delta0_primary_dominates_dead_channel(drn_and_test):
    model, _, test = drn_and_test
    primary = delta0(model, test, PerturbationSpec(0, "fully_random", seed=1))
    dead = delta0(model, test, PerturbationSpec(3, "fully_random", seed=1))
    assert primary > 0.05
    assert abs(dead) < abs(primary) / 3


def test_chi_ratio_of_identical_specs_is_exactly_one(drn_and_test):
    model, _, test = drn_and_test
    spec = PerturbationSpec(0, "rank_aware", seed=7)
    result = chi_ratio(model, test, spec, spec)
    assert result.value == 1.0
    assert isinstance(result, ChiResult)


def test_chi_ratio_rejects_mismatched_predictors(drn_and_test):
    model, _, test = drn_and_test
    with pytest.raises(ContractError):
        chi_ratio(model, test, PerturbationSpec(0, "rank_aware"),
                  PerturbationSpec(1, "rank_aware"))


def test_chi_restoration_orientation(drn_and_test):
    # conditioning on the statistic carrying the signal restores skill
    # (value near 1); a shape statistic of the same channel restores
    # little because the binning scrambles the informative mean
    model, _, test = drn_and_test
    informative = chi(model, test, 0, "mean", bins=10, seed=0)
    assert informative.reliable and informative.value > 0.7
    shape_only = chi(model, test, 0, "kurtosis", bins=10, seed=0)
    assert shape_only.value < informative.value - 0.3


@pytest.mark.filterwarnings("ignore:.*global EMOS coefficients.*")
def test_chi_flags_unreliable_reference(drn_and_test):
    # a summary model never reads the auxiliary members, so the rank-aware
    # reference shuffle cannot change its score: denominator exactly zero
    _, emos, test = drn_and_test
    result = chi(emos, test, 1, "mean", bins=10, seed=0)
    assert not result.reliable
    assert delta0(emos, test, PerturbationSpec(1, "fully_random",
                                               seed=0)) == 0.0


# ---------------------------------------------------------------------------
# Correlation, preservation, reports
# ---------------------------------------------------------------------------


def test_spearman_matches_scipy_and_handles_constants():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=50), rng.normal(size=50)
    assert spearman(x, y) == spearman_ref(x, y)
    assert spearman([1, 2, 3], [3, 1, 2]) == spearman_ref([1, 2, 3], [3, 1, 2])
    assert np.isnan(spearman(np.ones(5), np.arange(5)))
    assert np.isnan(spearman([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]))
    with pytest.raises(DomainError):
        spearman([1.0], [2.0])


@st.composite
def _rank_inputs(draw):
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(
        ["floats", "ties", "signed_zeros", "equal", "nan"]))
    if kind == "floats":
        element = st.floats(-1e6, 1e6, allow_nan=False)
    elif kind == "signed_zeros":
        element = st.sampled_from([-0.0, 0.0, 1.0])
    elif kind == "equal":
        element = st.just(draw(st.floats(-10, 10, allow_nan=False)))
    else:
        element = st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])
    x = np.array(draw(st.lists(element, min_size=n, max_size=n)))
    if kind == "nan":
        x[draw(st.integers(0, n - 1))] = np.nan
    return x


@settings(max_examples=300)
@given(x=_rank_inputs())
def test_midranks_match_scipy_rankdata_exactly(x):
    ours = _midranks(x)
    assert ours.dtype == np.float64
    # bit-for-bit, including all-NaN ranks for an input holding NaN
    np.testing.assert_array_equal(ours, rankdata(x))


def test_preservation_matrix_diagonal_dominates():
    ds = _dataset(days=150, stations=4, members=10, seed=3)
    mat = preservation_matrix(ds, 0, bins=50, seed=0)
    assert mat.shape == (len(SUMMARY_KINDS), len(SUMMARY_KINDS))
    diag = np.diag(mat)
    assert diag.min() > 0.9
    off = mat[~np.eye(len(SUMMARY_KINDS), dtype=bool)]
    assert diag.min() > np.median(off)


def test_preservation_matrix_rejects_a_predictor_out_of_range():
    ds = _dataset(days=10)
    for predictor in (ds.n_predictors, 99):
        with pytest.raises(ConfigError, match="predictor index"):
            preservation_matrix(ds, predictor)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
    assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)
    assert derive_seed(3, "a") != derive_seed(4, "a")


def test_importance_report_structure(drn_and_test):
    model, _, test = drn_and_test
    report = importance_report([model], test, bins=20, seed=0,
                               statistics=("mean", "std"),
                               chi_predictors=[0])
    assert set(report["delta0"]) == set(test.predictor_names)
    assert set(report["chi"]) == {"primary"}
    assert set(report["chi"]["primary"]) == {"mean", "std"}
    for cell in report["chi"]["primary"].values():
        assert {"mean", "min", "max", "median", "reliable"} <= set(cell)
    assert np.asarray(report["preservation"]["primary"]).shape == (2, 2)
    with pytest.raises(DomainError):
        importance_report([], test)


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _report_by_public_calls(models, test, bins, seed, statistics,
                            chi_predictors):
    """importance_report as a loop over the public delta0 and chi."""
    names = test.predictor_names
    delta_runs = {name: [] for name in names}
    for run, model in enumerate(models):
        for i, name in enumerate(names):
            spec = PerturbationSpec(i, "fully_random",
                                    seed=derive_seed(seed, "delta0", run, i))
            delta_runs[name].append(delta0(model, test, spec))
    chi_block = {}
    for i in chi_predictors:
        per_stat = {}
        for stat in statistics:
            results = [chi(model, test, i, stat, bins=bins,
                           seed=derive_seed(seed, "chi", run, i))
                       for run, model in enumerate(models)]
            per_stat[stat] = {
                **_box_stats([r.value for r in results]),
                "reliable": all(r.reliable for r in results)}
        chi_block[names[i]] = per_stat
    return {name: _box_stats(v) for name, v in delta_runs.items()}, chi_block


@pytest.mark.filterwarnings("ignore:.*global EMOS coefficients.*")
def test_importance_report_scores_each_distinct_forecast_once(
        drn_and_test, monkeypatch):
    model, emos, test = drn_and_test
    statistics, chi_predictors = ("mean", "std", "skewness"), [0, 1]
    expected_delta, expected_chi = _report_by_public_calls(
        [model, emos], test, 10, 5, statistics, chi_predictors)
    counts = [_count_calls(monkeypatch, m, "forward") for m in (model, emos)]
    built = _count_calls(monkeypatch, models, "graph_inputs")
    standardized = _count_calls(monkeypatch, enspost.data, "standardize")
    report = importance_report([model, emos], test, bins=10, seed=5,
                               statistics=statistics,
                               chi_predictors=chi_predictors)
    p, s, c = test.n_predictors, len(statistics), len(chi_predictors)
    assert [len(calls) for calls in counts] == [1 + p + s * c + c] * 2
    # inputs are built once per model; EMOS reads raw members
    assert (len(built), len(standardized)) == (2, 1)
    np.testing.assert_equal(report["delta0"], expected_delta)
    np.testing.assert_equal(report["chi"], expected_chi)


@pytest.mark.filterwarnings("ignore:.*global EMOS coefficients.*")
def test_importance_builds_no_dataset(drn_and_test, monkeypatch):
    model, emos, test = drn_and_test
    built = []
    init = Dataset.__init__
    monkeypatch.setattr(Dataset, "__init__",
                        lambda self, *a, **k: built.append(1)
                        or init(self, *a, **k))
    importance_report([model, emos], test, bins=10, seed=5,
                      statistics=("mean", "std"), chi_predictors=[0, 1])
    donors, col = _shuffle(test, PerturbationSpec(0, "fully_random"))
    for m in (model, emos):
        inputs_mean_crps(m, m.shuffled_inputs(m.inputs(test), 0, donors,
                                              lambda: col), test.obs)
    assert built == []


def test_skill_losses_reject_a_predictor_out_of_range(drn_and_test):
    model, _, test = drn_and_test
    with pytest.raises(ConfigError, match="predictor index"):
        delta0(model, test, PerturbationSpec(99, "fully_random"))


def test_importance_report_rejects_bad_options_before_any_forward(
        drn_and_test, monkeypatch):
    model, _, test = drn_and_test
    calls = _count_calls(monkeypatch, model, "forward")
    for predictor in (test.n_predictors, -1):
        with pytest.raises(ConfigError, match=r"chi predictors \["):
            importance_report([model], test, chi_predictors=[predictor])
    with pytest.raises(ConfigError, match="bins"):
        importance_report([model], test, bins=1, chi_predictors=[0])
    assert calls == []


def test_preservation_csv_format():
    mat = np.eye(2)
    text = preservation_csv(mat, statistics=("mean", "std"))
    lines = text.strip().split("\n")
    assert lines[0] == "conditioning,mean,std"
    assert lines[1].startswith("mean,1.000000,0.000000")


# ---------------------------------------------------------------------------
# Shared column facts against per-shuffle recomputation
# ---------------------------------------------------------------------------

REFERENCE_BINS = (2, 7, 100)


def _reference_dataset(n=60, members=7, seed=0):
    """Predictors: plain normal members, members tied within and across rows
    (signed zeros among them), and a constant column, whose statistics are
    all tied, so that every Spearman correlation with it is NaN."""
    rng = np.random.default_rng(seed)
    plain = rng.normal(size=(n, members))
    tied = np.round(rng.normal(size=(n, members)))
    tied[tied == 0] = np.where(rng.random((tied == 0).sum()) < 0.5, -0.0, 0.0)
    ens = np.stack([plain, tied, np.full((n, members), 1.5)], axis=2)
    return Dataset(ens, rng.normal(size=(n, 1)), np.arange(n) % 3,
                   [f"2020-01-{1 + k // 3:02d}" for k in range(n)],
                   rng.normal(size=n), 6, ["plain", "tied", "constant"],
                   ["s0"], n_stations=3)


@pytest.mark.parametrize("bins", REFERENCE_BINS)
@pytest.mark.parametrize("stat", SUMMARY_KINDS)
def test_conditional_shuffle_matches_per_bin_draws(stat, bins):
    # same donors, and the generator left in the same state
    ds = _reference_dataset()
    for i in range(ds.n_predictors):
        col = ds.ens[:, :, i]
        for seed in range(5):
            spec = PerturbationSpec(i, "conditional", statistic=stat,
                                    bins=bins, seed=seed)
            ours, ref = np.random.default_rng(seed), \
                np.random.default_rng(seed)
            np.testing.assert_array_equal(
                _conditional_donors(_Column(col), spec, ours),
                conditional_donors_per_bin(col, spec, ref))
            assert ours.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(perturb(col, spec),
                                          perturb_per_bin(col, spec))


@pytest.mark.parametrize("kind", ["fully_random", "rank_aware"])
def test_unconditional_shuffles_match_reference(kind):
    ds = _reference_dataset()
    for i in range(ds.n_predictors):
        spec = PerturbationSpec(i, kind, seed=i)
        np.testing.assert_array_equal(perturb(ds.ens[:, :, i], spec),
                                      perturb_per_bin(ds.ens[:, :, i], spec))


@pytest.mark.parametrize("kind,cond", [("rank_aware", None),
                                       *(("conditional", c)
                                         for c in SUMMARY_KINDS)])
def test_a_shuffled_row_has_its_donor_rows_statistics(kind, cond):
    # what lets the preservation matrix read every statistic of a shuffled
    # column at the donor rows
    ds = _reference_dataset()
    for i in range(ds.n_predictors):
        col = ds.ens[:, :, i]
        for seed in range(3):
            spec = PerturbationSpec(i, kind, statistic=cond, bins=7,
                                    seed=seed)
            donors = _donors(_Column(col), spec,
                             np.random.default_rng(spec.seed))
            shuffled = perturb(col, spec)
            for stat in SUMMARY_KINDS:
                assert summary_statistic(shuffled, stat).tobytes() \
                    == summary_statistic(col, stat)[donors].tobytes(), stat


@pytest.mark.parametrize("bins", REFERENCE_BINS)
def test_preservation_matrix_equals_full_recompute(bins):
    ds = _reference_dataset()
    for i in range(ds.n_predictors):
        ours = preservation_matrix(ds, i, bins=bins, seed=3)
        ref = preservation_matrix_recomputed(ds.ens[:, :, i], i, bins, 3,
                                             SUMMARY_KINDS)
        np.testing.assert_array_equal(ours, ref)     # NaN where ref has NaN
    assert np.isnan(ours).all()                      # the constant column


@pytest.mark.filterwarnings("ignore:.*global EMOS coefficients.*")
@pytest.mark.parametrize("bins", REFERENCE_BINS)
def test_importance_report_equals_per_shuffle_recomputation(bins):
    ds = _reference_dataset()
    # the constant column cannot be normalized, so models are fitted to
    # the layout of a dataset with a varying third column
    layout = Dataset(ds.ens + np.arange(ds.ens.size).reshape(ds.ens.shape)
                     * 1e-3, ds.scalars, ds.station, ds.times, ds.obs,
                     ds.lead_hours, ds.predictor_names, ds.scalar_names,
                     n_stations=ds.n_stations)
    pool = [_untrained(arch, layout) for arch in ("drn", "emos", "ed-drn")]
    ours = importance_report(pool, ds, bins=bins, seed=9)
    with pytest.MonkeyPatch.context() as patch:
        # reference shuffles, and each shuffled forecast's inputs built
        # from a Dataset holding the shuffled block
        patch.setattr(importance, "_donors", lambda column, spec, rng:
                      donors_per_bin(column.values, spec, rng))
        patch.setattr(importance, "_members", lambda column, spec, donors,
                      rng: members_per_bin(column.values, spec, donors, rng))
        for model in pool:
            patch.setattr(model, "shuffled_inputs",
                          rebuilt_shuffled_inputs(model, ds))
        patch.setattr(importance, "_preservation",
                      lambda column, *args:
                      preservation_matrix_recomputed(column.values, *args))
        ref = importance_report(pool, ds, bins=bins, seed=9)
    np.testing.assert_equal(ours, ref)
    assert np.isnan(ours["preservation"]["constant"]).all()
