"""Unit tests for model architectures, forward passes and checkpoints."""

import functools
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import enspost.autodiff as ad
from enspost import models
from enspost.cli import load_run_config
from enspost.data import (Dataset, SynthConfig, fit_norm, generate_synthetic,
                          standardize)
from enspost.errors import (ConfigError, ContractError, DomainError,
                             NumericError)
from enspost.models import (ARCHITECTURES, MODEL_CHECKS, POOLING_KINDS,
                            EMOSModel, ModelConfig, NeuralModel, build_graph,
                            check_model_size, emos_params, graph_inputs,
                            init_params, load_model, param_shapes,
                            save_model, summary_base, summary_columns)
from oracles import emos_forward, run_config_validator, with_ensemble

TINY = dict(hidden_sizes=(6, 5), latent_width=8, attention_heads=2,
            n_attention_blocks=2, bernstein_degree=4, embedding_dim=3,
            n_quantile_levels=9)


def _dataset(seed=0, days=12, stations=3, members=6):
    return generate_synthetic(SynthConfig(stations=stations, days=days,
                                          members=members, seed=seed))


def _tiny_model(arch, ds, seed=0):
    cfg = ModelConfig(architecture=arch, seed=seed, **TINY)
    params = init_params(cfg, ds.n_predictors, ds.n_scalars, ds.n_stations,
                         rng=np.random.default_rng(seed))
    return NeuralModel(cfg, params, fit_norm(ds), ds.n_stations, ds.primary,
                       ds.predictor_names, ds.scalar_names)


def _emos_model(ds, table=None, seed=0):
    """EMOS with a random coefficient table (or ``table``); every other
    (station, month) cell is left without a row, so those samples fall back
    to the global row 0."""
    keys = sorted({(int(s), int(m))
                   for s, m in zip(ds.station, ds.months())})[::2]
    if table is None:
        table = np.random.default_rng(seed).normal(size=(1 + len(keys), 6))
    else:
        keys = keys[:len(table) - 1]
    return EMOSModel(ModelConfig(architecture="emos", **TINY),
                     emos_params(table), keys, norm=None,
                     n_stations=ds.n_stations, primary=ds.primary,
                     predictor_names=ds.predictor_names,
                     scalar_names=ds.scalar_names)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_model_config_validation_and_roundtrip():
    cfg = ModelConfig(architecture="ed-bqn", **TINY)
    assert cfg.family == "bqn"
    assert cfg.n_outputs == TINY["bernstein_degree"] + 1
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="config field architecture:"):
        ModelConfig(architecture="transformer")
    with pytest.raises(ConfigError, match="config field attention_heads:"):
        ModelConfig(latent_width=10, attention_heads=4)
    with pytest.raises(ConfigError, match="config field hidden_sizes:"):
        ModelConfig(hidden_sizes=(8,))


def test_drn_family_is_tlogis_with_two_outputs():
    cfg = ModelConfig(architecture="st-drn", **TINY)
    assert cfg.family == "tlogis"
    assert cfg.n_outputs == 2


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def test_summary_base_values_and_invariance():
    rng = np.random.default_rng(0)
    ens = rng.normal(size=(5, 8, 3))
    base = summary_base(ens, primary=0)
    assert base.shape == (5, 2 + 2)
    np.testing.assert_allclose(base[:, 0], ens[:, :, 0].mean(axis=1),
                               rtol=1e-13)
    np.testing.assert_allclose(base[:, 1], ens[:, :, 0].std(axis=1, ddof=1),
                               rtol=1e-13)
    np.testing.assert_allclose(base[:, 2], ens[:, :, 1].mean(axis=1),
                               rtol=1e-13)
    perm = rng.permutation(8)
    np.testing.assert_array_equal(summary_base(ens[:, perm], 0), base)
    with pytest.raises(DomainError):
        summary_base(ens[:, :1], 0)


@st.composite
def _shuffled_blocks(draw):
    """(block, primary, donors, shuffled block, moved predictors): the
    moved predictors' columns take the members of the donor rows, in any
    order in each row."""
    n, m, p = (draw(st.integers(1, 6)), draw(st.integers(2, 6)),
               draw(st.integers(1, 4)))
    element = draw(st.sampled_from([
        st.floats(-1e300, 1e300, allow_nan=False),
        st.sampled_from([-0.0, 0.0, 1.0, -2.5]),
        st.floats(-1e-300, 1e-300, allow_nan=False)]))
    block = np.array(draw(st.lists(element, min_size=n * m * p,
                                   max_size=n * m * p))).reshape(n, m, p)
    donors = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    moved = draw(st.sets(st.integers(0, p - 1), min_size=1))
    shuffled = block.copy()
    for j in moved:
        for i in range(n):
            order = draw(st.permutations(range(m)))
            shuffled[i, :, j] = block[donors[i], order, j]
    return block, draw(st.integers(0, p - 1)), donors, shuffled, moved


@settings(max_examples=300)
@given(case=_shuffled_blocks())
def test_summary_base_of_shuffled_rows_is_a_gather(case):
    # importance reads a shuffled block's summary columns from the donor
    # rows of the original summaries: the bits must agree
    block, primary, donors, shuffled, moved = case
    with np.errstate(over="ignore", invalid="ignore"):
        expected = summary_base(block, primary)
        got = summary_base(shuffled, primary)
    for j in moved:
        cols = summary_columns(primary, j)
        expected[:, cols] = expected[donors[:, None], cols]
    assert got.tobytes() == expected.tobytes()


def test_summary_graph_features_are_summary_base_and_scalars():
    ds = _dataset()
    norm = fit_norm(ds)
    inputs = graph_inputs(ModelConfig(architecture="drn", **TINY), ds, norm)
    ens, scalars = standardize(ds, norm)
    np.testing.assert_array_equal(
        inputs["features"],
        np.concatenate([summary_base(ens, ds.primary), scalars], axis=1))
    np.testing.assert_array_equal(inputs["station"], ds.station)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def test_emos_identity_coefficients_return_mean_and_std():
    ds = _dataset(days=20)
    model = _emos_model(ds, table=[[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # every sample falls back
        theta = model.raw_theta(ds)
    np.testing.assert_array_equal(theta,
                                  summary_base(ds.ens, ds.primary)[:, :2])


@pytest.mark.parametrize("arch", [a for a in ARCHITECTURES if a != "emos"])
def test_forward_shapes_all_architectures(arch):
    ds = _dataset()
    model = _tiny_model(arch, ds)
    theta = model.raw_theta(ds)
    assert theta.shape == (len(ds), model.config.n_outputs)
    assert np.all(np.isfinite(theta))


@pytest.mark.parametrize("arch", ["ed-drn", "ed-bqn", "st-drn", "st-bqn"])
def test_set_models_are_permutation_invariant(arch):
    ds = _dataset(days=8)
    model = _tiny_model(arch, ds)
    theta = model.raw_theta(ds)
    rng = np.random.default_rng(1)
    perm = rng.permutation(ds.n_members)
    theta_p = model.raw_theta(with_ensemble(ds, ds.ens[:, perm]))
    rel = np.abs(theta_p - theta) / np.maximum(np.abs(theta), 1e-12)
    assert rel.max() < 1e-9


@functools.lru_cache(maxsize=None)
def _permutation_data():
    ds = _dataset(days=3, stations=2, members=7)
    return ds, fit_norm(ds)


@settings(max_examples=40)
@given(arch=st.sampled_from(["ed-drn", "ed-bqn", "st-drn", "st-bqn"]),
       pooling=st.sampled_from(POOLING_KINDS),
       seed=st.integers(0, 2**16),
       perm=st.permutations(range(7)))
def test_set_models_are_member_permutation_invariant_property(arch, pooling,
                                                              seed, perm):
    ds, norm = _permutation_data()
    cfg = ModelConfig(architecture=arch, pooling=pooling, seed=seed, **TINY)
    params = init_params(cfg, ds.n_predictors, ds.n_scalars, ds.n_stations)
    model = NeuralModel(cfg, params, norm, ds.n_stations, ds.primary,
                        ds.predictor_names, ds.scalar_names)
    theta = model.raw_theta(ds)
    permuted = model.raw_theta(with_ensemble(ds, ds.ens[:, list(perm)]))
    # permutations only reorder sums over members: rounding-level changes
    # relative to the output scale
    assert np.max(np.abs(permuted - theta)) <= 1e-9 * np.max(np.abs(theta))


def test_summary_models_exactly_invariant():
    ds = _dataset(days=8)
    model = _tiny_model("drn", ds)
    perm = np.random.default_rng(2).permutation(ds.n_members)
    np.testing.assert_array_equal(model.raw_theta(ds),
                                  model.raw_theta(with_ensemble(
                                      ds, ds.ens[:, perm])))


def test_emos_raw_theta_matches_per_row_forward():
    ds = _dataset(days=70)
    model = _emos_model(ds)
    feats = summary_base(ds.ens, ds.primary)[:, :2]
    table = model.params.view("cells")
    rows = dict(zip(map(tuple, model.keys.tolist()), table[1:]))
    expected, fallback = [], 0
    for station, month, f in zip(ds.station, ds.months(), feats):
        row = rows.get((int(station), int(month)))
        if row is None:
            row, fallback = table[0], fallback + 1
        expected.append(emos_forward(row, f))
    assert 0 < fallback < len(ds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        theta = model.raw_theta(ds)
        np.testing.assert_array_equal(model.raw_theta(ds), theta)
    np.testing.assert_array_equal(theta, np.array(expected))
    assert [str(w.message) for w in caught] == [
        f"{fallback} samples used global EMOS coefficients "
        "(no station/month cell fitted)"]


def test_models_reject_stations_beyond_their_fit():
    ds = _dataset(stations=3)
    wider = _dataset(stations=4)
    for model in (_tiny_model("drn", ds), _emos_model(ds)):
        with pytest.raises(ConfigError, match="station id 3"):
            model.raw_theta(wider)


@pytest.mark.parametrize("arch", ["emos", "drn", "ed-drn", "st-bqn"])
def test_raw_theta_of_an_empty_dataset_is_empty(arch):
    ds = _dataset()
    model = _emos_model(ds) if arch == "emos" else _tiny_model(arch, ds)
    empty = ds.subset(np.arange(0))
    assert model.raw_theta(empty).shape == (0, model.config.n_outputs)


@pytest.mark.parametrize("arch, pooling", [
    (arch, pooling) for arch in (*ARCHITECTURES, "emos-cells")
    for pooling in (POOLING_KINDS if arch.startswith("ed-") else [None])])
def test_forward_builds_no_tensor_and_equals_the_tape(arch, pooling,
                                                      monkeypatch):
    ds = _dataset(days=4)
    if arch == "emos-cells":
        model = _emos_model(ds)
    else:
        cfg = ModelConfig(architecture=arch, pooling=pooling or "attention",
                          **TINY)
        params = init_params(cfg, ds.n_predictors, ds.n_scalars,
                             ds.n_stations, rng=np.random.default_rng(1))
        model = NeuralModel(cfg, params, fit_norm(ds), ds.n_stations,
                            ds.primary, ds.predictor_names, ds.scalar_names)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # EMOS cells without a row
        inputs = model.inputs(ds)
    built = []
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    theta = ad.eval_graph(model.graph, model.params, inputs)
    assert built == []
    taped, _ = ad._run(model.graph, model.params, inputs)
    assert built and isinstance(taped, ad.Tensor)
    assert theta.tobytes() == taped.value.tobytes()


def _counting_eval_graph(monkeypatch):
    """Patch ``ad.eval_graph`` to record the row count of each call."""
    rows, inner = [], ad.eval_graph

    def spy(graph, params, inputs=None):
        rows.append(len(next(iter(inputs.values()))))
        return inner(graph, params, inputs)
    monkeypatch.setattr(ad, "eval_graph", spy)
    return rows


@pytest.mark.parametrize("block", [1, 5, 8, 9])
@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_forward_in_blocks_is_one_forward_bit_for_bit(arch, block,
                                                      monkeypatch):
    # 36 rows: blocks of 8 leave 4, blocks of 9 divide them, blocks of 5
    # leave one row, which joins the block before it, and a budget of one
    # row still takes two
    ds = _dataset()
    model = _emos_model(ds) if arch == "emos" else _tiny_model(arch, ds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # EMOS cells without a row
        inputs = model.inputs(ds)
    whole = ad.eval_graph(model.graph, model.params, inputs)
    monkeypatch.setattr(models, "BLOCK_BYTES",
                        8 * block * models._row_values(model.config, inputs))
    rows = _counting_eval_graph(monkeypatch)
    theta = model.forward(inputs)
    expected = {1: [2] * 18, 5: [5] * 6 + [6], 8: [8] * 4 + [4],
                9: [9] * 4}[block]
    assert rows == expected
    assert theta.tobytes() == whole.tobytes()
    empty = model.forward({k: v[:0] for k, v in inputs.items()})
    assert rows[-1] == 0 and empty.shape == (0, model.config.n_outputs)


def _perfbench_block_count(arch, n, stations, **sizes):
    """Forward blocks of ``n`` rows of a model at the sizes of a perfbench
    workload (default members, predictors and scalars)."""
    ds = generate_synthetic(SynthConfig(stations=stations, days=2))
    cfg = ModelConfig(architecture=arch, **sizes)
    inputs = graph_inputs(cfg, ds, None if arch == "emos" else fit_norm(ds))
    return math.ceil(n / models._block_rows(cfg, inputs))


def test_block_rule_at_perfbench_sizes():
    # test rows: 30% of stations x 160 days (drn, st-bqn), 2 x 600 (emos)
    assert _perfbench_block_count("drn", 768, 16) == 1
    assert _perfbench_block_count("emos", 360, 2) == 1
    assert _perfbench_block_count(
        "st-bqn", 384, 8, latent_width=32, attention_heads=4,
        n_attention_blocks=1, hidden_sizes=(32, 16)) >= 4


def test_set_transformer_forward_peak_is_a_few_blocks():
    # 1200 rows in one block would hold 15 MB of (heads, M, M) scores
    cfg = ModelConfig(architecture="st-bqn", latent_width=32,
                      attention_heads=4, n_attention_blocks=1,
                      hidden_sizes=(32, 16), embedding_dim=3)
    rng = np.random.default_rng(0)
    n, members, stations = 1200, 20, 4
    inputs = {"ens": rng.normal(size=(n, members, 3)),
              "scalars": rng.normal(size=(n, 2)),
              "station": rng.integers(0, stations, size=n)}
    model = NeuralModel(cfg, init_params(cfg, 3, 2, stations), None,
                        stations, 0, ["a", "b", "c"], ["d", "e"])
    widest = 8 * models._block_rows(cfg, inputs) * models._row_values(
        cfg, inputs)
    assert widest <= models.BLOCK_BYTES
    tracemalloc.start()
    try:
        model.forward(inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * widest


def test_models_reject_a_primary_predictor_unlike_their_fit():
    ds = _dataset()
    other = Dataset(ds.ens, ds.scalars, ds.station, ds.times, ds.obs,
                    ds.lead_hours, ds.predictor_names, ds.scalar_names,
                    primary=1, n_stations=ds.n_stations)
    for model in (_tiny_model("drn", ds), _emos_model(ds)):
        with pytest.raises(ConfigError, match="primary predictor 1"):
            model.raw_theta(other)


def test_models_reject_predictors_and_scalars_unlike_their_fit():
    # an EMOS model has no norm whose names standardize would compare: with
    # the columns reversed it would read the noise channel as its primary
    ds = _dataset()
    others = [
        Dataset(ds.ens[..., ::-1], ds.scalars, ds.station, ds.times, ds.obs,
                ds.lead_hours, ds.predictor_names[::-1], ds.scalar_names),
        Dataset(ds.ens, ds.scalars[:, ::-1], ds.station, ds.times, ds.obs,
                ds.lead_hours, ds.predictor_names, ds.scalar_names[::-1])]
    for model in (_tiny_model("drn", ds), _emos_model(ds)):
        for other in others:
            names = str([other.predictor_names, other.scalar_names])
            with pytest.raises(ConfigError, match=re.escape(names)):
                model.raw_theta(other)


def test_forecast_and_quantiles_are_consistent():
    ds = _dataset(days=6)
    for arch in ("drn", "bqn"):
        model = _tiny_model(arch, ds)
        q = model.quantiles(ds, 9)
        assert q.shape == (len(ds), 9)
        assert np.all(np.diff(q, axis=1) >= -1e-12)   # non-decreasing rows


def test_param_shapes_cover_init_params():
    ds = _dataset()
    for arch in ARCHITECTURES:
        cfg = ModelConfig(architecture=arch, **TINY)
        shapes = param_shapes(cfg, ds.n_predictors, ds.n_scalars,
                              ds.n_stations)
        params = init_params(cfg, ds.n_predictors, ds.n_scalars,
                             ds.n_stations)
        assert set(params.layout) == set(shapes)


def test_emos_starts_at_the_identity_link():
    # mu = ensemble mean, raw scale = ensemble std: the start of every fit
    ds = _dataset()
    params = init_params(ModelConfig(architecture="emos"), ds.n_predictors,
                         ds.n_scalars, ds.n_stations)
    assert params.values.tobytes() == np.array(
        [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("arch,sizes,message", [
    # one block fits; 1e20 of them do not, and none is enumerated
    ("st-drn", dict(n_attention_blocks=10**20),
     "model.n_attention_blocks: the parameter vector would hold"),
    # each field alone fits, w0 of (2e9 + 4) x 2e9 values does not
    ("drn", dict(embedding_dim=2 * 10**9, hidden_sizes=(2 * 10**9, 4)),
     "model.embedding_dim, model.hidden_sizes: parameter w0 would hold"),
    # the station embedding is the first slice past the limit
    ("st-drn", dict(embedding_dim=10**20, latent_width=10**20),
     "field model.embedding_dim: parameter emb would hold"),
])
def test_check_model_size_names_the_fields_past_the_limit(arch, sizes,
                                                          message):
    cfg = ModelConfig(architecture=arch, **{**TINY, **sizes})
    with pytest.raises(ConfigError, match=message):
        check_model_size(cfg, 4, 1, 3)


def test_check_model_size_accepts_models_numpy_can_index():
    for arch in ARCHITECTURES:
        check_model_size(ModelConfig(architecture=arch, **TINY), 4, 1, 3)
    # 1e8 x 10 values fit in an index, whatever memory holds
    check_model_size(ModelConfig(embedding_dim=10**8), 4, 1, 10)
    # np.arange refuses 2**60 - 64 float64 values and tries to allocate
    # one fewer
    check_model_size(ModelConfig(n_quantile_levels=2**60 - 65), 4, 1, 3)
    with pytest.raises(ConfigError, match="model.n_quantile_levels"):
        check_model_size(ModelConfig(n_quantile_levels=2**60 - 64), 4, 1, 3)


def test_graph_inputs_match_architecture():
    ds = _dataset()
    norm = fit_norm(ds)
    emos_in = graph_inputs(ModelConfig(architecture="emos", **TINY), ds, None)
    assert list(emos_in) == ["features"]
    assert emos_in["features"].shape == (len(ds), 2)
    drn_in = graph_inputs(ModelConfig(architecture="drn", **TINY), ds, norm)
    assert drn_in["features"].shape == (
        len(ds), 2 + (ds.n_predictors - 1) + ds.n_scalars)
    set_in = graph_inputs(ModelConfig(architecture="st-drn", **TINY), ds,
                          norm)
    np.testing.assert_array_equal(set_in["ens"], standardize(ds, norm)[0])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_is_exact(tmp_path):
    ds = _dataset()
    for arch in ("drn", "st-bqn"):
        model = _tiny_model(arch, ds, seed=3)
        path = tmp_path / f"{arch}.bin"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.params.values, model.params.values)
        assert back.config == model.config
        np.testing.assert_array_equal(back.raw_theta(ds), model.raw_theta(ds))


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ConfigError):
        load_model(path)


def test_neural_model_pickles_without_graph():
    import pickle
    ds = _dataset()
    model = _tiny_model("ed-drn", ds)
    clone = pickle.loads(pickle.dumps(model))
    np.testing.assert_array_equal(clone.raw_theta(ds), model.raw_theta(ds))


def _write_checkpoint(path, header, block=b""):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(b"ENSPOST1" + struct.pack("<Q", len(raw)) + raw + block)


def test_load_model_rejects_corrupt_headers_and_blocks(tmp_path):
    ds = _dataset()
    good = tmp_path / "good.bin"
    save_model(_emos_model(ds), good)
    blob = good.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header, block = json.loads(blob[16:16 + hlen]), blob[16 + hlen:]
    bad = tmp_path / "bad.bin"
    cases = [b"\xff\xfe not utf-8", b"[1, 2]", b'{"kind": "other"}']
    for key in ("config", "kind", "cell_keys"):
        cases.append({k: v for k, v in header.items() if k != key})
    for case in cases:
        _write_checkpoint(bad, case, block)
        with pytest.raises(ConfigError):
            load_model(bad)
    for cut_block in (block + block[:48], block[:-48], block[:-3]):
        _write_checkpoint(bad, header, cut_block)
        with pytest.raises(ConfigError):
            load_model(bad)
    save_model(_tiny_model("drn", ds), good)
    blob = good.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    del header["layout"]
    _write_checkpoint(bad, header, blob[16 + hlen:])
    with pytest.raises(ConfigError, match="layout"):
        load_model(bad)


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes(kind):
    ds = _dataset()
    model = _emos_model(ds) if kind == "emos" else _tiny_model(kind, ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=200)
@given(kind=st.sampled_from(["drn", "emos"]), data=st.data())
def test_truncated_checkpoints_raise_only_config_error(kind, data):
    blob = _checkpoint_bytes(kind)
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(ConfigError):
            load_model(path)


def _split_checkpoint(blob):
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen]), blob[16 + hlen:]


def test_load_model_rejects_non_finite_blocks_and_bad_header_fields(tmp_path):
    bad = tmp_path / "bad.bin"
    for kind in ("emos", "drn"):
        header, block = _split_checkpoint(_checkpoint_bytes(kind))
        values = np.frombuffer(block, dtype="<f8").copy()
        for poison in (np.nan, np.inf):
            values[3] = poison
            _write_checkpoint(bad, header, values.astype("<f8").tobytes())
            with pytest.raises(ConfigError, match="non-finite"):
                load_model(bad)
        cases = [("primary", 9), ("primary", -1), ("primary", 0.0),
                 ("n_stations", "x"), ("n_stations", 0),
                 ("predictor_names", "abc"), ("scalar_names", [1])]
        if kind == "emos":
            # a repeated key passes the block-size check (two cells were
            # saved) but would hand one cell the other's coefficients
            assert len(header["cell_keys"]) == 2
            cases += [("cell_keys", [[0]]), ("cell_keys", [[0, "1"]]),
                      ("cell_keys", [[0, 1], [0, 1]])]
        else:
            norm = header["norm"]
            cases += [("norm", {k: v for k, v in norm.items()
                                if k != "ens_mean"}),
                      ("norm", {**norm, "ens_meaN": norm["ens_mean"]}),
                      ("norm", {**norm, "ens_std": norm["ens_std"][:-1]}),
                      ("norm", {**norm, "scalar_std": [0.0] * len(
                          norm["scalar_std"])}),
                      ("norm", {**norm, "ens_mean": ["0"] * len(
                          norm["ens_mean"])}),
                      ("layout", {**header["layout"], "b0": [0, [6]]}),
                      ("config", {**header["config"], "hidden_sizes": [6, 4]}),
                      ("config", ["ab"]), ("config", ["abc"]),
                      ("config", {**header["config"],
                                  "embedding_dim": 10**20})]
        for key, value in cases:
            _write_checkpoint(bad, {**header, key: value}, block)
            with pytest.raises(ConfigError):
                load_model(bad)


@pytest.mark.parametrize("key", [[-1, 5], ["n_stations", 1], [0, 13],
                                 [0, 0]])
def test_load_model_rejects_cell_keys_outside_stations_and_months(tmp_path,
                                                                 key):
    # raw_theta indexes an (n_stations, 13) table with the keys, where a
    # negative station would wrap round instead of failing
    header, block = _split_checkpoint(_checkpoint_bytes("emos"))
    key = [header["n_stations"] if k == "n_stations" else k for k in key]
    bad = tmp_path / "bad.bin"
    _write_checkpoint(bad, {**header, "cell_keys": [key,
                                                    header["cell_keys"][1]]},
                      block)
    with pytest.raises(ConfigError, match="cell_keys"):
        load_model(bad)


def test_emos_raw_theta_raises_numeric_error_on_overflow():
    ds = _dataset()
    model = _emos_model(ds)
    # finite coefficients on the ensemble mean, but the link overflows
    model.params.view("cells")[:, :2] = 1.78e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError, match="op 'matmul'"):
            model.raw_theta(ds)


@settings(max_examples=300)
@given(kind=st.sampled_from(["drn", "emos"]), data=st.data())
def test_byte_flipped_checkpoints_raise_typed_errors_or_load_finite(kind,
                                                                   data):
    blob = bytearray(_checkpoint_bytes(kind))
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    blob[offset] ^= data.draw(st.integers(1, 255), label="mask")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # overflow, EMOS fallback
                theta = load_model(path).raw_theta(_dataset())
        except (ConfigError, NumericError):
            return
    assert np.all(np.isfinite(theta))


# Any JSON value: null, bools, integers up to 10**30, floats with NaN and the
# infinities, strings, and lists and objects of them.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=2)),
    max_leaves=4)
_TYPED_ERRORS = (ConfigError, ContractError, DomainError, NumericError)


@settings(max_examples=600)
@given(kind=st.sampled_from(["emos", "drn", "st-bqn"]), data=st.data())
def test_mutated_checkpoint_headers_raise_typed_errors_or_load_finite(kind,
                                                                    data):
    # one JSON value of the header, its config or its norm stats replaced
    header, block = _split_checkpoint(_checkpoint_bytes(kind))
    section = data.draw(st.sampled_from(
        [None, "config"] + (["norm"] if kind != "emos" else [])),
        label="section")
    fields = header[section] if section else header
    fields[data.draw(st.sampled_from(sorted(fields)), label="field")] = \
        data.draw(_JSON_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        _write_checkpoint(path, header, block)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # overflow, EMOS fallback
                theta = load_model(path).raw_theta(_dataset())
        except _TYPED_ERRORS:
            return
    assert np.all(np.isfinite(theta))


def test_emos_cell_lookup_memory_follows_rows_not_the_station_count(
        tmp_path):
    # a station count that fits int64 loads, and finds the same cells
    # without a table of one slot per station and month
    header, block = _split_checkpoint(_checkpoint_bytes("emos"))
    saved, wide = tmp_path / "saved.bin", tmp_path / "wide.bin"
    _write_checkpoint(saved, header, block)
    _write_checkpoint(wide, {**header, "n_stations": 2**62}, block)
    ds = _dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # EMOS fallback
        expected = load_model(saved).raw_theta(ds)
        model = load_model(wide)
        tracemalloc.start()
        try:
            theta = model.raw_theta(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert theta.tobytes() == expected.tobytes()
    assert peak < 1 << 20


# One field's value: mostly one of the values its rule accepts, else a small
# JSON value of any type.  Accepted widths and head counts keep the rule
# across fields (heads divide the width) at the defaults and at TINY.
_FIELD_VALUES = {
    "architecture": st.sampled_from(ARCHITECTURES),
    "pooling": st.sampled_from(POOLING_KINDS),
    "hidden_sizes": st.lists(st.integers(1, 4), min_size=2, max_size=3),
    "latent_width": st.sampled_from([8, 16, 64]),
    "attention_heads": st.sampled_from([1, 2, 4, 8]),
    "learning_rate": st.floats(1e-6, 1.0),
    "seed": st.integers(0, 2**64),
}
_SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_STRICT_REFERENCE = run_config_validator(strict=True)


def _checkpoint_field(kind, field, value, tmp):
    """``field`` of the config that load_model reads from a checkpoint of
    ``kind`` whose header's config holds ``value`` there.  A drn checkpoint
    whose config is valid is saved with that config's parameters."""
    header, block = _split_checkpoint(_checkpoint_bytes(kind))
    header["config"][field] = value
    path = Path(tmp) / f"{kind}.bin"
    _write_checkpoint(path, header, block)
    if kind == "drn":
        try:
            config = ModelConfig.from_dict(header["config"])
        except ConfigError:
            pass
        else:
            ds = _dataset()
            params = init_params(config, ds.n_predictors, ds.n_scalars,
                                 ds.n_stations, rng=np.random.default_rng(0))
            save_model(NeuralModel(config, params, fit_norm(ds),
                                   ds.n_stations, ds.primary,
                                   ds.predictor_names, ds.scalar_names), path)
    return load_model(path).config.to_dict()[field]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(MODEL_CHECKS)), data=st.data())
def test_model_field_rules_are_one_rule_set_four_ways_in(field, data):
    # the constructor, from_dict, a --set override and a checkpoint header
    # each reject what the reference schema rejects, naming the field, and
    # take what it accepts
    value = data.draw(st.one_of(_FIELD_VALUES.get(field, st.integers(0, 4)),
                                _SMALL_JSON), label="value")
    accepted = _STRICT_REFERENCE.is_valid({"model": {field: value}})
    # the divisor rule reads two fields; its own test is above
    assume(not (accepted and field == "latent_width" and value % 8))
    assume(not (accepted and field == "attention_heads" and 8 % value))
    with tempfile.TemporaryDirectory() as tmp:
        entry_points = [
            ("", accepted, lambda: ModelConfig(**{field: tuple(
                value) if type(value) is list else value}).to_dict()[field]),
            ("", accepted, lambda: ModelConfig.from_dict(
                {field: value}).to_dict()[field]),
            ("model.", accepted, lambda: load_run_config(None, overrides=[
                f"model.{field}={json.dumps(value)}"])["model"][field]),
            ("config.", accepted,
             lambda: _checkpoint_field("drn", field, value, tmp)),
            # an EMOS header's architecture is "emos"
            ("config.", accepted and (field != "architecture"
                                      or value == "emos"),
             lambda: _checkpoint_field("emos", field, value, tmp))]
        for prefix, takes, call in entry_points:
            if takes:
                assert call() == value
            else:
                with pytest.raises(ConfigError,
                                   match=f"config field {prefix}{field}:"):
                    call()


def test_divisor_rule_names_its_section_four_ways_in(tmp_path):
    # no latent width used here is a multiple of 3 heads
    for prefix, call in [
            ("", lambda: ModelConfig(attention_heads=3)),
            ("", lambda: ModelConfig.from_dict({"attention_heads": 3})),
            ("model.", lambda: load_run_config(
                None, overrides=["model.attention_heads=3"])),
            ("config.", lambda: _checkpoint_field("drn", "attention_heads",
                                                  3, tmp_path)),
            ("config.", lambda: _checkpoint_field("emos", "attention_heads",
                                                  3, tmp_path))]:
        with pytest.raises(ConfigError, match=f"config field {prefix}"
                           "attention_heads: expected a divisor of "
                           "latent_width"):
            call()
