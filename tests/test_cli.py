"""Unit tests for the batch command-line interface.

All commands are exercised in-process through ``enspost.cli.main`` so exit
codes, stdout and artifacts can be checked without spawning subprocesses.
Only the import guards run a fresh interpreter, since ``sys.modules`` of the
test process already holds the oracles' scipy and ``numpy.ma``.
"""

import dataclasses
import importlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enspost
import enspost.cli as cli
from enspost.autodiff import ParamVector
from enspost.cli import (apply_override, check_run_config, load_run_config,
                         main, resolve_workers, _parse_override)
from enspost.data import SynthConfig, load_ndjson
from enspost.dist import QuantileLevels
from enspost.errors import ConfigError
from enspost.importance import SUMMARY_KINDS
from enspost.models import ModelConfig

from oracles import RUN_CONFIG_SCHEMA, run_config_validator


# ---------------------------------------------------------------------------
# Override parsing and config loading
# ---------------------------------------------------------------------------


def test_parse_override_json_and_bare_values():
    assert _parse_override("seed=3") == ("seed", 3)
    assert _parse_override("model.learning_rate=0.5") == \
        ("model.learning_rate", 0.5)
    assert _parse_override('model.hidden_sizes=[8,4]') == \
        ("model.hidden_sizes", [8, 4])
    # unquoted strings fall through JSON parsing unchanged
    assert _parse_override("model.architecture=drn") == \
        ("model.architecture", "drn")
    with pytest.raises(ConfigError):
        _parse_override("no_equals_sign")
    with pytest.raises(ConfigError):
        _parse_override("=3")


def test_apply_override_builds_dotted_paths():
    config = {"model": {"latent_width": 8}}
    apply_override(config, "model.latent_width", 16)
    apply_override(config, "train.pool_size", 5)
    assert config == {"model": {"latent_width": 16},
                      "train": {"pool_size": 5}}


def test_load_run_config_defaults_overrides_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"synth": {"days": 10}}))
    config = load_run_config(str(path), overrides=["synth.stations=2"],
                             seed=9, out="elsewhere")
    assert config["seed"] == 9
    assert config["out"] == "elsewhere"
    assert config["synth"] == {"days": 10, "stations": 2}
    # no config file at all is fine: all defaults
    assert load_run_config(None)["seed"] == 0


def test_load_run_config_schema_errors_name_the_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"synth": {"members": 1}}))
    with pytest.raises(ConfigError, match="synth.members"):
        load_run_config(str(path))
    path.write_text(json.dumps({"bogus_section": {}}))
    with pytest.raises(ConfigError):
        load_run_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(str(path))
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(str(tmp_path / "missing.json"))


# one value of each JSON type, and the types a field accepts by its default
_JSON_SAMPLES = {"string": "x", "integer": 3, "number": 0.5, "boolean": True,
                 "array": [3], "object": {}, "null": None}
_ACCEPTED_TYPES = {str: {"string"}, int: {"integer"},
                   float: {"integer", "number"}, tuple: {"array"}}


def test_config_schemas_are_derived_from_the_dataclasses():
    for section, config_class in (("synth", SynthConfig),
                                  ("model", ModelConfig)):
        for f in dataclasses.fields(config_class):
            default = f.default
            check_run_config({section: {f.name: (
                list(default) if type(default) is tuple else default)}})
            field = rf"config field {section}\.{f.name}:"
            for kind, value in _JSON_SAMPLES.items():
                if kind not in _ACCEPTED_TYPES[type(default)]:
                    with pytest.raises(ConfigError, match=field):
                        check_run_config({section: {f.name: value}})


def test_schema_rejects_unusable_importance_options():
    with pytest.raises(ConfigError, match="importance.bins"):
        load_run_config(None, overrides=["importance.bins=1"])
    with pytest.raises(ConfigError, match="importance.statistics"):
        load_run_config(None,
                        overrides=['importance.statistics=["mean","mean"]'])
    assert load_run_config(None, overrides=["importance.bins=2"])


_WILD = st.one_of(
    st.integers(), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _near(spec):
    """Values for a node of the reference schema: mostly ones it allows,
    else an edge (an integral float, a non-finite number, a value just
    below a minimum such as a negative seed, a list of another length) or
    a value of any type."""
    kind, edge = spec.get("type"), _WILD
    if kind == "integer":
        low = spec.get("minimum", -2)
        value = st.integers(low, low + 3)
        edge = st.one_of(st.just(low - 1),
                         st.integers(low - 1, low + 3).map(float))
    elif kind == "number":
        value = st.floats(0.01, 1.5)
        edge = st.sampled_from([0, 1, math.nan, math.inf, -math.inf, 10**400])
    elif kind == "array":
        value = st.lists(_near(spec["items"]),
                         min_size=spec.get("minItems", 0),
                         max_size=spec.get("maxItems", 3))
        edge = st.lists(_near(spec["items"]), max_size=5)
    elif kind == "object":
        value = st.just({})
    else:
        value = st.sampled_from(spec.get("enum", ["x", "drn"]))
    return st.sampled_from([value] * 3 + [edge] * 2 + [_WILD]).flatmap(
        lambda strategy: strategy)


def _fields(spec, prefix=""):
    """(dotted path, schema) of each section and field of the reference
    schema, and of an unknown field at each level."""
    yield prefix + "bogus", {}
    for name, sub in spec["properties"].items():
        yield prefix + name, sub
        if "properties" in sub:
            yield from _fields(sub, f"{prefix}{name}.")


@st.composite
def _configs(draw, fields=tuple(_fields(RUN_CONFIG_SCHEMA))):
    """A few fields drawn uniformly, so that each rule is met often; half
    the configs start from a data section with its required path."""
    config = {"data": {"path": "d.ndjson"}} if draw(st.booleans()) else {}
    for key, spec in draw(st.lists(st.sampled_from(fields), max_size=4)):
        try:
            apply_override(config, key, draw(_near(spec)))
        except ConfigError:         # the section was drawn as a non-object
            pass
    return config


_REFERENCE = run_config_validator()
_STRICT_REFERENCE = run_config_validator(strict=True)


def _accepted(config):
    try:
        check_run_config(config)
    except ConfigError:
        return False
    return True


@settings(max_examples=1000)
@given(_configs())
def test_checker_agrees_with_the_reference_schema(config):
    # the checker accepts a subset of what the schema accepts, and exactly
    # what it accepts once integers are JSON integers, numbers are finite
    # and seeds are at least 0
    accepted = _accepted(config)
    assert not accepted or _REFERENCE.is_valid(config)
    assert accepted == _STRICT_REFERENCE.is_valid(config)


def test_resolve_workers_flag_env_default():
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1          # clamped to at least one


# ---------------------------------------------------------------------------
# End-to-end runs (tiny configs, in-process)
# ---------------------------------------------------------------------------

SYNTH_SETS = ["synth.stations=3", "synth.days=60", "synth.members=8"]
MODEL_SETS = ["model.architecture=drn", "model.hidden_sizes=[6,5]",
              "model.latent_width=8", "model.attention_heads=2",
              "model.n_attention_blocks=2", "model.bernstein_degree=4",
              "model.embedding_dim=3", "model.n_quantile_levels=9",
              "model.max_epochs=3", "train.pool_size=2"]


def _run(command, out_dir, sets=(), seed=7):
    argv = [command, "--out", str(out_dir), "--seed", str(seed)]
    for item in sets:
        argv += ["--set", item]
    return main(argv)


def _manifest(out_dir):
    with open(os.path.join(out_dir, "run_manifest.json")) as fh:
        return json.load(fh)


def test_synth_writes_dataset_stats_and_manifest(tmp_path, capsys):
    out = tmp_path / "synth"
    assert _run("synth", out, SYNTH_SETS) == 0
    assert "synth: T=180 M=8" in capsys.readouterr().out
    ds = load_ndjson(str(out / "dataset.ndjson"))
    assert len(ds) == 180 and ds.n_members == 8
    stats = json.loads((out / "dataset_stats.json").read_text())
    assert stats["n_samples"] == 180
    assert stats["obs_mean"] == pytest.approx(np.mean(ds.obs))
    manifest = _manifest(out)
    assert set(manifest["outputs"]) == {"dataset.ndjson", "dataset.npz",
                                        "dataset_stats.json"}
    timings = json.loads((out / "timings.json").read_text())
    assert timings["command"] == "synth" and "total" in timings["seconds"]


def test_synth_hashes_the_dataset_once(tmp_path, monkeypatch):
    hashed, sha256_file = [], cli.sha256_file

    def counting(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)

    monkeypatch.setattr(cli, "sha256_file", counting)
    monkeypatch.setattr(enspost.data, "sha256_file", counting)
    out = tmp_path / "synth"
    assert _run("synth", out, SYNTH_SETS) == 0
    assert sorted(hashed) == ["dataset.ndjson", "dataset.npz",
                              "dataset_stats.json"]
    assert _manifest(out)["outputs"]["dataset.ndjson"] == sha256_file(
        out / "dataset.ndjson")


def test_synth_manifest_is_deterministic_and_seed_sensitive(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run("synth", a, SYNTH_SETS, seed=7) == 0
    assert _run("synth", b, SYNTH_SETS, seed=7) == 0
    assert _run("synth", c, SYNTH_SETS, seed=8) == 0
    assert _manifest(a)["run_hash"] == _manifest(b)["run_hash"]
    assert _manifest(a)["run_hash"] != _manifest(c)["run_hash"]


def test_train_evaluate_importance_pipeline(tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert _run("train", train_dir, SYNTH_SETS + MODEL_SETS) == 0
    assert sorted(n for n in os.listdir(train_dir)
                  if n.endswith(".bin")) == ["model_000.bin",
                                             "model_001.bin"]
    reports = json.loads((train_dir / "train_reports.json").read_text())
    assert reports["pool_size"] == 2
    assert all("wall_time" not in r for r in reports["reports"])
    timings = json.loads((train_dir / "timings.json").read_text())
    assert len(timings["seconds"]["per_model"]) == 2

    eval_dir = tmp_path / "eval"
    eval_sets = SYNTH_SETS + [
        f'eval.checkpoints="{train_dir}"', "eval.draw_size=2", "eval.reps=3"]
    assert _run("evaluate", eval_dir, eval_sets) == 0
    out = capsys.readouterr().out
    assert "eps crps=" in out and "pool crps=" in out
    payload = json.loads((eval_dir / "evaluation.json").read_text())
    assert set(payload["methods"]) == {"eps", "pool"}
    assert payload["methods"]["pool"]["resample"]["reps"] == 3
    table = (eval_dir / "evaluation_table.txt").read_text()
    assert table.splitlines()[0].split()[0] == "method"
    assert (eval_dir / "pit_eps.csv").exists()
    assert (eval_dir / "pit_pool.csv").exists()

    imp_dir = tmp_path / "imp"
    imp_sets = SYNTH_SETS + [
        f'importance.checkpoints="{train_dir}"', "importance.bins=15",
        'importance.statistics=["mean","std"]', "importance.predictors=[0]"]
    assert _run("importance", imp_dir, imp_sets) == 0
    report = json.loads((imp_dir / "importance.json").read_text())
    assert set(report["chi"]["primary"]) == {"mean", "std"}
    csv = (imp_dir / "preservation_primary.csv").read_text()
    assert csv.splitlines()[0] == "conditioning,mean,std"


def test_evaluate_from_data_file_matches_synth(tmp_path):
    # a run trained from the NDJSON file must hash identically to the
    # in-memory synth route given the same seed and splits
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    data_sets = [f'data.path="{synth_dir / "dataset.ndjson"}"',
                 "data.splits=[0.7,0.15,0.15]"]
    assert _run("evaluate", a, SYNTH_SETS) == 0
    assert _run("evaluate", b, data_sets) == 0
    assert _manifest(a)["outputs"]["pit_eps.csv"] == \
        _manifest(b)["outputs"]["pit_eps.csv"]


def test_train_manifest_independent_of_worker_count(tmp_path):
    sets = SYNTH_SETS + MODEL_SETS
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert main(["train", "--out", str(one), "--seed", "7", "--workers", "1"]
                + sum([["--set", s] for s in sets], [])) == 0
    assert main(["train", "--out", str(two), "--seed", "7", "--workers", "2"]
                + sum([["--set", s] for s in sets], [])) == 0
    assert _manifest(one)["run_hash"] == _manifest(two)["run_hash"]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_config_errors_exit_2(tmp_path, capsys):
    assert _run("synth", tmp_path / "x", ["synth.members=1"]) == 2
    assert "synth.members" in capsys.readouterr().err
    assert _run("importance", tmp_path / "y", SYNTH_SETS) == 2   # no ckpts
    assert "checkpoints" in capsys.readouterr().err
    assert _run("evaluate", tmp_path / "z",
                ['data.path="/nonexistent/file.ndjson"']) == 2
    assert _run("train", tmp_path / "w",
                SYNTH_SETS + ['eval.checkpoints=5']) == 2   # wrong type


@pytest.mark.parametrize("command,sets,seed,field", [
    ("synth", ["synth.days=10.0"], 7, "synth.days"),
    ("synth", ["synth.members=3.0"], 7, "synth.members"),
    ("train", ["train.pool_size=2.0"], 7, "train.pool_size"),
    ("train", ["model.batch_size=64.0"], 7, "model.batch_size"),
    ("train", ['data.path="x.ndjson"', "data.splits=[NaN,0.5,0.5]"], 7,
     "data.splits"),
    ("train", ["model.learning_rate=NaN"], 7, "model.learning_rate"),
    ("train", ["model.learning_rate=Infinity"], 7, "model.learning_rate"),
    ("synth", [], -1, "seed"),
    ("synth", ["synth.seed=-3"], 7, "synth.seed"),
    ("train", ["model.seed=-1"], 7, "model.seed"),
])
def test_integral_floats_non_finite_numbers_and_negative_seeds_exit_2(
        tmp_path, capsys, command, sets, seed, field):
    assert _run(command, tmp_path / "x", SYNTH_SETS + MODEL_SETS + sets,
                seed=seed) == 2
    assert f"config field {field}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("days", [10**20, 2_916_097])
def test_days_past_the_last_iso_date_exit_2(tmp_path, capsys, days):
    # 2016-01-01 plus 2 916 096 days reaches 9999-12-31, the last date the
    # NDJSON loader accepts
    assert _run("synth", tmp_path / "x", [f"synth.days={days}"]) == 2
    assert "days must be at most 2916096" in capsys.readouterr().err
    assert not (tmp_path / "x" / "dataset.ndjson").exists()


@pytest.mark.parametrize("lead", [2**63, -2**63 - 1, 10**20])
def test_lead_hours_outside_64_bits_exit_2(tmp_path, capsys, lead):
    # the NDJSON loader refuses such a "lead", so synth must not write it
    assert _run("synth", tmp_path / "x", [f"synth.lead_hours={lead}"]) == 2
    err = capsys.readouterr().err
    assert "lead_hours must be a 64-bit integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x" / "dataset.ndjson").exists()


def test_largest_lead_hours_round_trip_through_train(tmp_path):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir,
                SYNTH_SETS + [f"synth.lead_hours={2**63 - 1}"]) == 0
    data = synth_dir / "dataset.ndjson"
    assert load_ndjson(data).lead_hours == 2**63 - 1
    assert _run("train", tmp_path / "train",
                [f'data.path="{data}"'] + MODEL_SETS
                + ["train.pool_size=1"]) == 0


@pytest.mark.parametrize("bins", [10**20, 2**60 - 65])
def test_pit_bins_numpy_cannot_index_exit_2(tmp_path, capsys, bins):
    # 2**60 - 65 bins have 2**60 - 64 edges, the first count np.arange
    # refuses with "array is too big"; 2**60 - 66 bins pass the check
    assert _run("evaluate", tmp_path / "x",
                SYNTH_SETS + [f"eval.pit_bins={bins}"]) == 2
    err = capsys.readouterr().err
    assert "config field eval.pit_bins:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()
    assert load_run_config(None, overrides=[f"eval.pit_bins={2**60 - 66}"])


@pytest.mark.parametrize("sets", [
    ["synth.stations=100000000000000000000"],
    ["synth.members=100000000000000000000"],
    # 2e6 days x 1e6 stations x 1e6 members x 4 float64 values: each field
    # alone is small, the block is 6.4e19 bytes
    ["synth.days=2000000", "synth.stations=1000000",
     "synth.members=1000000"],
])
def test_ensemble_blocks_numpy_cannot_index_exit_2(tmp_path, capsys, sets):
    assert _run("synth", tmp_path / "x", sets) == 2
    err = capsys.readouterr().err
    assert "days x stations x members" in err
    assert "more bytes than NumPy indexes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x" / "dataset.ndjson").exists()


@pytest.mark.parametrize("sets,field", [
    (["model.embedding_dim=100000000000000000000"], "embedding_dim"),
    (["model.hidden_sizes=[100000000000000000000,4]"], "hidden_sizes"),
    (["model.architecture=st-drn",
      "model.latent_width=100000000000000000000"], "latent_width"),
    (["model.architecture=bqn",
      "model.bernstein_degree=100000000000000000000"], "bernstein_degree"),
    (["model.n_quantile_levels=100000000000000000000"], "n_quantile_levels"),
    # the first level count np.arange refuses with "array is too big"
    ([f"model.n_quantile_levels={2**60 - 64}"], "n_quantile_levels"),
    # each layer is 1e10 wide and fits; the 1e10 x 1e10 weight between them
    # does not
    (["model.hidden_sizes=[10000000000,10000000000]"], "hidden_sizes"),
])
def test_model_sizes_numpy_cannot_index_exit_2_before_allocating(
        tmp_path, capsys, monkeypatch, sets, field):
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(ParamVector, "build", allocate)
    monkeypatch.setattr(QuantileLevels, "equidistant", allocate)
    out = tmp_path / "x"
    assert _run("train", out, SYNTH_SETS + MODEL_SETS + sets) == 2
    err = capsys.readouterr().err
    assert f"config field model.{field}:" in err
    assert "more bytes than NumPy indexes" in err
    assert "Traceback" not in err
    assert not list(out.glob("model_*.bin"))


@pytest.mark.parametrize("command,sets", [
    ("synth", SYNTH_SETS),
    ("train", SYNTH_SETS + MODEL_SETS + ["train.pool_size=1"]),
])
def test_timings_record_resource_use(tmp_path, command, sets):
    assert _run(command, tmp_path, sets) == 0
    timings = json.loads((tmp_path / "timings.json").read_text())
    resources = timings["resources"]
    assert sorted(resources) == ["max_rss_mb", "minor_faults", "sys_s",
                                 "user_s"]
    assert type(resources["minor_faults"]) is int
    for key in ("max_rss_mb", "sys_s", "user_s"):
        assert type(resources[key]) is float and resources[key] >= 0
    assert resources["max_rss_mb"] > 0


# ---------------------------------------------------------------------------
# Malloc policy
# ---------------------------------------------------------------------------


class _Mallopt:
    """Records its (param, value) calls; returns 1 like glibc's mallopt."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def test_keep_freed_memory_fixes_both_glibc_thresholds(monkeypatch):
    mallopt = _Mallopt()
    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert cli.keep_freed_memory() == [1, 1]
    # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1
    (mmap, mmap_bytes), (trim, trim_bytes) = mallopt.calls
    assert (mmap, mmap_bytes) == (-3, 32 << 20)
    assert trim == -1 and trim_bytes >= 64 << 20


def test_keep_freed_memory_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace())
    assert cli.keep_freed_memory() == []


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_main_fixes_the_malloc_policy_before_dispatch(tmp_path, monkeypatch,
                                                      command):
    events = []

    def dispatched(*args, **kwargs):
        """Record the dispatch."""
        events.append(command)
        return 0

    monkeypatch.setattr(cli, "keep_freed_memory",
                        lambda: events.append("policy"))
    monkeypatch.setitem(cli._COMMANDS, command, dispatched)
    assert _run(command, tmp_path / "x") == 0
    assert events == ["policy", command]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_keep_freed_memory_succeeds_on_glibc():
    assert cli.keep_freed_memory() == [1, 1]


class _ArrayMemoryError(MemoryError):
    """Like NumPy's: the arguments are the shape and dtype, the text says
    what failed."""

    def __str__(self):
        return "Unable to allocate 116. TiB for an array with shape " \
            f"{self.args[0]} and data type {self.args[1]}"


@pytest.mark.parametrize("error,detail", [
    (MemoryError(), ""),
    (_ArrayMemoryError((16, 10**12), np.dtype(np.float64)),
     ": Unable to allocate 116. TiB for an array with shape "
     "(16, 1000000000000) and data type float64"),
])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, error, detail):
    import enspost.cli as cli

    def exhaust(*args, **kwargs):
        """Run out of memory."""
        raise error

    monkeypatch.setitem(cli._COMMANDS, "synth", exhaust)
    assert _run("synth", tmp_path / "x", []) == 2
    err = capsys.readouterr().err
    assert err == f"enspost synth: error: out of memory{detail}\n"


@pytest.mark.parametrize("text", ["[1, 2]", "7"])
def test_non_object_config_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["synth", "--config", str(path), "--set", "synth.days=3",
                 "--out", str(tmp_path / "x")]) == 2
    assert "config field (top level): expected an object" in \
        capsys.readouterr().err


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    # training itself is robust to bad hyperparameters, so inject the
    # failure to verify the non-finite-loss exit path end to end
    import enspost.cli as cli
    from enspost.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("non-finite loss in op 'exp' (epoch 2, batch 0)")

    monkeypatch.setattr(cli, "train_pool", explode)
    code = _run("train", tmp_path / "boom", SYNTH_SETS + MODEL_SETS)
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "epoch 2" in err


def _rewrite_stations(src, dst, mapping):
    with open(src) as fh, open(dst, "w") as out:
        for line in fh:
            rec = json.loads(line)
            rec["station"] = mapping.get(rec["station"], rec["station"])
            out.write(json.dumps(rec) + "\n")


def test_bad_station_ids_and_corrupt_checkpoints_exit_2(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    data = synth_dir / "dataset.ndjson"
    negative, unseen = tmp_path / "negative.ndjson", tmp_path / "unseen.ndjson"
    _rewrite_stations(data, negative, {1: -1})
    _rewrite_stations(data, unseen, {2: 3})
    assert _run("evaluate", tmp_path / "neg", [f'data.path="{negative}"']) == 2
    assert "station id -1" in capsys.readouterr().err

    train_dir = tmp_path / "train"
    assert _run("train", train_dir, [f'data.path="{data}"'] + MODEL_SETS
                + ["train.pool_size=1"]) == 0
    assert _run("evaluate", tmp_path / "unseen",
                [f'data.path="{unseen}"',
                 f'eval.checkpoints="{train_dir}"']) == 2
    assert "station id 3" in capsys.readouterr().err

    checkpoint = train_dir / "model_000.bin"
    checkpoint.write_bytes(checkpoint.read_bytes()[:20])
    assert _run("evaluate", tmp_path / "cut",
                [f'data.path="{data}"',
                 f'eval.checkpoints="{train_dir}"']) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_checkpoint_directory_errors_exit_2(tmp_path, capsys):
    # evaluate and importance reload a pool the same way and reject the
    # same directories with the same messages
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    data = f'data.path="{synth_dir / "dataset.ndjson"}"'
    mixed = tmp_path / "mixed"
    assert _run("train", mixed, [data] + MODEL_SETS
                + ["train.pool_size=1"]) == 0
    bqn = tmp_path / "bqn"
    assert _run("train", bqn, [data] + MODEL_SETS
                + ["model.architecture=bqn", "train.pool_size=1"]) == 0
    (mixed / "model_001.bin").write_bytes((bqn / "model_000.bin")
                                          .read_bytes())
    empty = tmp_path / "empty"
    empty.mkdir()
    cases = {tmp_path / "none": "checkpoint directory not found",
             empty: "no model_*.bin checkpoints",
             mixed: "mixed forecast families ['bqn', 'tlogis']"}
    capsys.readouterr()
    for command, section in (("evaluate", "eval"),
                             ("importance", "importance")):
        for directory, message in cases.items():
            assert _run(command, tmp_path / command, [
                data, f'{section}.checkpoints="{directory}"']) == 2
            assert message in capsys.readouterr().err


def test_primary_predictor_out_of_range_or_unlike_the_fit_exits_2(tmp_path,
                                                                   capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    data = f'data.path="{synth_dir / "dataset.ndjson"}"'
    assert _run("train", tmp_path / "nine",
                [data, "data.primary=9"] + MODEL_SETS) == 2
    assert "primary predictor 9 out of range" in capsys.readouterr().err

    train_dir = tmp_path / "train"
    assert _run("train", train_dir, [data] + MODEL_SETS
                + ["train.pool_size=1"]) == 0
    for command in ("evaluate", "importance"):
        out = tmp_path / command
        assert _run(command, out, [data, "data.primary=1",
                                   f'eval.checkpoints="{train_dir}"',
                                   f'importance.checkpoints="{train_dir}"']) == 2
        assert "differs from the model's 0" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()


def _rewrite_checkpoint(path, header_update=None, value=None):
    """Rewrite a checkpoint with header fields replaced or its first
    parameter set to ``value``."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = {**json.loads(blob[16:16 + hlen]), **(header_update or {})}
    block = np.frombuffer(blob[16 + hlen:], dtype="<f8").copy()
    if value is not None:
        block[0] = value
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw
                     + block.astype("<f8").tobytes())


@pytest.mark.parametrize("corruption", [{"value": float("nan")},
                                        {"header_update": {"primary": 9}},
                                        {"header_update": {"n_stations": "x"}}])
def test_corrupt_emos_checkpoint_exits_2(tmp_path, capsys, corruption):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    data = synth_dir / "dataset.ndjson"
    train_dir = tmp_path / "train"
    assert _run("train", train_dir, [
        f'data.path="{data}"', "model.architecture=emos",
        "model.max_epochs=2", "train.pool_size=1"]) == 0
    _rewrite_checkpoint(train_dir / "model_000.bin", **corruption)
    eval_dir = tmp_path / "eval"
    assert _run("evaluate", eval_dir, [f'data.path="{data}"',
                                       f'eval.checkpoints="{train_dir}"']) == 2
    assert "checkpoint" in capsys.readouterr().err
    assert not (eval_dir / "evaluation.json").exists()


@pytest.fixture(scope="module")
def one_model_pools(tmp_path_factory):
    """A synthetic dataset's ``data.path`` override, and the directory of a
    one-model drn and EMOS pool trained on it."""
    tmp = tmp_path_factory.mktemp("pools")
    assert _run("synth", tmp / "synth", SYNTH_SETS) == 0
    data = f'data.path="{tmp / "synth" / "dataset.ndjson"}"'
    for arch in ("drn", "emos"):
        assert _run("train", tmp / arch, [data] + MODEL_SETS + [
            f"model.architecture={arch}", "train.pool_size=1"]) == 0
    return data, tmp


@pytest.mark.parametrize("arch,where,value", [
    ("drn", ("kind",), []), ("emos", ("kind",), {}),
    ("drn", ("norm", "ens_mean", 0), 10**30),
    ("drn", ("config", "n_attention_blocks"), 1.5),
    ("drn", ("config", "n_attention_blocks"), True),
    ("emos", ("n_stations",), 10**30)], ids=[
        "kind=[]", "kind={}", "norm.ens_mean=1e30", "n_attention_blocks=1.5",
        "n_attention_blocks=true", "n_stations=1e30"])
def test_mistyped_checkpoint_header_fields_exit_2_naming_them(
        one_model_pools, tmp_path, capsys, arch, where, value):
    # each header field is checked as the same --set field of a run config
    # is, and any value it rejects exits 2 naming it, without a traceback
    data, pools = one_model_pools
    checkpoint = tmp_path / "pool" / "model_000.bin"
    checkpoint.parent.mkdir()
    checkpoint.write_bytes((pools / arch / "model_000.bin").read_bytes())
    blob = checkpoint.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = node = json.loads(blob[16:16 + hlen])
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    _rewrite_checkpoint(checkpoint, header)
    capsys.readouterr()
    assert _run("evaluate", tmp_path / "eval", [
        data, f'eval.checkpoints="{checkpoint.parent}"']) == 2
    err = capsys.readouterr().err
    field = ".".join(key for key in where if type(key) is str)
    assert f"corrupt checkpoint: config field {field}: expected" in err
    assert "Traceback" not in err


def test_importance_of_a_tlogis_model_builds_no_level_grid(one_model_pools,
                                                            tmp_path):
    # truncated-logistic scoring never reads the level grid, so a header's
    # level count too large to allocate leaves importance.json unchanged
    data, pools = one_model_pools
    reports = {}
    for levels in (None, 10**17):
        checkpoint = tmp_path / f"pool_{levels}" / "model_000.bin"
        checkpoint.parent.mkdir()
        checkpoint.write_bytes((pools / "drn" / "model_000.bin").read_bytes())
        if levels is not None:
            blob = checkpoint.read_bytes()
            (hlen,) = struct.unpack("<Q", blob[8:16])
            config = json.loads(blob[16:16 + hlen])["config"]
            _rewrite_checkpoint(checkpoint, {
                "config": {**config, "n_quantile_levels": levels}})
        out = tmp_path / f"imp_{levels}"
        assert _run("importance", out, [
            data, f'importance.checkpoints="{checkpoint.parent}"',
            "importance.bins=15", 'importance.statistics=["mean"]',
            "importance.predictors=[0]"]) == 0
        reports[levels] = (out / "importance.json").read_bytes()
    assert reports[10**17] == reports[None]


def test_mistyped_ndjson_and_chi_predictor_exit_2(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    data = synth_dir / "dataset.ndjson"
    lines = data.read_text().splitlines()
    rec = json.loads(lines[4])
    rec["obs"] = "12.5"
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join(lines[:4] + [json.dumps(rec)] + lines[5:]))
    assert _run("evaluate", tmp_path / "bad", [f'data.path="{bad}"']) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "'obs'" in err

    train_dir = tmp_path / "train"
    assert _run("train", train_dir, [f'data.path="{data}"'] + MODEL_SETS
                + ["train.pool_size=1"]) == 0
    assert _run("importance", tmp_path / "imp",
                [f'data.path="{data}"', f'importance.checkpoints="{train_dir}"',
                 "importance.predictors=[4]"]) == 2
    assert "chi predictors [4]" in capsys.readouterr().err


def _run_stages(synth_dir, out, train_dir=None):
    """run_hash of train, evaluate and importance run on a synth directory;
    evaluate and importance score the pool in ``train_dir`` if given."""
    data = f'data.path="{synth_dir / "dataset.ndjson"}"'
    assert _run("train", out / "train", [data] + MODEL_SETS) == 0
    pool = train_dir or out / "train"
    assert _run("evaluate", out / "evaluate",
                [data, f'eval.checkpoints="{pool}"', "eval.reps=2"]) == 0
    assert _run("importance", out / "importance",
                [data, f'importance.checkpoints="{pool}"',
                 "importance.bins=5"]) == 0
    return {stage: _manifest(out / stage)["run_hash"]
            for stage in ("train", "evaluate", "importance")}


def test_stages_hash_the_same_without_the_binary_copy(tmp_path):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    with_copy = _run_stages(synth_dir, tmp_path / "with")
    (synth_dir / "dataset.npz").unlink()
    assert _run_stages(synth_dir, tmp_path / "without",
                       tmp_path / "with" / "train") == with_copy


def test_stages_read_the_binary_copy_not_the_ndjson(tmp_path, monkeypatch):
    # a digest check that never matched would fall back to parsing, and
    # every other test would still pass
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0

    def no_parsing(_):
        raise AssertionError("the NDJSON was parsed")

    monkeypatch.setattr(enspost.data, "json", types.SimpleNamespace(
        loads=no_parsing, JSONDecodeError=json.JSONDecodeError))
    assert _run("evaluate", tmp_path / "eval",
                [f'data.path="{synth_dir / "dataset.ndjson"}"']) == 0


def test_binary_copy_with_non_finite_obs_exits_2(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", synth_dir, SYNTH_SETS) == 0
    copy = synth_dir / "dataset.npz"
    with np.load(copy) as npz:
        arrays = dict(npz)
    arrays["obs"][0] = np.inf          # the digest still matches
    np.savez(copy, **arrays)
    assert _run("evaluate", tmp_path / "eval",
                [f'data.path="{synth_dir / "dataset.ndjson"}"']) == 2
    err = capsys.readouterr().err
    assert "non-finite values in obs" in err and "Traceback" not in err


def _fresh_python(code):
    """Stripped stdout of ``code`` run by a fresh interpreter that imports
    this enspost."""
    src = str(Path(enspost.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_package_import_does_not_load_scipy():
    # every CLI stage is a fresh process, so import time is paid per stage;
    # scipy and jsonschema are oracles for the tests only and must stay off
    # that path
    code = ("import sys\n"
            "import enspost.cli, enspost.autodiff, enspost.data, enspost.dist\n"
            "import enspost.evaluation, enspost.importance, enspost.models\n"
            "import enspost.train\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'jsonschema')))\n")
    assert _fresh_python(code) == "[]"


def test_synth_stage_loads_only_data(tmp_path):
    # synth runs the generator and the writers alone; the modules of
    # training, scoring and importance cost it their import time
    argv = ["synth", "--out", str(tmp_path),
            *(x for item in SYNTH_SETS for x in ("--set", item))]
    code = ("import sys\n"
            "from enspost.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('enspost')))"
            "\n")
    loaded = _fresh_python(code).splitlines()[-1].split()
    assert loaded == ["enspost", "enspost.cli", "enspost.data",
                      "enspost.errors"]
    for module in ("autodiff", "dist", "models", "evaluation", "importance",
                   "train"):
        assert f"enspost.{module}" not in loaded


def test_deferred_names_resolve_as_cli_attributes():
    # cli.<name> of a deferred module's name imports that module; a name
    # registered under the wrong module would fail only when its stage runs
    for module, names in cli._DEFERRED.items():
        imported = importlib.import_module(f"enspost.{module}")
        for name in names:
            assert getattr(cli, name) is getattr(imported, name), name
    from enspost.cli import SUMMARY_KINDS as kinds
    assert kinds is SUMMARY_KINDS
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_split_temporal_does_not_load_numpy_ma():
    # importing numpy.ma costs every train/evaluate/importance stage about
    # 17 ms; np.unique of the object array of dates would load it
    code = ("import sys\n"
            "from enspost.data import SynthConfig, generate_synthetic, "
            "split_temporal\n"
            "ds = generate_synthetic(SynthConfig(stations=2, days=20))\n"
            "blocks = split_temporal(ds, (0.6, 0.2, 0.2))\n"
            "assert sum(map(len, blocks)) == len(ds)\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _fresh_python(code) == "False"


def test_train_stage_does_not_load_numpy_ma(tmp_path):
    # np.median of the pool's validation scores would load it
    data = tmp_path / "synth" / "dataset.ndjson"
    assert _run("synth", data.parent, ["synth.stations=2",
                                       "synth.days=30"]) == 0
    argv = ["train", "--out", str(tmp_path / "train")]
    for item in [f'data.path="{data}"', *MODEL_SETS]:
        argv += ["--set", item]
    code = ("import sys\n"
            "from enspost.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _fresh_python(code).splitlines()[-1] == "False"
    summary = json.loads((tmp_path / "train" / "train_reports.json")
                         .read_text())["val_crps_summary"]
    assert summary["min"] <= summary["median"] <= summary["max"]


_WATCHED = ("numpy.ma", "multiprocessing", "concurrent.futures.process",
            "enspost.evaluation", "enspost.importance", "enspost.train")


@pytest.fixture(scope="module")
def fresh_stages(tmp_path_factory):
    """The modules of ``_WATCHED`` that ``train --workers 1``, ``evaluate``
    and ``importance`` each leave in ``sys.modules`` of a fresh
    interpreter."""
    tmp = tmp_path_factory.mktemp("fresh")
    data = tmp / "synth" / "dataset.ndjson"
    assert _run("synth", data.parent, ["synth.stations=2",
                                       "synth.days=30"]) == 0
    train = tmp / "train"
    stages = {
        "train": ["--workers", "1", "--set", f'data.path="{data}"',
                  *(x for item in MODEL_SETS for x in ("--set", item))],
        "evaluate": ["--set", f'data.path="{data}"', "--set",
                     f'eval.checkpoints="{train}"', "--set", "eval.reps=2"],
        "importance": ["--set", f'data.path="{data}"', "--set",
                       f'importance.checkpoints="{train}"', "--set",
                       "importance.bins=5"],
    }
    loaded = {}
    for command, args in stages.items():
        argv = [command, "--out", str(tmp / command), *args]
        code = ("import sys\n"
                "from enspost.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                f"print('loaded:', *(m for m in {_WATCHED!r}\n"
                "                    if m in sys.modules))\n")
        loaded[command] = _fresh_python(code).splitlines()[-1].split()[1:]
    return loaded


def test_importance_stage_does_not_load_numpy_ma(fresh_stages):
    # np.percentile of the importance statistics would load it
    assert "numpy.ma" not in fresh_stages["importance"]


@pytest.mark.parametrize("command", ["train", "evaluate", "importance"])
def test_stage_without_a_pool_does_not_load_multiprocessing(fresh_stages,
                                                            command):
    # loading the process pool machinery costs each stage some 13 ms
    assert not {"multiprocessing", "concurrent.futures.process"} & set(
        fresh_stages[command])


def test_evaluate_stage_does_not_load_importance(fresh_stages):
    # evaluate draws its seeds with data.derive_seed
    assert "enspost.importance" not in fresh_stages["evaluate"]
    assert "enspost.importance" in fresh_stages["importance"]


def test_importance_stage_does_not_load_train(fresh_stages):
    # importance reloads its pool as a models.ModelPool
    assert "enspost.train" not in fresh_stages["importance"]
    assert "enspost.train" in fresh_stages["train"]


def test_train_stage_does_not_load_evaluation(fresh_stages):
    # train only fits; scoring the pool is the evaluate stage's job
    assert "enspost.evaluation" not in fresh_stages["train"]
    assert "enspost.evaluation" in fresh_stages["evaluate"]


def test_evaluate_stage_does_not_load_train(fresh_stages):
    # evaluate reloads its pool as a models.ModelPool and scores it with
    # evaluation.resample_and_score
    assert "enspost.train" not in fresh_stages["evaluate"]


def test_moved_names_stay_importable_from_their_old_modules():
    import enspost.data
    import enspost.importance
    import enspost.models
    import enspost.train
    assert enspost.importance.derive_seed is enspost.data.derive_seed
    assert enspost.train.ModelPool is enspost.models.ModelPool
