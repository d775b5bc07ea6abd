"""Unit tests for the batch command-line interface.

All commands are exercised in-process through ``enspost.cli.main`` so exit
codes, stdout and artifacts can be checked without spawning subprocesses.
"""

import json
import os

import numpy as np
import pytest

from enspost.cli import (RUN_CONFIG_SCHEMA, apply_override, load_run_config,
                         main, resolve_workers, _parse_override)
from enspost.data import load_ndjson
from enspost.errors import ConfigError


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


def test_config_schemas_are_derived_from_the_dataclasses():
    sections = RUN_CONFIG_SCHEMA["properties"]
    assert sections["synth"]["properties"] == {
        "stations": {"type": "integer", "minimum": 1},
        "days": {"type": "integer", "minimum": 1},
        "members": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer"},
        "lead_hours": {"type": "integer"},
        "bias": {"type": "number"},
        "spread_signal": {"type": "number"},
        "skew_signal": {"type": "number"},
        "dead_channel": {"type": "number"},
    }
    assert sections["model"]["properties"] == {
        "architecture": {"type": "string"},
        "hidden_sizes": {"type": "array", "items": {"type": "integer"}},
        "latent_width": {"type": "integer"},
        "attention_heads": {"type": "integer"},
        "n_attention_blocks": {"type": "integer"},
        "bernstein_degree": {"type": "integer"},
        "embedding_dim": {"type": "integer"},
        "pooling": {"type": "string"},
        "n_quantile_levels": {"type": "integer"},
        "learning_rate": {"type": "number"},
        "batch_size": {"type": "integer"},
        "max_epochs": {"type": "integer"},
        "patience": {"type": "integer"},
        "seed": {"type": "integer"},
    }


def test_schema_rejects_unusable_importance_options():
    with pytest.raises(ConfigError, match="importance.bins"):
        load_run_config(None, overrides=["importance.bins=1"])
    with pytest.raises(ConfigError, match="importance.statistics"):
        load_run_config(None,
                        overrides=['importance.statistics=["mean","mean"]'])
    assert load_run_config(None, overrides=["importance.bins=2"])


def test_resolve_workers_flag_env_default(monkeypatch):
    monkeypatch.delenv("ENSPOST_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1          # clamped to at least one
    monkeypatch.setenv("ENSPOST_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2          # flag wins over the env var
    monkeypatch.setenv("ENSPOST_WORKERS", "many")
    with pytest.raises(ConfigError):
        resolve_workers(None)


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
    assert set(manifest["outputs"]) == {"dataset.ndjson",
                                        "dataset_stats.json"}
    timings = json.loads((out / "timings.json").read_text())
    assert timings["command"] == "synth" and "total" in timings["seconds"]


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
