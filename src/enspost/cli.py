"""Batch command-line entry point tying the library into reproducible runs.

Four subcommands (``synth``, ``train``, ``evaluate``, ``importance``) are
driven by a JSON run configuration checked against
:data:`RUN_CONFIG_CHECKS`, with ``--set key=value`` overrides for scripting
experiment grids.  Every command is deterministic given (config, input
files): all randomness flows from the top-level seed through named streams,
wall-clock timings are segregated into a non-hashed sidecar, and each run
writes a manifest with SHA-256 hashes of its outputs.

Exit codes: 0 success, 2 configuration/input error or out of memory, 3
numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from collections import namedtuple

import numpy as np

from .data import (SynthConfig, _is_real, generate_synthetic, load_ndjson,
                   save_ndjson, split_temporal)
from .errors import ConfigError, ContractError, DomainError, NumericError
from .evaluation import (nominal_pi_level, pit_csv, raw_eps_report,
                         report_table)
from .importance import (DEFAULT_BINS, SUMMARY_KINDS, derive_seed,
                         importance_report, preservation_csv)
from .models import ModelConfig, load_model, save_model
from .train import ModelPool, resample_and_score, train_pool

# A field's check: a predicate and what it expects, for the error message.
_Check = namedtuple("_Check", "ok expects required", defaults=(False,))
_STRING = _Check(lambda v: type(v) is str, "a string")
_NUMBER = _Check(_is_real, "a finite number")


def _integer(low=None):
    # a JSON integer only: no bool, and no 10.0, which would reach the
    # dataclasses and NumPy as a float
    return _Check(lambda v: type(v) is int and (low is None or v >= low),
                  "an integer" if low is None else f"an integer >= {low}")


def _list(item, size=None):
    return _Check(lambda v: (type(v) is list and size in (None, len(v))
                             and all(map(item.ok, v))),
                  "a list" + (f" of {size}" if size else "")
                  + f", each item {item.expects}")


def _fields(config_class, **minima):
    """Checks for the fields of a config dataclass, typed by its defaults."""
    by_type = {str: _STRING, float: _NUMBER, tuple: _list(_integer())}
    return {f.name: (_integer(minima.get(f.name)) if type(f.default) is int
                     else by_type[type(f.default)])
            for f in dataclasses.fields(config_class)}


RUN_CONFIG_CHECKS = {
    "seed": _integer(0),
    "out": _STRING,
    "synth": _fields(SynthConfig, stations=1, days=1, members=2, seed=0),
    "data": {"path": _STRING._replace(required=True),
             "splits": _list(_Check(lambda v: _is_real(v) and v > 0,
                                    "a number > 0"), size=3),
             "primary": _integer(0)},
    "model": _fields(ModelConfig, seed=0),
    "train": {"pool_size": _integer(1)},
    "eval": {"checkpoints": _STRING, "draw_size": _integer(1),
             "reps": _integer(1), "pit_bins": _integer(2),
             "level": _Check(lambda v: _is_real(v) and 0 < v < 1,
                             "a number strictly between 0 and 1")},
    "importance": {
        "checkpoints": _STRING, "bins": _integer(2),
        "statistics": _Check(
            lambda v: (type(v) is list and len(v) > 0
                       and all(s in SUMMARY_KINDS for s in v)
                       and len(set(v)) == len(v)),
            f"a non-empty list of distinct {'/'.join(SUMMARY_KINDS)}"),
        "predictors": _list(_integer(0))},
}


def _rejected(field, expects, value):
    return ConfigError(f"config field {field or '(top level)'}: expected "
                       f"{expects}, got {json.dumps(value)}")


def check_run_config(config, checks=RUN_CONFIG_CHECKS, path=""):
    """Raise ConfigError naming the first field that ``checks`` rejects.

    ``checks`` maps each field to a check and each section to a table of
    its own; a field it does not name is rejected at every level.
    """
    if type(config) is not dict:
        raise _rejected(path, "an object", config)
    prefix = f"{path}." if path else ""
    for name, value in config.items():
        check = checks.get(name)
        if check is None:
            raise ConfigError(f"config field {prefix}{name}: unknown field")
        if isinstance(check, dict):
            check_run_config(value, check, prefix + name)
        elif not check.ok(value):
            raise _rejected(prefix + name, check.expects, value)
    for name, check in checks.items():
        if getattr(check, "required", False) and name not in config:
            raise ConfigError(f"config field {prefix}{name}: required")


DEFAULT_SPLITS = (0.7, 0.15, 0.15)


# ---------------------------------------------------------------------------
# Config loading and overrides
# ---------------------------------------------------------------------------


def _parse_override(text):
    """Split one ``--set key=value`` into (dotted key, parsed value)."""
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if not key:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw      # bare strings need no quoting on the shell
    return key, value


def apply_override(config, key, value):
    """Set a dotted ``section.field`` path in a nested config dict."""
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {key!r} descends into a non-object")
    node[parts[-1]] = value
    return config


def load_run_config(path, overrides=(), seed=None, out=None):
    """Read, override and check a run configuration."""
    if path is None:
        config = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if type(config) is not dict:
            raise _rejected("", "an object", config)
    for item in overrides:
        apply_override(config, *_parse_override(item))
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    config.setdefault("seed", 0)
    config.setdefault("out", "runs")
    check_run_config(config)
    return config


def resolve_workers(flag_value):
    """--workers flag, else ENSPOST_WORKERS env var, else 1."""
    if flag_value is not None:
        return max(1, flag_value)
    env = os.environ.get("ENSPOST_WORKERS")
    if env is None:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"ENSPOST_WORKERS must be an integer, got {env!r}")


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_manifest(out_dir, command, config, outputs, timings):
    """Run manifest (hashed outputs) plus the non-hashed timing sidecar.

    ``outputs`` are paths relative to ``out_dir``; the manifest records a
    SHA-256 per output and an overall hash over the sorted (name, hash)
    pairs, so two runs agree iff every artifact agrees byte-for-byte.
    Timings go to ``timings.json`` only, which is itself not hashed.
    """
    hashes = {name: _sha256(os.path.join(out_dir, name))
              for name in sorted(outputs)}
    overall = hashlib.sha256(
        json.dumps(hashes, sort_keys=True).encode()).hexdigest()
    manifest = {
        "command": command,
        "config": config,
        "outputs": hashes,
        "run_hash": overall,
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)
    _write_json(os.path.join(out_dir, "timings.json"),
                {"command": command, "seconds": timings})
    return manifest


def _model_config(config):
    section = dict(config.get("model", {}))
    if "hidden_sizes" in section:
        section["hidden_sizes"] = tuple(section["hidden_sizes"])
    section.setdefault("seed", config["seed"])
    return ModelConfig(**section)


def _load_datasets(config):
    """(train, val, test) from the data section, else from synth."""
    if "data" in config:
        section = config["data"]
        if not os.path.exists(section["path"]):
            raise ConfigError(f"data file not found: {section['path']}")
        dataset = load_ndjson(section["path"],
                              primary=section.get("primary", 0))
        splits = tuple(section.get("splits", DEFAULT_SPLITS))
    else:
        dataset = generate_synthetic(_synth_config(config))
        splits = DEFAULT_SPLITS
    return split_temporal(dataset, splits)


def _synth_config(config):
    section = dict(config.get("synth", {}))
    section.setdefault("seed", config["seed"])
    return SynthConfig(**section)


def _checkpoint_paths(directory):
    if not os.path.isdir(directory):
        raise ConfigError(f"checkpoint directory not found: {directory}")
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("model_") and n.endswith(".bin"))
    if not names:
        raise ConfigError(f"no model_*.bin checkpoints in {directory}")
    return [os.path.join(directory, n) for n in names]


def _load_pool(directory):
    models = [load_model(p) for p in _checkpoint_paths(directory)]
    return ModelPool(config=models[0].config, models=models)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(config, out_dir):
    """Generate a synthetic dataset; write NDJSON plus a stats sidecar."""
    t0 = time.perf_counter()
    dataset = generate_synthetic(_synth_config(config))
    data_path = os.path.join(out_dir, "dataset.ndjson")
    save_ndjson(dataset, data_path)
    stats = {
        "n_samples": len(dataset),
        "n_members": dataset.n_members,
        "n_predictors": dataset.n_predictors,
        "n_scalars": dataset.n_scalars,
        "n_stations": dataset.n_stations,
        "predictor_names": list(dataset.predictor_names),
        "scalar_names": list(dataset.scalar_names),
        "obs_mean": float(np.mean(dataset.obs)),
        "obs_std": float(np.std(dataset.obs)),
        "predictor_means": np.mean(dataset.ens, axis=(0, 1)).tolist(),
        "predictor_stds": np.std(dataset.ens, axis=(0, 1)).tolist(),
    }
    _write_json(os.path.join(out_dir, "dataset_stats.json"), stats)
    print(f"synth: T={len(dataset)} M={dataset.n_members} "
          f"p={dataset.n_predictors} q={dataset.n_scalars}")
    write_manifest(out_dir, "synth", config,
                   ["dataset.ndjson", "dataset_stats.json"],
                   {"total": time.perf_counter() - t0})
    return 0


def cmd_train(config, out_dir, workers=1):
    """Train a pool of models; write checkpoints, reports and manifest."""
    t0 = time.perf_counter()
    train_set, val_set, _ = _load_datasets(config)
    model_config = _model_config(config)
    pool_size = config.get("train", {}).get("pool_size", 20)
    pool = train_pool(model_config, train_set, val_set, n=pool_size,
                      workers=workers)

    outputs = []
    for i, model in enumerate(pool.models):
        name = f"model_{i:03d}.bin"
        save_model(model, os.path.join(out_dir, name))
        outputs.append(name)
    report_dicts, wall_times = [], []
    for report in pool.reports:
        d = report.to_dict()
        wall_times.append(d.pop("wall_time"))
        report_dicts.append(d)
    lo, mid, hi = pool.val_crps_summary()
    _write_json(os.path.join(out_dir, "train_reports.json"), {
        "model_config": model_config.to_dict(),
        "pool_size": pool_size,
        "reports": report_dicts,
        "val_crps_summary": {"min": lo, "median": mid, "max": hi},
    })
    outputs.append("train_reports.json")
    print(f"train: pool={pool_size} workers={workers} "
          f"val_crps median={mid:.4f}")
    write_manifest(out_dir, "train", config, outputs,
                   {"total": time.perf_counter() - t0,
                    "per_model": wall_times})
    return 0


def cmd_evaluate(config, out_dir):
    """Score pool aggregates and the raw-ensemble baseline on the test set.

    With a ``checkpoints`` directory configured, ``reps`` random
    ``draw_size``-subsets of the pool are aggregated and scored; without
    one, only the raw-ensemble (EPS) baseline row is produced.
    """
    t0 = time.perf_counter()
    _, _, test_set = _load_datasets(config)
    section = config.get("eval", {})
    level = section.get("level")
    if level is None:
        level = float(nominal_pi_level(test_set.n_members))
    pit_bins = section.get("pit_bins", 20)
    seed = config["seed"]

    eps = raw_eps_report(test_set, level=level, pit_bins=pit_bins,
                         rng=np.random.default_rng(derive_seed(seed, "eps")))
    rows = {"eps": eps}
    payload = {"level": level, "n_samples": len(test_set),
               "methods": {"eps": eps.to_dict()}}

    if "checkpoints" in section:
        pool = _load_pool(section["checkpoints"])
        k = section.get("draw_size", min(10, len(pool)))
        reps = section.get("reps", 50)
        rng = np.random.default_rng(derive_seed(seed, "resample"))
        reports, summary = resample_and_score(pool, test_set, k=k, reps=reps,
                                              rng=rng, level=level,
                                              pit_bins=pit_bins)
        best = int(np.argmin([r.mean_crps for r in reports]))
        rows["pool"] = reports[best]
        payload["methods"]["pool"] = {
            "resample": summary,
            "draws": [r.to_dict() for r in reports],
        }

    _write_json(os.path.join(out_dir, "evaluation.json"), payload)
    _write_text(os.path.join(out_dir, "evaluation_table.txt"),
                report_table(rows))
    _write_text(os.path.join(out_dir, "pit_eps.csv"), pit_csv(eps))
    outputs = ["evaluation.json", "evaluation_table.txt", "pit_eps.csv"]
    if "pool" in rows:
        _write_text(os.path.join(out_dir, "pit_pool.csv"),
                    pit_csv(rows["pool"]))
        outputs.append("pit_pool.csv")
    print("evaluate: " + ", ".join(
        f"{name} crps={rep.mean_crps:.4f}" for name, rep in rows.items()))
    write_manifest(out_dir, "evaluate", config, outputs,
                   {"total": time.perf_counter() - t0})
    return 0


def cmd_importance(config, out_dir):
    """Pool-aggregated predictor importance on the test set."""
    t0 = time.perf_counter()
    _, _, test_set = _load_datasets(config)
    section = config.get("importance", {})
    if "checkpoints" not in section:
        raise ConfigError("importance needs an importance.checkpoints "
                          "directory of trained models")
    pool = _load_pool(section["checkpoints"])
    bins = section.get("bins", DEFAULT_BINS)
    statistics = tuple(section.get("statistics", SUMMARY_KINDS))
    predictors = section.get("predictors")

    report = importance_report(pool.models, test_set, bins=bins,
                               seed=derive_seed(config["seed"], "importance"),
                               statistics=statistics,
                               chi_predictors=predictors)
    _write_json(os.path.join(out_dir, "importance.json"), report)
    outputs = ["importance.json"]
    for name, matrix in report["preservation"].items():
        fname = f"preservation_{name}.csv"
        _write_text(os.path.join(out_dir, fname),
                    preservation_csv(np.asarray(matrix), statistics))
        outputs.append(fname)
    top = max(report["delta0"].items(), key=lambda kv: kv[1]["mean"])
    print(f"importance: {len(pool)} models, top delta0 "
          f"{top[0]}={top[1]['mean']:.4f}")
    write_manifest(out_dir, "importance", config, outputs,
                   {"total": time.perf_counter() - t0})
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "importance": cmd_importance,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enspost",
        description="Ensemble forecast postprocessing experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        cmd.add_argument("--config", default=None,
                         help="JSON run configuration file")
        cmd.add_argument("--set", action="append", default=[], dest="sets",
                         metavar="KEY=VALUE",
                         help="override a config field (repeatable, dotted "
                              "paths, JSON-parsed values)")
        cmd.add_argument("--workers", type=int, default=None,
                         help="parallel training workers, used by train "
                              "only (default: ENSPOST_WORKERS env var, "
                              "else 1)")
        cmd.add_argument("--out", default=None,
                         help="output directory (default from config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the top-level seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config, overrides=args.sets,
                                 seed=args.seed, out=args.out)
        out_dir = config["out"]
        os.makedirs(out_dir, exist_ok=True)
        command = _COMMANDS[args.command]
        if args.command == "train":
            return command(config, out_dir,
                           workers=resolve_workers(args.workers))
        return command(config, out_dir)
    except (ConfigError, DomainError, ContractError, OSError) as exc:
        print(f"enspost {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"enspost {args.command}: error: out of memory: {exc}"
              .rstrip(": "), file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"enspost {args.command}: numeric failure: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
