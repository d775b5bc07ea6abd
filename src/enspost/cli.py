"""Batch command-line entry point tying the library into reproducible runs.

Four subcommands (``synth``, ``train``, ``evaluate``, ``importance``) are
driven by a JSON run configuration checked against
:data:`RUN_CONFIG_CHECKS` (and ``models.MODEL_CHECKS`` for a model
section), with ``--set key=value`` overrides for scripting experiment
grids.  The checker, :func:`enspost.data.check_fields`, is the one place a
single field is judged: its tables also serve the ``SynthConfig`` and
``ModelConfig`` constructors, ``ModelConfig.from_dict`` and the checkpoint
headers of ``models.load_model``, and only rules across fields are written
as code (``SynthConfig.check``, ``ModelConfig.check``, which
:func:`check_run_config` also runs).  Each command imports the modules it
runs inside its body, so ``synth`` loads only ``data``, and calls their
functions through the module (``train.train_pool``): no function is bound
here under a second name, so a patch or wrap at its home reaches this
module too.  JSON outputs are strict: a non-finite number is a
:class:`NumericError`, save the chi of a predictor a model never reads,
written as null.  Every command is deterministic given (config, input
files): all randomness flows from the top-level seed through named
streams, wall-clock timings are segregated into a non-hashed sidecar, and
each run writes a manifest with SHA-256 hashes of its outputs.

Exit codes: 0 success, 2 configuration/input error or out of memory, 3
numeric failure.

Memory policy: :func:`main` first fixes glibc's malloc thresholds
(:func:`keep_freed_memory`).  Left dynamic, glibc hands the top of the heap
back to the kernel after every set-model forward or training step, whose
temporaries (attention scores of (n, heads, M, M)) are larger than its trim
threshold, and the next step faults the same pages back in one by one.  With
fixed thresholds the freed temporaries stay in the heap and are reused.
Pool workers of ``train --workers`` inherit the setting through fork.  The
policy applies on glibc only; elsewhere it does nothing.  ``timings.json``
records the process's CPU time, minor page faults and peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import data
from .data import (SUMMARY_KINDS, SYNTH_CHECKS, SynthConfig, _POSITIVE,
                   _STRING, _Check)
from .errors import ConfigError, ContractError, DomainError, NumericError

RUN_CONFIG_CHECKS = {
    "seed": data._integer(0),
    "out": _STRING,
    "synth": SYNTH_CHECKS,
    "data": {"path": _STRING._replace(required=True),
             "splits": data._list(_POSITIVE, size=3),
             "primary": data._integer(0)},
    "train": {"pool_size": data._integer(1)},
    "eval": {"checkpoints": _STRING, "draw_size": data._integer(1),
             "reps": data._integer(1),
             "pit_bins": _Check(lambda v: (type(v) is int and v >= 2
                                           and not data._too_large(v + 1)),
                                "an integer >= 2 whose bins + 1 float64 "
                                "edges NumPy can index"),
             "level": _Check(lambda v: data._is_real(v) and 0 < v < 1,
                             "a number strictly between 0 and 1")},
    "importance": {
        "checkpoints": _STRING, "bins": data._integer(2),
        "statistics": data._list(data._one_of(SUMMARY_KINDS), least=1,
                                 distinct=True),
        "predictors": data._list(data._integer(0), distinct=True)},
}


def check_run_config(config):
    """:func:`data.check_fields` of a run configuration and
    RUN_CONFIG_CHECKS, plus ``models.MODEL_CHECKS`` for a model section,
    then the rules across the fields of its synth and model sections.
    ``models`` is imported only for a config with a model section, so that
    synth loads only ``data``."""
    checks = RUN_CONFIG_CHECKS
    if type(config) is dict and "model" in config:
        from . import models
        checks = {**checks, "model": models.MODEL_CHECKS}
    data.check_fields(config, checks)
    SynthConfig.check(config.get("synth", {}), "synth")
    if "model" in checks:
        models.ModelConfig.check(config["model"], "model")


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
            raise data._rejected("", "an object", config)
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
    """--workers flag, at least 1; 1 without the flag."""
    return 1 if flag_value is None else max(1, flag_value)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _non_finite(payload, path=""):
    """Dotted path of the first non-finite float in ``payload``, or None."""
    if isinstance(payload, float):
        return None if math.isfinite(payload) else path or "(top level)"
    items = (payload.items() if isinstance(payload, dict) else
             enumerate(payload) if isinstance(payload, (list, tuple)) else ())
    return next(filter(None, (_non_finite(v, f"{path}.{k}" if path else str(k))
                              for k, v in items)), None)


def _write_json(path, payload):
    """Strict JSON of ``payload``; NumericError names a non-finite number
    (JSON has none), and then no file is written."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError(f"{os.path.basename(path)}: "
                           f"{_non_finite(payload)} is not finite") from None
    _write_text(path, text + "\n")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_manifest(out_dir, command, config, outputs, timings, digests=None):
    """Run manifest (hashed outputs) plus the non-hashed timing sidecar.

    ``outputs`` are paths relative to ``out_dir``; the manifest records a
    SHA-256 per output (``digests`` holds those already taken) and an
    overall hash over the sorted (name, hash) pairs, so two runs agree iff
    every artifact agrees byte-for-byte.  Timings go to ``timings.json``
    only, which is itself not hashed.
    """
    known = digests or {}
    hashes = {name: known.get(name)
              or data.sha256_file(os.path.join(out_dir, name))
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
                {"command": command, "seconds": timings,
                 "resources": _resource_use()})
    return manifest


def _resource_use():
    """CPU seconds, minor page faults and peak RSS of this process plus the
    children it has waited for (the pool workers of ``train --workers``)."""
    own, workers = (resource.getrusage(who) for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"user_s": own.ru_utime + workers.ru_utime,
            "sys_s": own.ru_stime + workers.ru_stime,
            "minor_faults": own.ru_minflt + workers.ru_minflt,
            # in KiB on Linux; for the children, the largest child's peak
            "max_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0}


def _load_datasets(config):
    """(train, val, test) from the data section, else from synth."""
    if "data" in config:
        section = config["data"]
        if not os.path.exists(section["path"]):
            raise ConfigError(f"data file not found: {section['path']}")
        dataset = data.load_ndjson(section["path"],
                                   primary=section.get("primary", 0))
        splits = tuple(section.get("splits", DEFAULT_SPLITS))
    else:
        dataset = data.generate_synthetic(_synth_config(config))
        splits = DEFAULT_SPLITS
    return data.split_temporal(dataset, splits)


def _synth_config(config):
    return SynthConfig(**{"seed": config["seed"], **config.get("synth", {})})


def _checkpoint_paths(directory):
    if not os.path.isdir(directory):
        raise ConfigError(f"checkpoint directory not found: {directory}")
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("model_") and n.endswith(".bin"))
    if not names:
        raise ConfigError(f"no model_*.bin checkpoints in {directory}")
    return [os.path.join(directory, n) for n in names]


def _load_pool(directory):
    # the commands that call this import models first: imported after the
    # test set is read, its compile would add to the stage's peak RSS
    from . import models
    fitted = [models.load_model(p) for p in _checkpoint_paths(directory)]
    return models.ModelPool(config=fitted[0].config, models=fitted)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(config, out_dir):
    """Generate a synthetic dataset; write NDJSON, its binary copy and a
    stats sidecar."""
    t0 = time.perf_counter()
    dataset = data.generate_synthetic(_synth_config(config))
    data_path = os.path.join(out_dir, "dataset.ndjson")
    data.save_ndjson(dataset, data_path)
    digest = data.save_copy(dataset, data_path)
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
                   ["dataset.ndjson", "dataset.npz", "dataset_stats.json"],
                   {"total": time.perf_counter() - t0},
                   digests={"dataset.ndjson": digest})
    return 0


def cmd_train(config, out_dir, workers=1):
    """Train a pool of models; write checkpoints, reports and manifest."""
    from . import models, train
    t0 = time.perf_counter()
    model_config = models.ModelConfig.from_dict(
        {"seed": config["seed"], **config.get("model", {})}, "model")
    train_set, val_set, _ = _load_datasets(config)
    pool_size = config.get("train", {}).get("pool_size", 20)
    pool = train.train_pool(model_config, train_set, val_set, n=pool_size,
                            workers=workers)

    outputs = []
    for i, model in enumerate(pool.models):
        name = f"model_{i:03d}.bin"
        models.save_model(model, os.path.join(out_dir, name))
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
    from . import evaluation, models  # models first: see _load_pool
    t0 = time.perf_counter()
    _, _, test_set = _load_datasets(config)
    section = config.get("eval", {})
    level = section.get("level")
    if level is None:
        level = float(evaluation.nominal_pi_level(test_set.n_members))
    pit_bins = section.get("pit_bins", 20)
    seed = config["seed"]

    eps = evaluation.raw_eps_report(
        test_set, level=level, pit_bins=pit_bins,
        rng=np.random.default_rng(data.derive_seed(seed, "eps")))
    rows = {"eps": eps}
    payload = {"level": level, "n_samples": len(test_set),
               "methods": {"eps": eps.to_dict()}}

    if "checkpoints" in section:
        pool = _load_pool(section["checkpoints"])
        k = section.get("draw_size", min(10, len(pool)))
        reps = section.get("reps", 50)
        rng = np.random.default_rng(data.derive_seed(seed, "resample"))
        reports, summary = evaluation.resample_and_score(
            pool, test_set, k=k, reps=reps, rng=rng, level=level,
            pit_bins=pit_bins)
        best = int(np.argmin([r.mean_crps for r in reports]))
        rows["pool"] = reports[best]
        payload["methods"]["pool"] = {
            "resample": summary,
            "draws": [r.to_dict() for r in reports],
        }

    _write_json(os.path.join(out_dir, "evaluation.json"), payload)
    _write_text(os.path.join(out_dir, "evaluation_table.txt"),
                evaluation.report_table(rows))
    _write_text(os.path.join(out_dir, "pit_eps.csv"),
                evaluation.pit_csv(eps))
    outputs = ["evaluation.json", "evaluation_table.txt", "pit_eps.csv"]
    if "pool" in rows:
        _write_text(os.path.join(out_dir, "pit_pool.csv"),
                    evaluation.pit_csv(rows["pool"]))
        outputs.append("pit_pool.csv")
    print("evaluate: " + ", ".join(
        f"{name} crps={rep.mean_crps:.4f}" for name, rep in rows.items()))
    write_manifest(out_dir, "evaluate", config, outputs,
                   {"total": time.perf_counter() - t0})
    return 0


def cmd_importance(config, out_dir):
    """Pool-aggregated predictor importance on the test set."""
    from . import importance, models  # models first: see _load_pool
    t0 = time.perf_counter()
    _, _, test_set = _load_datasets(config)
    section = config.get("importance", {})
    if "checkpoints" not in section:
        raise ConfigError("importance needs an importance.checkpoints "
                          "directory of trained models")
    pool = _load_pool(section["checkpoints"])
    bins = section.get("bins", importance.DEFAULT_BINS)
    statistics = tuple(section.get("statistics", SUMMARY_KINDS))
    predictors = section.get("predictors")

    report = importance.importance_report(
        pool.models, test_set, bins=bins,
        seed=data.derive_seed(config["seed"], "importance"),
        statistics=statistics, chi_predictors=predictors)
    # the chi of a predictor a model never reads is 0/0, flagged unreliable
    for entry in (e for stats in report["chi"].values()
                  for e in stats.values() if not e["reliable"]):
        entry.update({key: None for key, value in entry.items()
                      if type(value) is float and not math.isfinite(value)})
    _write_json(os.path.join(out_dir, "importance.json"), report)
    outputs = ["importance.json"]
    for name, matrix in report["preservation"].items():
        fname = f"preservation_{name}.csv"
        _write_text(os.path.join(out_dir, fname),
                    importance.preservation_csv(np.asarray(matrix),
                                                statistics))
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

# glibc mallopt parameters (malloc.h) and the values main() fixes them at
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for its dynamic one on 64-bit
TRIM_THRESHOLD = 64 << 20   # above the live set of a set-model step


def keep_freed_memory():
    """Fix glibc's malloc thresholds so freed arrays stay in the heap.

    Blocks up to MMAP_THRESHOLD come from the heap, and its top goes back
    to the kernel only past TRIM_THRESHOLD of free space.  Returns the
    ``mallopt`` results (1 on success); without ``mallopt`` (not glibc)
    it does nothing and returns an empty list.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return []
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)]


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
                              "only (default 1)")
        cmd.add_argument("--out", default=None,
                         help="output directory (default from config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the top-level seed")
    return parser


def main(argv=None):
    keep_freed_memory()
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
