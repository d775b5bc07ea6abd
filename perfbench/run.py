"""End-to-end benchmark of the ``enspost`` command line.

    python3 perfbench/run.py --workload drn-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A pipeline runs ``synth -> train -> evaluate -> importance`` as four separate
processes, the way a user runs them: closed loop, one client, one pipeline
at a time.  Pipelines repeat with the same seed until ``--seconds`` have
passed (at least one runs), and every stage's outputs go through the
correctness gate.  Times are medians over the pipelines, scaled for the
machine's speed during the run (see ``PROBE_S``).  The last line of standard
output is one JSON object with ``correct``, ``attempted`` and ``failed``
(counted in stages) and ``metrics``: the END_TO_END metrics with
``--trace 0``.  With ``--trace 1`` one untraced pipeline runs and then one
with spans installed (:mod:`stage`), and the metrics are the per-layer ones
(:mod:`layers`).

Inputs come from ``--seed`` only: it is the ``--seed`` of every stage, so it
seeds the synthetic data and the model pool.  Every workload fixes
``model.patience >= model.max_epochs``, so the number of epochs, and with it
the amount of work, cannot depend on the numbers a change produces.

All files go to ``.perfbench_out/`` in the checkout; a results file with the
environment, every sample and the metrics is kept under
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("synth", "train", "evaluate", "importance")
BLAS_THREADS = 1          # 2 BLAS threads ran st-bqn slower than 1 on 2 cores
IMPORT_PROBES = 3
# On a shared two-vCPU Xeon VM the speed of every process drifts by up to
# 1.7x within minutes.  speed_probe() therefore times a fixed task (a plain
# Python loop and small NumPy products) in this process before each stage
# and after each pipeline, and every reported time is the measured wall
# time scaled by PROBE_S over the run's median probe time: seconds on a
# machine that runs the probe in PROBE_S.  The results file keeps the
# unscaled wall times and the probe times.
PROBE_S = 0.15
DEADLINE_S = 170.0        # the whole run must end within 180 s
# train/validation/test shares; a test share twice the CLI default steadies
# test_crps across seeds
SPLITS = [0.6, 0.1, 0.3]


def _sets(**sections):
    """``--set`` overrides from ``section={field: value}`` keywords."""
    out = []
    for section, fields in sections.items():
        for key, value in fields.items():
            out += ["--set", f"{section}.{key}={json.dumps(value)}"]
    return out


@dataclass(frozen=True)
class Workload:
    """Sizes and options of one workload; why each exists is recorded next
    to its name in BENCHMARK.json."""

    synth: dict
    model: dict
    pool_size: int
    workers: int
    evaluate: dict
    importance: dict = field(default_factory=dict)

    def args(self, stage, dirs, seed):
        """Command-line arguments of one stage."""
        common = ["--out", str(dirs[stage]), "--seed", str(seed)]
        if stage == "synth":
            return ["synth", *common, *_sets(synth=self.synth)]
        data = {"path": str(dirs["synth"] / "dataset.ndjson"),
                "splits": SPLITS}
        common += ["--workers", str(self.workers)]
        if stage == "train":
            return ["train", *common, *_sets(
                data=data, model=self.model,
                train={"pool_size": self.pool_size})]
        if stage == "evaluate":
            return ["evaluate", *common, *_sets(
                data=data,
                eval={"checkpoints": str(dirs["train"]), **self.evaluate})]
        return ["importance", *common, *_sets(
            data=data, importance={"checkpoints": str(dirs["train"]),
                                   **self.importance})]


WORKLOADS = {
    "drn-pipeline": Workload(
        synth={"stations": 16, "days": 160},
        model={"architecture": "drn", "batch_size": 128, "max_epochs": 10,
               "patience": 10},
        pool_size=4, workers=1,
        evaluate={"reps": 10, "draw_size": 2}),
    "st-bqn-pipeline": Workload(
        synth={"stations": 8, "days": 160},
        model={"architecture": "st-bqn", "latent_width": 32,
               "attention_heads": 4, "n_attention_blocks": 1,
               "hidden_sizes": [32, 16], "batch_size": 64, "max_epochs": 3,
               "patience": 3},
        pool_size=2, workers=1,
        evaluate={"reps": 5, "draw_size": 2},
        importance={"statistics": ["mean", "skewness"], "predictors": [2]}),
    "emos-pool": Workload(
        # 600 days put every calendar month into the training split, so
        # each test sample has a fitted (station, month) cell
        synth={"stations": 2, "days": 600},
        model={"architecture": "emos", "max_epochs": 100, "patience": 100},
        pool_size=2, workers=2,
        evaluate={"reps": 10, "draw_size": 2},
        # EMOS reads only the primary predictor: chi of any other predictor
        # divides 0 by 0
        importance={"predictors": [0]}),
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)


BLAS_ENV = {var: str(BLAS_THREADS) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def stage_env():
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    env.pop("ENSPOST_WORKERS", None)
    return env


def spawn(argv, log_path, deadline):
    """Run a process to completion; (exit code, wall s, peak RSS MB).

    The child leads its own process group, so a run past ``deadline`` is
    killed together with its pool workers.  ``wait4`` reports the largest
    peak RSS of the child and of the descendants it waited for.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=stage_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)      # interrupted: leave no stage behind
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def probe_import(work, deadline):
    """Seconds to import enspost.cli in a fresh interpreter; also checks
    that the package comes from this checkout."""
    out = work / "import_probe.txt"
    code, _, _ = spawn(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); import enspost.cli; "
         "d = time.perf_counter() - t; print(enspost.cli.__file__); print(d)"],
        out, deadline)
    lines = out.read_text().split()
    if code != 0 or len(lines) < 2:
        raise RuntimeError(f"cannot import enspost.cli: {out.read_text()}")
    if not Path(lines[0]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"enspost imported from {lines[0]}, not src/")
    return float(lines[1])


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def speed_probe():
    """Seconds this process takes for a fixed Python and NumPy task."""
    import numpy as np
    t0 = time.perf_counter()
    total = 0
    for i in range(700_000):
        total += i * i
    a = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
    for _ in range(900):
        a = np.tanh(a @ a * 0.01)
    return time.perf_counter() - t0


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _all_finite(value):
    if isinstance(value, bool) or isinstance(value, str) or value is None:
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return all(_all_finite(v) for v in value)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_evaluation(out_dir):
    methods = _load(out_dir / "evaluation.json")["methods"]
    pool = methods["pool"]["resample"]["mean_crps"]
    eps = methods["eps"]["mean_crps"]
    if not (math.isfinite(pool) and pool < eps):
        return [f"pool CRPS {pool} is not finite and below eps CRPS {eps}"]
    return []


def check_importance(out_dir, workload, predictor_names):
    report = _load(out_dir / "importance.json")
    statistics_ = report["statistics"]
    chi_predictors = workload.importance.get(
        "predictors", range(len(predictor_names)))
    chi_names = [predictor_names[i] for i in chi_predictors]
    problems = []
    if not _all_finite(report):
        problems.append("importance.json holds a non-finite number")
    if sorted(report["delta0"]) != sorted(predictor_names):
        problems.append("delta0 does not cover every predictor")
    if report["n_models"] != workload.pool_size:
        problems.append("importance did not use every model")
    for name in chi_names:
        if sorted(report["chi"].get(name, {})) != sorted(statistics_):
            problems.append(f"chi of {name} misses a statistic")
        matrix = report["preservation"].get(name, [])
        if len(matrix) != len(statistics_) or any(
                len(row) != len(statistics_) for row in matrix):
            problems.append(f"preservation matrix of {name} is incomplete")
    return problems


class Gate:
    """Checks every stage's outputs; run hashes must agree across a run."""

    def __init__(self, workload):
        self.workload = workload
        self.run_hashes = {}
        self.attempted = 0
        self.failed = 0

    def check(self, run, out_dir):
        self.attempted += 1
        if run.code != 0:
            run.problems.append(f"exit code {run.code}")
        else:
            try:
                run.problems += self._outputs(run.stage, out_dir)
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                run.problems.append(f"unreadable output: {exc!r}")
        if run.problems:
            self.failed += 1
        return not run.problems

    def _outputs(self, stage, out_dir):
        manifest = _load(out_dir / "run_manifest.json")
        problems = [f"{name}: SHA-256 mismatch"
                    for name, digest in manifest["outputs"].items()
                    if sha256(out_dir / name) != digest]
        reference = self.run_hashes.setdefault(stage, manifest["run_hash"])
        if manifest["run_hash"] != reference:
            problems.append("run_hash differs from the first run")
        if stage == "evaluate":
            problems += check_evaluation(out_dir)
        elif stage == "importance":
            names = _load(out_dir.parent / "synth" / "dataset_stats.json")[
                "predictor_names"]
            problems += check_importance(out_dir, self.workload, names)
        return problems


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, name, workload, seed, work, deadline):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.gate = Gate(workload)
        self.dirs = {stage: work / stage for stage in STAGES}
        self.trace_dirs = {stage: work / "trace" / stage for stage in STAGES}
        self.probes = []

    def pipeline(self, traced=False):
        """One pass over the four stages; None when a stage failed."""
        runs = {}
        for stage in STAGES:
            self.probes.append(speed_probe())
            out = self.dirs[stage]
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            args = self.workload.args(stage, self.dirs, self.seed)
            if traced:
                trace_dir = self.trace_dirs[stage]
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir(parents=True)
                argv = [sys.executable, str(HERE / "stage.py"),
                        str(trace_dir), "--", *args]
            else:
                argv = [sys.executable, "-m", "enspost.cli", *args]
            code, wall, rss = spawn(argv, self.work / f"{stage}.log",
                                    self.deadline)
            run = runs[stage] = StageRun(stage, code, wall, rss)
            if not self.gate.check(run, out):
                log = (self.work / f"{stage}.log").read_text(errors="replace")
                print(f"{stage} failed: {run.problems}\n{log[-2000:]}",
                      file=sys.stderr)
                return None
        self.probes.append(speed_probe())
        return runs

    def loop(self, seconds):
        """Pipelines until ``seconds`` have passed, at least one; none starts
        that would overrun the deadline if it took as long as the last."""
        pipelines = []
        t0 = time.monotonic()
        while True:
            start = time.monotonic()
            runs = self.pipeline()
            if runs is None:
                break
            pipelines.append(runs)
            now = time.monotonic()
            if now - t0 >= seconds or now + (now - start) > self.deadline:
                break
        return pipelines


# Declared end-to-end metrics.  The stage times (STAGE_TIMES) are printed
# and kept in the results file, and reported per layer by a traced run:
# with one median of three or four processes per run, their spread across
# seeds on a shared two-vCPU VM (0.1 to 0.28 of the median) reaches the
# largest bound an end-to-end metric may have.
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb", "test_crps")
STAGE_TIMES = ("train_s", "evaluate_s", "importance_s")


def end_to_end(pipelines, bench, scale):
    """END_TO_END and STAGE_TIMES metrics as ``{name: (value, unit)}``,
    times multiplied by ``scale``."""
    def median(stage):
        return scale * statistics.median(p[stage].wall_s for p in pipelines)

    evaluation = _load(bench.dirs["evaluate"] / "evaluation.json")
    return {
        "setup_s": (median("synth"), "s"),
        "train_s": (median("train"), "s"),
        "evaluate_s": (median("evaluate"), "s"),
        "importance_s": (median("importance"), "s"),
        "pipeline_s": (scale * statistics.median(
            sum(r.wall_s for r in p.values()) for p in pipelines), "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for p in pipelines
                            for r in p.values()), "MB"),
        "test_crps": (evaluation["methods"]["pool"]["resample"]["mean_crps"],
                      "score"),
    }


def probe_scale(bench):
    return PROBE_S / statistics.median(bench.probes)


def traced_metrics(bench, pipelines, import_s):
    """Per-layer metrics from one traced pipeline, plus the seed code's
    known waste to compare them with."""
    runs = bench.pipeline(traced=True)
    if runs is None:
        return None, {}
    traced_s = sum(r.wall_s for r in runs.values())
    snapshots = [s for stage in STAGES
                 for s in layers.load_stage(bench.trace_dirs[stage])]
    trace = layers.Trace(snapshots)
    train_timings = _load(bench.dirs["train"] / "timings.json")["seconds"]
    untraced = statistics.median(
        sum(r.wall_s for r in p.values()) for p in pipelines)
    metrics = layers.layer_metrics(trace, import_s, train_timings,
                                   bench.workload.workers, untraced, traced_s)
    baseline = end_to_end(pipelines, bench, probe_scale(bench))
    metrics.update({f"stage.{name}": baseline[name] for name in STAGE_TIMES})
    checks = {
        "span_violations": layers.span_check(snapshots),
        "missing_targets": trace.missing(),
        "seed_code_forward_per_eval": 2.0 if bench.workload.model[
            "architecture"].endswith("bqn") else 1.0,
        "seed_code_eval_useful_ratio": seed_code_useful_ratio(bench),
        "traced_pipeline_s": traced_s,
    }
    return metrics, checks


def seed_code_useful_ratio(bench):
    """Distinct over requested model evaluations in ``importance_report``
    at the seed code, for P predictors, S statistics and C chi predictors:
    per model, delta0 scores the base and each predictor (2P evaluations,
    1 + P distinct); each chi cell scores base, conditional and rank-aware
    (3SC evaluations; SC distinct, plus one rank-aware reference per chi
    predictor)."""
    report = _load(bench.dirs["importance"] / "importance.json")
    p, s, c = (len(report["delta0"]), len(report["statistics"]),
               len(report["chi"]))
    return (1 + p + s * c + c) / (2 * p + 3 * s * c)


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def environment(workers):
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": nproc, "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "src_lines": src_lines,
        "blas_threads": BLAS_THREADS, "workers": workers,
        "oversubscribed": workers * BLAS_THREADS > nproc,
    }


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (result dict for the last line, results
    file payload)."""
    workload = WORKLOADS[name]
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    work = ROOT / ".perfbench_out" / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_import(work, deadline)      # warm-up; fills the bytecode cache
        bench = Bench(name, workload, seed, work, deadline)
        import_s = [probe_import(work, deadline)
                    for _ in range(IMPORT_PROBES if trace else 0)]
        # a traced run times one untraced pipeline, the baseline of
        # trace.overhead_ratio, and then one traced pipeline
        pipelines = bench.loop(0 if trace else seconds)
        checks = {}
        if not pipelines:
            metrics = {}
        elif trace:
            metrics, checks = traced_metrics(bench, pipelines, import_s)
        else:
            metrics = end_to_end(pipelines, bench, probe_scale(bench))
        shown = metrics
        if metrics and not trace:
            metrics = {name: metrics[name] for name in END_TO_END}
        gate = bench.gate
        correct = gate.failed == 0 and bool(metrics)
        payload = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace,
            "environment": environment(workload.workers),
            "pipelines": [{s: vars(r) for s, r in p.items()}
                          for p in pipelines],
            "checks": checks,
            "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in (shown or {}).items()},
            "wall_metrics": ({k: v for k, (v, u) in end_to_end(
                pipelines, bench, 1.0).items()} if pipelines and not trace
                else {}),
            "probe_s": bench.probes,
            "run_s": time.monotonic() - t_start,
        }
        return (correct, gate.attempted, gate.failed, metrics or {}), payload
    finally:
        shutil.rmtree(work, ignore_errors=True)


def save_results(payload):
    out = ROOT / ".perfbench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{payload['workload']}-seed{payload['seed']}"
                  f"-trace{payload['trace']}.json")
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def print_table(name, metrics):
    print(f"# {name}")
    for metric, m in metrics.items():
        print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(BLAS_ENV)     # before speed_probe imports NumPy
    if not (ROOT / "src" / "enspost" / "cli.py").is_file():
        print(f"no enspost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, payload = run_workload(name, args.seed, args.seconds,
                                       args.trace)
        print_table(name, payload["metrics"])
        save_results(payload)
        results.append((name, result))
    if len(results) == 1:
        print(result_line(*results[0][1]))
    else:
        print(result_line(
            all(r[0] for _, r in results),
            sum(r[1] for _, r in results), sum(r[2] for _, r in results),
            {f"{name}/{m}": vu for name, r in results
             for m, vu in r[3].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
