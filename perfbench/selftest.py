"""Self-test of the benchmark on tiny versions of its workloads (about 90 s
on two cores).

    python3 perfbench/selftest.py

For every workload it checks that each metric named in ``BENCHMARK.json``
comes out with its unit, that span self times add up to each parent's
duration, that every wrap target was found, that the exact counters repeat
across two traced pipelines and read the seed code's known waste, and that
the gate counts a corrupted output, a failing stage and a drifting run hash
as failed operations.  Finally the benchmark must refuse to run, with a
non-zero exit and no result line, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import run
from run import ROOT, Bench, StageRun

TINY = {
    "drn-pipeline": dict(
        synth={"stations": 3, "days": 80, "members": 8},
        model={"architecture": "drn", "hidden_sizes": [6, 5],
               "max_epochs": 2, "patience": 2},
        pool_size=2, evaluate={"reps": 2, "draw_size": 2}),
    "st-bqn-pipeline": dict(
        synth={"stations": 3, "days": 80, "members": 8},
        model={"architecture": "st-bqn", "latent_width": 8,
               "attention_heads": 2, "n_attention_blocks": 1,
               "hidden_sizes": [8, 4], "bernstein_degree": 4,
               "n_quantile_levels": 9, "max_epochs": 2, "patience": 2},
        pool_size=2, evaluate={"reps": 2, "draw_size": 2}),
    "emos-pool": dict(
        synth={"stations": 2, "days": 120, "members": 8},
        model={"architecture": "emos", "max_epochs": 2, "patience": 2},
        pool_size=2, evaluate={"reps": 2, "draw_size": 2}),
}
SEED = 3

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def same_units(metrics, wanted, label):
    got = {name: unit for name, (_, unit) in metrics.items()}
    missing = sorted(set(wanted) - set(got))
    wrong = sorted(n for n in wanted if n in got and got[n] != wanted[n])
    extra = sorted(set(got) - set(wanted))
    expect(not missing and not wrong and not extra,
           f"{label}: every declared metric with its unit "
           f"(missing {missing}, wrong unit {wrong}, undeclared {extra})")


def check_workload(name, work, e2e_units, layer_units):
    base = run.WORKLOADS[name]
    # with the default 100 bins, a test set this small puts one sample in
    # each conditional bin, and the shuffle returns its input unchanged
    workload = replace(base, importance={**base.importance, "bins": 4},
                       **TINY[name])
    deadline = time.monotonic() + 600
    bench = Bench(name, workload, SEED, work, deadline)
    run.probe_import(work, deadline)
    import_s = [run.probe_import(work, deadline)]
    pipelines = bench.loop(0)
    expect(len(pipelines) == 1 and bench.gate.failed == 0,
           f"{name}: an untraced pipeline passes the gate")
    if not pipelines:
        return
    e2e = run.end_to_end(pipelines, bench, run.probe_scale(bench))
    same_units({k: e2e[k] for k in run.END_TO_END}, e2e_units,
               f"{name} end to end")

    first, checks = run.traced_metrics(bench, pipelines, import_s)
    second, _ = run.traced_metrics(bench, pipelines, import_s)
    expect(first is not None and second is not None
           and bench.gate.failed == 0,
           f"{name}: two traced pipelines pass the gate")
    if first is None or second is None:
        return
    same_units(first, layer_units, f"{name} per layer")
    expect(not checks["span_violations"],
           f"{name}: span self times add up to their parents "
           f"{checks['span_violations']}")
    expect(not checks["missing_targets"],
           f"{name}: every wrap target exists {checks['missing_targets']}")
    counts = sorted(k for k, (_, unit) in first.items() if unit == "count")
    differ = [k for k in counts if first[k][0] != second[k][0]]
    expect(not differ, f"{name}: {len(counts)} counters repeat exactly "
                       f"across traced pipelines {differ}")
    for metric, seed_value in (
            ("importance.forward_per_eval",
             checks["seed_code_forward_per_eval"]),
            ("importance.eval_useful_ratio",
             checks["seed_code_eval_useful_ratio"])):
        expect(first[metric][0] == seed_value,
               f"{name}: {metric} = {first[metric][0]} reads the seed "
               f"code's {seed_value}")
    if name == "drn-pipeline":
        expect(first["importance.eval_useful_ratio"][0] == 41 / 104,
               f"{name}: eval_useful_ratio is 41/104 at 8 statistics x 4 "
               f"predictors")
    if name == "emos-pool":
        expect(first["train.emos_cell_steps"][0] > 0
               and first["train.models"][0] == workload.pool_size,
               f"{name}: pool workers' spans are collected")
    check_gate(bench)


def check_gate(bench):
    gate = bench.gate
    before = gate.failed
    out = bench.dirs["evaluate"]
    with open(out / "evaluation.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    gate.check(StageRun("evaluate", 0, 0.0, 0.0), out)
    expect(gate.failed == before + 1,
           f"{bench.name}: a corrupted output is a failed operation")
    gate.check(StageRun("train", 2, 0.0, 0.0), bench.dirs["train"])
    expect(gate.failed == before + 2,
           f"{bench.name}: a non-zero exit is a failed operation")
    gate.run_hashes["importance"] = "0" * 64
    gate.check(StageRun("importance", 0, 0.0, 0.0), bench.dirs["importance"])
    expect(gate.failed == before + 3,
           f"{bench.name}: a drifting run_hash is a failed operation")


def check_refuses_without_sources(scratch):
    """The benchmark alone, without the program, must fail cleanly."""
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without the program's sources the benchmark exits non-zero "
           "and prints no result")


def main():
    e2e_units, layer_units = declared()
    scratch = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name in run.WORKLOADS:
            work = scratch / name
            work.mkdir(parents=True)
            check_workload(name, work, e2e_units, layer_units)
        check_refuses_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
