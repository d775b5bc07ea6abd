"""Per-layer metrics from the span traces of one traced pipeline.

A traced pipeline leaves, per stage, the main process's snapshot and one
snapshot per pool worker (see :mod:`tracer`).  Their trees are read side by
side, never merged: a worker's spans ran in parallel with its parent's
``train_pool`` span, so they are not children of it in time.  Times summed
over several processes can therefore exceed the stage's wall time.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics

from stage import OPS

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_stage(trace_dir):
    """Snapshots of one stage: the main process first, then its workers."""
    paths = [os.path.join(trace_dir, "main.json")]
    paths += sorted(glob.glob(os.path.join(trace_dir, "worker-*.json")))
    snapshots = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            snapshots.append(json.load(fh))
    return snapshots


def walk(tree, ancestors=()):
    """(node, names of its ancestors) for every node below ``tree``."""
    for child in tree["children"]:
        yield child, ancestors
        yield from walk(child, ancestors + (child["name"],))


def span_check(snapshots, tolerance=1e-6):
    """Spans whose self time does not add up with their children.

    For every span that ran in the snapshot's own process, its duration must
    equal its self time plus its children's durations, and the self time
    must not be negative.  Returns a list of offending span paths.
    """
    bad = []
    for snap in snapshots:
        for node, ancestors in walk(snap["tree"]):
            if node["calls"] == 0:
                continue      # a span open in the parent when a worker forked
            children = sum(c["total"] for c in node["children"])
            self_time = node["total"] - node["child"]
            if (abs(self_time + children - node["total"]) > tolerance
                    or self_time < -tolerance):
                bad.append("/".join(ancestors + (node["name"],)))
    return bad


def tail(samples):
    """(percentile, value): the highest of TAIL_LEVELS with at least ten
    samples above its nearest-rank value; the median when there are fewer
    than twenty samples."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LEVELS:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, xs[rank - 1]
    return 50.0, statistics.median(xs) if xs else 0.0


class Trace:
    """Queries over the snapshots of all stages of one pipeline."""

    def __init__(self, snapshots):
        self.snapshots = snapshots
        self.nodes = [(node, ancestors) for snap in snapshots
                      for node, ancestors in walk(snap["tree"])]

    def spans(self, name, parent=None, under=None):
        return [node for node, ancestors in self.nodes
                if node["name"] == name
                and (parent is None or (ancestors and ancestors[-1] == parent))
                and (under is None or under in ancestors)]

    def calls(self, name, **where):
        return sum(n["calls"] for n in self.spans(name, **where))

    def total(self, name, **where):
        return sum(n["total"] for n in self.spans(name, **where))

    def self_time(self, name, **where):
        return sum(n["total"] - n["child"] for n in self.spans(name, **where))

    def samples(self, name, **where):
        return [x for n in self.spans(name, **where)
                for x in n.get("samples", ())]

    def counter(self, name):
        return sum(s["counters"].get(name, 0) for s in self.snapshots)

    def distinct(self, name):
        keys = set()
        for s in self.snapshots:
            keys.update(s["sets"].get(name, ()))
        return len(keys)

    def extra_samples(self, name):
        return [x for s in self.snapshots for x in s["samples"].get(name, ())]

    def op(self, name):
        calls = seconds = 0
        for s in self.snapshots:
            c, sec = s["ops"].get(name, (0, 0.0))
            calls, seconds = calls + c, seconds + sec
        return calls, seconds

    def missing(self):
        return sorted({m for s in self.snapshots for m in s.get("missing", ())})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, import_s, train_timings, workers,
                  untraced_pipeline_s, traced_pipeline_s):
    """Every per-layer metric as ``{name: (value, unit)}``."""
    t = trace
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def timed(prefix, name, **where):
        put(f"{prefix}_calls", t.calls(name, **where), "count")
        put(f"{prefix}_s", t.total(name, **where), "s")

    def distribution(prefix, samples, unit, scale):
        pct, value = tail(samples)
        put(f"{prefix}_p50_{unit}",
            statistics.median(samples) * scale if samples else 0.0, unit)
        put(f"{prefix}_tail_{unit}", value * scale, unit)
        put(f"{prefix}_tail_pct", pct, "%")

    # cli
    put("cli.import_s", statistics.median(import_s), "s")
    put("cli.manifest_s", t.total("cli.write_manifest"), "s")

    # data
    put("data.generate_synthetic_s", t.total("data.generate_synthetic"), "s")
    put("data.save_ndjson_s", t.total("data.save_ndjson"), "s")
    timed("data.load_ndjson", "data.load_ndjson")
    put("data.ndjson_mb", _ratio(t.counter("data.ndjson_bytes"),
                                 t.calls("data.load_ndjson")) / 1e6, "MB")
    put("data.split_temporal_s", t.total("data.split_temporal"), "s")
    timed("data.standardize", "data.standardize")
    timed("data.dataset_init", "data.Dataset.__init__")

    # autodiff
    timed("autodiff.value_and_grad", "autodiff.value_and_grad")
    distribution("autodiff.value_and_grad",
                 t.samples("autodiff.value_and_grad"), "ms", 1e3)
    put("autodiff.backward_s", t.total("autodiff.Tensor.backward"), "s")
    timed("autodiff.eval_graph", "autodiff.eval_graph")
    distribution("autodiff.eval_graph",
                 t.samples("autodiff.eval_graph"), "ms", 1e3)
    for op in OPS:
        calls, seconds = t.op(op)
        put(f"autodiff.op.{op}.calls", calls, "count")
        put(f"autodiff.op.{op}.s", seconds, "s")

    # models
    timed("models.raw_theta", "models.raw_theta")
    put("models.raw_theta_rows", t.counter("models.raw_theta_rows"), "count")
    put("models.quantiles_calls", t.calls("models.quantiles"), "count")
    put("models.quantiles_self_s", t.self_time("models.quantiles"), "s")
    put("models.save_model_s", t.total("models.save_model"), "s")
    put("models.load_model_s", t.total("models.load_model"), "s")
    put("models.checkpoint_mb", t.counter("models.checkpoint_bytes") / 1e6,
        "MB")

    # dist
    timed("dist.tlogis_quantile", "dist.tlogis_quantile")
    timed("dist.crps_tlogis_core", "dist.crps_tlogis_core")
    timed("dist.crps_sample_batch", "dist.crps_sample_batch")

    # train
    under = "train.train_model"
    forward = t.total("autodiff._run", parent="autodiff.value_and_grad",
                      under=under)
    backward = t.total("autodiff.Tensor.backward", under=under)
    optimizer = t.total("train.Adam.step", under=under)
    validation = t.total("autodiff.eval_graph", under=under)
    epochs = t.extra_samples("train.epoch")
    put("train.models", t.calls(under), "count")
    put("train.epochs", len(epochs), "count")
    put("train.batches", t.calls("autodiff.value_and_grad",
                                 parent="train._fit_loop"), "count")
    put("train.forward_s", forward, "s")
    put("train.backward_s", backward, "s")
    put("train.optimizer_s", optimizer, "s")
    put("train.validation_s", validation, "s")
    put("train.other_s",
        t.total(under) - forward - backward - optimizer - validation, "s")
    put("train.epoch_s", statistics.median(epochs) if epochs else 0.0, "s")
    pct, value = tail(epochs)
    put("train.epoch_tail_s", value, "s")
    put("train.epoch_tail_pct", pct, "%")
    put("train.emos_cell_steps", t.calls("autodiff.value_and_grad",
                                         parent="train._train_emos"), "count")
    put("train.parallel_efficiency",
        _ratio(sum(train_timings["per_model"]),
               workers * train_timings["total"]), "ratio")
    put("train.resample_s", t.total("train.resample_and_score"), "s")
    put("train.aggregate_quantiles_calls",
        t.calls("train.aggregate_quantiles"), "count")
    put("train.forward_useful_ratio",
        _ratio(t.distinct("train.resample_models"),
               t.calls("models.quantiles",
                       under="train.resample_and_score")), "ratio")

    # evaluation
    timed("evaluation.evaluate_quantiles", "evaluation.evaluate_quantiles")
    timed("evaluation.ensemble_pit", "evaluation.ensemble_pit")
    put("evaluation.raw_eps_report_s", t.total("evaluation.raw_eps_report"),
        "s")
    timed("evaluation.model_mean_crps", "evaluation.model_mean_crps")

    # importance
    report = "importance.importance_report"
    evals = t.calls("evaluation.model_mean_crps", under=report)
    unique = t.distinct("importance.unique_evals")
    put("importance.report_s", t.total(report), "s")
    timed("importance.perturb", "importance.perturb")
    put("importance.preservation_s",
        t.total("importance.preservation_matrix"), "s")
    put("importance.scoring_s",
        t.total("evaluation.model_mean_crps", under=report), "s")
    put("importance.model_evals", evals, "count")
    put("importance.unique_model_evals", unique, "count")
    put("importance.eval_useful_ratio", _ratio(unique, evals), "ratio")
    put("importance.forward_per_eval",
        _ratio(t.calls("models.raw_theta", under="evaluation.model_mean_crps"),
               t.calls("evaluation.model_mean_crps")), "ratio")

    put("trace.overhead_ratio",
        _ratio(traced_pipeline_s, untraced_pipeline_s), "ratio")
    return m
