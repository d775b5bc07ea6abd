"""Run one ``enspost`` CLI stage with the benchmark's spans installed.

    python3 perfbench/stage.py TRACE_DIR -- synth --out ... --seed 7 ...

Everything after ``--`` is passed to ``enspost.cli.main``.  The stage writes
``TRACE_DIR/main.json``; each pool worker writes ``TRACE_DIR/worker-<pid>.json``
after every model it trains.  ``enspost`` must be importable (``PYTHONPATH``
pointing at the checkout's ``src``).

Functions are wrapped where they are looked up: a name imported with
``from .x import f`` is wrapped in the importing module as well, class
methods on the class, and the autodiff ops also where ``dist.TENSOR_OPS`` and
the ``mlp_forward`` default argument captured them.  A target that no longer
exists is skipped and listed under ``missing`` in the trace.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

from tracer import Tracer

OPS = ("matmul", "add", "mul", "softmax", "tanh", "sigmoid", "softplus",
       "trunc_tail", "exp", "log", "reciprocal", "concat", "embedding",
       "reshape", "transpose", "take", "where", "amax", "amin")
TENSOR_OPS_CAPTURED = ("softplus", "sigmoid", "exp", "trunc_tail", "where")

# span name -> places the function is looked up, as "module:attribute" or
# "module:Class.method"
SPANS = {
    "cli.write_manifest": ["cli:write_manifest"],
    "data.generate_synthetic": ["cli:generate_synthetic"],
    "data.save_ndjson": ["cli:save_ndjson"],
    "data.load_ndjson": ["cli:load_ndjson"],
    "data.split_temporal": ["cli:split_temporal"],
    "data.standardize": ["data:standardize", "train:standardize",
                         "models:standardize"],
    "data.Dataset.__init__": ["data:Dataset.__init__"],
    "autodiff.value_and_grad": ["autodiff:value_and_grad"],
    "autodiff._run": ["autodiff:_run"],
    "autodiff.Tensor.backward": ["autodiff:Tensor.backward"],
    "autodiff.eval_graph": ["autodiff:eval_graph"],
    "models.raw_theta": ["models:NeuralModel.raw_theta",
                         "models:EMOSModel.raw_theta"],
    "models.quantiles": ["models:NeuralModel.quantiles",
                         "models:EMOSModel.quantiles"],
    "models.save_model": ["cli:save_model"],
    "models.load_model": ["cli:load_model"],
    "dist.tlogis_quantile": ["dist:tlogis_quantile",
                             "evaluation:tlogis_quantile"],
    "dist.crps_tlogis_core": ["dist:crps_tlogis_core",
                              "train:crps_tlogis_core"],
    "dist.crps_sample_batch": ["dist:crps_sample_batch",
                               "train:crps_sample_batch",
                               "evaluation:crps_sample_batch"],
    "train.train_pool": ["cli:train_pool"],
    "train._fit_one": ["train:_fit_one"],
    "train.train_model": ["train:train_model"],
    "train._train_emos": ["train:_train_emos"],
    "train._fit_loop": ["train:_fit_loop"],
    "train._val_crps": ["train:_val_crps"],
    "train.Adam.step": ["train:Adam.step"],
    "train.resample_and_score": ["cli:resample_and_score"],
    "train.aggregate_quantiles": ["train:aggregate_quantiles"],
    "evaluation.evaluate_quantiles": ["evaluation:evaluate_quantiles"],
    "evaluation.ensemble_pit": ["evaluation:ensemble_pit"],
    "evaluation.raw_eps_report": ["cli:raw_eps_report"],
    "evaluation.model_mean_crps": ["evaluation:model_mean_crps",
                                   "importance:model_mean_crps"],
    "importance.importance_report": ["cli:importance_report"],
    "importance.perturb": ["importance:perturb"],
    "importance.preservation_matrix": ["importance:preservation_matrix"],
}
SAMPLED = {"autodiff.value_and_grad", "autodiff.eval_graph"}


def _resolve(modules, target):
    module, attr = target.split(":")
    owner = modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, name):
        return None, None
    return owner, name


def _hooks(tracer, trace_dir, parent_pid):
    """Extra counts taken at span boundaries, outside the timed interval."""
    epoch = {"mark": None}

    def rows(args, kwargs):
        tracer.count("models.raw_theta_rows", len(args[1]))

    def resample_model(args, kwargs):
        if tracer.inside("train.resample_and_score"):
            tracer.add_key("train.resample_models", id(args[0]))

    def importance_eval(args, kwargs):
        if tracer.inside("importance.importance_report"):
            digest = hashlib.blake2b(args[1].ens.tobytes(),
                                     digest_size=16).hexdigest()
            tracer.add_key("importance.unique_evals", (id(args[0]), digest))

    def file_bytes(counter, index):
        def after(args, kwargs, result):
            tracer.count(counter, os.path.getsize(args[index]))
        return after

    def fit_start(args, kwargs):
        epoch["mark"] = None

    def validated(args, kwargs, result):
        now = time.perf_counter()
        if epoch["mark"] is not None:
            tracer.add_sample("train.epoch", now - epoch["mark"])
        epoch["mark"] = now

    def worker_dump(args, kwargs, result):
        if tracer.pid != parent_pid:
            tracer.dump(os.path.join(trace_dir, f"worker-{tracer.pid}.json"))

    return {
        "models.raw_theta": {"before": rows},
        "models.quantiles": {"before": resample_model},
        "evaluation.model_mean_crps": {"before": importance_eval},
        "data.load_ndjson": {"after": file_bytes("data.ndjson_bytes", 0)},
        "models.save_model": {"after": file_bytes("models.checkpoint_bytes",
                                                  1)},
        "train._fit_loop": {"before": fit_start},
        "train._val_crps": {"after": validated},
        "train._fit_one": {"after": worker_dump},
    }


def install(tracer, trace_dir):
    """Wrap the enspost functions named in SPANS and OPS; returns the
    targets that were not found."""
    import enspost.autodiff
    import enspost.cli
    import enspost.data
    import enspost.dist
    import enspost.evaluation
    import enspost.importance
    import enspost.models
    import enspost.train
    modules = {name.split(".")[1]: mod for name, mod in sys.modules.items()
               if name.startswith("enspost.")}
    hooks = _hooks(tracer, trace_dir, os.getpid())
    missing = []

    for name, targets in SPANS.items():
        wrapped = {}
        for target in targets:
            owner, attr = _resolve(modules, target)
            if owner is None:
                missing.append(target)
                continue
            fn = owner.__dict__.get(attr, getattr(owner, attr))
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.span(name, fn, samples=name in SAMPLED,
                                              **hooks.get(name, {}))
            setattr(owner, attr, wrapped[id(fn)])

    ad = modules["autodiff"]
    tanh = getattr(ad, "tanh", None)
    ops = {}
    for name in OPS:
        if not hasattr(ad, name):
            missing.append(f"autodiff:{name}")
            continue
        ops[name] = tracer.op(name, getattr(ad, name))
        setattr(ad, name, ops[name])
    tensor_ops = getattr(modules["dist"], "_TensorOps", None)
    for name in TENSOR_OPS_CAPTURED:
        if tensor_ops is not None and name in ops:
            setattr(tensor_ops, name, staticmethod(ops[name]))
        else:
            missing.append(f"dist:_TensorOps.{name}")
    mlp = getattr(modules["models"], "mlp_forward", None)
    defaults = getattr(mlp, "__defaults__", None) or ()
    if tanh is not None and tanh in defaults:
        mlp.__defaults__ = tuple(ops["tanh"] if d is tanh else d
                                 for d in defaults)
    else:
        missing.append("models:mlp_forward.activation")

    # cli.main dispatches through this dict, which captured the functions
    for command, fn in list(enspost.cli._COMMANDS.items()):
        enspost.cli._COMMANDS[command] = tracer.span(f"cli.cmd_{command}", fn)
    return missing


def main(argv):
    trace_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: stage.py TRACE_DIR -- COMMAND [ARGS...]")
    import enspost.cli
    tracer = Tracer()
    tracer.missing = install(tracer, trace_dir)
    run = tracer.span("cli.main", enspost.cli.main)
    try:
        return run(cli_args)
    finally:
        tracer.dump(os.path.join(trace_dir, "main.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
