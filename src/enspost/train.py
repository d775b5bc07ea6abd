"""Optimization loops, validation-based model selection and network pools.

All models are fitted by minimizing a proper scoring rule with Adam:
truncated-logistic families minimize the closed-form CRPS, Bernstein
quantile families the mean quantile (pinball) score over the level grid.
Early stopping tracks validation mean CRPS; the parameters of the best
validation epoch are returned.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data, dist, models
from .autodiff import ParamVector
from .data import Dataset
from .errors import ConfigError, ContractError, DomainError, NumericError
from .models import EMOSModel, ModelConfig, ModelPool, NeuralModel

MIN_EMOS_CELL = 10    # station/month cells smaller than this use the global fit
EMOS_CELL_STEPS = 80  # full-batch Adam steps of the batched cell fit


# ---------------------------------------------------------------------------
# Differentiable losses
# ---------------------------------------------------------------------------


def _pinball_mean(quantiles, y, levels):
    y2 = y[:, None]
    indicator = (y2 < ad.value_of(quantiles)).astype(np.float64)
    return ad.mean(2.0 * (indicator - levels) * (quantiles - y2))


def loss_graph(config: ModelConfig, loss=None):
    """Scalar training-loss function ``fn(P, I)`` for an architecture.

    ``loss`` is "crps" or "quantile_score"; by default the family-matched
    rule (closed-form CRPS for truncated-logistic outputs, mean quantile
    score for Bernstein outputs).  Inputs are those of the forward graph
    plus the observation vector ``y``.
    """
    if loss is None:
        loss = "crps" if config.family == "tlogis" else "quantile_score"
    if loss not in ("crps", "quantile_score"):
        raise ConfigError(f"unknown loss {loss!r}")
    base = models.build_graph(config)
    if loss == "crps":
        crps = dist.crps_map(config.family, config.n_quantile_levels,
                             config.bernstein_degree)
        return lambda P, I: ad.mean(crps(base(P, I), I["y"]))
    levels = dist.level_grid(config.n_quantile_levels)
    quantiles = dist.quantile_map(config.family, config.n_quantile_levels,
                                  config.bernstein_degree)
    return lambda P, I: _pinball_mean(quantiles(base(P, I)), I["y"], levels)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive per-parameter steps, beta=(0.9, 0.999), eps=1e-8."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size, lr):
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values, grad):
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1 ** self.t)
        v_hat = self.v / (1.0 - self.BETA2 ** self.t)
        values -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainReport:
    """Trajectory of one training run.

    ``val_crps[0]`` scores the initial parameters; ``train_losses[e]`` is
    the mean mini-batch loss of epoch e+1.  Equality compares the training
    trajectory and ignores wall time.
    """

    seed: int
    train_losses: list
    val_crps: list
    selected_epoch: int
    wall_time: float = field(compare=False)

    def __post_init__(self):
        if self.val_crps[self.selected_epoch] != min(self.val_crps):
            raise ContractError("selected epoch must minimize validation CRPS")

    def to_dict(self):
        return asdict(self)


def _softplus_inv(x):
    # inverse of log(1 + e^t); valid for x > 0
    return x + np.log1p(-np.exp(-x))


def _init_output_bias(params: ParamVector, config: ModelConfig, obs):
    """Point the initial forecast at the climatology of the training data.

    With zero output bias every network starts its location near 0; for
    observations far from 0 the CRPS gradient is bounded, so Adam would burn
    thousands of steps just drifting to the data scale.  Setting the output
    bias to a climatological distribution removes that plateau.
    """
    mu0, s0 = float(np.mean(obs)), max(float(np.std(obs)), 1e-3)
    if config.architecture in ("drn", "bqn"):
        name = f"b{len(config.hidden_sizes)}"
    else:
        name = "dec_b1"
    bias = params.view(name)
    if config.family == "tlogis":
        bias[:] = (mu0, _softplus_inv(s0))
    else:
        # alpha spanning mu0 +- s0 in equal softplus increments
        bias[0] = mu0 - s0
        bias[1:] = _softplus_inv(2.0 * s0 / config.bernstein_degree)


def _val_crps(config, graph, params, inputs, obs):
    theta = models.eval_chunked(config, graph, params, inputs)
    return dist.theta_mean_crps(theta, obs, config.family,
                                config.n_quantile_levels)


def _check_split(train, val):
    if len(train) == 0 or len(val) == 0:
        raise DomainError("train and validation sets must be non-empty")
    # times are sorted: the first train date at or after each val date
    at = np.searchsorted(train.times, val.times)
    if np.any(train.times[np.minimum(at, len(train) - 1)] == val.times):
        raise DomainError("train and validation sets share times")


def _fit_loop(config, loss, params, inputs, obs, val_graph, val_inputs,
              val_obs, rng):
    """Mini-batch Adam with early stopping; returns (best values, report)."""
    optimizer = Adam(params.size, config.learning_rate)
    val_scores = [_val_crps(config, val_graph, params, val_inputs, val_obs)]
    best_values = params.values.copy()
    best_epoch, since_best = 0, 0
    train_losses = []
    n = obs.size
    epoch = 0
    while epoch < config.max_epochs and since_best < config.patience:
        epoch += 1
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = {k: v[idx] for k, v in inputs.items()}
            batch["y"] = obs[idx]
            try:
                value, gradient = ad.value_and_grad(loss, params, batch)
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch}, batch at {start}: {exc}") from exc
            optimizer.step(params.values, gradient)
            total += value * idx.size
        train_losses.append(total / n)
        score = _val_crps(config, val_graph, params, val_inputs, val_obs)
        val_scores.append(score)
        if score < val_scores[best_epoch]:
            best_epoch, since_best = epoch, 0
            best_values = params.values.copy()
        else:
            since_best += 1
    return best_values, train_losses, val_scores, best_epoch


def train_model(config: ModelConfig, train: Dataset, val: Dataset):
    """Fit one model; returns (fitted model, TrainReport).  EMOS fits
    full-batch from the identity link, then its cells (:func:`_train_emos`).
    """
    _check_split(train, val)
    models.check_model_size(config, train.n_predictors, train.n_scalars,
                            train.n_stations)
    t0 = time.perf_counter()
    emos = config.architecture == "emos"
    norm = None if emos else data.fit_norm(train)
    inputs = models.graph_inputs(config, train, norm)
    params = models.init_params(config, train.n_predictors,
                                train.n_scalars, train.n_stations)
    if emos:
        fit_config = replace(config, batch_size=max(len(train), 1))
    else:
        _init_output_bias(params, config, train.obs)
        fit_config = config

    best_values, train_losses, val_scores, best_epoch = _fit_loop(
        fit_config, loss_graph(config), params, inputs, train.obs,
        models.build_graph(config), models.graph_inputs(config, val, norm),
        val.obs,
        np.random.default_rng(config.seed))

    fields = dict(norm=norm, n_stations=train.n_stations,
                  primary=train.primary, predictor_names=train.predictor_names,
                  scalar_names=train.scalar_names)
    if emos:
        model = _train_emos(config, train, inputs["features"], best_values,
                            fields)
    else:
        model = NeuralModel(config, ParamVector(best_values, params.layout),
                            **fields)
    report = TrainReport(seed=config.seed, train_losses=train_losses,
                         val_crps=val_scores, selected_epoch=best_epoch,
                         wall_time=time.perf_counter() - t0)
    return model, report


def _cell_loss(P, I):
    """Batched EMOS cell loss: each row's CRPS times its ``weight``."""
    crps = dist.theta_crps(models.emos_cell_link(P, I), I["y"], "tlogis", None)
    return ad._sum(crps * I["weight"])


def _fit_cells(config, table, features, obs, cell):
    """EMOS_CELL_STEPS Adam steps on an EMOS coefficient table (see
    :func:`emos_params`); ``cell`` is each row's table row, never 0.  The
    loss sums each cell's mean CRPS (row weight 1/n_c), so every table row
    gets exactly its own cell's gradient and, Adam being elementwise,
    moments; row 0 gets none and keeps its values."""
    inputs = {"features": features, "cell": cell, "y": obs,
              "weight": 1.0 / np.bincount(cell)[cell]}
    optimizer = Adam(table.size, config.learning_rate)
    for _ in range(EMOS_CELL_STEPS):
        _, gradient = ad.value_and_grad(_cell_loss, table, inputs)
        optimizer.step(table.values, gradient)


def _train_emos(config, train: Dataset, features, global_fit, fields):
    """EMOSModel whose every (station, month) cell with at least
    MIN_EMOS_CELL rows is fine-tuned from the global fit, all cells in one
    batched graph; ``features`` are the training rows' EMOS features."""
    keys, cell_of, counts = np.unique(
        np.stack([train.station, train.months()], axis=1), axis=0,
        return_inverse=True, return_counts=True)
    cell_of = cell_of.reshape(-1)
    fitted = counts >= MIN_EMOS_CELL
    # row 0 holds the global fit; every cell row starts from it
    table = models.emos_params(np.tile(global_fit,
                                       1 + np.count_nonzero(fitted)))
    rows = fitted[cell_of]
    if rows.any():
        _fit_cells(config, table, features[rows], train.obs[rows],
                   np.cumsum(fitted)[cell_of[rows]])
    return EMOSModel(config, table, keys[fitted], **fields)


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _fit_one(args):
    config, train, val = args
    return train_model(config, train, val)


def train_pool(config: ModelConfig, train: Dataset, val: Dataset, n=20,
               workers=1):
    """Train ``n`` models with seeds ``config.seed + 0..n-1``.

    Results are ordered by seed and independent of ``workers``; at most
    ``n`` worker processes start, and no more than the CPUs this process
    may run on.
    """
    if n < 1:
        raise DomainError("pool size must be at least 1")
    tasks = [(replace(config, seed=config.seed + i), train, val)
             for i in range(n)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)     # the CPUs this process may use
    workers = min(workers, n, cpus)
    if workers > 1:
        # imported here: loading multiprocessing costs every other stage
        # some 13 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fit_one, tasks))
    else:
        results = [_fit_one(task) for task in tasks]
    return ModelPool(config=config, models=[r[0] for r in results],
                     reports=[r[1] for r in results])
