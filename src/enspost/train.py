"""Optimization loops, validation-based model selection, network pools and
quantile aggregation.

All models are fitted by minimizing a proper scoring rule with Adam:
truncated-logistic families minimize the closed-form CRPS, Bernstein
quantile families the mean quantile (pinball) score over the level grid.
Early stopping tracks validation mean CRPS; the parameters of the best
validation epoch are returned.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import ParamVector
from .data import Dataset, fit_norm
from .dist import (QuantileLevels, crps_tlogis_core, theta_mean_crps,
                   theta_quantiles, tlogis_params)
from .errors import ConfigError, ContractError, DomainError, NumericError
from .models import (EMOSModel, ModelConfig, NeuralModel, build_graph,
                     check_model_size, emos_cell_link, emos_params,
                     eval_chunked, graph_inputs, init_params)

MIN_EMOS_CELL = 10    # station/month cells smaller than this use the global fit
EMOS_CELL_STEPS = 80  # full-batch Adam steps of the batched cell fit


# ---------------------------------------------------------------------------
# Differentiable losses
# ---------------------------------------------------------------------------


def _abs(t):
    return ad.where(t.value >= 0.0, t, -t)


def _pinball_mean(quantiles, y, levels):
    y2 = y[:, None]
    indicator = (y2 < quantiles.value).astype(np.float64)
    return ad.mean(2.0 * (indicator - levels) * (quantiles - y2))


def _crps_sample_mean(quantiles, y):
    """Mean ensemble CRPS of row-sorted quantile matrices (differentiable)."""
    k = quantiles.value.shape[1]
    term1 = ad.mean(_abs(quantiles - y[:, None]), axis=1)
    weights = (2.0 * np.arange(k) - k + 1.0) / (k * k)
    term2 = ad.reshape(quantiles @ weights[:, None], (-1,))
    return ad.mean(term1 - term2)


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
    base = build_graph(config)
    levels = QuantileLevels.equidistant(config.n_quantile_levels).levels

    def fn(P, I):
        theta = base(P, I)
        if loss == "crps" and config.family == "tlogis":
            mu, sigma = tlogis_params(theta)
            return ad.mean(crps_tlogis_core(mu, sigma, I["y"], 0.0))
        quantiles = theta_quantiles(theta, config.family, levels)
        if loss == "quantile_score":
            return _pinball_mean(quantiles, I["y"], levels)
        return _crps_sample_mean(quantiles, I["y"])
    return fn


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class Adam:
    """Adaptive per-parameter steps, beta=(0.9, 0.999), eps=1e-8."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, values, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    return theta_mean_crps(
        eval_chunked(graph, params, inputs), obs, config.family,
        QuantileLevels.equidistant(config.n_quantile_levels))


def _check_split(train, val):
    if len(train) == 0 or len(val) == 0:
        raise DomainError("train and validation sets must be non-empty")
    if set(train.times) & set(val.times):
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
            optimizer.step(params.values, gradient.values)
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
    check_model_size(config, train.n_predictors, train.n_scalars,
                     train.n_stations)
    t0 = time.perf_counter()
    emos = config.architecture == "emos"
    norm = None if emos else fit_norm(train)
    inputs = graph_inputs(config, train, norm)
    if emos:
        # identity link start: mu = ensemble mean, raw scale = ensemble std
        params = ParamVector(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), {
            "gamma_mat": (0, (2, 2)), "gamma_vec": (4, (2,))})
        fit_config = replace(config, batch_size=max(len(train), 1))
    else:
        params = init_params(config, train.n_predictors, train.n_scalars,
                             train.n_stations)
        _init_output_bias(params, config, train.obs)
        fit_config = config

    best_values, train_losses, val_scores, best_epoch = _fit_loop(
        fit_config, loss_graph(config), params, inputs, train.obs,
        build_graph(config), graph_inputs(config, val, norm), val.obs,
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


def _fit_cells(config, table, features, obs, cell):
    """EMOS_CELL_STEPS Adam steps on an EMOS coefficient table (see
    :func:`emos_params`); ``cell`` is each row's table row, never 0.  The
    loss sums each cell's mean CRPS (row weight 1/n_c), so every table row
    gets exactly its own cell's gradient and, Adam being elementwise,
    moments; row 0 gets none and keeps its values."""
    inputs = {"features": features, "cell": cell, "y": obs,
              "weight": 1.0 / np.bincount(cell)[cell]}

    def loss(P, I):
        mu, sigma = tlogis_params(emos_cell_link(P, I))
        crps = crps_tlogis_core(mu, sigma, I["y"], 0.0)
        return ad._sum(crps * I["weight"])

    optimizer = Adam(table.size, config.learning_rate)
    for _ in range(EMOS_CELL_STEPS):
        _, gradient = ad.value_and_grad(loss, table, inputs)
        optimizer.step(table.values, gradient.values)


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
    table = emos_params(np.tile(global_fit, 1 + np.count_nonzero(fitted)))
    rows = fitted[cell_of]
    if rows.any():
        _fit_cells(config, table, features[rows], train.obs[rows],
                   np.cumsum(fitted)[cell_of[rows]])
    return EMOSModel(config, table, keys[fitted], **fields)


# ---------------------------------------------------------------------------
# Pools and aggregation
# ---------------------------------------------------------------------------


@dataclass
class ModelPool:
    """Independently seeded fits of one configuration."""

    config: ModelConfig
    models: list             # of one forecast family
    reports: list = None     # None for pools reloaded from checkpoints

    def __post_init__(self):
        if not self.models:
            raise ContractError("pool needs at least one model")
        if self.reports is not None and len(self.models) != len(self.reports):
            raise ContractError("pool needs matching models and reports")
        families = {m.family for m in self.models}
        if len(families) > 1:
            raise ContractError(f"mixed forecast families {sorted(families)}")

    def __len__(self):
        return len(self.models)

    def val_crps_summary(self):
        """(min, median, max) of the selected-epoch validation CRPS."""
        if self.reports is None:
            raise ContractError("pool was loaded without training reports")
        best = [r.val_crps[r.selected_epoch] for r in self.reports]
        return (float(np.min(best)), float(np.median(best)),
                float(np.max(best)))


def _fit_one(args):
    config, train, val = args
    return train_model(config, train, val)


def train_pool(config: ModelConfig, train: Dataset, val: Dataset, n=20,
               workers=1):
    """Train ``n`` models with seeds ``config.seed + 0..n-1``.

    Results are ordered by seed and independent of ``workers``; at most
    ``n`` worker processes start.
    """
    if n < 1:
        raise DomainError("pool size must be at least 1")
    tasks = [(replace(config, seed=config.seed + i), train, val)
             for i in range(n)]
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            results = list(pool.map(_fit_one, tasks))
    else:
        results = [_fit_one(task) for task in tasks]
    return ModelPool(config=config, models=[r[0] for r in results],
                     reports=[r[1] for r in results])


def resample_and_score(pool: ModelPool, test: Dataset, k=10, reps=50,
                       rng=None, level=None, pit_bins=20):
    """Score ``reps`` random k-subsets of the pool on the test set.

    Draws are without replacement within a draw.  Each pool member's
    quantiles are computed once and kept, so memory grows with the pool
    size, not the draw size; a draw averages them level-wise.  Returns the
    list of per-draw EvaluationReports and a summary dict
    (mean/min/max/spread of the mean CRPS across draws).
    """
    if not 1 <= k <= len(pool):
        raise DomainError(f"draw size {k} outside 1..{len(pool)} (pool size)")
    if reps < 1:
        raise DomainError("reps must be at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    levels = QuantileLevels.equidistant(pool.config.n_quantile_levels)
    if level is None:
        level = float(evaluation.nominal_pi_level(test.n_members))

    stack = np.empty((len(pool), len(test), len(levels)))
    for i, model in enumerate(pool.models):
        stack[i] = model.quantiles(test, levels)
    reports = []
    for _ in range(reps):
        idx = rng.choice(len(pool), size=k, replace=False)
        total = stack[idx[0]].copy()
        for i in idx[1:]:   # in draw order, as np.mean of the drawn list
            total += stack[i]
        reports.append(evaluation.evaluate_quantiles(
            total / k, test.obs, level, levels=levels, pit_bins=pit_bins,
            rng=rng))
    scores = np.array([r.mean_crps for r in reports])
    summary = {
        "mean_crps": float(scores.mean()),
        "min_crps": float(scores.min()),
        "max_crps": float(scores.max()),
        "spread": float(scores.max() - scores.min()),
        "reps": reps,
        "draw_size": k,
    }
    return reports, summary
