"""Independent reference implementations used to check the library.

Everything here is deliberately written against third-party numerics
(scipy, mpmath) or brute-force definitions, not against the library code
under test.  The exceptions are per-row or per-cell references that pin a
batched library path to its one-at-a-time definition: they reuse the
library's building blocks (the Bernstein quantile function, the EMOS loss
graph and Adam) and differ only in how the work is batched.  Likewise the
composed attention reference pins the fused ``autodiff.attention`` op to
the autodiff primitives it replaces, the plain NumPy ensemble CRPS pins the
one that also serves Tensors, the line-by-line NDJSON loader pins the
chunked one, the date-membership split pins the row-slice one, the
``datetime.date`` calendar pins the synthetic generator's, and the per-bin
shuffle, the graph inputs rebuilt from a shuffled dataset and the fully
recomputed preservation matrix pin the importance code that shares column
facts between models and replaces one predictor's part of each model's
inputs.
The run-configuration reference is the JSON Schema the CLI once validated
against, checked by ``jsonschema``.
"""

import copy
import dataclasses
import datetime
import json
import sys

import jsonschema
import mpmath
import numpy as np
from scipy import integrate, special, stats

from enspost import autodiff as ad
from enspost.data import (SUMMARY_KINDS, Dataset, SynthConfig,
                          _check_record, derive_seed, summary_statistic)
from enspost.dist import _trunc_tail_value, bqn_quantile
from enspost.errors import ConfigError, DomainError
from enspost.importance import (PerturbationSpec, _member_ranks,
                                conditional_bins, spearman)
from enspost.models import ModelConfig, graph_inputs
from enspost.train import (EMOS_CELL_STEPS, MIN_EMOS_CELL, Adam,
                           loss_graph)


# ---------------------------------------------------------------------------
# CRPS oracles
# ---------------------------------------------------------------------------


def tlogis_cdf_ref(x, mu, sigma, lower=0.0):
    """CDF of a logistic(mu, sigma) left-truncated (renormalized) at ``lower``."""
    x = np.asarray(x, dtype=np.float64)
    base = stats.logistic.cdf(x, loc=mu, scale=sigma)
    at_lb = stats.logistic.cdf(lower, loc=mu, scale=sigma)
    return np.where(x < lower, 0.0, (base - at_lb) / (1.0 - at_lb))


def crps_tlogis_quad(mu, sigma, y, lower=0.0):
    """CRPS of the truncated logistic by adaptive quadrature.

    Integrates (F(x) - 1{y <= x})^2 over a window wide enough that the
    logistic tails contribute less than the quadrature tolerance.
    """
    span = 60.0 * sigma + abs(mu - y) + abs(mu - lower)
    lo = min(y, lower) - 1.0
    hi = max(mu, y, lower) + span

    def integrand(x):
        return (tlogis_cdf_ref(x, mu, sigma, lower) - (x >= y)) ** 2

    total, _ = integrate.quad(integrand, lo, hi,
                              points=[lower, y, mu], limit=400,
                              epsabs=1e-10, epsrel=1e-10)
    return total


def crps_tlogis_mp(mu, sigma, y, lower=0.0, dps=50):
    """High-precision CRPS of the truncated logistic via mpmath.

    Used for the extreme regimes (heavy truncation, tiny scales) where
    float64 quadrature itself loses digits.
    """
    with mpmath.workdps(dps):
        mu, sigma, y, lower = map(mpmath.mpf, (mu, sigma, y, lower))

        def cdf(x):
            # survival-ratio form stays exact under extreme truncation,
            # where the plain renormalization 1 - F(lower) underflows
            sf_x = 1 / (1 + mpmath.e ** ((x - mu) / sigma))
            sf_lb = 1 / (1 + mpmath.e ** ((lower - mu) / sigma))
            return 1 - sf_x / sf_lb

        def integrand(x):
            f = cdf(x) if x >= lower else mpmath.mpf(0)
            return (f - (1 if x >= y else 0)) ** 2

        points = sorted({lower, y, mu})
        segments = ([min(points) - 80 * sigma - 1] + points
                    + [max(points) + 80 * sigma + 1])
        total = mpmath.mpf(0)
        for a, b in zip(segments[:-1], segments[1:]):
            if b > a:
                total += mpmath.quad(integrand, [a, b])
        return float(total)


def tlogis_cdf_mp(x, mu, sigma, lower=0.0, dps=60):
    """CDF of the truncated logistic via mpmath, as one minus the survival
    ratio S(x) / S(lower), which stays exact under extreme truncation."""
    if x <= lower:
        return 0.0
    with mpmath.workdps(dps):
        x, mu, sigma, lower = map(mpmath.mpf, (x, mu, sigma, lower))
        sf_x = 1 / (1 + mpmath.e ** ((x - mu) / sigma))
        sf_lb = 1 / (1 + mpmath.e ** ((lower - mu) / sigma))
        return float(1 - sf_x / sf_lb)


def tlogis_quantile_mp(mu, sigma, p, lower=0.0, dps=60):
    """Inverse CDF of the truncated logistic via mpmath, in the textbook
    form mu + sigma logit(F(lower) + p (1 - F(lower)))."""
    with mpmath.workdps(dps):
        mu, sigma, p, lower = map(mpmath.mpf, (mu, sigma, p, lower))
        f_lb = 1 / (1 + mpmath.e ** ((mu - lower) / sigma))
        q = f_lb + p * (1 - f_lb)
        return float(mu + sigma * mpmath.log(q / (1 - q)))


def crps_ensemble_exact(members, y):
    """Exact CRPS of an empirical (step-function) forecast.

    Integrates (ECDF(x) - 1{y <= x})^2 segment by segment over the
    breakpoints; each segment has a constant integrand, so the result is
    exact up to float rounding.
    """
    members = np.sort(np.asarray(members, dtype=np.float64))
    points = np.unique(np.concatenate([members, [y]]))
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        mid = 0.5 * (a + b)
        ecdf = np.count_nonzero(members <= mid) / members.size
        heav = 1.0 if mid >= y else 0.0
        total += (ecdf - heav) ** 2 * (b - a)
    return total


def crps_ensemble_pairwise(members, y):
    """Energy form: E|X - y| - E|X - X'| / 2 over the empirical measure."""
    members = np.asarray(members, dtype=np.float64)
    term1 = np.mean(np.abs(members - y))
    term2 = 0.5 * np.mean(np.abs(members[:, None] - members[None, :]))
    return term1 - term2


def crps_sample(values, y):
    """CRPS of one empirical (ensemble) forecast with sorted members."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("ensemble must contain at least one member")
    m = values.size
    term1 = np.mean(np.abs(values - y))
    k = np.arange(m)
    # for sorted x: sum_ij |x_i - x_j| = 2 * sum_k x_k (2k - m + 1)
    term2 = np.sum(values * (2.0 * k - m + 1.0)) / (m * m)
    return float(term1 - term2)


def crps_sample_batch_numpy(values, y):
    """The ensemble CRPS as plain NumPy, the expression
    ``dist.crps_sample_batch`` had before it also served Tensors; on arrays
    the library must give these bits."""
    values = np.asarray(values, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = values.shape[-1]
    term1 = np.mean(np.abs(values - y[..., None]), axis=-1)
    k = np.arange(m)
    term2 = values @ (2.0 * k - m + 1.0) / (m * m)
    return term1 - term2


def pinball_ref(q, y, p):
    """Textbook pinball loss of quantile forecast q at level p."""
    return (1.0 - p) * (q - y) if y < q else p * (y - q)


def quantile_score_mean(dist, y, levels):
    """Mean pinball score 2(1{y < Q(tau)} - tau)(Q(tau) - y) over an array
    of levels of a library ``BernsteinQuantile``."""
    q = bqn_quantile(dist, levels)
    indicator = (y < q).astype(np.float64)
    return float(np.mean(2.0 * (indicator - levels) * (q - y)))


# ---------------------------------------------------------------------------
# Bernstein polynomial oracle
# ---------------------------------------------------------------------------


def bernstein_quantile_ref(alpha, p):
    """Quantile polynomial sum_l alpha_l C(d,l) p^l (1-p)^(d-l) via binom pmf."""
    alpha = np.asarray(alpha, dtype=np.float64)
    d = alpha.size - 1
    basis = stats.binom.pmf(np.arange(d + 1), d, p)
    return float(alpha @ basis)


# ---------------------------------------------------------------------------
# EMOS references: the link per row, the cell fit one cell at a time
# ---------------------------------------------------------------------------


def emos_forward(row, features):
    """Affine-linear EMOS link ``features @ gamma_mat + gamma_vec`` on
    [primary mean, primary std] for one 6-entry coefficient table row
    (gamma_mat flattened row-major, then gamma_vec)."""
    row = np.asarray(row, dtype=np.float64)
    return np.asarray(features, dtype=np.float64) @ row[:4].reshape(2, 2) \
        + row[4:]


def emos_cells_sequential(config, train, start):
    """Per-(station, month) EMOS fine-tuning, one cell at a time.

    Every cell with at least MIN_EMOS_CELL training rows starts from the
    6 coefficients ``start`` and takes EMOS_CELL_STEPS full-batch Adam steps
    on its own mean CRPS.  Returns {(station, month): 6 coefficients} in
    sorted key order.
    """
    layout = {"gamma_mat": (0, (2, 2)), "gamma_vec": (4, (2,))}
    features = graph_inputs(config, train, None)["features"]
    loss = loss_graph(config)
    months = train.months()
    cells = {}
    for station in np.unique(train.station):
        for month in np.unique(months):
            mask = (train.station == station) & (months == month)
            if mask.sum() < MIN_EMOS_CELL:
                continue
            params = ad.ParamVector(np.array(start, dtype=np.float64), layout)
            optimizer = Adam(params.size, config.learning_rate)
            inputs = {"features": features[mask], "y": train.obs[mask]}
            for _ in range(EMOS_CELL_STEPS):
                _, gradient = ad.value_and_grad(loss, params, inputs)
                optimizer.step(params.values, gradient)
            cells[(int(station), int(month))] = params.values
    return cells


# ---------------------------------------------------------------------------
# Statistics oracles
# ---------------------------------------------------------------------------


def summary_stat_ref(values, kind):
    """Reference ensemble summary statistics via scipy/numpy."""
    values = np.asarray(values, dtype=np.float64)
    if kind == "mean":
        return float(values.mean())
    if kind == "std":
        return float(values.std(ddof=1))
    if kind == "min":
        return float(values.min())
    if kind == "max":
        return float(values.max())
    if kind == "range":
        return float(values.max() - values.min())
    if kind == "iqr":
        return float(stats.iqr(values))
    if kind == "skewness":
        if np.ptp(values) == 0:
            return 0.0
        return float(stats.skew(values, bias=True))
    if kind == "kurtosis":
        if np.ptp(values) == 0:
            return 0.0
        return float(stats.kurtosis(values, bias=True, fisher=True))
    raise ValueError(kind)


def spearman_ref(x, y):
    return float(stats.spearmanr(x, y).statistic)


# ---------------------------------------------------------------------------
# Importance references: facts recomputed per shuffle, bins drawn one by one
# ---------------------------------------------------------------------------


def _rank_aware_transplant(col, donor_perm):
    """Donor rows reordered to the receiving rows' member rank patterns."""
    donor_sorted = np.sort(col[donor_perm], axis=1)
    rows = np.arange(col.shape[0])[:, None]
    return donor_sorted[rows, _member_ranks(col)]


def perturb_per_bin(col, spec, rng=None):
    """The shuffling operators with every fact recomputed per call and the
    conditional shuffle drawn one bin at a time, ``rng.permutation`` of each
    bin's members in bin order.  ``rng`` defaults to one seeded by
    ``spec.seed``."""
    if len(col) < 2:
        raise DomainError("need at least two samples to shuffle")
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    return members_per_bin(col, spec, donors_per_bin(col, spec, rng), rng)


def donors_per_bin(col, spec, rng):
    """Donor row of each row of an (n, M) column under ``spec``."""
    if spec.kind == "conditional":
        return conditional_donors_per_bin(col, spec, rng)
    return rng.permutation(len(col))


def members_per_bin(col, spec, donors, rng):
    """The shuffled column of :func:`perturb_per_bin` from its donor rows."""
    if spec.kind == "fully_random":
        t, m = col.shape
        donor = col[donors]
        member_perms = np.argsort(rng.random((t, m)), axis=1)
        return donor[np.arange(t)[:, None], member_perms]
    return _rank_aware_transplant(col, donors)


def conditional_donors_per_bin(col, spec, rng):
    """Donor row of each row under the conditional shuffle, bin by bin."""
    bin_ids, n_bins = conditional_bins(summary_statistic(col, spec.statistic),
                                       spec.bins)
    donor_perm = np.arange(len(col))
    for b in range(n_bins):
        members = np.nonzero(bin_ids == b)[0]
        donor_perm[members] = members[rng.permutation(members.size)]
    return donor_perm


def with_ensemble(dataset, ens):
    """A Dataset holding an (n, M, p) ``ens`` block in place of the
    dataset's own, built through the constructor."""
    return Dataset(ens, dataset.scalars, dataset.station, dataset.times,
                   dataset.obs, dataset.lead_hours, dataset.predictor_names,
                   dataset.scalar_names, dataset.primary, dataset.n_stations)


def rebuilt_shuffled_inputs(model, dataset):
    """``model.shuffled_inputs`` of the dataset recomputed from a Dataset
    holding the shuffled block (donor rows are read from ``members()``)."""
    def shuffled_inputs(inputs, predictor, donors, members):
        ens = dataset.ens.copy()
        ens[:, :, predictor] = members()
        return model.inputs(with_ensemble(dataset, ens))
    return shuffled_inputs


def preservation_matrix_recomputed(col, predictor, bins, seed, statistics):
    """Preservation matrix of an (n, M) column: each statistic computed on
    the shuffled column and each Spearman correlation from scratch."""
    original = {s: summary_statistic(col, s) for s in statistics}
    matrix = np.empty((len(statistics), len(statistics)))
    for i, cond in enumerate(statistics):
        spec = PerturbationSpec(predictor, "conditional", statistic=cond,
                                bins=bins,
                                seed=derive_seed(seed, "preserve", predictor,
                                                 cond))
        shuffled = perturb_per_bin(col, spec)
        for j, measured in enumerate(statistics):
            matrix[i, j] = spearman(original[measured],
                                    summary_statistic(shuffled, measured))
    return matrix


# ---------------------------------------------------------------------------
# Line-by-line NDJSON loader
# ---------------------------------------------------------------------------


def load_ndjson_per_line(path, primary=0, n_stations=None):
    """An NDJSON forecast file parsed, checked and converted one record at
    a time."""
    rows, first = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"line {lineno}: invalid JSON ({exc})") from exc
            _check_record(rec, lineno)
            ens = np.array(list(rec["ens"].values()), dtype=np.float64).T
            scal = np.array(list(rec["scalars"].values()), dtype=np.float64)
            layout = (list(rec["ens"]), list(rec["scalars"]), ens.shape,
                      rec["lead"])
            first = first or layout
            if layout != first:
                raise ConfigError(f"line {lineno}: predictor names, scalar "
                                  f"names, ensemble size or lead differ from "
                                  f"the first record")
            rows.append((ens, scal, rec["station"], rec["time"],
                         float(rec["obs"])))
    if not rows:
        raise ConfigError(f"{path}: empty dataset")
    predictor_names, scalar_names, _, lead = first
    return Dataset(
        ens=np.stack([r[0] for r in rows]),
        scalars=np.stack([r[1] for r in rows]),
        station=[r[2] for r in rows],
        times=[r[3] for r in rows],
        obs=[r[4] for r in rows],
        lead_hours=lead,
        predictor_names=predictor_names,
        scalar_names=scalar_names,
        primary=primary,
        n_stations=n_stations,
    )


def split_temporal_by_dates(dataset, fractions):
    """(train, val, test) blocks of a dataset, each the rows whose date lies
    in its share of the sorted distinct dates, picked by set membership."""
    times = sorted(set(dataset.times))
    n_train = int(round(fractions[0] * len(times)))
    n_val = int(round(fractions[1] * len(times)))
    cuts = [times[:n_train], times[n_train:n_train + n_val],
            times[n_train + n_val:]]
    return tuple(dataset.subset(np.isin(dataset.times, block))
                 for block in cuts)


def synthetic_calendar(days):
    """(ISO dates, yday_cos column) of the first ``days`` synthetic days,
    counted from 2016-01-01 with ``datetime.date`` and ``tm_yday``."""
    dates = [datetime.date(2016, 1, 1) + datetime.timedelta(days=k)
             for k in range(days)]
    yday = np.array([dt.timetuple().tm_yday for dt in dates],
                    dtype=np.float64)
    return ([dt.isoformat() for dt in dates],
            np.cos(2 * np.pi * yday / 365.0))


# ---------------------------------------------------------------------------
# Pool aggregation
# ---------------------------------------------------------------------------


def aggregate_quantiles(models, dataset, n_levels):
    """Level-wise mean of the models' quantiles; (n, n_levels)."""
    return np.mean([m.quantiles(dataset, n_levels) for m in models], axis=0)


# ---------------------------------------------------------------------------
# Gradient oracles
# ---------------------------------------------------------------------------


def central_difference(f, x, h=1e-6):
    """Plain central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def softmax(a, axis=-1):
    """Softmax along ``axis`` as one autodiff tape node."""
    av = ad.value_of(a)
    z = av - av.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        a._accumulate(y * (g - inner))

    return ad._node(y, (a,), backward, "softmax")


def transpose(a, axes):
    """Axis permutation as one autodiff tape node."""
    inverse = np.argsort(axes)
    return ad._node(ad.value_of(a).transpose(axes), (a,),
                    lambda g: a._accumulate(g.transpose(inverse)),
                    "transpose")


def where(cond, a, b):
    """Elementwise selection on a constant boolean condition as one
    autodiff tape node."""
    cond = np.asarray(cond, dtype=bool)
    av, bv = ad.value_of(a), ad.value_of(b)

    def backward(g):
        if isinstance(a, ad.Tensor):
            a._accumulate(ad._unbroadcast(np.where(cond, g, 0.0), av.shape))
        if isinstance(b, ad.Tensor):
            b._accumulate(ad._unbroadcast(np.where(cond, 0.0, g), bv.shape))

    return ad._node(np.where(cond, av, bv), (a, b), backward, "where")


def exp(a):
    """Elementwise exponential as one autodiff tape node."""
    y = np.exp(ad.value_of(a))
    return ad._node(y, (a,), lambda g: a._accumulate(g * y), "exp")


def trunc_tail(a):
    """Tail term of the truncated-logistic CRPS (``dist._trunc_tail_value``)
    as one autodiff tape node, with derivative 2 sigmoid(lb) g(lb) - 1."""
    av = ad.value_of(a)
    y = _trunc_tail_value(av)

    def backward(g):
        a._accumulate(g * (2.0 * ad._sigmoid(av) * y - 1.0))

    return ad._node(y, (a,), backward, "trunc_tail")


def crps_tlogis_composed(mu, sigma, y):
    """Closed-form truncated-logistic CRPS as a chain of elementwise ops:
    the expressions of ``dist.crps_tlogis_core``, whose backward the tape
    composes op by op."""
    y_std = (y - mu) / sigma
    lb = (0.0 - mu) / sigma
    above = ad.value_of(y_std) > ad.value_of(lb)
    t = where(above, y_std - lb, 0.0 * y_std)
    deep = ad.value_of(lb) >= 300.0
    lb_c = where(deep, 300.0 + 0.0 * lb, lb)
    amp = exp(ad.softplus(lb_c))
    mid_direct = 2.0 * amp * (ad.softplus(-(lb_c + t)) - ad.softplus(-lb_c))
    mid_limit = 2.0 * (exp(-t) - 1.0)
    mid = where(deep, mid_limit, mid_direct)
    core = t + mid + trunc_tail(lb_c)
    below_obs = ad.value_of(y) < 0.0
    below = where(below_obs, (0.0 - y) / sigma, 0.0 * y_std)
    return sigma * (core + below)


def multihead_attention_ref(queries, keys, values, wq, wk, wv, wo, heads):
    """Multi-head softmax attention composed from autodiff primitives.

    The reference for the fused ``autodiff.attention``: the same projections,
    head split, scaled scores, softmax, value mix, head merge and output map,
    each its own tape node with its own backward.  A (1, k, width) query
    broadcasts on the batch axis.
    """
    lw = wq.shape[-1]

    def split(t):
        n, s, _ = t.shape
        return transpose(ad.reshape(t, (n, s, heads, lw // heads)),
                         (0, 2, 1, 3))

    q, k, v = split(queries @ wq), split(keys @ wk), split(values @ wv)
    scores = (q @ transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(lw / heads))
    mixed = softmax(scores, axis=-1) @ v
    n, _, n_q, _ = mixed.shape
    return ad.reshape(transpose(mixed, (0, 2, 1, 3)), (n, n_q, lw)) @ wo


# ---------------------------------------------------------------------------
# Calibration oracles
# ---------------------------------------------------------------------------


def ensemble_pit(values, y, rng):
    """Unified PIT of an observation against an empirical forecast.

    Rank position among the values, uniformly randomized across ties, mapped
    to (0, 1) by the (M+1) convention.
    """
    values = np.asarray(values, dtype=np.float64)
    below = int(np.count_nonzero(values < y))
    ties = int(np.count_nonzero(values == y))
    return (below + rng.uniform() * (1 + ties)) / (values.size + 1.0)


def multinomial_band(n, bins, n_sigma=4.0):
    """Symmetric per-bin count band for a uniform multinomial sample."""
    p = 1.0 / bins
    center = n * p
    half = n_sigma * np.sqrt(n * p * (1.0 - p))
    return center - half, center + half


def softplus_ref(x):
    return special.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# Run configuration reference: the draft-2020-12 schema
# ---------------------------------------------------------------------------

_JSON_TYPES = {str: {"type": "string"}, int: {"type": "integer"},
               float: {"type": "number"},
               tuple: {"type": "array", "items": {"type": "integer"}}}


def _properties(config_class, **rules):
    """JSON-schema properties of a config dataclass, typed by its defaults;
    each rule adds its keywords to a field's schema, and an int rule is the
    field's minimum."""
    props = {f.name: dict(_JSON_TYPES[type(f.default)])
             for f in dataclasses.fields(config_class)}
    for name, rule in rules.items():
        props[name].update({"minimum": rule} if type(rule) is int else rule)
    return props


RUN_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "enspost run configuration",
    "type": "object",
    "properties": {
        "seed": {"type": "integer"},
        "out": {"type": "string"},
        "synth": {
            "type": "object",
            "properties": _properties(
                SynthConfig, stations=1, members=2,
                # 2016-01-01 plus 2 916 095 days is 9999-12-31
                days={"minimum": 1, "maximum": 2_916_096},
                lead_hours={"minimum": -2**63, "maximum": 2**63 - 1}),
            "additionalProperties": False,
        },
        "data": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "splits": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 3, "maxItems": 3,
                },
                "primary": {"type": "integer", "minimum": 0},
            },
            "required": ["path"],
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": _properties(
                ModelConfig, latent_width=1, attention_heads=1,
                n_attention_blocks=1, bernstein_degree=1, embedding_dim=1,
                n_quantile_levels=1, batch_size=1, max_epochs=0, patience=0,
                architecture={"enum": ["emos", "drn", "bqn", "ed-drn",
                                       "ed-bqn", "st-drn", "st-bqn"]},
                pooling={"enum": ["mean", "max", "min", "attention"]},
                hidden_sizes={"items": {"type": "integer", "minimum": 1},
                              "minItems": 2},
                learning_rate={"exclusiveMinimum": 0}),
            "additionalProperties": False,
        },
        "train": {
            "type": "object",
            "properties": {
                "pool_size": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "eval": {
            "type": "object",
            "properties": {
                "checkpoints": {"type": "string"},
                "draw_size": {"type": "integer", "minimum": 1},
                "reps": {"type": "integer", "minimum": 1},
                "pit_bins": {"type": "integer", "minimum": 2,
                             # bins + 1 float64 edges np.arange makes:
                             # it refuses 2**60 - 64 of them
                             "maximum": np.iinfo(np.intp).max // 8 - 65},
                "level": {"type": "number",
                          "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
            "additionalProperties": False,
        },
        "importance": {
            "type": "object",
            "properties": {
                "checkpoints": {"type": "string"},
                "bins": {"type": "integer", "minimum": 2},
                "statistics": {
                    "type": "array",
                    "items": {"type": "string", "enum": list(SUMMARY_KINDS)},
                    "minItems": 1, "uniqueItems": True,
                },
                "predictors": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "uniqueItems": True,
                },
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def run_config_validator(strict=False):
    """A ``jsonschema`` validator for :data:`RUN_CONFIG_SCHEMA`.

    ``strict`` adds the three rules the schema misses and the CLI needs:
    an integer is a JSON integer (no ``10.0``), a number is finite and fits
    a float64, and every seed is at least 0.
    """
    base = jsonschema.Draft202012Validator
    if not strict:
        return base(RUN_CONFIG_SCHEMA)
    types = base.TYPE_CHECKER.redefine_many({
        "integer": lambda checker, v: type(v) is int,
        "number": lambda checker, v: (type(v) in (int, float)
                                      and abs(v) <= sys.float_info.max)})
    schema = copy.deepcopy(RUN_CONFIG_SCHEMA)
    props = schema["properties"]
    for fields in (props, props["synth"]["properties"],
                   props["model"]["properties"]):
        fields["seed"]["minimum"] = 0
    return jsonschema.validators.extend(base, type_checker=types)(schema)
