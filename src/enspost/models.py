"""Inference bodies mapping forecast cases to raw distribution parameters.

Four families share the same output contract (a raw parameter matrix theta of
shape (n, D)): EMOS on primary mean/std with per-station-per-month
coefficients, a summary-statistic MLP (DRN/BQN benchmark), an
encoder-decoder set pooling network and a set transformer.  The network
families consume standardized predictors plus a learned station embedding;
all of them are permutation invariant in the ensemble members.  Training,
forecasts and importance all build graph inputs with :func:`graph_inputs`;
importance builds them once per model and replaces one predictor's part of
them per shuffle (:meth:`_FittedModel.shuffled_inputs`).  Scoring forwards
run in row blocks sized in bytes (:func:`eval_chunked`): each block's widest
array -- a set transformer's (heads, M, M) attention scores, an ``ed-*``
model's (M, latent_width) latents, a summary model's widest layer -- stays
within BLOCK_BYTES, about 1 MiB.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import data
from . import dist as dist_mod
from .autodiff import ParamVector
from .data import Dataset, _POSITIVE, _STRING, _Check
from .errors import ConfigError, ContractError

ARCHITECTURES = ("emos", "drn", "bqn", "ed-drn", "ed-bqn", "st-drn", "st-bqn")
POOLING_KINDS = ("mean", "max", "min", "attention")
BLOCK_BYTES = 1 << 20  # bytes of a scoring forward's widest array per block


@dataclass(frozen=True)
class ModelConfig:
    architecture: str = "drn"
    hidden_sizes: tuple = (64, 32)
    latent_width: int = 64
    attention_heads: int = 8
    n_attention_blocks: int = 3
    bernstein_degree: int = 12
    embedding_dim: int = 8
    pooling: str = "attention"
    n_quantile_levels: int = dist_mod.DEFAULT_N_LEVELS
    learning_rate: float = 5e-3
    batch_size: int = 512
    max_epochs: int = 150
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        self.check(self.to_dict())

    @classmethod
    def check(cls, d, section=""):
        """ConfigError naming the field (of ``section``) of the JSON config
        ``d`` that MODEL_CHECKS rejects, or heads that do not divide
        latent_width; a missing field reads as its default."""
        data.check_fields(d, MODEL_CHECKS, section)
        width, heads = (d.get(k, getattr(cls, k))
                        for k in ("latent_width", "attention_heads"))
        if width % heads:
            raise data._rejected(f"{section}.attention_heads".lstrip("."),
                                 f"a divisor of latent_width {width}", heads)

    @property
    def family(self):
        return "bqn" if self.architecture.endswith("bqn") else "tlogis"

    @property
    def n_outputs(self):
        return self.bernstein_degree + 1 if self.family == "bqn" else 2

    def to_dict(self):
        """The fields as the JSON values they serialize to."""
        return {k: list(v) if type(v) is tuple else v
                for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d, section=""):
        """The config of JSON fields that :meth:`check` accepts, naming the
        field of ``section`` it rejects; a missing field takes its
        default."""
        cls.check(d, section)
        return cls(**{k: tuple(v) if type(v) is list else v
                      for k, v in d.items()})


MODEL_CHECKS = data._fields(
    ModelConfig, architecture=data._one_of(ARCHITECTURES),
    pooling=data._one_of(POOLING_KINDS),
    hidden_sizes=data._list(data._integer(1), least=2),
    latent_width=1, attention_heads=1, n_attention_blocks=1,
    bernstein_degree=1, embedding_dim=1, n_quantile_levels=1, batch_size=1,
    learning_rate=_POSITIVE, max_epochs=0, patience=0, seed=0)


# ---------------------------------------------------------------------------
# Summary statistics of the ensemble block
# ---------------------------------------------------------------------------


def summary_base(ens, primary):
    """Primary mean/std plus auxiliary means of an (n, M, p) block: an
    (n, 2 + (p - 1)) array whose every column is
    :func:`data.summary_statistic` of one predictor's members, so it has
    the same bits under any member permutation of a row.
    """
    ens = np.asarray(ens, dtype=np.float64)
    if ens.ndim != 3:
        raise ConfigError("ens must be (n, M, p)")
    columns = [(primary, "mean"), (primary, "std")] + [
        (j, "mean") for j in range(ens.shape[-1]) if j != primary]
    return np.stack([data.summary_statistic(ens[..., j], kind)
                     for j, kind in columns], axis=-1)


def summary_columns(primary, predictor):
    """Columns of :func:`summary_base` computed from one predictor's
    members."""
    if predictor == primary:
        return [0, 1]
    return [2 + predictor - (predictor > primary)]


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def _glorot(rng, shape):
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _initializer(rng):
    def init(name, shape):
        if name == "gamma_mat":
            # EMOS's identity link: mu = ensemble mean, raw scale = its std
            return np.eye(2)
        if len(shape) == 2 and not name.startswith(("emb", "pool_q")):
            return _glorot(rng, shape)
        if name.startswith(("emb", "pool_q")):
            return rng.normal(0.0, 0.1, size=shape)
        return np.zeros(shape)
    return init


def _attention_shapes(prefix, width):
    return {f"{prefix}_w{k}": (width, width) for k in ("q", "k", "v", "o")}


def param_shapes(config: ModelConfig, n_predictors, n_scalars, n_stations):
    """Named parameter slices for a given architecture and data dimensions."""
    arch = config.architecture
    d_out = config.n_outputs
    lw = config.latent_width
    shapes = {}
    if arch == "emos":
        return {"gamma_mat": (2, 2), "gamma_vec": (2,)}
    shapes["emb"] = (n_stations, config.embedding_dim)
    if arch in ("drn", "bqn"):
        f = 2 + (n_predictors - 1) + n_scalars + config.embedding_dim
        sizes = [f, *config.hidden_sizes, d_out]
        for i in range(len(sizes) - 1):
            shapes[f"w{i}"] = (sizes[i], sizes[i + 1])
            shapes[f"b{i}"] = (sizes[i + 1],)
        return shapes
    member_dim = n_predictors + n_scalars + config.embedding_dim
    if arch.startswith("ed-"):
        shapes.update({
            "enc_w0": (member_dim, lw), "enc_b0": (lw,),
            "enc_w1": (lw, lw), "enc_b1": (lw,),
        })
    else:  # set transformer
        shapes.update({"in_w": (member_dim, lw), "in_b": (lw,)})
        for i in range(config.n_attention_blocks):
            shapes.update(_attention_shapes(f"blk{i}", lw))
            for j in range(3):
                shapes[f"blk{i}_m{j}w"] = (lw, lw)
                shapes[f"blk{i}_m{j}b"] = (lw,)
    if arch.startswith("st-") or config.pooling == "attention":
        shapes["pool_q"] = (1, lw)
        shapes.update(_attention_shapes("pool", lw))
    h0 = config.hidden_sizes[0]
    shapes.update({
        "dec_w0": (lw, h0), "dec_b0": (h0,),
        "dec_w1": (h0, d_out), "dec_b1": (d_out,),
    })
    return shapes


def _param_counts(config, dims):
    """float64 values per parameter slice (one attention block standing for
    all) and in the whole vector, so that no block count is enumerated."""
    shapes = param_shapes(replace(config, n_attention_blocks=1), *dims)
    counts = {name: math.prod(int(d) for d in shape)
              for name, shape in shapes.items()}
    block = sum(n for name, n in counts.items() if name.startswith("blk0_"))
    return counts, sum(counts.values()) + (config.n_attention_blocks - 1) * block


def _oversized(config, dims):
    """What holds more float64 values than NumPy indexes, the first such
    parameter slice or else the whole vector, and its count; None if none
    does."""
    counts, total = _param_counts(config, dims)
    for name, count in counts.items():
        if data._too_large(count):
            return f"parameter {name}", count
    return ("the parameter vector", total) if data._too_large(total) else None


def check_model_size(config: ModelConfig, n_predictors, n_scalars,
                     n_stations, section="model"):
    """ConfigError naming the fields (of ``section``) that make the quantile
    level grid, a parameter slice or the parameter vector hold more bytes
    than NumPy indexes.  Counts are Python ints, so nothing is allocated."""
    if data._too_large(config.n_quantile_levels):
        raise ConfigError(
            f"config field {section}.n_quantile_levels: {config.n_quantile_levels}"
            " float64 levels: more bytes than NumPy indexes")
    dims = (n_predictors, n_scalars, n_stations)
    found = _oversized(config, dims)
    if found is None:
        return
    # blame each size field whose least value moves or removes the overflow
    least = {"embedding_dim": 1,
             "hidden_sizes": (1,) * len(config.hidden_sizes),
             "latent_width": config.attention_heads,
             "n_attention_blocks": 1, "bernstein_degree": 1}
    fields = [name for name, value in least.items() if (_oversized(
        replace(config, **{name: value}), dims) or ("",))[0] != found[0]]
    raise ConfigError(
        f"config field {', '.join(f'{section}.{f}' for f in fields or least)}: "
        f"{found[0]} would hold {found[1]} float64 values: more bytes than "
        "NumPy indexes")


def init_params(config: ModelConfig, n_predictors, n_scalars, n_stations,
                rng=None):
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return ParamVector.build(
        param_shapes(config, n_predictors, n_scalars, n_stations),
        _initializer(rng))


# ---------------------------------------------------------------------------
# Differentiable building blocks
# ---------------------------------------------------------------------------


def mlp_forward(x, P, prefix, n_layers):
    """Affine stack with tanh hidden activations and a linear output."""
    h = x
    for i in range(n_layers):
        h = ad.linear(h, P[f"{prefix}w{i}"], P[f"{prefix}b{i}"])
        if i < n_layers - 1:
            h = ad.tanh(h)
    return h


def attention_pool(latents, P, heads):
    """Attend a learnable query over the member latents; returns (n, L)."""
    lw = latents.shape[-1]
    query = ad.reshape(P["pool_q"], (1, 1, lw))
    out = ad.attention(query, latents, latents, P["pool_wq"], P["pool_wk"],
                       P["pool_wv"], P["pool_wo"], heads)
    n = out.shape[0]
    return ad.reshape(out, (n, lw))


def pool(latents, kind, P=None, heads=None):
    """Permutation-invariant reduction over the member axis of (n, M, L)."""
    if kind == "mean":
        return ad.mean(latents, axis=1)
    if kind == "max":
        return ad.amax(latents, axis=1)
    if kind == "min":
        return ad.amin(latents, axis=1)
    if kind == "attention":
        return attention_pool(latents, P, heads)
    raise ConfigError(f"unknown pooling kind {kind!r}")


def _member_inputs(P, I):
    """Concatenate member predictors with scalars and the station embedding,
    replicated across members."""
    ens = I["ens"]                       # (n, M, p)
    n, m, _ = ens.shape
    emb = ad.embedding(P["emb"], I["station"])   # (n, E)
    context = ad.concat([I["scalars"], emb], axis=-1)
    context = ad.reshape(context, (n, 1, context.shape[-1]))
    tile = np.ones((1, m, 1))
    context = ad.mul(context, tile)      # broadcast across members
    return ad.concat([ens, context], axis=-1)


def build_graph(config: ModelConfig):
    """Forward graph from inputs to raw theta for one architecture.

    Returns a function ``fn(P, I)``.  Input arrays expected: summary models
    use ``features`` (n, F) and integer ``station`` (n,); set models use
    ``ens`` (n, M, p), ``scalars`` (n, q) and integer ``station`` (n,).
    """
    arch = config.architecture
    if arch == "emos":
        def fn(P, I):
            return ad.linear(I["features"], P["gamma_mat"], P["gamma_vec"])
        return fn
    if arch in ("drn", "bqn"):
        n_layers = len(config.hidden_sizes) + 1

        def fn(P, I):
            emb = ad.embedding(P["emb"], I["station"])
            x = ad.concat([I["features"], emb], axis=-1)
            return mlp_forward(x, P, "", n_layers)
        return fn
    if arch.startswith("ed-"):
        def fn(P, I):
            latents = mlp_forward(_member_inputs(P, I), P, "enc_", 2)
            pooled = pool(latents, config.pooling, P, config.attention_heads)
            return mlp_forward(pooled, P, "dec_", 2)
        return fn

    def fn(P, I):
        x = _member_inputs(P, I)
        h = ad.linear(x, P["in_w"], P["in_b"])
        for i in range(config.n_attention_blocks):
            att = ad.attention(h, h, h, P[f"blk{i}_wq"], P[f"blk{i}_wk"],
                               P[f"blk{i}_wv"], P[f"blk{i}_wo"],
                               config.attention_heads)
            h = ad.add(h, att)
            m = h
            for j in range(3):
                m = ad.linear(m, P[f"blk{i}_m{j}w"], P[f"blk{i}_m{j}b"])
                if j < 2:
                    m = ad.tanh(m)
            h = ad.add(h, m)
        return mlp_forward(attention_pool(h, P, config.attention_heads), P,
                           "dec_", 2)
    return fn


def graph_inputs(config: ModelConfig, dataset: Dataset, norm):
    """Input arrays expected by :func:`build_graph` for a dataset.

    Networks consume arrays standardized with ``norm`` (from
    ``data.fit_norm``); EMOS consumes raw primary mean/std and ignores
    ``norm``.
    """
    if config.architecture == "emos":
        return {"features": summary_base(dataset.ens, dataset.primary)[:, :2]}
    ens, scalars = data.standardize(dataset, norm)
    if config.architecture in ("drn", "bqn"):
        return {"features": np.concatenate(
                    [summary_base(ens, dataset.primary), scalars], axis=-1),
                "station": dataset.station}
    return {"ens": ens, "scalars": scalars, "station": dataset.station}


def emos_cell_link(P, I):
    """EMOS link per row: ``features`` (n, 2) times the 2x2 matrix of row
    ``cell`` (integer) of the coefficient table, plus that row's offsets."""
    coeffs = ad.embedding(P["cells"], I["cell"])
    gamma_mat = ad.reshape(coeffs[:, :4], (-1, 2, 2))
    features = I["features"].reshape(-1, 1, 2)
    return ad.reshape(features @ gamma_mat, (-1, 2)) + coeffs[:, 4:]


def emos_params(table):
    """ParamVector of a (1+C, 6) EMOS coefficient table ``cells``."""
    table = np.asarray(table, dtype=np.float64).reshape(-1, 6)
    return ParamVector(table, {"cells": (0, table.shape)})


def _row_values(config: ModelConfig, inputs):
    """float64 values per row in the widest array a forward of ``config``'s
    graph makes: the (heads, M, M) attention scores of a set transformer, or
    its (M, latent_width) latents if those are wider; the (M, latent_width)
    latents of an ``ed-*`` model; the widest layer of a summary model; a
    (station, month) coefficient row of EMOS."""
    arch = config.architecture
    if arch == "emos":
        return 6
    if arch in ("drn", "bqn"):
        return max(inputs["features"].shape[1] + config.embedding_dim,
                   *config.hidden_sizes, config.n_outputs)
    m = inputs["ens"].shape[1]
    if arch.startswith("ed-"):
        return m * config.latent_width
    return m * max(config.attention_heads * m, config.latent_width)


def _block_rows(config: ModelConfig, inputs):
    """Rows per forward block: as many as keep the widest array within
    BLOCK_BYTES, and at least two."""
    return max(2, BLOCK_BYTES // (8 * _row_values(config, inputs)))


def eval_chunked(config: ModelConfig, graph, params, inputs):
    """Forward-evaluate a graph over row blocks of its inputs; a single
    block's array is returned as it is, and empty inputs are one empty block.

    A block holds as many rows as keep the forward's widest array
    (:func:`_row_values`) within BLOCK_BYTES, about 1 MiB, so that it stays
    in fast memory: a set transformer scores some 80 rows per block at
    perfbench sizes, a summary model thousands.  Every op is row-independent
    and no block but a one-row dataset holds a single row (NumPy multiplies
    a one-row matrix on another BLAS path, which rounds differently), so the
    block boundaries move no bit of the result.
    """
    n = len(next(iter(inputs.values())))
    starts = list(range(0, n, _block_rows(config, inputs))) or [0]
    if len(starts) > 1 and starts[-1] == n - 1:
        del starts[-1]               # the last row joins the block before
    blocks = [ad.eval_graph(graph, params,
                            {k: v[start:stop] for k, v in inputs.items()})
              for start, stop in zip(starts, starts[1:] + [n])]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------


class _FittedModel:
    """Forecasts of a fitted model, all derived from its raw theta."""

    def __init__(self, config, params, norm, n_stations, primary,
                 predictor_names, scalar_names):
        self.config = config
        self.params = params
        self.norm = norm
        self.n_stations = n_stations
        self.primary = primary
        self.predictor_names = list(predictor_names)
        self.scalar_names = list(scalar_names)

    @property
    def family(self):
        return self.config.family

    def _check_dataset(self, dataset: Dataset):
        if len(dataset) and dataset.station.max() >= self.n_stations:
            raise ConfigError(
                f"station id {int(dataset.station.max())} out of range for a "
                f"model fitted on {self.n_stations} stations")
        if dataset.primary != self.primary:
            raise ConfigError(
                f"dataset primary predictor {dataset.primary} differs from "
                f"the model's {self.primary}")
        names = [dataset.predictor_names, dataset.scalar_names]
        if names != [self.predictor_names, self.scalar_names]:
            raise ConfigError(
                f"dataset predictors and scalars {names} differ from the "
                f"model's {[self.predictor_names, self.scalar_names]}")

    def raw_theta(self, dataset: Dataset):
        """Raw theta (n, D) of the subclass's ``graph``."""
        return self.forward(self.inputs(dataset))

    def inputs(self, dataset: Dataset):
        """Graph inputs of a dataset the model accepts."""
        self._check_dataset(dataset)
        return graph_inputs(self.config, dataset, self.norm)

    def forward(self, inputs):
        """Raw theta (n, D) of graph inputs from :meth:`inputs`."""
        return eval_chunked(self.config, self.graph, self.params, inputs)

    def shuffled_inputs(self, inputs, predictor, donors, members):
        """:meth:`inputs` of a dataset with one predictor's column shuffled
        between rows, from the dataset's own ``inputs``: row i holds the
        members of row ``donors[i]``, ordered as in ``members()``, the
        shuffled (n, M) column.  Summary columns are statistics of a row's
        set of members, so they are gathered at the donor rows, bit for bit,
        without calling ``members``; set models standardize the one column
        (standardizing is elementwise)."""
        if "features" in inputs:
            features = inputs["features"].copy()
            # EMOS features hold the primary's columns only
            cols = [c for c in summary_columns(self.primary, predictor)
                    if c < features.shape[1]]
            features[:, cols] = inputs["features"][donors[:, None], cols]
            return {**inputs, "features": features}
        ens = inputs["ens"].copy()
        ens[:, :, predictor] = ((members() - self.norm["ens_mean"][predictor])
                                / self.norm["ens_std"][predictor])
        return {**inputs, "ens": ens}

    def forecast(self, dataset: Dataset):
        """One distribution object holding a forecast per sample."""
        theta = self.raw_theta(dataset)
        if self.family == "tlogis":
            return dist_mod.tlogis_map(theta)
        return dist_mod.BernsteinQuantile(dist_mod.bqn_coefficients(theta))

    def quantiles(self, dataset: Dataset, n_levels):
        """Quantile matrix (n, n_levels) on ``dist.level_grid(n_levels)``."""
        return dist_mod.theta_quantiles(self.raw_theta(dataset), self.family,
                                        n_levels)


class NeuralModel(_FittedModel):
    """A trained network plus the preprocessing state it was fitted with."""

    graph = property(lambda self: build_graph(self.config))


class EMOSModel(_FittedModel):
    """Affine-linear postprocessing with per-station-per-month coefficients.

    ``params`` holds one (1+C, 6) table ``cells`` (see :func:`emos_params`):
    row 0 is the global fit, row 1+i the flattened (gamma_mat, gamma_vec)
    of the (station, month) cell ``keys[i]``, and the keys are strictly
    increasing.  Samples of cells without a row use row 0, with a warning.
    """

    graph = staticmethod(emos_cell_link)

    def __init__(self, config, params, keys, **fields):
        super().__init__(config, params, **fields)
        self.keys = np.ascontiguousarray(keys, dtype=np.int64).reshape(-1, 2)
        self._warned = False

    def inputs(self, dataset: Dataset):
        inputs = super().inputs(dataset)
        # table row of each (station, month): 1 + its index among the sorted
        # keys, binary-searched as 16 big-endian bytes, which sort as the
        # pairs do; 0 where no cell was fitted
        keys, rows = (pairs.astype(">u8").view("S16")[:, 0] for pairs in (
            self.keys, np.stack([dataset.station, dataset.months()], -1)))
        first, past = (np.searchsorted(keys, rows, side)
                       for side in ("left", "right"))
        cell = np.where(past > first, past, 0)
        missing = int(np.count_nonzero(cell == 0))
        if missing and not self._warned:
            warnings.warn(f"{missing} samples used global EMOS coefficients "
                          "(no station/month cell fitted)")
            self._warned = True
        return {**inputs, "cell": cell}


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
        best = sorted(r.val_crps[r.selected_epoch] for r in self.reports)
        # np.median's mean of the middle one or two, without importing numpy.ma
        mid = len(best) // 2
        return (float(best[0]), float((best[mid] + best[~mid]) / 2),
                float(best[-1]))


# ---------------------------------------------------------------------------
# Checkpoints: JSON header + little-endian float64 parameter block
# ---------------------------------------------------------------------------

_MAGIC = b"ENSPOST1"


def _header(model):
    header = {
        "config": model.config.to_dict(),
        "n_stations": model.n_stations,
        "primary": model.primary,
        "predictor_names": model.predictor_names,
        "scalar_names": model.scalar_names,
        "norm": model.norm,
    }
    if isinstance(model, EMOSModel):
        header["kind"] = "emos"
        header["cell_keys"] = model.keys.tolist()
    else:
        header["kind"] = "neural"
        header["layout"] = {name: [off, list(shape)]
                            for name, (off, shape) in model.params.layout.items()}
    return header


def save_model(model, path):
    header = json.dumps(_header(model), sort_keys=True).encode("utf-8")
    block = model.params.values
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(block.astype("<f8").tobytes())


def _read_checkpoint(path):
    """(header JSON value, float64 block) of a checkpoint file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _MAGIC:
        raise ConfigError(f"{path}: not a model checkpoint")
    if len(blob) < 16:
        raise ConfigError(f"{path}: truncated checkpoint (no header length)")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + hlen:
        raise ConfigError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: corrupt checkpoint header ({exc})") from exc
    block = blob[16 + hlen:]
    if len(block) % 8:
        raise ConfigError(f"{path}: truncated checkpoint parameter block")
    block = np.frombuffer(block, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(block)):
        raise ConfigError(f"{path}: non-finite checkpoint parameters")
    return header, block


_NAMES = data._list(_STRING)
_FLOAT = _Check(lambda v: type(v) is float and data._is_real(v),
                "a finite float")
_STDS = data._list(_Check(lambda v: _FLOAT.ok(v) and v > 0,
                          "a finite float > 0"))
_HEADER = dict(kind=_STRING, primary=data._integer(0), predictor_names=_NAMES,
               scalar_names=_NAMES,
               n_stations=_Check(lambda v: data._is_int(v) and v >= 1,
                                 "a 64-bit integer >= 1"))
# Each kind's checkpoint header, all fields required; norm as fit_norm writes it
HEADER_CHECKS = {
    "emos": {**_HEADER,
             "cell_keys": data._list(data._list(data._integer(0), size=2)),
             "norm": _Check(lambda v: v is None, "null"),
             "config": {**MODEL_CHECKS,
                        "architecture": data._one_of(("emos",))}},
    "neural": {**_HEADER, "config": MODEL_CHECKS,
               "layout": _Check(lambda v: type(v) is dict, "an object"),
               "norm": {"predictor_names": _NAMES, "scalar_names": _NAMES,
                        "ens_mean": data._list(_FLOAT), "ens_std": _STDS,
                        "scalar_mean": data._list(_FLOAT),
                        "scalar_std": _STDS}},
}


def load_model(path):
    """The model of a checkpoint file; ConfigError names the file and the
    header field (HEADER_CHECKS, rules across fields) or size at fault."""
    header, block = _read_checkpoint(path)
    try:
        kind = header.get("kind") if type(header) is dict else None
        if kind not in ("emos", "neural"):    # a tuple: a list needs no hash
            raise data._rejected("kind", '"emos" or "neural"', kind)
        data.check_fields(header, HEADER_CHECKS[kind], required=True)
        if header["primary"] >= len(header["predictor_names"]):
            raise data._rejected("primary", "an index of predictor_names",
                                 header["primary"])
        for key, values in (header["norm"] or {}).items():
            names = header["scalar_names" if key.startswith("scalar")
                           else "predictor_names"]
            if len(values) != len(names):
                raise data._rejected(f"norm.{key}", f"{len(names)} values",
                                     values)
        keys = header.get("cell_keys", [])
        if not (all(s < header["n_stations"] and 1 <= m <= 12
                    for s, m in keys)
                and all(a < b for a, b in zip(keys, keys[1:]))):
            raise ConfigError("config field cell_keys: expected sorted, distinct"
                              " [station < n_stations, month 1-12] pairs")
        dims = (len(header["predictor_names"]), len(header["scalar_names"]),
                header["n_stations"])
        config = ModelConfig.from_dict(header["config"], "config")
        check_model_size(config, *dims, section="config")
        # sizes first, so that no block count past the file is enumerated
        count = (6 * (1 + len(keys)) if kind == "emos"
                 else _param_counts(config, dims)[1])
        if block.size != count:
            raise ConfigError(f"parameter block holds {block.size} values, "
                              f"the header {count}")
        fields = {k: header[k] for k in ("norm", *_HEADER) if k != "kind"}
        if kind == "emos":
            return EMOSModel(config, emos_params(block), keys, **fields)
        layout = ParamVector.build(param_shapes(config, *dims)).layout
        if header["layout"] != {name: [off, list(shape)]
                                for name, (off, shape) in layout.items()}:
            raise ConfigError("parameter layout does not match the config")
        return NeuralModel(config, ParamVector(block, layout), **fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: corrupt checkpoint: {exc}") from exc
