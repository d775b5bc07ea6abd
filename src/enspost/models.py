"""Inference bodies mapping forecast cases to raw distribution parameters.

Four families share the same output contract (a raw parameter matrix theta of
shape (n, D)): EMOS on primary mean/std with per-station-per-month
coefficients, a summary-statistic MLP (DRN/BQN benchmark), an
encoder-decoder set pooling network and a set transformer.  The network
families consume standardized predictors plus a learned station embedding;
all of them are permutation invariant in the ensemble members.  Training,
forecasts and importance all build graph inputs with :func:`graph_inputs`.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import dist as dist_mod
from .autodiff import ParamVector
from .data import Dataset, standardize
from .errors import ConfigError, DomainError

ARCHITECTURES = ("emos", "drn", "bqn", "ed-drn", "ed-bqn", "st-drn", "st-bqn")
POOLING_KINDS = ("mean", "max", "min", "attention")
CHUNK_ROWS = 4096  # rows per forward pass when scoring whole datasets


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
    n_quantile_levels: int = 99
    learning_rate: float = 5e-3
    batch_size: int = 512
    max_epochs: int = 150
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(f"unknown pooling kind {self.pooling!r}")
        if min(self.latent_width, self.embedding_dim, self.attention_heads,
               self.n_attention_blocks, self.bernstein_degree,
               self.n_quantile_levels, self.batch_size) < 1:
            raise ConfigError("dimensions must be positive")
        if any(h < 1 for h in self.hidden_sizes) or len(self.hidden_sizes) < 2:
            raise ConfigError("hidden_sizes needs two positive entries")
        if self.latent_width % self.attention_heads != 0:
            raise ConfigError("attention heads must divide the latent width")

    @property
    def family(self):
        return "bqn" if self.architecture.endswith("bqn") else "tlogis"

    @property
    def n_outputs(self):
        return self.bernstein_degree + 1 if self.family == "bqn" else 2

    def to_dict(self):
        d = asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["hidden_sizes"] = tuple(d["hidden_sizes"])
        return cls(**d)


# ---------------------------------------------------------------------------
# Summary statistics of the ensemble block
# ---------------------------------------------------------------------------


def summary_base(ens, primary):
    """Primary mean/std plus auxiliary means; vectorized over samples.

    ``ens`` is (n, M, p).  Returns (n, 2 + (p - 1)); the standard deviation
    uses the unbiased (n-1) estimator.  Exactly member-permutation invariant.
    """
    ens = np.asarray(ens, dtype=np.float64)
    if ens.ndim != 3:
        raise ConfigError("ens must be (n, M, p)")
    if ens.shape[1] < 2:
        raise DomainError("need at least two members for the std estimator")
    # sort each channel (and force a canonical memory layout) so the
    # reductions see identical operands in identical order, making the
    # statistics exactly -- not just approximately -- invariant under
    # member permutations; numpy's pairwise summation is layout-sensitive
    ens = np.sort(np.ascontiguousarray(ens), axis=1)
    prim = ens[..., primary]
    others = np.delete(ens, primary, axis=-1)
    cols = [prim.mean(axis=-1), prim.std(axis=-1, ddof=1)]
    cols.extend(others.mean(axis=-2).T)
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------


def _glorot(rng, shape):
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _initializer(rng):
    def init(name, shape):
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


def _too_large(count):
    """Whether NumPy refuses an array of ``count`` float64 values.  It
    refuses 64 values short of the byte limit: ``np.arange`` raises
    "array is too big" from 2**60 - 64 elements on 64-bit builds."""
    return (count + 64) * 8 > np.iinfo(np.intp).max


def _oversized(config, dims):
    """What holds more float64 values than NumPy indexes, the first such
    parameter slice or else the whole vector, and its count; None if none
    does."""
    # counts of one attention block stand for every block, so a huge block
    # count is never enumerated
    shapes = param_shapes(replace(config, n_attention_blocks=1), *dims)
    counts = {name: math.prod(int(d) for d in shape)
              for name, shape in shapes.items()}
    for name, count in counts.items():
        if _too_large(count):
            return f"parameter {name}", count
    block = sum(n for name, n in counts.items() if name.startswith("blk0_"))
    total = sum(counts.values()) + (config.n_attention_blocks - 1) * block
    return ("the parameter vector", total) if _too_large(total) else None


def check_model_size(config: ModelConfig, n_predictors, n_scalars,
                     n_stations):
    """ConfigError naming the model fields that make the quantile level
    grid, a parameter slice or the parameter vector hold more bytes than
    NumPy indexes.  Counts are Python ints, so nothing is allocated."""
    if _too_large(config.n_quantile_levels):
        raise ConfigError(
            f"config field model.n_quantile_levels: {config.n_quantile_levels}"
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
        f"config field {', '.join('model.' + f for f in fields or least)}: "
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


def attention_pool(latents, P, heads, prefix="pool"):
    """Attend a learnable query over the member latents; returns (n, L)."""
    lw = latents.value.shape[-1]
    query = ad.reshape(P[f"{prefix}_q"], (1, 1, lw))
    out = ad.attention(query, latents, latents, P[f"{prefix}_wq"],
                       P[f"{prefix}_wk"], P[f"{prefix}_wv"], P[f"{prefix}_wo"],
                       heads)
    n = out.value.shape[0]
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
    context = ad.reshape(context, (n, 1, context.value.shape[-1]))
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


def graph_inputs(config: ModelConfig, dataset: Dataset, norm, ens=None):
    """Input arrays expected by :func:`build_graph` for a dataset.

    ``ens``, an (n, M, p) block, stands in for ``dataset.ens``.  Networks
    consume arrays standardized with ``norm`` (from ``data.fit_norm``);
    EMOS consumes raw primary mean/std and ignores ``norm``.
    """
    ens = dataset.ens if ens is None else ens
    if config.architecture == "emos":
        return {"features": summary_base(ens, dataset.primary)[:, :2]}
    ens, scalars = standardize(dataset, norm, ens)
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


def eval_chunked(graph, params, inputs):
    """Forward-evaluate a graph over row chunks of its inputs (one empty
    chunk for empty inputs)."""
    n = len(next(iter(inputs.values())))
    return np.concatenate([
        ad.eval_graph(graph, params,
                      {k: v[start:start + CHUNK_ROWS]
                       for k, v in inputs.items()})
        for start in range(0, max(n, 1), CHUNK_ROWS)], axis=0)


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

    def raw_theta(self, dataset: Dataset, ens=None):
        """Raw theta (n, D) of the subclass's ``graph``; ``ens``, an
        (n, M, p) block, stands in for ``dataset.ens``."""
        self._check_dataset(dataset)
        return eval_chunked(self.graph, self.params,
                            self._inputs(dataset, ens))

    def _inputs(self, dataset, ens):
        return graph_inputs(self.config, dataset, self.norm, ens)

    def forecast(self, dataset: Dataset):
        """One distribution object holding a forecast per sample."""
        theta = self.raw_theta(dataset)
        if self.family == "tlogis":
            return dist_mod.tlogis_map(theta)
        return dist_mod.BernsteinQuantile(dist_mod.bqn_coefficients(theta))

    def quantiles(self, dataset: Dataset, levels):
        """Quantile matrix (n, K) at the given levels."""
        return dist_mod.theta_quantiles(self.raw_theta(dataset), self.family,
                                        levels)


class NeuralModel(_FittedModel):
    """A trained network plus the preprocessing state it was fitted with."""

    graph = property(lambda self: build_graph(self.config))


class EMOSModel(_FittedModel):
    """Affine-linear postprocessing with per-station-per-month coefficients.

    ``params`` holds one (1+C, 6) table ``cells`` (see :func:`emos_params`):
    row 0 is the global fit, row 1+i the flattened (gamma_mat, gamma_vec)
    of the (station, month) cell ``keys[i]``.  Samples of cells without a
    row use row 0, with a warning.
    """

    graph = staticmethod(emos_cell_link)

    def __init__(self, config, params, keys, **fields):
        super().__init__(config, params, **fields)
        self.keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
        self._warned = False

    def _inputs(self, dataset, ens):
        # table row of each (station, month); 0 where no cell was fitted
        slot = np.zeros((self.n_stations, 13), dtype=np.int64)
        station, month = self.keys.T
        slot[station, month] = np.arange(1, len(self.keys) + 1)
        cell = slot[dataset.station, dataset.months()]
        missing = int(np.count_nonzero(cell == 0))
        if missing and not self._warned:
            warnings.warn(f"{missing} samples used global EMOS coefficients "
                          "(no station/month cell fitted)")
            self._warned = True
        return {**super()._inputs(dataset, ens), "cell": cell}


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


_HEADER_KEYS = {"config", "kind", "n_stations", "primary", "predictor_names",
                "scalar_names", "norm"}
_KIND_KEYS = {"emos": "cell_keys", "neural": "layout"}


def _read_checkpoint(path):
    """(header dict, float64 block) of a checkpoint file, validated."""
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
    if not isinstance(header, dict) or header.get("kind") not in _KIND_KEYS:
        raise ConfigError(f"{path}: checkpoint header lacks a known kind")
    missing = (_HEADER_KEYS | {_KIND_KEYS[header["kind"]]}) - set(header)
    if missing:
        raise ConfigError(f"{path}: checkpoint header lacks {sorted(missing)}")
    block = blob[16 + hlen:]
    if len(block) % 8:
        raise ConfigError(f"{path}: truncated checkpoint parameter block")
    block = np.frombuffer(block, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(block)):
        raise ConfigError(f"{path}: non-finite checkpoint parameters")
    _check_header_fields(path, header)
    return header, block


_NORM_SIZES = {"ens_mean": "predictor_names", "ens_std": "predictor_names",
               "scalar_mean": "scalar_names", "scalar_std": "scalar_names"}


def _list_of(value, kinds, n=None):
    """Whether a JSON value is a list of ``kinds`` items (``n`` of them)."""
    return (isinstance(value, list) and n in (None, len(value))
            and all(type(v) in kinds for v in value))


def _check_header_fields(path, header):
    """ConfigError unless the names, station count, primary index, EMOS
    cell keys (distinct (station, month) pairs, station below the station
    count, month 1-12) and network normalization stats have checkpoint types
    and ranges."""
    def require(ok, field):
        if not ok:
            raise ConfigError(f"{path}: corrupt checkpoint field {field!r}")
    for key in ("predictor_names", "scalar_names"):
        require(_list_of(header[key], (str,)), key)
    require(type(header["n_stations"]) is int and header["n_stations"] >= 1,
            "n_stations")
    require(type(header["primary"]) is int
            and 0 <= header["primary"] < len(header["predictor_names"]),
            "primary")
    if header["kind"] == "emos":
        keys = header["cell_keys"]
        require(_list_of(keys, (list,))
                and all(_list_of(k, (int,), 2)
                        and 0 <= k[0] < header["n_stations"]
                        and 1 <= k[1] <= 12 for k in keys)
                and len({tuple(k) for k in keys}) == len(keys), "cell_keys")
        return
    norm = header["norm"]
    require(isinstance(norm, dict) and set(norm) == {
        "predictor_names", "scalar_names", *_NORM_SIZES}, "norm")
    for key, names in _NORM_SIZES.items():
        values = norm[key]
        require(_list_of(values, (int, float), len(header[names]))
                and np.all(np.isfinite(values))
                and (key.endswith("mean") or np.all(np.asarray(values) > 0)),
                f"norm.{key}")


def load_model(path):
    header, block = _read_checkpoint(path)
    dims = (len(header["predictor_names"]), len(header["scalar_names"]),
            header["n_stations"])
    try:
        config = ModelConfig.from_dict(header["config"])
        check_model_size(config, *dims)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: corrupt model config ({exc})") from exc
    common = dict(norm=header["norm"], n_stations=header["n_stations"],
                  primary=header["primary"],
                  predictor_names=header["predictor_names"],
                  scalar_names=header["scalar_names"])
    if header["kind"] == "emos":
        if block.size != 6 * (1 + len(header["cell_keys"])):
            raise ConfigError(f"{path}: parameter block does not match "
                              f"{len(header['cell_keys'])} EMOS cells")
        return EMOSModel(config, emos_params(block), header["cell_keys"],
                         **common)
    layout = ParamVector.build(param_shapes(config, *dims)).layout
    if header["layout"] != {name: [off, list(shape)]
                            for name, (off, shape) in layout.items()}:
        raise ConfigError(f"{path}: parameter layout does not match the "
                          "model config")
    return NeuralModel(config, ParamVector(block, layout), **common)
