"""Dataset handling: NDJSON I/O, normalization, temporal splits and the
synthetic ensemble-forecast generator.  Normalization is fitted on a dataset
and applied to arrays; it builds no second dataset.

The NDJSON schema is one JSON object per line:

    {"time": "YYYY-MM-DD", "station": int, "lead": int, "obs": float,
     "ens": {"<name>": [M floats], ...}, "scalars": {"<name>": float, ...}}

The synthetic generator produces a desk-scale postprocessing task with known
ground truth: a biased, underdispersed primary ensemble, one auxiliary
channel whose ensemble *spread* encodes the observation noise regime, one
whose ensemble *skewness* encodes a location signal, and a dead channel of
pure noise.  Summary-statistic models (ensemble mean only for auxiliary
channels) cannot see the hidden spread/skewness signals, full-ensemble
models can.
"""

from __future__ import annotations

import datetime
import json
import sys
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import ConfigError

PREDICTOR_NAMES = ("primary", "aux_spread", "aux_skew", "noise")
SCALAR_NAMES = ("lat", "lon", "yday_cos")
SYNTH_START = datetime.date(2016, 1, 1)   # date of synthetic day 0
# days up to the last ISO date, 9999-12-31
MAX_SYNTH_DAYS = (datetime.date.max - SYNTH_START).days + 1


class Dataset:
    """Immutable column-major collection of forecast cases.

    Samples are kept sorted by (time, station).  ``ens`` has shape
    (T, M, p), ``scalars`` (T, q), ``station`` and ``obs`` length T.
    """

    def __init__(self, ens, scalars, station, times, obs, lead_hours,
                 predictor_names, scalar_names, primary=0, n_stations=None):
        ens = np.asarray(ens, dtype=np.float64)
        scalars = np.asarray(scalars, dtype=np.float64)
        station = np.asarray(station, dtype=np.int64)
        times = np.asarray(times, dtype=object)
        obs = np.asarray(obs, dtype=np.float64)
        primary = int(primary)
        if ens.ndim != 3:
            raise ConfigError("ens must have shape (T, M, p)")
        t, m, p = ens.shape
        if m < 2:
            raise ConfigError("ensembles need at least two members")
        if scalars.shape != (t, len(scalar_names)) or station.shape != (t,) \
                or obs.shape != (t,) or times.shape != (t,):
            raise ConfigError("inconsistent column lengths")
        if len(predictor_names) != p:
            raise ConfigError("predictor_names must match ensemble width")
        if not 0 <= primary < p:
            raise ConfigError(f"primary predictor {primary} out of range "
                              f"for {p} predictors")
        for arr, what in ((ens, "ens"), (scalars, "scalars"), (obs, "obs")):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"non-finite values in {what}")
        if n_stations is None:
            n_stations = int(station.max()) + 1 if t else 0
        if t and station.min() < 0:
            raise ConfigError(f"station id {int(station.min())} is negative")
        if t and station.max() >= n_stations:
            raise ConfigError(f"station id {int(station.max())} out of range "
                              f"for {n_stations} stations")
        order = np.lexsort((station, times))
        self.ens = ens[order]
        self.scalars = scalars[order]
        self.station = station[order]
        self.times = times[order]
        self.obs = obs[order]
        self.lead_hours = int(lead_hours)
        self.predictor_names = list(predictor_names)
        self.scalar_names = list(scalar_names)
        self.primary = primary
        self.n_stations = int(n_stations)
        for arr in (self.ens, self.scalars, self.station, self.times, self.obs):
            arr.setflags(write=False)

    def __len__(self):
        return self.ens.shape[0]

    @property
    def n_members(self):
        return self.ens.shape[1]

    @property
    def n_predictors(self):
        return self.ens.shape[2]

    @property
    def n_scalars(self):
        return self.scalars.shape[1]

    def months(self):
        """Calendar month (1-12) of each sample."""
        # datetime64[M] counts months from 1970-01
        return self.times.astype("datetime64[M]").astype(np.int64) % 12 + 1

    def subset(self, idx):
        return Dataset(self.ens[idx], self.scalars[idx], self.station[idx],
                       self.times[idx], self.obs[idx], self.lead_hours,
                       self.predictor_names, self.scalar_names, self.primary,
                       self.n_stations)


# ---------------------------------------------------------------------------
# NDJSON serialization
# ---------------------------------------------------------------------------


_FIELDS = ("time", "station", "lead", "obs", "ens", "scalars")
_FIELD_GETTER = itemgetter(*_FIELDS)


def _is_real(value):
    """A finite JSON number that fits a float64 (true/false load as bool)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_int(value):
    return type(value) is int and -2**63 <= value < 2**63


def _is_date(text):
    """Whether ``text`` is a valid date written as YYYY-MM-DD."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except (TypeError, ValueError):
        return False


def _check_record(rec, lineno):
    """Raise ConfigError naming the line and the first mistyped field."""
    if not isinstance(rec, dict):
        raise ConfigError(f"line {lineno}: expected a JSON object")
    for key in _FIELDS:
        if key not in rec:
            raise ConfigError(f"line {lineno}: missing field {key!r}")
    ens, scalars = rec["ens"], rec["scalars"]
    checks = (
        ("time", _is_date(rec["time"]), "an ISO date YYYY-MM-DD"),
        ("station", _is_int(rec["station"]), "a 64-bit integer"),
        ("lead", _is_int(rec["lead"]), "a 64-bit integer"),
        ("obs", _is_real(rec["obs"]), "a finite number"),
        ("ens", isinstance(ens, dict) and all(
            isinstance(v, list) and all(map(_is_real, v))
            for v in ens.values()) and len(set(map(len, ens.values()))) < 2,
         "an object of equally long finite-number lists"),
        ("scalars", isinstance(scalars, dict)
         and all(map(_is_real, scalars.values())),
         "an object of finite numbers"))
    for field, ok, expected in checks:
        if not ok:
            raise ConfigError(f"line {lineno}: field {field!r} must be "
                              f"{expected}")


# Records are checked and converted a chunk at a time: enough to pay for the
# per-column checks, few enough that the records' dicts never hold much
# more memory than the arrays they become.
CHUNK_RECORDS = 64
_DAYS = np.array(["0001-01-01", "9999-12-31"], dtype="datetime64[D]")


def _layout(rec):
    """What every record shares with the first: predictor names, scalar
    names, ensemble size and lead."""
    ens = rec["ens"]
    return (tuple(ens), tuple(rec["scalars"]),
            len(next(iter(ens.values()), ())), rec["lead"])


def _types(values):
    return set(map(type, values))


def _columns(recs):
    """(ens as (n, p, M), scalars, station, times, obs) of well-formed
    records."""
    times, station, _, obs, ens, scalars = zip(*map(_FIELD_GETTER, recs))
    return (np.array([list(e.values()) for e in ens], dtype=np.float64),
            np.array([list(s.values()) for s in scalars], dtype=np.float64),
            np.array(station, dtype=np.int64), list(times),
            np.array(list(map(float, obs))))


def _bulk_columns(recs, layout):
    """:func:`_columns` of records that all pass :func:`_check_record` and
    share ``layout``, or None when a record might not.  Each check runs once
    per column; a column holding an integer is left to the record-by-record
    check, because an integer just past the float64 range rounds to a
    finite float64."""
    if _types(recs) != {dict}:
        return None
    try:
        times, station, lead, obs, ens, scalars = zip(
            *map(_FIELD_GETTER, recs))
    except KeyError:
        return None
    names, scalar_names, m, lead_0 = layout
    if not (_types(ens) == _types(scalars) == {dict}
            and set(map(tuple, ens)) == {names}
            and set(map(tuple, scalars)) == {scalar_names}
            and _types(station) == _types(lead) == {int}
            and set(lead) == {lead_0} and _types(times) == {str}
            and _types(obs) == {float}):
        return None
    members = list(chain.from_iterable(map(dict.values, ens)))
    numbers = chain(chain.from_iterable(members),
                    chain.from_iterable(map(dict.values, scalars)))
    if not (_types(members) <= {list} and set(map(len, members)) <= {m}
            and _types(numbers) <= {float}):
        return None
    try:
        columns = _columns(recs)          # station ids must fit int64
        days = np.array(times, dtype="datetime64[D]")
    except (OverflowError, ValueError):
        return None
    # NumPy also reads years 0 and past 9999, and forms other than
    # YYYY-MM-DD, which date.fromisoformat refuses
    if not (all(np.isfinite(columns[i]).all() for i in (0, 1, 4))
            and ((_DAYS[0] <= days) & (days <= _DAYS[1])).all()
            and days.astype(str).tolist() == columns[3]):
        return None
    return columns


def _checked_columns(chunk, first):
    """:func:`_columns` of a chunk of (line number, record) pairs; raises
    ConfigError naming the first mistyped record, or the first whose layout
    differs from ``first``, as a record-by-record check would."""
    recs = [rec for _, rec in chunk]
    columns = _bulk_columns(recs, first)
    if columns is not None:
        return columns
    for lineno, rec in chunk:
        _check_record(rec, lineno)
        if _layout(rec) != first:
            raise ConfigError(f"line {lineno}: predictor names, scalar "
                              f"names, ensemble size or lead differ from "
                              f"the first record")
    return _columns(recs)


def load_ndjson(path, primary=0, n_stations=None):
    """Parse an NDJSON forecast file into a :class:`Dataset`.

    Every line must be a JSON object of the schema above with finite numeric
    (not boolean) values; a mistyped record raises ConfigError naming the
    line and the field.
    """
    parts, chunk, first = [], [], None

    def flush():
        nonlocal first
        if chunk:
            if first is None:
                _check_record(chunk[0][1], chunk[0][0])
                first = _layout(chunk[0][1])
            parts.append(_checked_columns(chunk, first))
            chunk.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                flush()     # a mistyped earlier line is reported first
                raise ConfigError(f"line {lineno}: invalid JSON ({exc})") from exc
            chunk.append((lineno, rec))
            if len(chunk) == CHUNK_RECORDS:
                flush()
    flush()
    if not parts:
        raise ConfigError(f"{path}: empty dataset")
    ens, scalars, station, times, obs = zip(*parts)
    parts.clear()       # each chunk's arrays go once they are joined
    ens, scalars, station, obs = map(np.concatenate,
                                     (ens, scalars, station, obs))
    predictor_names, scalar_names, _, lead = first
    return Dataset(
        # (T, p, M) read as (T, M, p): the memory layout of stacked (M, p)
        # records, which fit_norm's sums over axes (0, 1) depend on
        ens=ens.transpose(0, 2, 1) if ens.ndim == 3 else ens,
        scalars=scalars,
        station=station,
        times=list(chain.from_iterable(times)),
        obs=obs,
        lead_hours=lead,
        predictor_names=predictor_names,
        scalar_names=scalar_names,
        primary=primary,
        n_stations=n_stations,
    )


def save_ndjson(dataset: Dataset, path):
    """Write a dataset in the NDJSON schema (UTF-8, LF separators)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(dataset)):
            rec = {
                "time": str(dataset.times[i]),
                "station": int(dataset.station[i]),
                "lead": dataset.lead_hours,
                "obs": float(dataset.obs[i]),
                "ens": {name: dataset.ens[i, :, j].tolist()
                        for j, name in enumerate(dataset.predictor_names)},
                "scalars": {name: float(dataset.scalars[i, j])
                            for j, name in enumerate(dataset.scalar_names)},
            }
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Normalization and splitting
# ---------------------------------------------------------------------------


def fit_norm(dataset: Dataset):
    """Mean and standard deviation of each predictor and scalar column of a
    dataset: the normalization a model is fitted with."""
    ens_std = dataset.ens.std(axis=(0, 1))
    sc_std = dataset.scalars.std(axis=0)
    for std, names in ((ens_std, dataset.predictor_names),
                       (sc_std, dataset.scalar_names)):
        bad = np.nonzero(std == 0)[0]
        if bad.size:
            raise ConfigError(f"constant column {names[bad[0]]!r}")
    return {
        "predictor_names": list(dataset.predictor_names),
        "scalar_names": list(dataset.scalar_names),
        "ens_mean": dataset.ens.mean(axis=(0, 1)).tolist(),
        "ens_std": ens_std.tolist(),
        "scalar_mean": dataset.scalars.mean(axis=0).tolist(),
        "scalar_std": sc_std.tolist(),
    }


def standardize(dataset: Dataset, stats, ens=None):
    """Standardized (ens, scalars) arrays of a dataset under the
    :func:`fit_norm` statistics ``stats`` (the usual train-fit / test-apply
    contract).  ``ens``, an (n, M, p) block, stands in for ``dataset.ens``.
    """
    if stats["predictor_names"] != dataset.predictor_names \
            or stats["scalar_names"] != dataset.scalar_names:
        raise ConfigError("normalization stats name mismatch")
    ens = dataset.ens if ens is None else ens
    ens = (ens - np.asarray(stats["ens_mean"])) / np.asarray(stats["ens_std"])
    scalars = (dataset.scalars - np.asarray(stats["scalar_mean"])) \
        / np.asarray(stats["scalar_std"])
    if not (np.isfinite(ens).all() and np.isfinite(scalars).all()):
        raise ConfigError("non-finite standardized values")
    return ens, scalars


def split_temporal(dataset: Dataset, fractions):
    """Split into contiguous (train, val, test) time blocks."""
    if len(fractions) != 3 or any(f < 0 for f in fractions) \
            or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("fractions must be three non-negatives summing to 1")
    times = np.unique(dataset.times)
    n = times.size
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    cuts = [times[:n_train], times[n_train:n_train + n_val],
            times[n_train + n_val:]]
    if any(block.size == 0 for block in cuts):
        raise ConfigError("temporal split produced an empty block")
    return tuple(dataset.subset(np.isin(dataset.times, block))
                 for block in cuts)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of the synthetic forecast task.

    Signal weights: ``bias`` is the mean station bias of the primary
    ensemble, ``spread_signal`` scales how strongly the hidden noise regime
    modulates the observation noise (visible only through the spread of the
    ``aux_spread`` channel), ``skew_signal`` scales the location signal
    hidden in the skewness of the ``aux_skew`` channel, and ``dead_channel``
    is the amplitude of the pure-noise channel.
    """

    stations: int = 8
    days: int = 400
    members: int = 20
    seed: int = 0
    lead_hours: int = 6
    bias: float = 0.8
    spread_signal: float = 0.5
    skew_signal: float = 1.2
    dead_channel: float = 1.0

    def __post_init__(self):
        if self.stations < 1 or self.days < 1:
            raise ConfigError("stations and days must be positive")
        if self.days > MAX_SYNTH_DAYS:
            raise ConfigError(f"days must be at most {MAX_SYNTH_DAYS}, so the "
                              "last synthetic date is no later than "
                              "9999-12-31")
        if self.members < 2:
            raise ConfigError("members must be >= 2")
        if not _is_int(self.lead_hours):    # the loader's rule for "lead"
            raise ConfigError(f"lead_hours must be a 64-bit integer, got "
                              f"{self.lead_hours}")
        size = self.days * self.stations * self.members * len(PREDICTOR_NAMES)
        if size * 8 > np.iinfo(np.intp).max:   # the float64 ensemble block
            raise ConfigError(f"days x stations x members x predictors = {size}"
                              " float64 values: more bytes than NumPy indexes")


BASE_LEVEL = 10.0       # keeps observations far from the truncation bound
AR_COEF = 0.7
AR_INNOVATION = 0.4
SEASONAL_AMPLITUDE = 0.6
NONLINEAR_AMPLITUDE = 0.7
NONLINEAR_SLOPE = 1.5
NOISE_FLOOR = 0.25
ENSEMBLE_SPREAD = 0.3   # well below the predictive uncertainty: underdispersion


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Generate a bias/dispersion-flawed ensemble forecasting task."""
    rng = np.random.default_rng(config.seed)
    s, d, m = config.stations, config.days, config.members

    bias = rng.normal(config.bias, 0.3, size=s)
    phase = rng.uniform(0, 2 * np.pi, size=s)
    lat = rng.uniform(47.0, 55.0, size=s)
    lon = rng.uniform(6.0, 15.0, size=s)

    dates = [SYNTH_START + datetime.timedelta(days=k) for k in range(d)]
    yday = np.array([dt.timetuple().tm_yday for dt in dates], dtype=np.float64)

    # latent truth: station AR(1) anomaly plus seasonal cycle
    anom = np.zeros((d, s))
    innov = rng.normal(0.0, AR_INNOVATION, size=(d, s))
    for t in range(d):
        prev = anom[t - 1] if t else np.zeros(s)
        anom[t] = AR_COEF * prev + innov[t]
    seasonal = SEASONAL_AMPLITUDE * np.cos(
        2 * np.pi * yday[:, None] / 365.0 + phase[None, :])
    y_star = BASE_LEVEL + seasonal + anom

    regime = rng.uniform(0.0, 1.0, size=(d, s))      # hidden noise regime
    skew_lat = rng.uniform(-1.0, 1.0, size=(d, s))   # hidden skewness signal
    sigma_obs = NOISE_FLOOR + config.spread_signal * regime
    nonlin = NONLINEAR_AMPLITUDE * np.tanh(NONLINEAR_SLOPE * (y_star - BASE_LEVEL))
    obs = (y_star + nonlin + config.skew_signal * skew_lat
           + sigma_obs * rng.normal(size=(d, s)))

    ens = np.empty((d, s, m, len(PREDICTOR_NAMES)))
    ens[..., 0] = (y_star[..., None] + bias[None, :, None]
                   + ENSEMBLE_SPREAD * rng.normal(size=(d, s, m)))
    # aux_spread: member mean is noise, spread encodes the regime
    ens[..., 1] = (rng.normal(size=(d, s, 1))
                   + (0.2 + regime[..., None]) * rng.normal(size=(d, s, m)))
    # aux_skew: zero-mean unit-variance members u*(G-1) + sqrt(1-u^2)*Z with
    # G ~ Exp(1), Z ~ N(0,1); u = cbrt(w) makes the population skewness
    # exactly 2*w, linear in the latent signal
    g = rng.exponential(1.0, size=(d, s, m))
    z = rng.normal(size=(d, s, m))
    u = np.cbrt(skew_lat)[..., None]
    ens[..., 2] = (rng.normal(size=(d, s, 1))
                   + u * (g - 1.0) + np.sqrt(1.0 - u * u) * z)
    ens[..., 3] = config.dead_channel * rng.normal(size=(d, s, m))

    scalars = np.empty((d, s, len(SCALAR_NAMES)))
    scalars[..., 0] = lat[None, :]
    scalars[..., 1] = lon[None, :]
    scalars[..., 2] = np.cos(2 * np.pi * yday[:, None] / 365.0)

    t_total = d * s
    return Dataset(
        ens=ens.reshape(t_total, m, -1),
        scalars=scalars.reshape(t_total, -1),
        station=np.tile(np.arange(s), d),
        times=np.repeat([dt.isoformat() for dt in dates], s),
        obs=obs.reshape(t_total),
        lead_hours=config.lead_hours,
        predictor_names=PREDICTOR_NAMES,
        scalar_names=SCALAR_NAMES,
        primary=0,
        n_stations=s,
    )
