"""Dataset handling: NDJSON I/O, normalization, temporal splits, seed streams
and the synthetic ensemble-forecast generator.  Normalization is fitted on a
dataset and applied to arrays; it builds no second dataset.

The NDJSON schema is one JSON object per line:

    {"time": "YYYY-MM-DD", "station": int, "lead": int, "obs": float,
     "ens": {"<name>": [M floats], ...}, "scalars": {"<name>": float, ...}}

Dates are held as ``datetime64[D]``; :class:`Dataset` also takes ISO strings.
NDJSON is the interchange format.  :func:`save_copy` writes a binary copy of
a dataset beside its NDJSON file (same name, suffix ``.npz``) that records
the SHA-256 of the NDJSON bytes; :func:`load_ndjson` reads that copy instead
of parsing the text only while the digest matches, and builds the same
:class:`Dataset` either way.

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
import hashlib
import json
import os
import sys
import zipfile
import zlib
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import ConfigError

PREDICTOR_NAMES = ("primary", "aux_spread", "aux_skew", "noise")
SCALAR_NAMES = ("lat", "lon", "yday_cos")
# statistics of a predictor's members that importance conditions shuffles on
SUMMARY_KINDS = ("mean", "std", "min", "max", "iqr", "range",
                 "skewness", "kurtosis")
_DAYS = np.array(["0001-01-01", "9999-12-31"], dtype="datetime64[D]")
SYNTH_START = np.datetime64("2016-01-01")   # date of synthetic day 0
MAX_SYNTH_DAYS = (_DAYS[1] - SYNTH_START).item().days + 1   # to 9999-12-31


class Dataset:
    """Immutable column-major collection of forecast cases.

    Samples are kept sorted by (time, station).  ``ens`` has shape
    (T, M, p), ``scalars`` (T, q), ``station``, ``obs`` and ``times`` length
    T; ``times`` is stored as ``datetime64[D]`` (given so or as ISO strings).
    """

    def __init__(self, ens, scalars, station, times, obs, lead_hours,
                 predictor_names, scalar_names, primary=0, n_stations=None):
        ens = np.asarray(ens, dtype=np.float64)
        scalars = np.asarray(scalars, dtype=np.float64)
        station = np.asarray(station, dtype=np.int64)
        obs = np.asarray(obs, dtype=np.float64)
        primary = int(primary)
        if ens.ndim != 3:
            raise ConfigError("ens must have shape (T, M, p)")
        t, m, p = ens.shape
        if m < 2:
            raise ConfigError("ensembles need at least two members")
        if scalars.shape != (t, len(scalar_names)) or station.shape != (t,) \
                or obs.shape != (t,) or np.shape(times) != (t,):
            raise ConfigError("inconsistent column lengths")
        times = _dates(times)
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


def _too_large(count):
    """Whether NumPy refuses an array of ``count`` float64 values.  It
    refuses 64 values short of the byte limit: ``np.arange`` raises
    "array is too big" from 2**60 - 64 elements on 64-bit builds."""
    return (count + 64) * 8 > np.iinfo(np.intp).max


def _is_date(text):
    """Whether ``text`` is a valid date written as YYYY-MM-DD."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except (TypeError, ValueError):
        return False


def _dates(times):
    """``times``, as datetime64[D] or strings YYYY-MM-DD, as datetime64[D] days
    0001-01-01 to 9999-12-31; ConfigError names the first value that is not."""
    times = np.asarray(times)
    try:
        days = times.astype("datetime64[D]", copy=False)
        # NumPy also reads years 0 and past 9999, integers as day counts,
        # other units and forms other than YYYY-MM-DD
        ok = (((_DAYS[0] <= days) & (days <= _DAYS[1])).all()
              and (times.dtype == days.dtype
                   or days.astype(str).tolist() == times.tolist()))
    except (OverflowError, TypeError, ValueError):
        ok = False
    if not ok:     # days are named by their text, so NaT as 'NaT'
        values = times.astype(str) if times.dtype == _DAYS.dtype else times
        bad = next(t for t in values.tolist() if not _is_date(t))
        raise ConfigError(f"time {bad!r} is not an ISO date YYYY-MM-DD")
    return days


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
            np.array(station, dtype=np.int64), _dates(times),
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
        columns = _columns(recs)     # raises on ids past int64, bad dates
    except (ConfigError, OverflowError, ValueError):
        return None
    finite = all(np.isfinite(columns[i]).all() for i in (0, 1, 4))
    return columns if finite else None


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


def _parse_ndjson(path):
    """The columns of an NDJSON forecast file as :func:`load_ndjson` hands
    them to :class:`Dataset`; a mistyped record raises ConfigError naming
    its line and field."""
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
    columns = zip(*parts)
    parts.clear()       # each chunk's arrays go once they are joined
    ens, scalars, station, times, obs = map(np.concatenate, columns)
    predictor_names, scalar_names, _, lead = first
    return {"ens": ens, "scalars": scalars, "station": station, "times": times,
            "obs": obs, "lead": lead, "predictor_names": predictor_names,
            "scalar_names": scalar_names}


def load_ndjson(path, primary=0, n_stations=None):
    """Parse an NDJSON forecast file into a :class:`Dataset`.

    Every line must be a JSON object of the schema above with finite numeric
    (not boolean) values; a mistyped record raises ConfigError naming the
    line and the field.  When the binary copy of :func:`save_copy` lies
    beside ``path`` and records the digest of ``path``'s bytes, its arrays
    are read instead, and the :class:`Dataset` checks them as it checks
    parsed records.
    """
    columns = _read_copy(path) or _parse_ndjson(path)
    ens = columns["ens"]
    return Dataset(
        # (T, p, M) read as (T, M, p): the memory layout of stacked (M, p)
        # records, which fit_norm's sums over axes (0, 1) depend on
        ens=ens.transpose(0, 2, 1) if ens.ndim == 3 else ens,
        scalars=columns["scalars"],
        station=columns["station"],
        times=columns["times"],
        obs=columns["obs"],
        lead_hours=columns["lead"],
        predictor_names=columns["predictor_names"],
        scalar_names=columns["scalar_names"],
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
# Binary copy
# ---------------------------------------------------------------------------


# The arrays of a binary copy, name -> (dtype, ndim), where "U" is a str
# array of any width.  ``ens`` is the (T, p, M) block that parsing builds,
# so both routes give Dataset the same memory layout; ``sha256`` is the
# digest of the NDJSON bytes the copy stands for.
_COPY = {"ens": ("f8", 3), "scalars": ("f8", 2), "station": ("i8", 1),
         "times": ("M8[D]", 1), "obs": ("f8", 1), "lead": ("i8", 0),
         "predictor_names": ("U", 1), "scalar_names": ("U", 1),
         "sha256": ("U", 0)}


def sha256_file(path):
    """Hex SHA-256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _copy_path(path):
    return os.path.splitext(os.fspath(path))[0] + ".npz"


def save_copy(dataset: Dataset, path):
    """Write the binary copy of ``dataset`` beside the NDJSON file ``path``,
    which must hold what :func:`save_ndjson` wrote of it.  The copy is an
    uncompressed ``.npz`` of plain arrays (no pickles) and records the
    SHA-256 of ``path``'s bytes, which it returns."""
    digest = sha256_file(path)
    arrays = {
        "ens": dataset.ens.transpose(0, 2, 1),
        "scalars": dataset.scalars,
        "station": dataset.station,
        "times": dataset.times,
        "obs": dataset.obs,
        "lead": np.int64(dataset.lead_hours),
        "predictor_names": np.array(dataset.predictor_names, dtype=str),
        "scalar_names": np.array(dataset.scalar_names, dtype=str),
        "sha256": np.array(digest),
    }
    for key in ("predictor_names", "scalar_names"):
        if arrays[key].tolist() != getattr(dataset, key):
            raise ConfigError(f"{key} ending in NUL do not fit a str array")
    # np.savez's layout (stored members, the fixed 1980 timestamp), but each
    # array goes out in C order a block at a time, so that no whole copy of
    # the ensemble block is made
    with zipfile.ZipFile(_copy_path(path), "w") as npz:
        for name, array in arrays.items():
            with npz.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": np.lib.format.dtype_to_descr(array.dtype),
                    "fortran_order": False, "shape": array.shape})
                for block in np.nditer(array, ["external_loop", "buffered",
                                               "zerosize_ok"],
                                       buffersize=1 << 13, order="C"):
                    fh.write(block.tobytes())
    return digest


def _read_copy(path):
    """The columns of the binary copy beside the NDJSON file ``path``, as
    :func:`_parse_ndjson` gives them, or None unless the copy opens without
    unpickling, holds exactly the arrays of :data:`_COPY` and records the
    digest of ``path``'s bytes."""
    try:
        # np.load would leave a file it opened unclosed when a zip it
        # starts to read turns out truncated
        with open(_copy_path(path), "rb") as fh, \
                np.load(fh, allow_pickle=False) as npz:
            if sorted(npz.files) != sorted(_COPY) \
                    or str(npz["sha256"]) != sha256_file(path):
                return None
            copy = {name: npz[name] for name in _COPY}
            if not all(copy[name].ndim == ndim and (
                    copy[name].dtype.kind == "U" if kind == "U"
                    else copy[name].dtype == kind)
                    for name, (kind, ndim) in _COPY.items()):
                return None
    # the copy only saves parsing: whatever keeps it from loading (no file,
    # a truncated or foreign file, a pickled array), the NDJSON decides
    except Exception:
        return None
    return {**copy, **{key: copy[key].tolist()
                       for key in ("lead", "predictor_names", "scalar_names")}}


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


def standardize(dataset: Dataset, stats):
    """Standardized (ens, scalars) arrays of a dataset under the
    :func:`fit_norm` statistics ``stats`` (the usual train-fit / test-apply
    contract).  Each value is standardized on its own, with its predictor's
    statistics.
    """
    if stats["predictor_names"] != dataset.predictor_names \
            or stats["scalar_names"] != dataset.scalar_names:
        raise ConfigError("normalization stats name mismatch")
    ens = (dataset.ens - np.asarray(stats["ens_mean"])) \
        / np.asarray(stats["ens_std"])
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
    # rows are sorted by time, so each block is the slice of rows from the
    # first row of its first date
    times = dataset.times
    firsts = np.flatnonzero(np.concatenate(([True], times[1:] != times[:-1])))
    n = len(firsts)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    if not 0 < n_train < n_train + n_val < n:
        raise ConfigError("temporal split produced an empty block")
    cuts = [0, firsts[n_train], firsts[n_train + n_val], len(dataset)]
    return tuple(dataset.subset(slice(lo, hi))
                 for lo, hi in zip(cuts, cuts[1:]))


def derive_seed(seed, *tags):
    """Stable child seed for a named random stream."""
    digest = zlib.crc32("/".join(str(t) for t in tags).encode("utf-8"))
    return int(np.random.SeedSequence([int(seed), digest]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Config field checks: run configs, model configs and checkpoint headers
# ---------------------------------------------------------------------------


# A field's check: a predicate and what it expects, for the error message.
_Check = namedtuple("_Check", "ok expects required", defaults=(False,))
_STRING = _Check(lambda v: type(v) is str, "a string")
_NUMBER = _Check(_is_real, "a finite number")
_POSITIVE = _Check(lambda v: _is_real(v) and v > 0, "a number > 0")


def _integer(low=None, high=None):
    # a JSON integer only: no bool, and no 10.0, a float to NumPy
    return _Check(lambda v: (type(v) is int and (low is None or v >= low)
                             and (high is None or v <= high)),
                  "an integer" + (f" >= {low}" if low is not None else "")
                  + (f" and <= {high}" if high is not None else ""))


def _list(item, size=None, least=0, distinct=False):
    return _Check(lambda v: (type(v) is list and size in (None, len(v))
                             and len(v) >= least and all(map(item.ok, v))
                             and not (distinct and len(set(v)) < len(v))),
                  "a list" + (f" of {size}" if size else
                              f" of at least {least}" if least else "")
                  + f", each item {item.expects}"
                  + (", none twice" if distinct else ""))


def _one_of(values):
    return _Check(lambda v: v in values,
                  "one of " + ", ".join(map(json.dumps, values)))


def _fields(config_class, **rules):
    """Checks for the fields of a config dataclass, typed by its defaults.
    A rule replaces a field's check; an int rule is the least value of an
    integer field."""
    by_type = {int: _integer(), str: _STRING, float: _NUMBER,
               tuple: _list(_integer())}
    rules = {name: _integer(rule) if type(rule) is int else rule
             for name, rule in rules.items()}
    return {f.name: rules.get(f.name, by_type[type(f.default)])
            for f in fields(config_class)}


def _rejected(field, expects, value):
    return ConfigError(f"config field {field or '(top level)'}: expected "
                       f"{expects}, got {json.dumps(value)}")


def check_fields(config, checks, path="", required=False):
    """Raise ConfigError naming the first field that ``checks`` rejects.

    ``checks`` maps each field to a check and each section to a table of
    its own; a field it does not name is rejected at every level.  A
    required check's field must be there, and with ``required`` every field
    of every level.
    """
    if type(config) is not dict:
        raise _rejected(path, "an object", config)
    prefix = f"{path}." if path else ""
    for name, value in config.items():
        check = checks.get(name)
        if check is None:
            raise ConfigError(f"config field {prefix}{name}: unknown field")
        if isinstance(check, dict):
            check_fields(value, check, prefix + name, required)
        elif not check.ok(value):
            raise _rejected(prefix + name, check.expects, value)
    for name, check in checks.items():
        if (required or getattr(check, "required", False)) \
                and name not in config:
            raise ConfigError(f"config field {prefix}{name}: required")


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
        self.check(vars(self))

    @classmethod
    def check(cls, d, section=""):
        """ConfigError naming the field (of ``section``) of the JSON config
        ``d`` that SYNTH_CHECKS rejects, or the sizes of a float64 ensemble
        block NumPy cannot index; a missing field reads as its default."""
        check_fields(d, SYNTH_CHECKS, section)
        dims = ("days", "stations", "members")
        days, stations, members = (d.get(k, getattr(cls, k)) for k in dims)
        size = days * stations * members * len(PREDICTOR_NAMES)
        if _too_large(size):
            raise _rejected(", ".join(f"{section}.{k}".lstrip(".")
                                      for k in dims),
                            f"days x stations x members x "
                            f"{len(PREDICTOR_NAMES)} float64 values of no "
                            "more bytes than NumPy indexes", size)


SYNTH_CHECKS = _fields(
    SynthConfig, stations=1, members=2, seed=0,
    days=_integer(1, MAX_SYNTH_DAYS),                # up to 9999-12-31
    lead_hours=_Check(_is_int, "a 64-bit integer"))  # the loader's "lead"


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

    days = SYNTH_START + np.arange(d)
    yday = (days - days.astype("datetime64[Y]")).astype(np.float64) + 1

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
        times=np.repeat(days, s),
        obs=obs.reshape(t_total),
        lead_hours=config.lead_hours,
        predictor_names=PREDICTOR_NAMES,
        scalar_names=SCALAR_NAMES,
        primary=0,
        n_stations=s,
    )
