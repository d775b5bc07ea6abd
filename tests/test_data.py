"""Unit tests for dataset handling and the synthetic generator."""

import datetime
import json
import os
import re
import sys
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from enspost import data
from enspost.data import (CHUNK_RECORDS, PREDICTOR_NAMES, SCALAR_NAMES,
                          Dataset, SynthConfig, fit_norm, generate_synthetic,
                          load_ndjson, save_copy, save_ndjson, split_temporal,
                          standardize)
from enspost.errors import ConfigError
from oracles import (load_ndjson_per_line, split_temporal_by_dates,
                     synthetic_calendar)


def _tiny_dataset(t=6, m=4, p=2, q=2, seed=0, primary=0):
    rng = np.random.default_rng(seed)
    times = [f"2020-01-{d + 1:02d}" for d in range(t // 2) for _ in (0, 1)]
    return Dataset(
        ens=rng.normal(5, 1, size=(t, m, p)),
        scalars=rng.normal(size=(t, q)),
        station=[0, 1] * (t // 2),
        times=times,
        obs=rng.normal(5, 1, size=t),
        lead_hours=6,
        predictor_names=[f"p{i}" for i in range(p)],
        scalar_names=[f"s{i}" for i in range(q)],
        primary=primary,
    )


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


def test_dataset_sorts_by_time_then_station():
    ds = Dataset(
        ens=np.ones((3, 2, 1)) * np.arange(3)[:, None, None],
        scalars=np.zeros((3, 1)),
        station=[1, 0, 0],
        times=["2020-01-02", "2020-01-02", "2020-01-01"],
        obs=[1.0, 2.0, 3.0],
        lead_hours=6,
        predictor_names=["x"],
        scalar_names=["s"],
    )
    assert ds.times.astype(str).tolist() == ["2020-01-01", "2020-01-02",
                                             "2020-01-02"]
    assert list(ds.station) == [0, 0, 1]
    assert list(ds.obs) == [3.0, 2.0, 1.0]


def test_dataset_is_write_protected():
    ds = _tiny_dataset()
    with pytest.raises(ValueError):
        ds.ens[0, 0, 0] = 99.0


def test_dataset_validation_errors():
    with pytest.raises(ConfigError):
        _tiny_dataset(m=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="non-finite"):
        Dataset(ens=np.full((1, 2, 1), np.nan), scalars=np.zeros((1, 1)),
                station=[0], times=["2020-01-01"], obs=[1.0], lead_hours=6,
                predictor_names=["x"], scalar_names=["s"])
    with pytest.raises(ConfigError):
        Dataset(ens=rng.normal(size=(2, 2, 1)), scalars=np.zeros((2, 1)),
                station=[0, 5], times=["2020-01-01"] * 2, obs=[1.0, 2.0],
                lead_hours=6, predictor_names=["x"], scalar_names=["s"],
                n_stations=2)


def test_dataset_rejects_station_ids_outside_the_station_range():
    rng = np.random.default_rng(0)
    common = dict(ens=rng.normal(size=(2, 2, 1)), scalars=np.zeros((2, 1)),
                  times=["2020-01-01"] * 2, obs=[1.0, 2.0], lead_hours=6,
                  predictor_names=["x"], scalar_names=["s"])
    with pytest.raises(ConfigError, match="station id -1"):
        Dataset(station=[0, -1], **common)
    with pytest.raises(ConfigError, match="station id 5"):
        Dataset(station=[0, 5], n_stations=2, **common)


@pytest.mark.parametrize("primary", [-1, 2, 9])
def test_dataset_rejects_a_primary_predictor_outside_its_predictors(primary):
    with pytest.raises(ConfigError, match=f"primary predictor {primary}"):
        _tiny_dataset(p=2, primary=primary)


def test_dataset_shapes_and_months():
    ds = _tiny_dataset()
    assert ds.ens[0].shape == (4, 2)
    assert ds.lead_hours == 6
    assert set(ds.months()) == {1}


def test_months_read_the_month_of_any_iso_date():
    times = ["0001-01-01", "1969-12-31", "1970-01-01", "2016-02-29",
             "2016-07-15", "9999-12-31"]
    rng = np.random.default_rng(0)
    ds = Dataset(ens=rng.normal(size=(6, 2, 1)), scalars=np.zeros((6, 0)),
                 station=[0] * 6, times=times, obs=np.zeros(6), lead_hours=6,
                 predictor_names=["p0"], scalar_names=[])
    assert ds.months().dtype == np.int64
    assert ds.months().tolist() == [int(t[5:7]) for t in times]


@pytest.mark.parametrize("bad, times", [
    ("'2020-13-01'", ["2020-01-01", "2020-13-01"]),
    ("'not a date'", ["not a date", "2020-01-01"]),
    ("20200101", [20200101, 20200102]),
    ("'0000-12-31'", ["2020-01-01", "0000-12-31"]),
    ("'10000-01-01'", ["10000-01-01", "2020-01-01"]),
    ("'2020-1-01'", ["2020-01-01", "2020-1-01"]),
    ("None", ["2020-01-01", None]),
    # datetime64 days are named by their text, other units by their value
    ("'NaT'", np.array(["2020-01-01", "NaT"], dtype="datetime64[D]")),
    ("datetime.datetime(2020, 1, 1, 0, 0)",
     np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[s]")),
    ("datetime.date(2020, 1, 1)",
     np.array(["2020-01", "2020-02"], dtype="datetime64[M]")),
    ("datetime.date(2020, 1, 2)",
     np.array(["2020-01-02", "2020-01-09"], dtype="datetime64[W]")),
    ("'0000-12-31'", np.array(["2020-01-01", "0000-12-31"],
                              dtype="datetime64[D]")),
    ("'10000-01-01'", np.array(["10000-01-01", "2020-01-01"],
                               dtype="datetime64[D]")),
])
def test_dataset_rejects_times_that_are_not_iso_dates(bad, times):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match=f"time {re.escape(bad)} is not"):
        Dataset(ens=rng.normal(size=(2, 2, 1)), scalars=np.zeros((2, 0)),
                station=[0, 0], times=times, obs=np.zeros(2), lead_hours=6,
                predictor_names=["p0"], scalar_names=[])


def test_subset_keeps_the_selected_rows():
    ds = _tiny_dataset()
    sub = ds.subset(np.arange(3))
    assert len(sub) == 3
    np.testing.assert_array_equal(sub.ens, ds.ens[:3])
    np.testing.assert_array_equal(sub.obs, ds.obs[:3])


# ---------------------------------------------------------------------------
# NDJSON round trip
# ---------------------------------------------------------------------------


def test_ndjson_roundtrip_is_exact(tmp_path):
    ds = generate_synthetic(SynthConfig(stations=3, days=5, members=4))
    path = tmp_path / "data.ndjson"
    save_ndjson(ds, path)
    back = load_ndjson(path, primary=ds.primary, n_stations=ds.n_stations)
    np.testing.assert_array_equal(back.ens, ds.ens)
    np.testing.assert_array_equal(back.scalars, ds.scalars)
    np.testing.assert_array_equal(back.obs, ds.obs)
    assert list(back.times) == list(ds.times)
    assert back.predictor_names == ds.predictor_names
    assert back.lead_hours == ds.lead_hours


def test_load_ndjson_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.ndjson"
    good = {"time": "2020-01-01", "station": 0, "lead": 6, "obs": 1.0,
            "ens": {"x": [1.0, 2.0]}, "scalars": {"s": 0.5}}
    path.write_text(json.dumps(good) + "\nnot json\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_ndjson(path)
    bad = dict(good)
    del bad["obs"]
    path.write_text(json.dumps(bad) + "\n")
    with pytest.raises(ConfigError, match="obs"):
        load_ndjson(path)


def test_load_ndjson_rejects_inconsistent_schema(tmp_path):
    path = tmp_path / "mixed.ndjson"
    a = {"time": "2020-01-01", "station": 0, "lead": 6, "obs": 1.0,
         "ens": {"x": [1.0, 2.0]}, "scalars": {"s": 0.5}}
    b = dict(a, ens={"y": [1.0, 2.0]})
    path.write_text(json.dumps(a) + "\n" + json.dumps(b) + "\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_ndjson(path)


GOOD_RECORD = {"time": "2020-01-01", "station": 0, "lead": 6, "obs": 1.0,
               "ens": {"x": [1.0, 2.0], "y": [3, 4]}, "scalars": {"s": 0.5}}


MISTYPED = [
    ('["not", "an", "object"]', "JSON object"),
    ('"text"', "JSON object"),
    (json.dumps(dict(GOOD_RECORD, obs="1.0")), "'obs'"),
    (json.dumps(dict(GOOD_RECORD, obs=None)), "'obs'"),
    (json.dumps(dict(GOOD_RECORD, obs=True)), "'obs'"),
    (json.dumps(dict(GOOD_RECORD, station=1.7)), "'station'"),
    (json.dumps(dict(GOOD_RECORD, station=True)), "'station'"),
    (json.dumps(dict(GOOD_RECORD, station="0")), "'station'"),
    (json.dumps(dict(GOOD_RECORD, lead=6.0)), "'lead'"),
    (json.dumps(dict(GOOD_RECORD, time="notadate")), "'time'"),
    (json.dumps(dict(GOOD_RECORD, time="2020-02-30")), "'time'"),
    (json.dumps(dict(GOOD_RECORD, time="20200101")), "'time'"),
    (json.dumps(dict(GOOD_RECORD, time=20200101)), "'time'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": [1.0, "a"], "y": [3, 4]})),
     "'ens'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": [1.0, False], "y": [3, 4]})),
     "'ens'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": 1.0, "y": [3, 4]})), "'ens'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": [1.0, 2.0], "y": [3]})),
     "'ens'"),
    (json.dumps(dict(GOOD_RECORD, ens=[[1.0, 2.0]])), "'ens'"),
    (json.dumps(dict(GOOD_RECORD, scalars={"s": "0.5"})), "'scalars'"),
    (json.dumps(dict(GOOD_RECORD, scalars={"s": None})), "'scalars'"),
    (json.dumps(dict(GOOD_RECORD, lead=48)), "lead differ"),
    # integers beyond float64 / int64 and non-finite numbers
    (json.dumps(dict(GOOD_RECORD, obs=10**400)), "'obs'"),
    (json.dumps(dict(GOOD_RECORD, obs=float("nan"))), "'obs'"),
    (json.dumps(dict(GOOD_RECORD, station=10**400)), "'station'"),
    (json.dumps(dict(GOOD_RECORD, station=2**63)), "'station'"),
    (json.dumps(dict(GOOD_RECORD, lead=-2**63 - 1)), "'lead'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": [1.0, 10**400], "y": [3, 4]})),
     "'ens'"),
    (json.dumps(dict(GOOD_RECORD, ens={"x": [1.0, float("inf")],
                                       "y": [3, 4]})), "'ens'"),
    (json.dumps(dict(GOOD_RECORD, scalars={"s": -10**400})), "'scalars'"),
]


@pytest.mark.parametrize("line, field", MISTYPED)
def test_load_ndjson_rejects_mistyped_records(tmp_path, line, field):
    path = tmp_path / "bad.ndjson"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
    with pytest.raises(ConfigError, match="line 2") as err:
        load_ndjson(path)
    assert field in str(err.value)


# ---------------------------------------------------------------------------
# Chunked loading against the line-by-line reference
# ---------------------------------------------------------------------------

FLOAT_RECORD = dict(GOOD_RECORD, ens={"x": [1.0, 2.0], "y": [3.0, 4.0]})
FLOAT_MAX_PLUS_ONE = int(sys.float_info.max) + 1


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _same_outcome(path):
    """The chunked loader raises the reference's error or loads its
    arrays, bit for bit and in the same memory layout."""
    try:
        expected = load_ndjson_per_line(path)
    except ConfigError as ref:
        with pytest.raises(ConfigError) as ours:
            load_ndjson(path)
        assert str(ours.value) == str(ref)
        return
    got = load_ndjson(path)
    for name in ("ens", "scalars", "station", "times", "obs"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.strides == b.strides, name
        np.testing.assert_array_equal(a, b)
    for name in ("lead_hours", "predictor_names", "scalar_names",
                 "n_stations"):
        assert getattr(got, name) == getattr(expected, name)


@st.composite
def _records(draw):
    """Records as JSON lines: 1-600 records, so that chunks of
    CHUNK_RECORDS fill and overflow, with some numbers written as JSON
    integers and some blank lines."""
    n, p, q = draw(st.integers(1, 600)), draw(st.integers(2, 5)), \
        draw(st.integers(0, 3))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    as_int = draw(st.sampled_from([0.0, 0.01, 0.5]))
    first_day = np.datetime64("0001-01-01")
    days = rng.integers(0, 3652059, size=n)    # to 9999-12-31

    def number(v):
        return int(round(v * 1e3)) if rng.random() < as_int else float(v)

    lines = []
    for k in range(n):
        rec = {"time": str(first_day + days[k]),
               "station": int(rng.integers(0, 50)), "lead": 12,
               "obs": number(rng.normal(10, 3)),
               "ens": {f"p{j}": [number(v) for v in rng.normal(0, 5, m)]
                       for j in range(p)},
               "scalars": {f"s{j}": number(rng.normal()) for j in range(q)}}
        lines.append(json.dumps(rec))
        if rng.random() < 0.01:
            lines.append("")
    return lines


@settings(max_examples=40)
@given(lines=_records())
def test_chunked_load_equals_line_by_line_reference(tmp_path_factory, lines):
    _same_outcome(_write_lines(tmp_path_factory.mktemp("ndjson") / "d.ndjson",
                               lines))


@pytest.mark.parametrize("line, field", MISTYPED)
def test_chunked_load_reports_the_first_mistyped_line(tmp_path, line, field):
    # the mistyped record sits at a random line of the first or second
    # chunk, and a line of invalid JSON follows it in the same chunk
    rng = np.random.default_rng(zlib.crc32(line.encode()))
    start = CHUNK_RECORDS * int(rng.integers(0, 2))
    bad = int(rng.integers(max(start, 1), start + CHUNK_RECORDS - 1))
    broken = int(rng.integers(bad + 1, start + CHUNK_RECORDS))
    lines = [json.dumps(FLOAT_RECORD)] * (start + CHUNK_RECORDS + 3)
    lines[bad], lines[broken] = line, '{"time": '
    path = _write_lines(tmp_path / "bad.ndjson", lines)
    with pytest.raises(ConfigError, match=f"line {bad + 1}:") as err:
        load_ndjson(path)
    assert field in str(err.value)
    _same_outcome(path)


@pytest.mark.parametrize("record", [
    dict(FLOAT_RECORD, ens={"x": [1, 2], "y": [3.0, -4]}),
    dict(FLOAT_RECORD, obs=2**70, scalars={"s": -3}),
    dict(FLOAT_RECORD, obs=int(sys.float_info.max)),
    dict(FLOAT_RECORD, obs=FLOAT_MAX_PLUS_ONE),
    dict(FLOAT_RECORD, ens={"x": [1.0, FLOAT_MAX_PLUS_ONE], "y": [3.0, 4.0]}),
    dict(FLOAT_RECORD, scalars={"s": -FLOAT_MAX_PLUS_ONE}),
    dict(FLOAT_RECORD, ens={"x": [1.0, True], "y": [3.0, 4.0]}),
    dict(FLOAT_RECORD, scalars={"s": True}),
    dict(FLOAT_RECORD, obs=False),
    dict(FLOAT_RECORD, station=2**63 - 1),
    dict(FLOAT_RECORD, station=-2**63),
    dict(FLOAT_RECORD, obs=float("-inf")),
    dict(FLOAT_RECORD, scalars={"s": float("nan")}),
    dict(FLOAT_RECORD, time="0001-01-01"),
    dict(FLOAT_RECORD, time="9999-12-31"),
    dict(FLOAT_RECORD, time="0000-01-01"),
    dict(FLOAT_RECORD, time="10000-01-01"),
    dict(FLOAT_RECORD, time="-001-01-01"),
    dict(FLOAT_RECORD, time="NaT"),
    dict(FLOAT_RECORD, time=""),
    dict(FLOAT_RECORD, time="+2020-01-01"),
    dict(FLOAT_RECORD, time=" 2020-01-01"),
    dict(FLOAT_RECORD, time="2020-01-01T00"),
    dict(FLOAT_RECORD, time="2019-02-29"),
    dict(FLOAT_RECORD, ens={"x": [1.0, 2.0]}),
    dict(FLOAT_RECORD, ens={"y": [3.0, 4.0], "x": [1.0, 2.0]}),
    dict(FLOAT_RECORD, ens={"x": [1.0, 2.0, 5.0], "y": [3.0, 4.0, 6.0]}),
    dict(FLOAT_RECORD, scalars={}),
    dict(FLOAT_RECORD, extra="ignored"),
])
@pytest.mark.parametrize("at", [1, CHUNK_RECORDS + 7])
def test_chunked_load_edge_records_match_reference(tmp_path, record, at):
    lines = [json.dumps(FLOAT_RECORD)] * (CHUNK_RECORDS + 20)
    lines[at] = json.dumps(record)
    _same_outcome(_write_lines(tmp_path / "edge.ndjson", lines))


def test_chunked_load_peak_memory_is_a_small_multiple_of_the_arrays(
        tmp_path):
    ds = generate_synthetic(SynthConfig(stations=10, days=500, members=20))
    path = tmp_path / "big.ndjson"
    save_ndjson(ds, path)
    tracemalloc.start()
    try:
        back = load_ndjson(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (back.ens, back.scalars, back.station,
                                    back.obs))
    assert len(back) == 5000
    assert peak < 3 * arrays, (peak, arrays)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw):
    t = draw(st.integers(1, 6))
    m = draw(st.integers(2, 4))
    p = draw(st.integers(1, 3))
    q = draw(st.integers(0, 2))
    n_stations = draw(st.integers(1, 3))

    def block(*shape):
        flat = draw(st.lists(_finite, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.float64).reshape(shape)

    days = draw(st.lists(st.integers(0, 3000), min_size=t, max_size=t))
    return Dataset(
        ens=block(t, m, p), scalars=block(t, q),
        station=draw(st.lists(st.integers(0, n_stations - 1), min_size=t,
                              max_size=t)),
        times=[(datetime.date(2016, 1, 1)
                + datetime.timedelta(days=d)).isoformat() for d in days],
        obs=block(t), lead_hours=draw(st.integers(0, 240)),
        predictor_names=[f"p{i}" for i in range(p)],
        scalar_names=[f"s{i}" for i in range(q)],
        n_stations=n_stations)


@settings(max_examples=60)
@given(ds=_datasets())
def test_ndjson_save_load_roundtrip_property(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("ndjson") / "data.ndjson"
    save_ndjson(ds, path)
    back = load_ndjson(path, primary=ds.primary, n_stations=ds.n_stations)
    for name in ("ens", "scalars", "obs", "station", "times"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
    assert back.lead_hours == ds.lead_hours
    assert back.predictor_names == ds.predictor_names
    assert back.scalar_names == ds.scalar_names


# ---------------------------------------------------------------------------
# Binary copy
# ---------------------------------------------------------------------------


def _signature(ds):
    """Everything a loaded dataset hands on, bit for bit: each array's
    dtype, shape, strides and bytes, the dates, names, lead, primary,
    station count and the fit_norm statistics (or the error it raises)."""
    arrays = [(a.dtype.str, a.shape, a.strides, a.tobytes())
              for a in (ds.ens, ds.scalars, ds.station, ds.obs)]
    try:
        norm = repr(fit_norm(ds))
    except ConfigError as exc:
        norm = str(exc)
    return (arrays, ds.times.strides, list(map(type, ds.times)),
            list(ds.times), ds.lead_hours, ds.predictor_names,
            ds.scalar_names, ds.primary, ds.n_stations, norm)


def _not_parsed():
    """A context in which load_ndjson fails if it parses the NDJSON."""
    return mock.patch.object(data, "_parse_ndjson",
                             side_effect=AssertionError("parsed the NDJSON"))


def _copy_of(path):
    return path.with_suffix(".npz")


def _assert_copy_loads_like_ndjson(path, ds, primary, n_stations):
    save_ndjson(ds, path)
    # the digest the copy records is the one it returns
    assert save_copy(ds, path) == data.sha256_file(path)
    with _not_parsed():
        from_copy = load_ndjson(path, primary=primary, n_stations=n_stations)
    os.remove(_copy_of(path))
    parsed = load_ndjson(path, primary=primary, n_stations=n_stations)
    assert _signature(from_copy) == _signature(parsed)


@settings(max_examples=30)
@given(stations=st.integers(1, 4), days=st.integers(1, 40),
       members=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       lead=st.integers(-2**63, 2**63 - 1), primary=st.integers(0, 3),
       n_stations=st.one_of(st.none(), st.integers(4, 6)))
def test_binary_copy_loads_the_synthetic_dataset_the_ndjson_does(
        tmp_path_factory, stations, days, members, seed, lead, primary,
        n_stations):
    ds = generate_synthetic(SynthConfig(stations=stations, days=days,
                                        members=members, seed=seed,
                                        lead_hours=lead))
    path = tmp_path_factory.mktemp("copy") / "dataset.ndjson"
    _assert_copy_loads_like_ndjson(path, ds, primary, n_stations)


@settings(max_examples=30)
@given(ds=_datasets(), primary=st.integers(0, 2))
def test_binary_copy_loads_any_dataset_the_ndjson_does(tmp_path_factory, ds,
                                                       primary):
    # no scalars, repeated (time, station) rows and any float values
    path = tmp_path_factory.mktemp("copy") / "data.ndjson"
    primary = min(primary, ds.n_predictors - 1)
    _assert_copy_loads_like_ndjson(path, ds, primary, ds.n_stations)


def test_names_a_str_array_would_cut_have_no_binary_copy(tmp_path):
    ds = _tiny_dataset()
    named = Dataset(ds.ens, ds.scalars, ds.station, ds.times, ds.obs,
                    ds.lead_hours, ["p0", "p1\0"], ds.scalar_names)
    path = tmp_path / "data.ndjson"
    save_ndjson(named, path)
    with pytest.raises(ConfigError, match="NUL"):
        save_copy(named, path)
    assert load_ndjson(path).predictor_names == ["p0", "p1\0"]


@pytest.fixture
def copied(tmp_path):
    """An NDJSON file with its binary copy, and the dataset both hold."""
    ds = generate_synthetic(SynthConfig(stations=3, days=30, members=4))
    path = tmp_path / "dataset.ndjson"
    save_ndjson(ds, path)
    save_copy(ds, path)
    return path, ds


def test_ndjson_edited_after_the_copy_is_parsed(copied):
    path, ds = copied
    lines = path.read_text().splitlines()
    rec = json.loads(lines[4])
    rec["obs"] = "12.5"
    path.write_text("\n".join(lines[:4] + [json.dumps(rec)] + lines[5:]))
    with pytest.raises(ConfigError, match="line 5: field 'obs'"):
        load_ndjson(path)
    rec["obs"] = 99.5
    path.write_text("\n".join(lines[:4] + [json.dumps(rec)] + lines[5:]))
    edited = load_ndjson(path)
    assert edited.obs[4] == 99.5
    np.testing.assert_array_equal(np.delete(edited.obs, 4),
                                  np.delete(ds.obs, 4))


_UNPICKLED = []


def _spring():
    _UNPICKLED.append("unpickled")


class _Trap:
    """Pickles to a call of _spring, so unpickling it leaves a trace."""

    def __reduce__(self):
        return _spring, ()


def _rewrite_copy(path, **changes):
    """Rewrite an NDJSON file's binary copy with arrays replaced, added or
    (given None) dropped."""
    with np.load(_copy_of(path)) as npz:
        arrays = {**npz, **changes}
    np.savez(_copy_of(path),
             **{k: v for k, v in arrays.items() if v is not None})


@pytest.mark.parametrize("breakage", [
    "truncated", "garbage", "pickled obs", "obs as float32", "ens as 2-d",
    "extra array", "missing scalars", "stale digest", "digest as bytes"])
def test_a_broken_copy_is_never_read(copied, breakage):
    path, ds = copied
    copy = _copy_of(path)
    with np.load(copy) as npz:
        obs, ens = npz["obs"], npz["ens"]
    if breakage == "truncated":
        copy.write_bytes(copy.read_bytes()[:-100])
    elif breakage == "garbage":
        copy.write_bytes(b"not a zip file" * 100)
    else:
        _rewrite_copy(path, **{
            "pickled obs": {"obs": np.array([_Trap()] * len(obs))},
            "obs as float32": {"obs": obs.astype(np.float32)},
            "ens as 2-d": {"ens": ens.reshape(len(ens), -1)},
            "extra array": {"extra": np.zeros(2)},
            "missing scalars": {"scalars": None},
            "stale digest": {"sha256": np.array("0" * 64)},
            "digest as bytes": {"sha256": np.array(data.sha256_file(path)
                                                   .encode())},
        }[breakage])
    with mock.patch.object(data, "_parse_ndjson",
                           wraps=data._parse_ndjson) as parse:
        loaded = load_ndjson(path)
    parse.assert_called_once()
    assert _UNPICKLED == []
    assert _signature(loaded) == _signature(load_ndjson_per_line(path))


def test_a_matching_copy_gets_the_dataset_checks(copied):
    path, _ = copied
    with np.load(_copy_of(path)) as npz:
        obs, times = npz["obs"].copy(), npz["times"].copy()
    obs[3] = np.nan
    _rewrite_copy(path, obs=obs)
    with _not_parsed(), pytest.raises(ConfigError, match="non-finite .* obs"):
        load_ndjson(path)
    times[0] = np.datetime64("NaT")
    _rewrite_copy(path, obs=np.nan_to_num(obs), times=times)
    with _not_parsed(), pytest.raises(ConfigError, match="'NaT'"):
        load_ndjson(path)


def _with_times(ds, times, order):
    """``ds`` rebuilt from its rows in ``order``, its dates given as
    ``times`` (in ``ds``'s row order)."""
    return Dataset(ds.ens[order], ds.scalars[order], ds.station[order],
                   np.asarray(times)[order], ds.obs[order], ds.lead_hours,
                   ds.predictor_names, ds.scalar_names, ds.primary,
                   ds.n_stations)


_COLUMNS = ("ens", "scalars", "station", "times", "obs")


@settings(max_examples=40)
@given(ds=_datasets(), days=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_times_are_datetime64_days_on_every_route(tmp_path_factory, ds, days,
                                                  seed):
    order = np.random.default_rng(seed).permutation(len(ds))
    from_text = _with_times(ds, ds.times.astype(str).tolist(), order)
    from_days = _with_times(ds, ds.times, order)
    for name in _COLUMNS:
        a, b = getattr(from_text, name), getattr(from_days, name)
        assert (a.dtype, a.shape, a.strides, a.tobytes()) \
            == (b.dtype, b.shape, b.strides, b.tobytes()), name
    path = tmp_path_factory.mktemp("routes") / "data.ndjson"
    save_ndjson(ds, path)
    routes = [ds, from_text, generate_synthetic(SynthConfig(days=days)),
              load_ndjson(path), ds.subset(order[:len(ds) // 2]),
              ds.subset(slice(1, None))]
    save_copy(ds, path)
    with _not_parsed():
        routes.append(load_ndjson(path))
    try:
        routes += split_temporal(ds, (0.4, 0.3, 0.3))
    except ConfigError:
        assert len(set(ds.times)) < 3
    for route in routes:
        assert route.times.dtype == "datetime64[D]"


# ---------------------------------------------------------------------------
# Standardization and splitting
# ---------------------------------------------------------------------------


def test_standardize_fit_and_apply():
    ds = _tiny_dataset(t=40, seed=3)
    stats = fit_norm(ds)
    ens, scalars = standardize(ds, stats)
    np.testing.assert_allclose(ens.mean(axis=(0, 1)), 0.0, atol=1e-12)
    np.testing.assert_allclose(ens.std(axis=(0, 1)), 1.0, atol=1e-12)
    np.testing.assert_allclose(scalars.mean(axis=0), 0.0, atol=1e-12)
    # applying train stats to other data uses the train statistics
    other = _tiny_dataset(t=40, seed=4)
    applied, _ = standardize(other, stats)
    expected = (other.ens - np.asarray(stats["ens_mean"])) \
        / np.asarray(stats["ens_std"])
    np.testing.assert_array_equal(applied, expected)
    # each value is standardized on its own: one predictor column alone
    # gets the same bits
    for j in range(other.n_predictors):
        np.testing.assert_array_equal(
            (other.ens[:, :, j] - stats["ens_mean"][j]) / stats["ens_std"][j],
            applied[:, :, j])
    renamed = dict(stats, predictor_names=["a", "b"])
    with pytest.raises(ConfigError, match="name mismatch"):
        standardize(other, renamed)
    # a standard deviation this small overflows the standardized values
    tiny = dict(stats, ens_std=[1e-320, 1.0])
    with np.errstate(over="ignore"), \
            pytest.raises(ConfigError, match="non-finite"):
        standardize(other, tiny)


def test_fit_norm_rejects_constant_column():
    ds = _tiny_dataset()
    flat = Dataset(np.concatenate(
        [ds.ens[:, :, :1], np.full_like(ds.ens[:, :, 1:], 2.5)], axis=2),
        ds.scalars, ds.station, ds.times, ds.obs, ds.lead_hours,
        ds.predictor_names, ds.scalar_names)
    with pytest.raises(ConfigError, match="constant"):
        fit_norm(flat)


def test_split_temporal_blocks_are_disjoint_and_ordered():
    ds = generate_synthetic(SynthConfig(stations=2, days=30, members=3))
    train, val, test = split_temporal(ds, (0.6, 0.2, 0.2))
    assert len(train) + len(val) + len(test) == len(ds)
    assert max(train.times) < min(val.times) < min(test.times)
    assert max(val.times) < min(test.times)
    with pytest.raises(ConfigError):
        split_temporal(ds, (0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        split_temporal(ds, (0.99, 0.005, 0.005))


@settings(max_examples=40)
@given(ds=_datasets(), fractions=st.lists(st.integers(0, 4), min_size=3,
                                          max_size=3).filter(any))
def test_split_temporal_slices_the_blocks_of_its_dates(ds, fractions):
    fractions = [f / sum(fractions) for f in fractions]
    try:
        blocks = split_temporal(ds, fractions)
    except ConfigError:
        assert not all(map(len, split_temporal_by_dates(ds, fractions)))
        return
    for block, reference in zip(blocks, split_temporal_by_dates(ds,
                                                               fractions)):
        assert _signature(block) == _signature(reference)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synthetic_shapes_names_and_determinism():
    cfg = SynthConfig(stations=4, days=10, members=8, seed=5)
    ds = generate_synthetic(cfg)
    assert len(ds) == 40
    assert ds.n_members == 8
    assert ds.predictor_names == list(PREDICTOR_NAMES)
    assert ds.scalar_names == list(SCALAR_NAMES)
    again = generate_synthetic(cfg)
    np.testing.assert_array_equal(ds.ens, again.ens)
    np.testing.assert_array_equal(ds.obs, again.obs)
    different = generate_synthetic(SynthConfig(stations=4, days=10,
                                               members=8, seed=6))
    assert not np.array_equal(ds.obs, different.obs)


def test_synthetic_primary_is_biased_and_underdispersed():
    ds = generate_synthetic(SynthConfig(stations=6, days=400, members=20,
                                        seed=0))
    primary = ds.ens[:, :, 0]
    bias = (primary.mean(axis=1) - ds.obs).mean()
    assert bias > 0.4                      # configured mean bias 0.8
    spread = primary.std(axis=1, ddof=1).mean()
    rmse = np.sqrt(((primary.mean(axis=1) - ds.obs) ** 2).mean())
    assert spread < 0.5 * rmse             # underdispersion


def test_synthetic_hidden_signals_live_in_the_right_moments():
    ds = generate_synthetic(SynthConfig(stations=6, days=500, members=20,
                                        seed=1))
    obs = ds.obs
    # the skew channel's member mean carries (almost) no signal, its
    # skewness does
    skew_members = ds.ens[:, :, 2]
    skew_stat = sps.skew(skew_members, axis=1, bias=True)
    mean_stat = skew_members.mean(axis=1)
    assert abs(np.corrcoef(skew_stat, obs)[0, 1]) > 0.25
    assert abs(np.corrcoef(mean_stat, obs)[0, 1]) < 0.1
    # the dead channel correlates with nothing
    dead = ds.ens[:, :, 3].mean(axis=1)
    assert abs(np.corrcoef(dead, obs)[0, 1]) < 0.05


def test_synthetic_calendar_equals_the_date_oracle():
    # 1600 days cross the leap days 2016-02-29 and 2020-02-29
    stations, days = 3, 1600
    ds = generate_synthetic(SynthConfig(stations=stations, days=days,
                                        members=2))
    dates, yday_cos = synthetic_calendar(days)
    assert {"2016-02-29", "2020-02-29"} <= set(dates)
    assert ds.times.astype(str).tolist() == np.repeat(dates, stations).tolist()
    column = ds.scalars[:, SCALAR_NAMES.index("yday_cos")]
    assert column.tobytes() == np.repeat(yday_cos, stations).tobytes()


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(stations=0)
    with pytest.raises(ConfigError):
        SynthConfig(members=1)
