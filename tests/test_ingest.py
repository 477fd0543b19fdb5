from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gridshock.errors import SchemaError, ValidationError
from gridshock.ingest import (
    Dataset,
    FeedColumns,
    OutageSeries,
    TimeGrid,
    UnitMeta,
    WeatherTensor,
    aggregate_outages,
    aggregate_weather,
    gap_report,
    load_dataset,
    load_outage_rows,
    load_units,
    load_weather_rows,
    parse_timestamp,
    save_dataset,
)

UTC = timezone.utc
START = datetime(2023, 3, 1, tzinfo=UTC)


def _grid(num_slots=4, slot_seconds=10800):
    return TimeGrid(start=START, slot_seconds=slot_seconds, num_slots=num_slots)


def _units(n=2):
    return [UnitMeta(unit_id=f"u{i}", centroid_lat=42.0 + 0.1 * i, centroid_lon=-71.0, total_customers=1000) for i in range(n)]


# -- timestamps and the grid --------------------------------------------------


def test_parse_timestamp_variants():
    assert parse_timestamp("2023-03-01T00:00:00Z") == START
    assert parse_timestamp("2023-03-01 00:00:00") == START  # naive -> UTC
    assert parse_timestamp("2023-03-01T01:00:00+01:00") == START
    with pytest.raises(ValidationError, match="timestamp"):
        parse_timestamp("yesterday-ish")


def test_slot_of_boundaries():
    grid = _grid(num_slots=4)
    assert grid.slot_of(START) == 0
    assert grid.slot_of(START + timedelta(seconds=10799)) == 0
    # a sample exactly on a slot boundary belongs to the later slot
    assert grid.slot_of(START + timedelta(seconds=10800)) == 1
    assert grid.slot_of(START - timedelta(seconds=1)) == -1
    assert grid.slot_of(grid.end) == -1
    assert grid.slot_of(grid.end - timedelta(seconds=1)) == 3


def test_grid_validation():
    with pytest.raises(ValidationError, match="slot_seconds"):
        TimeGrid(start=START, slot_seconds=0, num_slots=4)
    with pytest.raises(ValidationError, match="num_slots"):
        TimeGrid(start=START, slot_seconds=3600, num_slots=1)
    naive = TimeGrid(start=datetime(2023, 3, 1), slot_seconds=3600, num_slots=2)
    assert naive.start.tzinfo is UTC


def test_unit_meta_validation():
    with pytest.raises(ValidationError, match="latitude"):
        UnitMeta(unit_id="u", centroid_lat=91.0, centroid_lon=0.0, total_customers=5)
    with pytest.raises(ValidationError, match="longitude"):
        UnitMeta(unit_id="u", centroid_lat=0.0, centroid_lon=-200.0, total_customers=5)
    with pytest.raises(ValidationError, match="total_customers"):
        UnitMeta(unit_id="u", centroid_lat=0.0, centroid_lon=0.0, total_customers=0)


# -- outage aggregation -------------------------------------------------------


def _columns(rows, units, width=None):
    """The FeedColumns of (unit_id, timestamp, value) rows, with each unit_id
    resolved to its index in `units` as the CSV loaders resolve it."""
    index = {u.unit_id: i for i, u in enumerate(units)}
    return FeedColumns.from_rows(((index[uid], ts, value) for uid, ts, value in rows), width)


def _ts(slot, minutes=0):
    return START + timedelta(seconds=10800 * slot, minutes=minutes)


def test_aggregate_outages_mean_and_rounding():
    units = _units(1)
    grid = _grid(num_slots=3)
    rows = [
        ("u0", _ts(0, 10), 4.0),
        ("u0", _ts(0, 20), 8.0),      # slot 0 mean 6
        ("u0", _ts(1, 0), 3.0),
        ("u0", _ts(1, 30), 4.0),      # slot 1 mean 3.5 -> rounds half-up to 4
    ]
    series = aggregate_outages(_columns(rows, units), units, grid, method="mean")
    assert_array_equal(series.counts, [[6, 4, 0]])
    assert_array_equal(series.gap_mask, [[False, False, True]])


def test_aggregate_outages_alternating_mean():
    units = _units(1)
    grid = _grid(num_slots=2)
    rows = [("u0", _ts(0, m), v) for m, v in [(0, 0.0), (15, 10.0), (30, 0.0), (45, 10.0)]]
    series = aggregate_outages(_columns(rows, units), units, grid, method="mean")
    assert series.counts[0, 0] == 5


def test_aggregate_outages_max_and_last():
    units = _units(1)
    grid = _grid(num_slots=2)
    rows = [
        ("u0", _ts(0, 30), 9.0),
        ("u0", _ts(0, 10), 2.0),  # out of order on purpose
        ("u0", _ts(0, 50), 4.0),
    ]
    assert aggregate_outages(_columns(rows, units), units, grid, method="max").counts[0, 0] == 9
    assert aggregate_outages(_columns(rows, units), units, grid, method="last").counts[0, 0] == 4
    # of equal timestamps, in any UTC offset, the later row wins
    tied = _ts(0, 50).astimezone(timezone(timedelta(hours=-5)))
    assert aggregate_outages(_columns([*rows, ("u0", tied, 6.0)], units), units, grid, method="last").counts[0, 0] == 6
    assert aggregate_outages(_columns([("u0", tied, 6.0), *rows], units), units, grid, method="last").counts[0, 0] == 4


def test_aggregate_outages_skips_out_of_span():
    units = _units(1)
    grid = _grid(num_slots=2)
    rows = [
        ("u0", START - timedelta(hours=1), 5.0),
        ("u0", _ts(0), 1.0),
        ("u0", grid.end + timedelta(hours=2), 7.0),
    ]
    series = aggregate_outages(_columns(rows, units), units, grid)
    assert series.skipped_rows == 2
    assert_array_equal(series.counts, [[1, 0]])


def test_aggregate_outages_rejects_bad_rows():
    units = _units(1)
    grid = _grid(num_slots=2)
    # the loaders resolve unit ids (see test_loaders_reject_unknown_units); an index past the units fails here
    with pytest.raises(ValidationError, match="unknown unit index 1"):
        aggregate_outages(FeedColumns.from_rows([(1, _ts(0), 1.0)]), units, grid)
    with pytest.raises(ValidationError, match="negative"):
        aggregate_outages(_columns([("u0", _ts(0), -1.0)], units), units, grid)
    with pytest.raises(ValidationError, match="aggregation method"):
        aggregate_outages(FeedColumns.from_rows([]), units, grid, method="median")


# -- weather aggregation ------------------------------------------------------


def test_aggregate_weather_mean_and_carry_forward():
    units = _units(1)
    grid = _grid(num_slots=4)
    rows = [
        ("u0", _ts(0, 5), np.array([10.0, 1.0])),
        ("u0", _ts(0, 25), np.array([14.0, 3.0])),  # slot 0 mean (12, 2)
        ("u0", _ts(2, 0), np.array([6.0, 0.5])),
        # slots 1 and 3 have no samples
    ]
    wx = aggregate_weather(_columns(rows, units, width=2), units, grid, ["wind", "rain"])
    assert_array_equal(wx.values[0, 0], [12.0, 2.0])
    assert_array_equal(wx.values[0, 1], [12.0, 2.0])  # carried forward
    assert_array_equal(wx.values[0, 2], [6.0, 0.5])
    assert_array_equal(wx.values[0, 3], [6.0, 0.5])  # carried forward
    assert_array_equal(wx.gap_mask, [[False, True, False, True]])


def test_aggregate_weather_leading_gap_is_zero():
    units = _units(1)
    grid = _grid(num_slots=3)
    rows = [("u0", _ts(1), np.array([4.0]))]
    wx = aggregate_weather(_columns(rows, units, width=1), units, grid, ["wind"])
    assert_array_equal(wx.values[:, :, 0], [[0.0, 4.0, 4.0]])
    assert wx.gap_mask[0, 0]


# -- bucketing against the per-row reference ----------------------------------


def _reference_outages(raw_rows, units, grid, method):
    """The per-row loop the vectorised aggregate_outages replaced."""
    index = {u.unit_id: i for i, u in enumerate(units)}
    K, T = len(units), grid.num_slots
    sums = np.zeros((K, T))
    counts = np.zeros((K, T), dtype=np.int64)
    maxima = np.zeros((K, T))
    last_val = np.zeros((K, T))
    last_ts = {}
    skipped = 0
    for uid, ts, value in raw_rows:
        slot = grid.slot_of(ts)
        if slot < 0:
            skipped += 1
            continue
        i = index[uid]
        sums[i, slot] += value
        counts[i, slot] += 1
        maxima[i, slot] = max(maxima[i, slot], value)
        prev = last_ts.get((i, slot))
        if prev is None or ts >= prev:
            last_ts[(i, slot)] = ts
            last_val[i, slot] = value
    covered = counts > 0
    if method == "mean":
        agg = np.where(covered, sums / np.maximum(counts, 1), 0.0)
    else:
        agg = maxima if method == "max" else last_val
    cells = np.floor(agg + 0.5).astype(np.int64)
    cells[~covered] = 0
    return cells, ~covered, skipped


def _reference_weather(raw_rows, units, grid, M):
    """The per-row loop and per-slot carry-forward aggregate_weather replaced."""
    index = {u.unit_id: i for i, u in enumerate(units)}
    K, T = len(units), grid.num_slots
    sums = np.zeros((K, T, M))
    counts = np.zeros((K, T), dtype=np.int64)
    skipped = 0
    for uid, ts, vals in raw_rows:
        slot = grid.slot_of(ts)
        if slot < 0:
            skipped += 1
            continue
        i = index[uid]
        sums[i, slot, :] += vals
        counts[i, slot] += 1
    covered = counts > 0
    values = np.where(covered[:, :, None], sums / np.maximum(counts, 1)[:, :, None], 0.0)
    for t in range(1, T):
        gap = ~covered[:, t]
        values[gap, t, :] = values[gap, t - 1, :]
    return values, ~covered, skipped


@st.composite
def raw_feed(draw):
    """Units, a grid and rows that hit slot boundaries, the span's edges,
    microsecond offsets, repeated timestamps and non-UTC offsets."""
    K, T, M = draw(st.integers(1, 4)), draw(st.integers(2, 6)), draw(st.integers(1, 3))
    slot_seconds = draw(st.sampled_from([60, 3600, 10800]))
    grid = TimeGrid(start=START, slot_seconds=slot_seconds, num_slots=T)
    slot_us = slot_seconds * 10**6
    # slot -1 and slot T are outside the span; offset 0 is a slot boundary
    in_slot = st.one_of(st.just(0), st.just(1), st.just(slot_us - 1), st.integers(0, slot_us - 1))
    offset = st.builds(lambda k, us: k * slot_us + us, st.integers(-1, T), in_slot)
    # a small pool of instants, so cells often see several, and the same one twice
    pool = draw(st.lists(offset, min_size=1, max_size=8))
    zone = st.integers(-14 * 60, 14 * 60).map(lambda m: timezone(timedelta(minutes=m)))
    count = st.one_of(st.integers(0, 20).map(float), st.sampled_from([0.5, 2.5, 1e15 + 0.5]), st.floats(0, 1e6))
    reading = st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * M)

    def rows(value):
        row = st.tuples(st.integers(0, K - 1), st.sampled_from(pool), zone, value)
        return [
            (f"u{i}", (START + timedelta(microseconds=us)).astimezone(tz), v)
            for i, us, tz, v in draw(st.lists(row, max_size=3 * K * T))
        ]

    return _units(K), grid, M, rows(count), rows(reading)


@given(raw_feed())
def test_bucketing_matches_the_per_row_loops(feed):
    units, grid, M, outage_rows, weather_rows = feed
    for method in ("mean", "max", "last"):
        series = aggregate_outages(_columns(outage_rows, units), units, grid, method=method)
        cells, gaps, skipped = _reference_outages(outage_rows, units, grid, method)
        assert_array_equal(series.counts, cells)
        assert_array_equal(series.gap_mask, gaps)
        assert series.skipped_rows == skipped
    wx = aggregate_weather(_columns(weather_rows, units, width=M), units, grid, [f"v{m}" for m in range(M)])
    values, gaps, skipped = _reference_weather(weather_rows, units, grid, M)
    assert wx.values.tobytes() == values.tobytes()
    assert_array_equal(wx.gap_mask, gaps)
    assert wx.skipped_rows == skipped


# -- series / tensor / dataset validation -------------------------------------


def test_series_and_tensor_validation():
    with pytest.raises(ValidationError, match="non-negative"):
        OutageSeries(counts=np.array([[1, -2]]))
    with pytest.raises(ValidationError, match="K x T"):
        OutageSeries(counts=np.zeros(3))
    with pytest.raises(ValidationError, match="non-finite"):
        WeatherTensor(values=np.array([[[np.nan]]]), variable_names=["w"])
    with pytest.raises(ValidationError, match="variable names"):
        WeatherTensor(values=np.zeros((1, 2, 2)), variable_names=["w"])
    with pytest.raises(ValidationError, match="unique"):
        WeatherTensor(values=np.zeros((1, 2, 2)), variable_names=["w", "w"])


def test_dataset_shape_checks():
    units = _units(2)
    grid = _grid(num_slots=3)
    out = OutageSeries(counts=np.zeros((2, 3), dtype=int))
    wx = WeatherTensor(values=np.zeros((2, 3, 1)), variable_names=["w"])
    ds = Dataset(units=units, grid=grid, outages=out, weather=wx)
    assert (ds.num_units, ds.num_slots, ds.num_variables) == (2, 3, 1)
    with pytest.raises(ValidationError, match="outage matrix"):
        Dataset(units=units, grid=grid, outages=OutageSeries(counts=np.zeros((2, 4), dtype=int)), weather=wx)


# -- CSV loaders --------------------------------------------------------------


def test_csv_loaders_roundtrip(tmp_path):
    units_csv = tmp_path / "units.csv"
    units_csv.write_text("unit_id,lat,lon,total_customers\nu0,42.0,-71.0,1200\nu1,42.1,-71.1,800\n")
    units = load_units(units_csv)
    assert [u.unit_id for u in units] == ["u0", "u1"]
    assert units[1].total_customers == 800

    out_csv = tmp_path / "outages.csv"
    out_csv.write_text(
        "unit_id,timestamp,customers_out\nu0,2023-03-01T00:10:00Z,5\nu1,2023-03-01T03:10:00Z,2\n"
    )
    rows = list(load_outage_rows(out_csv, units))
    assert rows[0][0] == 0 and rows[0][2] == 5.0  # u0's index in units

    wx_csv = tmp_path / "weather.csv"
    wx_csv.write_text("unit_id,timestamp,wind,rain\nu0,2023-03-01T00:00:00Z,12.5,0.1\n")
    variables, it = load_weather_rows(wx_csv, units)
    assert variables == ["wind", "rain"]
    unit, ts, vals = next(iter(it))
    assert unit == 0 and ts == START
    assert_array_equal(vals, [12.5, 0.1])


def test_csv_loaders_reject_bad_schema(tmp_path):
    bad = tmp_path / "units.csv"
    bad.write_text("unit_id,lat\nu0,42.0\n")
    with pytest.raises(SchemaError, match="missing required column"):
        load_units(bad)
    bad_wx = tmp_path / "weather.csv"
    bad_wx.write_text("unit_id,timestamp\nu0,2023-03-01T00:00:00Z\n")
    with pytest.raises(SchemaError, match="no weather variable"):
        load_weather_rows(bad_wx, _units(1))
    # values that cannot become an int64 count fail at their row, not at the cast
    outages = tmp_path / "outages.csv"
    for bad_value in ("nan", "inf", "-inf", "1e30", str(2**63), "-1"):
        outages.write_text(f"unit_id,timestamp,customers_out\nu0,2023-03-01T00:00:00Z,3\nu0,2023-03-01T01:00:00Z,{bad_value}\n")
        with pytest.raises(ValidationError, match=f"outages.csv:3: customers_out must be a finite count"):
            list(load_outage_rows(outages, _units(1)))
    outages.write_text(f"unit_id,timestamp,customers_out\nu0,2023-03-01T00:00:00Z,{2**63 - 1024}\n")
    assert list(load_outage_rows(outages, _units(1)))[0][2] == 2**63 - 1024
    for bad_value in ("nan", "inf", "-inf"):
        bad_wx.write_text(f"unit_id,timestamp,wind,rain\nu0,2023-03-01T00:00:00Z,1,2\nu0,2023-03-01T01:00:00Z,3,{bad_value}\n")
        with pytest.raises(ValidationError, match="weather.csv:3: non-finite rain value"):
            list(load_weather_rows(bad_wx, _units(1))[1])


def test_loaders_reject_unknown_units(tmp_path):
    # a unit id missing from the units file fails at its file and line, after stripping
    outages = tmp_path / "outages.csv"
    outages.write_text("unit_id,timestamp,customers_out\n u0 ,2023-03-01T00:00:00Z,3\n\nzzz,2023-03-01T01:00:00Z,1\n")
    with pytest.raises(ValidationError, match=r"outages.csv:4: unknown unit_id 'zzz'$"):
        list(load_outage_rows(outages, _units(1)))
    weather = tmp_path / "weather.csv"
    weather.write_text("unit_id,timestamp,wind\nu1,2023-03-01T00:00:00Z,1\n")
    with pytest.raises(ValidationError, match=r"weather.csv:2: unknown unit_id 'u1'$"):
        list(load_weather_rows(weather, _units(1))[1])


def test_load_units_rejects_duplicates(tmp_path):
    bad = tmp_path / "units.csv"
    bad.write_text("unit_id,lat,lon,total_customers\nu0,42,-71,10\nu0,42,-71,10\n")
    with pytest.raises(ValidationError, match="duplicate"):
        load_units(bad)


# -- persistence / splitting / gaps -------------------------------------------


def _dataset():
    rng = np.random.default_rng(3)
    units = _units(2)
    grid = _grid(num_slots=6)
    out = OutageSeries(counts=rng.integers(0, 5, (2, 6)), gap_mask=rng.integers(0, 2, (2, 6)).astype(bool))
    wx = WeatherTensor(
        values=rng.normal(size=(2, 6, 2)),
        variable_names=["wind", "rain"],
        gap_mask=rng.integers(0, 2, (2, 6)).astype(bool),
    )
    return Dataset(units=units, grid=grid, outages=out, weather=wx)


def test_save_load_dataset_roundtrip(tmp_path):
    ds = _dataset()
    path = tmp_path / "ds.gshk"
    save_dataset(ds, path)
    ds2 = load_dataset(path)
    assert_array_equal(ds2.outages.counts, ds.outages.counts)
    assert_array_equal(ds2.outages.gap_mask, ds.outages.gap_mask)
    assert_array_equal(ds2.weather.values, ds.weather.values)
    assert_array_equal(ds2.weather.gap_mask, ds.weather.gap_mask)
    assert ds2.weather.variable_names == ds.weather.variable_names
    assert ds2.grid == ds.grid
    assert ds2.units == ds.units


def test_gap_report():
    ds = _dataset()
    rep = gap_report(ds)
    assert rep["total_cells"] == 12
    assert rep["outage_gap_cells"] == int(ds.outages.gap_mask.sum())
    assert rep["weather_gap_cells"] == int(ds.weather.gap_mask.sum())
