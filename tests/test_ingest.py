import csv
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gridshock import ingest
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
    read_feed,
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


def test_each_distinct_timestamp_string_is_parsed_once(tmp_path, monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_timestamp(text)

    monkeypatch.setattr(ingest, "parse_timestamp", counting)
    stamps = ["2023-03-01T00:00:00Z", "2023-03-01T03:00:00Z", "2023-03-01 03:00:00"]
    lines = [f"{uid},{ts}" for ts in stamps for uid in ("u0", "u1")]
    outages = tmp_path / "outages.csv"
    outages.write_text("unit_id,timestamp,customers_out\n" + "".join(f"{line},1\n" for line in lines * 2))
    weather = tmp_path / "weather.csv"
    weather.write_text("unit_id,timestamp,wind\n" + "".join(f"{line},2.5\n" for line in lines))
    expected = [(int(uid[1]), parse_timestamp(ts)) for uid, ts in (line.split(",") for line in lines)]
    for rows, repeats in ((load_outage_rows(outages, _units(2)), 2), (load_weather_rows(weather, _units(2))[1], 1)):
        parsed.clear()
        assert [(unit, ts) for unit, ts, _ in rows] == expected * repeats
        assert sorted(parsed) == sorted(stamps)


def _row_reader(path, units, kind):
    """What `read_feed` must give: the row loaders' rows as columns."""
    if kind == "outages":
        return FeedColumns.from_rows(load_outage_rows(path, units))
    variables, rows = load_weather_rows(path, units)
    return FeedColumns.from_rows(rows, width=len(variables))


def _outcome(read, *args):
    """The columns' bytes, dtypes, shapes and timestamps, or the error's type and text."""
    try:
        cols = read(*args)
    except Exception as exc:  # any error the row reader raises is the answer
        return type(exc), str(exc)
    if isinstance(cols, tuple):
        cols = cols[1]
    return [(a.dtype, a.shape, a.tobytes()) for a in (cols.unit, cols.stamp, cols.values)], cols.stamps


def _read_feed_deferring(path, units, kind):
    """`read_feed`'s outcome, and whether it read the file again through the row loader."""
    loads = []
    loader = "load_outage_rows" if kind == "outages" else "load_weather_rows"
    original = getattr(ingest, loader)
    with mock.patch.object(ingest, loader, lambda *a: loads.append(a) or original(*a)):
        outcome = _outcome(read_feed, path, units, kind)
    return outcome, len(loads)


HEADERS = {
    "outages": ["unit_id,timestamp,customers_out", "customers_out,timestamp,unit_id", "unit_id,timestamp,customers_out,note"],
    "weather": ["unit_id,timestamp,wind,rain", "wind,unit_id,timestamp", "unit_id,timestamp,wind"],
}
# fields that both readers take, and fields that the fast path must defer on or that the row reader rejects
CLEAN_FIELDS = {
    "unit_id": st.sampled_from(["u0", "u1", "u2", " u1 ", "u2\t"]),
    "timestamp": st.sampled_from(["2023-03-01T00:00:00Z", "2023-03-01T03:00:00Z", "2023-03-01T01:00:00+01:00",
                                  "2023-02-28T21:00:00-06:00", " 2023-03-01 03:00:00 ", "2023-03-01T00:00:00.5"]),
    "value": st.one_of(st.sampled_from(["0", "1", "2.5", " 4 ", "-0", "+7", ".5", "1.e1", "1E3", "0.1\u2003"]),
                       st.floats(0, 1e18).map(repr)),
}
ODD_FIELDS = {
    "unit_id": st.sampled_from(['"u0"', 'u"0', "u9", "", "\ufeffu0", "u0\x00", "u0\x1c", "\x1cu0"]),
    "timestamp": st.sampled_from(["2023-13-01T00:00:00Z", "0001-01-01T00:00:00+01:00", "", '"2023-03-01T00:00:00Z"']),
    "value": st.sampled_from(["1_0", "nan", "inf", "-inf", "1e30", "1e400", "-1", "-1e-300", "0x10", "\uff11", "1\x1c",
                              "\x1c1", "1\x00", "1\x85", "1e", "", "9223372036854775808", "9223372036854774784"]),
}
FIELD_NOISE = st.text(st.sampled_from('u0 1.,"\t\x00\x1c\x85\u2003\ufeff:-Z'), max_size=6)


@st.composite
def csv_feed(draw):
    """A header and data rows, with blank lines and both common line ends; in
    a noisy feed about one field or line in ten is odd (see ODD_FIELDS), is
    random text, or has a field too few or too many."""
    kind = draw(st.sampled_from(sorted(HEADERS)))
    header = draw(st.sampled_from(HEADERS[kind]))
    noisy = draw(st.booleans())
    odd = (lambda: draw(st.integers(0, 9)) == 0) if noisy else (lambda: False)

    def field(name):
        if name == "note":
            return "x"
        name = name if name in ODD_FIELDS else "value"
        return draw(st.one_of(ODD_FIELDS[name], FIELD_NOISE) if odd() else CLEAN_FIELDS[name])

    lines = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [field(name) for name in header.split(",")]
        shape = draw(st.sampled_from(["space", "short", "long", "cr"])) if odd() else "row"
        line = {"row": ",".join(fields), "space": draw(st.sampled_from([" ", "\t"])), "short": ",".join(fields[:-1]),
                "long": ",".join(fields + ["1"]), "cr": ",".join(fields[:-1]) + "\r" + fields[-1]}[shape]
        lines.extend([line] + [""] * draw(st.integers(0, 1)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + end for line in [header, *lines])
    return kind, text[: -len(end)] if draw(st.booleans()) else text  # with or without a last line end


@given(csv_feed(), st.sampled_from([1, 2, 3, 4096]))
def test_read_feed_gives_the_row_readers_columns_or_its_error(tmp_path_factory, feed, chunk_rows):
    kind, text = feed
    path = tmp_path_factory.getbasetemp() / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        assert _outcome(read_feed, path, _units(3), kind) == _outcome(_row_reader, path, _units(3), kind)


@given(st.sampled_from(sorted(HEADERS)), st.sampled_from('"\x1c\x1d\x1e\x1f'), st.integers(1, 3), st.data())
def test_a_deferred_character_in_a_later_chunk_sends_the_file_to_the_row_reader(
    tmp_path_factory, kind, char, chunk_rows, data
):
    """Each character that `read_feed` leaves to the row reader is found in any
    chunk, not only in the first: placed in a line past the first chunk, at
    a field's edge (where numpy strips \x1c-\x1f from a number) or anywhere,
    the file is read again by the row loader and gives its outcome."""
    header = HEADERS[kind][0]
    lines = [",".join([f"u{i % 3}", f"2023-03-01T0{i % 8}:00:00Z", *[f"{i}.5"] * (header.count(",") - 1)])
             for i in range(data.draw(st.integers(chunk_rows + 1, 3 * chunk_rows + 1)))]
    row = data.draw(st.integers(chunk_rows, len(lines) - 1))
    commas = [i for i, c in enumerate(lines[row]) if c == ","]
    edges = [0, len(lines[row]), *commas, *(i + 1 for i in commas)]
    pos = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, len(lines[row]))))
    lines[row] = lines[row][:pos] + char + lines[row][pos:]
    path = tmp_path_factory.getbasetemp() / f"{kind}.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        outcome, loads = _read_feed_deferring(path, _units(3), kind)
    assert loads == 1
    assert outcome == _outcome(_row_reader, path, _units(3), kind)


H = "unit_id,timestamp,customers_out\n"


@pytest.mark.parametrize(
    "text, deferred, expected",
    [
        # csv.reader unquotes the id; the fast path leaves quoting to it
        (H + '"u0",2023-03-01T00:00:00Z,3\nu1,2023-03-01T00:00:00Z,4\n', True, ([0, 1], [0, 0], [3.0, 4.0])),
        ('unit_id,"timestamp",customers_out\nu0,2023-03-01T00:00:00Z,3\n', True, ([0], [0], [3.0])),
        (H + "u0,2023-03-01T00:00:00Z,3\r\nu1,2023-03-01T03:00:00Z,4\r\n", False, ([0, 1], [0, 1], [3.0, 4.0])),
        # a blank line is no row, for csv.reader as for loadtxt; a whitespace-only line is a row of one field
        (H + "u0,2023-03-01T00:00:00Z,3\n\n\nu1,2023-03-01T00:00:00Z,4\n", False, ([0, 1], [0, 0], [3.0, 4.0])),
        (H + "u0,2023-03-01T00:00:00Z,3\n \nu1,2023-03-01T00:00:00Z,4\n", True, "outages.csv:3: 1 fields, the header has 3"),
        (H + "u0,2023-03-01T00:00:00Z,3\n\t\n", True, "outages.csv:3: 1 fields, the header has 3"),
        (H + "\ufeffu0,2023-03-01T00:00:00Z,3\n", True, "outages.csv:2: unknown unit_id '\\ufeffu0'"),
        (H + " u0 ,2023-03-01T00:00:00Z, 3 \n", False, ([0], [0], [3.0])),
        # loadtxt ignores fields past the columns it reads, and a short row then a long one keep the comma count
        (H + "u0,2023-03-01T00:00:00Z,3,\n", True, "outages.csv:2: 4 fields, the header has 3"),
        ("unit_id,timestamp,customers_out,note\nu0,2023-03-01T00:00:00Z,3\nu1,2023-03-01T00:00:00Z,4,x,y\n", True,
         "outages.csv:2: 3 fields, the header has 4"),
        # a quoted field may hold a line end: csv.reader reads one row here, loadtxt would read two
        ('unit_id,timestamp,customers_out,note\nu0,2023-03-01T00:00:00Z,3,"a\nu1,2023-03-01T00:00:00Z,4,b"\n', True,
         ([0], [0], [3.0])),
        # float() reads digit groups; numpy's parser does not
        (H + "u0,2023-03-01T00:00:00Z,1_0\n", True, ([0], [0], [10.0])),
        (H + "u0,2023-03-01T00:00:00Z,nan\n", True, "outages.csv:2: customers_out must be a finite count in [0, 2**63), got 'nan'"),
        (H + "u0,2023-03-01T00:00:00Z,inf\n", True, "outages.csv:2: customers_out must be a finite count in [0, 2**63), got 'inf'"),
        (H + "u0,2023-03-01T00:00:00Z,1e30\n", True, "outages.csv:2: customers_out must be a finite count in [0, 2**63), got '1e30'"),
        # numpy strips \x1c-\x1f around a number, where float() does not
        (H + "u0,2023-03-01T00:00:00Z,\x1c1\n", True, "outages.csv:2: could not convert string to float: '\\x1c1'"),
        # one instant, two offsets: one timestamp id
        (H + "u0,2023-03-01T00:00:00Z,3\nu1,2023-03-01T01:00:00+01:00,4\n", False, ([0, 1], [0, 0], [3.0, 4.0])),
        # ids in order of first appearance, not of time
        (H + "u0,2023-03-01T03:00:00Z,3\nu0,2023-03-01T00:00:00Z,4\nu1,2023-03-01T03:00:00Z,5\n", False,
         ([0, 0, 1], [0, 1, 0], [3.0, 4.0, 5.0])),
    ],
)
def test_read_feed_pinned_against_csv_reader_and_float(tmp_path, text, deferred, expected):
    path = tmp_path / "outages.csv"
    path.write_bytes(text.encode("utf-8"))
    outcome, loads = _read_feed_deferring(path, _units(2), "outages")
    assert loads == int(deferred)
    assert outcome == _outcome(_row_reader, path, _units(2), "outages")
    if isinstance(expected, str):
        assert outcome == (ValidationError, str(path.parent / expected))
    else:
        _, cols = read_feed(path, _units(2), "outages")
        assert (cols.unit.tolist(), cols.stamp.tolist(), cols.values.tolist()) == expected


def test_read_feed_weather_values_and_over_long_fields(tmp_path):
    weather = tmp_path / "weather.csv"
    weather.write_text("unit_id,timestamp,wind,rain\nu0,2023-03-01T00:00:00Z,1_0,0.5\n")
    assert _read_feed_deferring(weather, _units(1), "weather")[1] == 1
    assert read_feed(weather, _units(1), "weather")[1].values.tolist() == [[10.0, 0.5]]
    for bad in ("inf", "-inf", "1e400"):
        weather.write_text(f"unit_id,timestamp,wind,rain\nu0,2023-03-01T00:00:00Z,1,{bad}\n")
        with pytest.raises(ValidationError, match=f"weather.csv:2: non-finite rain value '{bad}'"):
            read_feed(weather, _units(1), "weather")
    # csv.reader refuses a field longer than csv.field_size_limit(); loadtxt would read it
    outages = tmp_path / "outages.csv"
    outages.write_text(H + "u0,2023-03-01T00:00:00Z," + "0" * csv.field_size_limit() + "1\n")
    assert _read_feed_deferring(outages, _units(1), "outages") == ((csv.Error, str(_field_limit_error())), 1)


def _field_limit_error():
    try:
        next(csv.reader(["x" * (csv.field_size_limit() + 1)]))
    except csv.Error as exc:
        return exc


def test_read_feed_schema_errors_and_a_leading_bom(tmp_path):
    # a BOM belongs to the first header field, which then is no known column
    path = tmp_path / "outages.csv"
    path.write_bytes(("\ufeff" + H + "u0,2023-03-01T00:00:00Z,3\n").encode("utf-8"))
    with pytest.raises(SchemaError, match=r"missing required column\(s\) \['unit_id'\]"):
        read_feed(path, _units(1), "outages")
    path.write_text("unit_id,timestamp\nu0,2023-03-01T00:00:00Z\n")
    with pytest.raises(SchemaError, match="no weather variable"):
        read_feed(path, _units(1), "weather")


def test_read_feed_memory_does_not_grow_with_rows(tmp_path):
    """The feed is parsed CHUNK_ROWS lines at a time: beyond the columns it
    returns, reading 4N rows takes no more memory than reading N."""

    def extra_bytes(repeats):
        path = tmp_path / f"weather{repeats}.csv"
        rows = "".join(f"u{i},2023-03-01T0{t}:00:00Z,1.5,2.5\n" for i in range(4) for t in range(5))
        path.write_text("unit_id,timestamp,wind,rain\n" + rows * repeats)
        tracemalloc.start()
        try:
            _, cols = read_feed(path, _units(4), "weather")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in (cols.unit, cols.stamp, cols.values))

    n = 4 * ingest.CHUNK_ROWS // 20  # four chunks of 20-row blocks
    assert extra_bytes(4 * n) < 1.1 * extra_bytes(n)


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
