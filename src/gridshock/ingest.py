"""Loading, validation, and temporal aggregation of raw outage/weather tables.

Raw feeds report customers-without-power per geographic unit at a fine cadence
(15-minute records in the source systems). This module buckets them onto a
uniform slot grid (3-hour slots by default), averages regional weather onto
the same grid, and packages everything as an aligned :class:`Dataset`.

Conventions:
  * slot index = floor((timestamp - grid.start) / slot_seconds); samples on a
    boundary belong to the later slot.
  * missing outage cells are 0 (absence of a report means no outage reported);
    missing weather cells carry the previous slot's value forward. Both kinds
    of fill are flagged in the series' gap mask.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .container import meta_value, read_container, write_container
from .errors import COUNT, INTEGER, NUMBER, OBJECT, OBJECTS, TEXT, TEXTS, SchemaError, ValidationError, at_least
from .errors import AGGREGATIONS, checked, one_of

DATASET_SCHEMA = "gridshock-ds-v1"
DEFAULT_SLOT_SECONDS = 10800  # 3-hour slots


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValidationError(f"bad timestamp {text!r}: {exc}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class UnitMeta:
    """One geographic unit (town / zip / county) and its customer base."""

    unit_id: str
    centroid_lat: float
    centroid_lon: float
    total_customers: int

    def __post_init__(self):
        if not -90.0 <= self.centroid_lat <= 90.0:
            raise ValidationError(f"unit {self.unit_id!r}: latitude {self.centroid_lat} out of range")
        if not -180.0 <= self.centroid_lon <= 180.0:
            raise ValidationError(f"unit {self.unit_id!r}: longitude {self.centroid_lon} out of range")
        checked(self.total_customers, at_least(1), f"unit {self.unit_id!r}: total_customers")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform UTC slot grid: `num_slots` slots of `slot_seconds` from `start`."""

    start: datetime
    slot_seconds: int = DEFAULT_SLOT_SECONDS
    num_slots: int = 0

    def __post_init__(self):
        checked(self.slot_seconds, at_least(1), "slot_seconds")
        checked(self.num_slots, at_least(2), "num_slots")
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))

    @property
    def end(self) -> datetime:
        return self.start + timedelta(seconds=self.slot_seconds * self.num_slots)

    def slot_of(self, ts: datetime) -> int:
        """Slot index for `ts`, or -1 when outside the grid span."""
        delta = (ts - self.start).total_seconds()
        if delta < 0:
            return -1
        slot = int(delta // self.slot_seconds)
        return slot if slot < self.num_slots else -1


@dataclass
class OutageSeries:
    """K x T matrix of per-slot customer-outage counts."""

    counts: np.ndarray
    gap_mask: np.ndarray | None = None  # True where the slot had no raw samples

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValidationError(f"outage counts must be K x T, got shape {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValidationError("outage counts must be non-negative")

    @property
    def num_units(self) -> int:
        return self.counts.shape[0]

    @property
    def num_slots(self) -> int:
        return self.counts.shape[1]


@dataclass
class WeatherTensor:
    """K x T x M tensor of per-slot weather variable values."""

    values: np.ndarray
    variable_names: list[str] = field(default_factory=list)
    gap_mask: np.ndarray | None = None  # K x T, True where carried forward

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValidationError(f"weather values must be K x T x M, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ValidationError(f"non-finite weather value at (unit={bad[0]}, slot={bad[1]}, var={bad[2]})")
        if self.values.shape[2] < 1:
            raise ValidationError("weather tensor needs at least one variable")
        if len(self.variable_names) != self.values.shape[2]:
            raise ValidationError(
                f"{len(self.variable_names)} variable names for {self.values.shape[2]} variables"
            )
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValidationError("weather variable names must be unique")

    @property
    def num_variables(self) -> int:
        return self.values.shape[2]


@dataclass
class Dataset:
    """Aligned units + grid + outage counts + weather tensor."""

    units: list[UnitMeta]
    grid: TimeGrid
    outages: OutageSeries
    weather: WeatherTensor

    def __post_init__(self):
        K = len(self.units)
        T = self.grid.num_slots
        if self.outages.counts.shape != (K, T):
            raise ValidationError(
                f"outage matrix shape {self.outages.counts.shape} != (K={K}, T={T})"
            )
        if self.weather.values.shape[:2] != (K, T):
            raise ValidationError(
                f"weather tensor shape {self.weather.values.shape} inconsistent with (K={K}, T={T})"
            )

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def num_slots(self) -> int:
        return self.grid.num_slots

    @property
    def num_variables(self) -> int:
        return self.weather.num_variables


CSV_COLUMNS = {
    "units": ("unit_id", "lat", "lon", "total_customers"),
    "outages": ("unit_id", "timestamp", "customers_out"),
    "weather": ("unit_id", "timestamp"),  # plus one column per weather variable
}


def read_header(path, kind: str) -> list[str]:
    """Header row of a units/outages/weather CSV, checked for its required columns.

    A weather header also needs at least one variable column. The loaders
    check their files here.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    missing = set(CSV_COLUMNS[kind]) - set(header)
    if missing:
        raise SchemaError(f"{path}: missing required column(s) {sorted(missing)}")
    if kind == "weather" and set(header) <= set(CSV_COLUMNS["weather"]):
        raise SchemaError(f"{path}: no weather variable columns")
    return header


def _data_rows(path, width: int):
    """Yield (line number, fields) for each data row of a CSV file.

    Blank lines are skipped; a row with other than `width` fields fails
    with its file and line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for fields in reader:
            if len(fields) != width:
                if not fields:
                    continue
                raise ValidationError(f"{path}:{reader.line_num}: {len(fields)} fields, the header has {width}")
            yield reader.line_num, fields


class _Memo(dict):
    """`memo[key]` is `fn(key)`, computed on the first lookup of each distinct key.

    Raw feeds repeat each timestamp once per unit and each unit id once per
    timestamp, so the loaders parse each distinct string once.
    """

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def load_units(path) -> list[UnitMeta]:
    """Read units.csv (unit_id, lat, lon, total_customers), preserving row order."""
    path = Path(path)
    header = read_header(path, "units")
    uid_col, lat_col, lon_col, customers_col = map(header.index, CSV_COLUMNS["units"])
    units: list[UnitMeta] = []
    seen: set[str] = set()
    for row_num, fields in _data_rows(path, len(header)):
        uid = fields[uid_col].strip()
        if not uid:
            raise ValidationError(f"{path}:{row_num}: empty unit_id")
        if uid in seen:
            raise ValidationError(f"{path}:{row_num}: duplicate unit_id {uid!r}")
        seen.add(uid)
        try:
            unit = UnitMeta(
                unit_id=uid,
                centroid_lat=float(fields[lat_col]),
                centroid_lon=float(fields[lon_col]),
                total_customers=int(float(fields[customers_col])),
            )
        except ValueError as exc:
            raise ValidationError(f"{path}:{row_num}: {exc}") from exc
        units.append(unit)
    if not units:
        raise ValidationError(f"{path}: no unit rows")
    return units


def _unit_names(units: list[UnitMeta]) -> _Memo:
    """`names[raw]` is the index of the unit whose id is `raw` stripped."""
    index = {u.unit_id: i for i, u in enumerate(units)}

    def resolve(raw: str) -> int:
        uid = raw.strip()
        if uid not in index:
            raise ValidationError(f"unknown unit_id {uid!r}")
        return index[uid]

    return _Memo(resolve)


def load_outage_rows(path, units: list[UnitMeta]):
    """Yield (unit index, timestamp, customers_out) triples from outages.csv.

    The unit index is the row's position in `units`. customers_out must be a
    finite count in [0, 2**63), so it survives the cast to an int64 count cell.
    """
    path = Path(path)
    header = read_header(path, "outages")
    uid_col, ts_col, count_col = map(header.index, CSV_COLUMNS["outages"])
    names, stamps = _unit_names(units), _Memo(parse_timestamp)
    for row_num, fields in _data_rows(path, len(header)):
        try:
            value = float(fields[count_col])
            if not 0 <= value < 2**63:
                raise ValueError(f"customers_out must be a finite count in [0, 2**63), got {fields[count_col]!r}")
            ts = stamps[fields[ts_col]]
            unit = names[fields[uid_col]]
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{row_num}: {exc}") from exc
        yield unit, ts, value


def load_weather_rows(path, units: list[UnitMeta]):
    """Return (variable_names, row iterator of (unit index, timestamp, values)).

    The unit index is the row's position in `units`; `values` is a tuple of
    floats, one per variable. The header is checked at once; the iterator
    opens the file only when it is read, so an iterator that is never read
    holds no open file.
    """
    path = Path(path)
    header = read_header(path, "weather")
    uid_col, ts_col = map(header.index, CSV_COLUMNS["weather"])
    var_cols = [c for c, name in enumerate(header) if name not in CSV_COLUMNS["weather"]]

    def rows():
        names, stamps = _unit_names(units), _Memo(parse_timestamp)
        for row_num, fields in _data_rows(path, len(header)):
            try:
                vals = tuple(map(float, map(fields.__getitem__, var_cols)))
            except ValueError as exc:
                raise ValidationError(f"{path}:{row_num}: non-numeric weather value ({exc})") from exc
            if not all(map(math.isfinite, vals)):
                bad = next(c for c, v in zip(var_cols, vals) if not math.isfinite(v))
                raise ValidationError(f"{path}:{row_num}: non-finite {header[bad]} value {fields[bad]!r}")
            try:
                ts = stamps[fields[ts_col]]
                unit = names[fields[uid_col]]
            except ValidationError as exc:
                raise ValidationError(f"{path}:{row_num}: {exc}") from exc
            yield unit, ts, vals

    return [header[c] for c in var_cols], rows()


@dataclass(frozen=True, eq=False)
class FeedColumns:
    """One feed's rows as compact columns, in row order.

    `unit` is the unit index (int32), `stamp` the id of the row's timestamp
    (int32) and `values` the samples (float64; one per row, or a row of
    `width` per row). `stamps` holds each distinct timestamp once, in order
    of first appearance; equal instants share one id whatever their offset.
    A row costs 8 bytes plus 8 per value.
    """

    unit: np.ndarray
    stamp: np.ndarray
    values: np.ndarray
    stamps: list

    @classmethod
    def from_rows(cls, rows, width: int | None = None) -> "FeedColumns":
        """Columns of (unit index, timestamp, value) rows, read in one pass;
        with `width`, each value is a sequence of `width` floats."""
        unit, stamp, values = array("i"), array("i"), array("d")
        ids: dict[datetime, int] = {}
        add_unit, add_stamp, add_value = unit.append, stamp.append, values.append if width is None else values.extend
        for i, ts, value in rows:
            add_unit(i)
            add_stamp(ids.setdefault(ts, len(ids)))
            add_value(value)
        values = np.frombuffer(values, dtype=np.float64)
        if width is not None:
            if values.size != len(unit) * width:
                raise ValidationError(f"{values.size} values for {len(unit)} rows of {width}")
            values = values.reshape(len(unit), width)
        return cls(np.frombuffer(unit, dtype=np.intc), np.frombuffer(stamp, dtype=np.intc), values, list(ids))

    def cells(self, units: list[UnitMeta], grid: TimeGrid, kind: str):
        """The cell unit * T + slot of each row inside the grid span, and those
        rows: a mask, or `slice(None)` when every row is inside, so that taking
        their values makes no copy. The slot of each distinct timestamp is
        computed once."""
        K = len(units)
        if self.unit.size and not 0 <= self.unit.min() <= self.unit.max() < K:
            bad = int(self.unit[(self.unit < 0) | (self.unit >= K)][0])
            raise ValidationError(f"{kind} row references unknown unit index {bad}; there are {K} units")
        slot_of = np.array([grid.slot_of(ts) for ts in self.stamps], dtype=np.int64)
        cell = np.multiply(self.unit, grid.num_slots, dtype=np.int64)
        slot = slot_of[self.stamp]
        cell += slot
        keep = slot >= 0
        del slot  # a column's worth of memory, before the copy below
        return (cell, slice(None)) if keep.all() else (cell[keep], keep)

    def ranks(self) -> np.ndarray:
        """Each row's timestamp rank among the distinct timestamps; equal
        timestamps share a rank."""
        rank = np.empty(len(self.stamps), dtype=np.int64)
        rank[sorted(range(len(self.stamps)), key=self.stamps.__getitem__)] = np.arange(len(self.stamps))
        return rank[self.stamp]


def aggregate_outages(columns: FeedColumns, units: list[UnitMeta], grid: TimeGrid, method: str = "mean") -> OutageSeries:
    """Bucket raw (unit, timestamp, customers_out) samples into grid slots.

    Slots with no samples are 0 and flagged in the returned gap mask.
    Out-of-span timestamps are skipped and tallied on `series.skipped_rows`.
    `last` keeps the sample with the latest timestamp; of equal timestamps,
    the later row.
    """
    checked(method, one_of(AGGREGATIONS), "aggregation method")
    K, T = len(units), grid.num_slots
    cell, keep = columns.cells(units, grid, "outage")
    negative = np.flatnonzero(columns.values < 0)
    if negative.size:
        j = negative[0]
        raise ValidationError(f"negative customers_out {columns.values[j]} for unit {units[columns.unit[j]].unit_id!r}")
    values = columns.values[keep]
    counts = np.bincount(cell, minlength=K * T)
    if method == "mean":
        # bincount adds the weights in row order, as a per-row `+=` would; of no rows it returns ints
        agg = np.bincount(cell, weights=values, minlength=K * T).astype(np.float64, copy=False)
        agg /= np.maximum(counts, 1)
    elif method == "max":
        agg = np.zeros(K * T)
        np.maximum.at(agg, cell, values)
    else:
        rank = columns.ranks()[keep]
        order = np.lexsort((rank, cell))  # stable: equal (cell, timestamp) keep row order
        is_last = np.ones(order.size, dtype=bool)
        is_last[:-1] = cell[order[1:]] != cell[order[:-1]]
        agg = np.zeros(K * T)
        agg[cell[order[is_last]]] = values[order[is_last]]
    covered = (counts > 0).reshape(K, T)
    agg += 0.5  # round half-up
    cells = np.floor(agg, out=agg).astype(np.int64).reshape(K, T)
    cells[~covered] = 0
    series = OutageSeries(counts=cells, gap_mask=~covered)
    series.skipped_rows = columns.unit.size - cell.size
    return series


def aggregate_weather(columns: FeedColumns, units: list[UnitMeta], grid: TimeGrid, variable_names: list[str]) -> WeatherTensor:
    """Per-cell, per-variable mean of raw samples; empty cells carry forward.

    A cell with no samples takes the previous slot's value for that unit
    (0 when the gap is at the start of the series) and is flagged.
    """
    K, T, M = len(units), grid.num_slots, len(variable_names)
    cell, keep = columns.cells(units, grid, "weather")
    samples = columns.values.reshape(columns.unit.size, M)
    counts = np.bincount(cell, minlength=K * T).reshape(K, T)
    # one bincount per variable adds each cell's samples in row order; an empty cell's sum is 0.0
    values = np.empty((K * T, M))
    for m in range(M):
        values[:, m] = np.bincount(cell, weights=samples[keep, m], minlength=K * T)
    values = values.reshape(K, T, M)
    values /= np.maximum(counts, 1)[:, :, None]
    covered = counts > 0
    # each gap takes the value of the unit's last covered slot; a leading gap takes slot 0's 0.0
    source = np.maximum.accumulate(np.where(covered, np.arange(T), 0), axis=1)
    unit, slot = np.nonzero(~covered)
    values[unit, slot] = values[unit, source[unit, slot]]
    tensor = WeatherTensor(values=values, variable_names=list(variable_names), gap_mask=~covered)
    tensor.skipped_rows = columns.unit.size - cell.size
    return tensor


def save_dataset(ds: Dataset, path) -> None:
    """Serialize a dataset to the gridshock-ds-v1 container."""
    meta = {
        "units": [
            {
                "unit_id": u.unit_id,
                "lat": u.centroid_lat,
                "lon": u.centroid_lon,
                "total_customers": u.total_customers,
            }
            for u in ds.units
        ],
        "grid": {
            "start": ds.grid.start.isoformat(),
            "slot_seconds": ds.grid.slot_seconds,
            "num_slots": ds.grid.num_slots,
        },
        "variable_names": list(ds.weather.variable_names),
    }
    arrays = {"counts": ds.outages.counts, "weather": ds.weather.values}
    if ds.outages.gap_mask is not None:
        arrays["outage_gap_mask"] = ds.outages.gap_mask.astype(np.uint8)
    if ds.weather.gap_mask is not None:
        arrays["weather_gap_mask"] = ds.weather.gap_mask.astype(np.uint8)
    write_container(path, DATASET_SCHEMA, meta, arrays)


def load_dataset(path) -> Dataset:
    """Load a gridshock-ds-v1 container written by :func:`save_dataset`."""
    meta, arrays = read_container(path, DATASET_SCHEMA)
    units = [
        UnitMeta(
            unit_id=meta_value(u, "unit_id", TEXT, f"units[{k}].unit_id"),
            centroid_lat=meta_value(u, "lat", NUMBER, f"units[{k}].lat"),
            centroid_lon=meta_value(u, "lon", NUMBER, f"units[{k}].lon"),
            total_customers=meta_value(u, "total_customers", INTEGER, f"units[{k}].total_customers"),
        )
        for k, u in enumerate(meta_value(meta, "units", OBJECTS))
    ]
    grid = meta_value(meta, "grid", OBJECT)
    grid = TimeGrid(
        start=parse_timestamp(meta_value(grid, "start", TEXT, "grid.start")),
        slot_seconds=meta_value(grid, "slot_seconds", COUNT, "grid.slot_seconds"),
        num_slots=meta_value(grid, "num_slots", COUNT, "grid.num_slots"),
    )
    out_mask = arrays.get("outage_gap_mask")
    wx_mask = arrays.get("weather_gap_mask")
    outages = OutageSeries(
        counts=arrays["counts"],
        gap_mask=None if out_mask is None else out_mask.astype(bool),
    )
    weather = WeatherTensor(
        values=arrays["weather"],
        variable_names=meta_value(meta, "variable_names", TEXTS),
        gap_mask=None if wx_mask is None else wx_mask.astype(bool),
    )
    return Dataset(units=units, grid=grid, outages=outages, weather=weather)


def gap_report(ds: Dataset) -> dict:
    """Counts of gap-filled cells, for the ingest summary."""
    out_gaps = int(ds.outages.gap_mask.sum()) if ds.outages.gap_mask is not None else 0
    wx_gaps = int(ds.weather.gap_mask.sum()) if ds.weather.gap_mask is not None else 0
    return {
        "outage_gap_cells": out_gaps,
        "weather_gap_cells": wx_gaps,
        "total_cells": ds.num_units * ds.num_slots,
    }
