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
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .errors import SchemaError, ValidationError

DATASET_SCHEMA = "gridshock-ds-v1"
DEFAULT_SLOT_SECONDS = 10800  # 3-hour slots

AGGREGATION_METHODS = ("mean", "max", "last")


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
        if self.total_customers <= 0:
            raise ValidationError(
                f"unit {self.unit_id!r}: total_customers must be positive, got {self.total_customers}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform UTC slot grid: `num_slots` slots of `slot_seconds` from `start`."""

    start: datetime
    slot_seconds: int = DEFAULT_SLOT_SECONDS
    num_slots: int = 0

    def __post_init__(self):
        if self.slot_seconds <= 0:
            raise ValidationError(f"slot_seconds must be positive, got {self.slot_seconds}")
        if self.num_slots < 2:
            raise ValidationError(f"num_slots must be >= 2, got {self.num_slots}")
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

    def slot_start(self, slot: int) -> datetime:
        return self.start + timedelta(seconds=self.slot_seconds * slot)


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

    def unit_index(self) -> dict[str, int]:
        return {u.unit_id: i for i, u in enumerate(self.units)}


def load_units(path) -> list[UnitMeta]:
    """Read units.csv (unit_id, lat, lon, total_customers), preserving row order."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"unit_id", "lat", "lon", "total_customers"}
        header = set(reader.fieldnames or [])
        missing = required - header
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {sorted(missing)}")
        units: list[UnitMeta] = []
        seen: set[str] = set()
        for row_num, row in enumerate(reader, start=2):
            uid = (row["unit_id"] or "").strip()
            if not uid:
                raise ValidationError(f"{path}:{row_num}: empty unit_id")
            if uid in seen:
                raise ValidationError(f"{path}:{row_num}: duplicate unit_id {uid!r}")
            seen.add(uid)
            try:
                unit = UnitMeta(
                    unit_id=uid,
                    centroid_lat=float(row["lat"]),
                    centroid_lon=float(row["lon"]),
                    total_customers=int(float(row["total_customers"])),
                )
            except ValueError as exc:
                raise ValidationError(f"{path}:{row_num}: {exc}") from exc
            units.append(unit)
    if not units:
        raise ValidationError(f"{path}: no unit rows")
    return units


def load_outage_rows(path):
    """Yield (unit_id, timestamp, customers_out) triples from outages.csv.

    customers_out must be a finite count in [0, 2**63), so it survives the
    cast to an int64 count cell.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"unit_id", "timestamp", "customers_out"}
        header = set(reader.fieldnames or [])
        missing = required - header
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {sorted(missing)}")
        for row_num, row in enumerate(reader, start=2):
            try:
                value = float(row["customers_out"])
                if not 0 <= value < 2**63:
                    raw = row["customers_out"]
                    raise ValueError(f"customers_out must be a finite count in [0, 2**63), got {raw!r}")
                yield row["unit_id"].strip(), parse_timestamp(row["timestamp"]), value
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}:{row_num}: {exc}") from exc


def load_weather_rows(path):
    """Return (variable_names, row iterator of (unit_id, timestamp, values)).

    The header is checked at once; the iterator opens the file only when it
    is read, so an iterator that is never read holds no open file.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        fields = next(csv.reader(fh), [])
    if "unit_id" not in fields or "timestamp" not in fields:
        raise SchemaError(f"{path}: missing required column(s) ['timestamp', 'unit_id']")
    variables = [c for c in fields if c not in ("unit_id", "timestamp")]
    if not variables:
        raise SchemaError(f"{path}: no weather variable columns")

    def rows():
        with open(path, newline="", encoding="utf-8") as fh:
            for row_num, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    vals = np.array([float(row[v]) for v in variables])
                except (TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"{path}:{row_num}: non-numeric weather value ({exc})"
                    ) from exc
                if not np.isfinite(vals).all():
                    bad = variables[int(np.argmin(np.isfinite(vals)))]
                    raise ValidationError(f"{path}:{row_num}: non-finite {bad} value {row[bad]!r}")
                yield row["unit_id"].strip(), parse_timestamp(row["timestamp"]), vals

    return variables, rows()


def aggregate_outages(raw_rows, units: list[UnitMeta], grid: TimeGrid, method: str = "mean") -> OutageSeries:
    """Bucket raw (unit, timestamp, customers_out) samples into grid slots.

    Slots with no samples are 0 and flagged in the returned gap mask.
    Out-of-span timestamps are skipped and tallied on `series.skipped_rows`.
    """
    if method not in AGGREGATION_METHODS:
        raise ValidationError(f"unknown aggregation method {method!r}; choose from {AGGREGATION_METHODS}")
    index = {u.unit_id: i for i, u in enumerate(units)}
    K, T = len(units), grid.num_slots
    sums = np.zeros((K, T))
    counts = np.zeros((K, T), dtype=np.int64)
    maxima = np.zeros((K, T))
    last_val = np.zeros((K, T))
    last_ts: dict[tuple[int, int], datetime] = {}
    skipped = 0
    for uid, ts, value in raw_rows:
        if uid not in index:
            raise ValidationError(f"outage row references unknown unit_id {uid!r}")
        if value < 0:
            raise ValidationError(f"negative customers_out {value} for unit {uid!r}")
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
        with np.errstate(invalid="ignore"):
            agg = np.where(covered, sums / np.maximum(counts, 1), 0.0)
        cells = np.floor(agg + 0.5).astype(np.int64)  # round half-up
    elif method == "max":
        cells = np.floor(maxima + 0.5).astype(np.int64)
    else:
        cells = np.floor(last_val + 0.5).astype(np.int64)
    cells[~covered] = 0
    series = OutageSeries(counts=cells, gap_mask=~covered)
    series.skipped_rows = skipped
    return series


def aggregate_weather(raw_rows, units: list[UnitMeta], grid: TimeGrid, variable_names: list[str]) -> WeatherTensor:
    """Per-cell, per-variable mean of raw samples; empty cells carry forward.

    A cell with no samples takes the previous slot's value for that unit
    (0 when the gap is at the start of the series) and is flagged.
    """
    index = {u.unit_id: i for i, u in enumerate(units)}
    K, T, M = len(units), grid.num_slots, len(variable_names)
    sums = np.zeros((K, T, M))
    counts = np.zeros((K, T), dtype=np.int64)
    skipped = 0
    for uid, ts, vals in raw_rows:
        if uid not in index:
            raise ValidationError(f"weather row references unknown unit_id {uid!r}")
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
    tensor = WeatherTensor(values=values, variable_names=list(variable_names), gap_mask=~covered)
    tensor.skipped_rows = skipped
    return tensor


def split_event_window(ds: Dataset, event_start: datetime, event_end: datetime) -> tuple[Dataset, Dataset]:
    """Split a dataset into an (event, baseline) pair at slot granularity.

    The event window must butt against one end of the grid so that the
    baseline remains a contiguous block (the study designs pair an event
    half-month against the rest of the month).
    """
    lo = ds.grid.slot_of(event_start)
    hi_ts = event_end
    if hi_ts >= ds.grid.end:
        hi = ds.grid.num_slots
    else:
        hi = ds.grid.slot_of(hi_ts)
    if lo < 0 or hi < 0 or hi <= lo:
        raise ValidationError("event window is empty or outside the grid span")
    if lo == 0 and hi == ds.grid.num_slots:
        raise ValidationError("event window covers the full span; baseline would be empty")
    if lo != 0 and hi != ds.grid.num_slots:
        raise ValidationError("event window must touch the grid start or end (baseline must stay contiguous)")

    def _slice(a: int, b: int) -> Dataset:
        grid = TimeGrid(start=ds.grid.slot_start(a), slot_seconds=ds.grid.slot_seconds, num_slots=b - a)
        out = OutageSeries(
            counts=ds.outages.counts[:, a:b].copy(),
            gap_mask=None if ds.outages.gap_mask is None else ds.outages.gap_mask[:, a:b].copy(),
        )
        wx = WeatherTensor(
            values=ds.weather.values[:, a:b, :].copy(),
            variable_names=list(ds.weather.variable_names),
            gap_mask=None if ds.weather.gap_mask is None else ds.weather.gap_mask[:, a:b].copy(),
        )
        return Dataset(units=ds.units, grid=grid, outages=out, weather=wx)

    event = _slice(lo, hi)
    baseline = _slice(hi, ds.grid.num_slots) if lo == 0 else _slice(0, lo)
    return event, baseline


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
            unit_id=u["unit_id"],
            centroid_lat=u["lat"],
            centroid_lon=u["lon"],
            total_customers=u["total_customers"],
        )
        for u in meta["units"]
    ]
    grid = TimeGrid(
        start=parse_timestamp(meta["grid"]["start"]),
        slot_seconds=meta["grid"]["slot_seconds"],
        num_slots=meta["grid"]["num_slots"],
    )
    out_mask = arrays.get("outage_gap_mask")
    wx_mask = arrays.get("weather_gap_mask")
    outages = OutageSeries(
        counts=arrays["counts"],
        gap_mask=None if out_mask is None else out_mask.astype(bool),
    )
    weather = WeatherTensor(
        values=arrays["weather"],
        variable_names=list(meta["variable_names"]),
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
