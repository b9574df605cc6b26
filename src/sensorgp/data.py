"""Sensor-data ingestion, cleaning, normalization and synthesis.

The pipeline: load hourly readings from CSV into a `Readings` table of
column arrays, drop sites with too few readings, optionally remove
outliers and join weather covariates, then build the normalized design
matrix all models train on. Every stage is array arithmetic over the
columns; times are integer UTC hours since the epoch. A synthetic
generator with known ground truth closes the loop for end-to-end tests.
"""

import csv
import math
import operator
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import FormatError, InputError

SENSOR_COLUMNS = ("site_id", "latitude", "longitude", "timestamp", "pm2_5")
WEATHER_COLUMNS = ("timestamp", "windspeed", "winddir", "windgust", "humidity", "temp", "precip")
BASE_INPUT_COLUMNS = ("lat", "lon", "time_h")
COVARIATE_INPUT_COLUMNS = (
    "windspeed",
    "winddir_sin",
    "winddir_cos",
    "windgust",
    "humidity",
    "temp",
    "precip",
)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
HOUR = timedelta(hours=1)


@dataclass(eq=False)
class Readings:
    """Hourly PM2.5 readings as column arrays.

    `hour` holds integer UTC hours since the epoch; `pm25` is NaN for
    queries; `covariates`, when present, is an (n, 7) matrix in
    COVARIATE_INPUT_COLUMNS order. Loaded readings hold one row per
    (site, hour), ordered by (hour, site), and every stage keeps that
    order; query rows keep their file order.
    """

    site: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    hour: np.ndarray
    pm25: np.ndarray
    covariates: np.ndarray = None

    def __len__(self):
        return self.hour.size

    def take(self, rows):
        """The rows a boolean mask or an index array selects, in that order."""
        return Readings(*(
            None if col is None else col[rows]
            for col in (getattr(self, f.name) for f in fields(self))
        ))


def _hour_of(ts):
    """A datetime as whole UTC hours since the epoch; a naive one is taken as UTC."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return (ts - EPOCH) // HOUR


def _parse_hour(raw, path, line_no):
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise FormatError(
            f"{path}: line {line_no}: timestamp {raw!r} is not ISO-8601"
        ) from None
    return _hour_of(ts)


def _number(cell, path, line_no, name):
    """A CSV cell as a finite float; anything else is a FormatError naming the line."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(
            f"{path}: line {line_no}: {name} {cell!r} is not a finite number"
        )
    return value


def _read_csv(handle, path, columns, optional=()):
    """Check an open CSV file's header; returns (header, rows).

    The header must name every column in `columns`; `optional` columns may
    be absent. `rows` yields (line_no, cells) for each non-blank data row,
    where `cells` holds the row's fields for `columns`, then for the
    optional columns present, in that order. An empty file is an
    InputError; a missing column or a short row is a FormatError naming
    the line.
    """
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    missing = [c for c in columns if c not in header]
    if missing:
        raise FormatError(f"{path}: line 1: missing column(s) {missing}")
    present = list(columns) + [c for c in optional if c in header]
    pick = operator.itemgetter(*(header.index(c) for c in present))
    width = len(header)

    def rows():
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) < width:
                raise FormatError(f"{path}: line {line_no}: expected {width} fields")
            yield line_no, pick(row)

    return header, rows()


@dataclass
class LoadReport:
    rows_read: int = 0
    dropped_bad_value: int = 0
    duplicates_averaged: int = 0     # extra rows merged into an existing (site, hour)


def load_sensor_csv(path):
    """Read sensor readings; returns (Readings, LoadReport).

    Rows whose pm2_5 is missing, unparseable, negative or non-finite are
    dropped and counted. Duplicate (site, hour) rows are averaged and keep
    the first row's coordinates. Bad timestamps or non-finite coordinates
    are format errors naming the line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        _, rows = _read_csv(handle, path, SENSOR_COLUMNS)
        report = LoadReport()
        hour_of = {}
        sites, lats, lons, hours, values = [], [], [], [], []
        for line_no, (site, lat, lon, stamp, pm) in rows:
            report.rows_read += 1
            try:
                pm25 = float(pm)
            except ValueError:
                pm25 = math.nan
            if not math.isfinite(pm25) or pm25 < 0:
                report.dropped_bad_value += 1
                continue
            hour = hour_of.get(stamp)
            if hour is None:
                hour = hour_of[stamp] = _parse_hour(stamp, path, line_no)
            hours.append(hour)
            lats.append(_number(lat, path, line_no, "latitude"))
            lons.append(_number(lon, path, line_no, "longitude"))
            sites.append(site.strip())
            values.append(pm25)

    if not values:
        raise InputError(f"{path}: no usable readings")
    # one row per (site, hour) key, sorted by hour, then site
    names, code = np.unique(np.array(sites), return_inverse=True)
    hours = np.array(hours, dtype=np.int64)
    _, first, group, counts = np.unique(
        hours * names.size + code, return_index=True, return_inverse=True, return_counts=True
    )
    values = np.array(values)
    pm25 = values[first]
    merged = counts > 1
    pm25[merged] = np.bincount(group, weights=values)[merged] / counts[merged]
    report.duplicates_averaged = len(values) - len(first)
    readings = Readings(
        names[code[first]], np.array(lats)[first], np.array(lons)[first], hours[first], pm25
    )
    return readings, report


def drop_sparse_sites(readings, min_count=100):
    """Remove all readings from sites with fewer than min_count rows;
    returns (kept, sorted dropped site ids)."""
    names, code, counts = np.unique(readings.site, return_inverse=True, return_counts=True)
    dropped = [str(site) for site in names[counts < min_count]]
    return readings.take(counts[code] >= min_count), dropped


def _groups(*keys):
    """(key values, row indices) per distinct key combination, in sorted key
    order; each group's rows keep their order."""
    order = np.lexsort(keys[::-1])
    if not order.size:
        return []
    ordered = [k[order] for k in keys]
    change = np.zeros(order.size, dtype=bool)
    change[0] = True
    for k in ordered:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    return [
        (tuple(k[s].item() for k in ordered), rows)
        for s, rows in zip(starts, np.split(order, starts[1:]))
    ]


@dataclass
class GroupFences:
    q1: float
    q3: float
    iqr: float
    lower: float
    upper: float
    count: int
    removed: int
    skipped: bool = False


@dataclass
class OutlierReport:
    factor: float
    mode: str
    scope: str
    groups: dict = field(default_factory=dict)


def _fences(values, factor, mode):
    q1 = float(np.percentile(values, 25))
    q3 = float(np.percentile(values, 75))
    iqr = q3 - q1
    margin = 0.0 if iqr == 0.0 else factor * iqr
    low, high = (q1, q3) if mode == "tukey" else (float(np.mean(values)),) * 2
    return q1, q3, iqr, low - margin, high + margin


def remove_outliers(readings, factor=1.5, scope="per-site", mode="tukey"):
    """Drop readings outside the interquartile fences; returns (kept, OutlierReport).

    'tukey' anchors the fences on the quartiles (Q1 - f*IQR, Q3 + f*IQR);
    'mean' centers them on the group mean instead. Groups with fewer than
    four readings are left untouched and flagged as skipped.
    """
    if scope not in ("per-site", "global"):
        raise InputError(f"unknown outlier scope {scope!r}")
    if mode not in ("tukey", "mean"):
        raise InputError(f"unknown outlier mode {mode!r} (expected 'tukey' or 'mean')")
    key = readings.site if scope == "per-site" else np.full(len(readings), "__all__")
    report = OutlierReport(factor=factor, mode=mode, scope=scope)
    keep = np.ones(len(readings), dtype=bool)
    for (name,), rows in _groups(key):
        if rows.size < 4:
            report.groups[name] = GroupFences(
                math.nan, math.nan, math.nan, -math.inf, math.inf,
                rows.size, 0, skipped=True,
            )
            continue
        values = readings.pm25[rows]
        q1, q3, iqr, lower, upper = _fences(values, factor, mode)
        inside = (lower <= values) & (values <= upper)
        keep[rows] = inside
        report.groups[name] = GroupFences(
            q1, q3, iqr, lower, upper, rows.size, rows.size - int(inside.sum())
        )
    return readings.take(keep), report


def _covariate_row(windspeed, winddir, *rest):
    """Raw weather values in WEATHER_COLUMNS order as a COVARIATE_INPUT_COLUMNS
    row: wind direction becomes a (sin, cos) pair, since it is circular."""
    theta = math.radians(winddir)
    return (windspeed, math.sin(theta), math.cos(theta), *rest)


def load_weather_csv(path):
    """Hourly weather covariates; returns (hours, covariates).

    One row per UTC hour, in file order: `hours` as integer hours since the
    epoch and `covariates` as an (n, 7) matrix in COVARIATE_INPUT_COLUMNS
    order.
    """
    names = WEATHER_COLUMNS[1:]
    with open(path, newline="", encoding="utf-8") as handle:
        _, rows = _read_csv(handle, path, WEATHER_COLUMNS)
        hours, seen, covariates = [], set(), []
        for line_no, (stamp, *cells) in rows:
            hour = _parse_hour(stamp, path, line_no)
            if hour in seen:
                stamp = (EPOCH + hour * HOUR).isoformat()
                raise FormatError(f"{path}: line {line_no}: duplicate hour {stamp}")
            seen.add(hour)
            hours.append(hour)
            covariates.append(_covariate_row(*(
                _number(cell, path, line_no, name) for name, cell in zip(names, cells)
            )))
    if not covariates:
        raise InputError(f"{path}: no usable weather rows")
    return np.array(hours, dtype=np.int64), np.array(covariates)


def join_weather(readings, weather):
    """Attach each reading's hourly covariates; readings with no match are dropped.

    `weather` is a path or the (hours, covariates) pair load_weather_csv
    returns. Returns (joined, number dropped).
    """
    if not isinstance(weather, tuple):
        weather = load_weather_csv(weather)
    hours, covariates = weather
    order = np.argsort(hours)
    at = np.minimum(np.searchsorted(hours[order], readings.hour), hours.size - 1)
    matched = hours[order[at]] == readings.hour
    joined = replace(readings.take(matched), covariates=covariates[order[at[matched]]])
    return joined, len(readings) - len(joined)


def load_query_csv(path, columns):
    """Query readings for a model with input `columns`; returns (Readings, ignored).

    The file needs latitude, longitude and timestamp, plus the raw weather
    column behind each covariate in `columns`; site_id is optional and
    defaults to q<line>. Rows stay in file order and carry a NaN target;
    covariates the model does not use are NaN. `ignored` lists the
    header's other columns, pm2_5 excepted.
    """
    weather = []
    for name in columns:
        if name in BASE_INPUT_COLUMNS:
            continue
        raw = "winddir" if name in ("winddir_sin", "winddir_cos") else name
        if raw not in WEATHER_COLUMNS[1:]:
            raise InputError(f"model requires unsupported column {name!r}")
        if raw not in weather:
            weather.append(raw)
    required = ["latitude", "longitude", "timestamp"] + weather
    with open(path, newline="", encoding="utf-8") as handle:
        header, rows = _read_csv(handle, path, required, optional=("site_id",))
        has_site = "site_id" in header
        sites, lats, lons, hours, covariates = [], [], [], [], []
        for line_no, cells in rows:
            lat, lon, stamp = cells[:3]
            if weather:
                raw = {
                    name: _number(cell, path, line_no, name)
                    for name, cell in zip(weather, cells[3:])
                }
                covariates.append(_covariate_row(
                    *(raw.get(name, math.nan) for name in WEATHER_COLUMNS[1:])
                ))
            sites.append(cells[-1].strip() if has_site else f"q{line_no}")
            lats.append(_number(lat, path, line_no, "latitude"))
            lons.append(_number(lon, path, line_no, "longitude"))
            hours.append(_parse_hour(stamp, path, line_no))
    if not sites:
        raise InputError(f"{path}: no query rows")
    ignored = sorted(set(header) - set(required) - {"site_id", "pm2_5"})
    readings = Readings(
        np.array(sites), np.array(lats), np.array(lons),
        np.array(hours, dtype=np.int64), np.full(len(sites), math.nan),
        np.array(covariates) if weather else None,
    )
    return readings, ignored


def _inputs(readings, columns, t0):
    """The raw input columns of `readings`, with time in hours since t0."""
    t0_hours = (t0 - EPOCH) / HOUR
    stacked = []
    for name in columns:
        if name == "lat":
            stacked.append(readings.lat)
        elif name == "lon":
            stacked.append(readings.lon)
        elif name == "time_h":
            stacked.append(readings.hour - t0_hours)
        elif readings.covariates is None:
            raise InputError(f"readings lack covariate {name!r}")
        else:
            stacked.append(readings.covariates[:, COVARIATE_INPUT_COLUMNS.index(name)])
    return np.column_stack(stacked)


@dataclass
class Dataset:
    """Normalized design matrix + targets, with invertible per-column statistics."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple
    col_mean: np.ndarray
    col_scale: np.ndarray
    y_mean: float
    y_scale: float
    t0: datetime

    @property
    def n(self):
        return self.X.shape[0]

    def take(self, indices):
        """Row subset sharing this dataset's normalization statistics."""
        indices = np.asarray(indices)
        return Dataset(
            self.X[indices], self.y[indices], self.columns,
            self.col_mean, self.col_scale, self.y_mean, self.y_scale, self.t0,
        )

    def encode_inputs(self, readings):
        """Design-matrix rows for new readings, using this dataset's statistics."""
        return (_inputs(readings, self.columns, self.t0) - self.col_mean) / self.col_scale

    def decode_targets(self, values):
        return np.asarray(values, dtype=float) * self.y_scale + self.y_mean


def build_dataset(readings, include_covariates=False):
    """Z-score every input column and standardize the target.

    Columns: lat, lon, hours since the earliest reading, then the documented
    covariate block when requested. Constant columns keep scale 1 so the
    transform stays invertible.
    """
    if not len(readings):
        raise InputError("cannot build a dataset from zero readings")
    columns = BASE_INPUT_COLUMNS + (COVARIATE_INPUT_COLUMNS if include_covariates else ())
    t0 = EPOCH + int(readings.hour.min()) * HOUR
    raw = _inputs(readings, columns, t0)
    col_mean = raw.mean(axis=0)
    col_scale = raw.std(axis=0)
    col_scale[col_scale == 0.0] = 1.0
    targets = readings.pm25
    y_mean = float(targets.mean())
    y_scale = float(targets.std()) or 1.0
    return Dataset(
        (raw - col_mean) / col_scale,
        (targets - y_mean) / y_scale,
        columns, col_mean, col_scale, y_mean, y_scale, t0,
    )


@dataclass
class HourOfDayBox:
    hour: int
    count: int
    median: float
    q1: float
    q3: float
    lower_fence: float
    upper_fence: float
    outliers: list


@dataclass
class SummaryStats:
    """Tables behind the per-site box plots and the hourly-mean curves."""

    boxes: dict            # site -> [HourOfDayBox per observed hour-of-day]
    site_hourly_means: dict  # site -> {hour: mean}
    overall_hourly_mean: dict  # hour -> mean over all readings at that hour-of-day


def summary_stats(readings):
    hour_of_day = readings.hour % 24
    boxes, site_means = {}, {}
    for (site, hour), rows in _groups(readings.site, hour_of_day):
        values = readings.pm25[rows]
        q1, q3, _, lower, upper = _fences(values, 1.5, "tukey")
        outliers = sorted(float(v) for v in values if v < lower or v > upper)
        boxes.setdefault(site, []).append(
            HourOfDayBox(
                hour, rows.size, float(np.median(values)), q1, q3, lower, upper, outliers
            )
        )
        site_means.setdefault(site, {})[hour] = float(values.mean())
    overall = {
        hour: float(np.mean(readings.pm25[rows]))
        for (hour,), rows in _groups(hour_of_day)
    }
    return SummaryStats(boxes, site_means, overall)


@dataclass
class SynthConfig:
    """Knobs for the synthetic spatio-temporal generator."""

    sites: int = 66
    days: int = 30
    seed: int = 0
    spike_rate: float = 0.02       # per-cell probability of a positive spike
    spike_mean: float = 40.0
    noise_std: float = 2.0
    daily_amplitude: float = 8.0
    weekly_amplitude: float = 4.0
    spatial_std: float = 3.0
    spatial_lengthscale: float = 0.05   # degrees
    base_level: float = 40.0
    missing_rate: float = 0.05
    start: datetime = datetime(2021, 11, 1, tzinfo=timezone.utc)


@dataclass
class SynthResult:
    readings: Readings
    latents: np.ndarray     # noise-free field value aligned with readings
    config: SynthConfig


def synth_generate(config=None, **overrides):
    """Sample readings from a known spatial field plus daily/weekly cycles.

    The latent field is a squared-exponential GP draw over random site
    locations plus two sinusoids; observations add Gaussian noise and
    exponentially-sized positive spikes at Poisson-thinned cells.
    Deterministic per seed; readings start at the hour holding `start`.
    """
    config = replace(config or SynthConfig(), **overrides)
    if config.sites < 1 or config.days < 1:
        raise InputError("need at least one site and one day")
    if not 0.0 <= config.missing_rate < 1.0:
        raise InputError(f"missing_rate must be in [0, 1), got {config.missing_rate}")
    if not 0.0 <= config.spike_rate <= 1.0:
        raise InputError(f"spike_rate must be in [0, 1], got {config.spike_rate}")
    rng = np.random.default_rng(config.seed)
    S, T = config.sites, config.days * 24

    lat = 0.25 + 0.15 * rng.random(S)
    lon = 32.50 + 0.20 * rng.random(S)
    coords = np.column_stack([lat, lon])
    diff = coords[:, None, :] - coords[None, :, :]
    K = config.spatial_std**2 * np.exp(
        -0.5 * np.sum(diff**2, axis=-1) / config.spatial_lengthscale**2
    )
    L = np.linalg.cholesky(K + 1e-9 * np.eye(S))
    site_offset = L @ rng.standard_normal(S)

    hours = np.arange(T)
    phase_d, phase_w = rng.uniform(0, 2 * np.pi, size=2)
    daily = config.daily_amplitude * np.sin(2 * np.pi * hours / 24.0 + phase_d)
    weekly = config.weekly_amplitude * np.sin(2 * np.pi * hours / 168.0 + phase_w)

    noise = rng.normal(0.0, config.noise_std, size=(T, S))
    spikes = np.where(
        rng.random((T, S)) < config.spike_rate,
        rng.exponential(config.spike_mean, size=(T, S)),
        0.0,
    )
    observed_mask = rng.random((T, S)) >= config.missing_rate

    t, s = np.nonzero(observed_mask)
    latents = config.base_level + site_offset[s] + daily[t] + weekly[t]
    readings = Readings(
        np.array([f"site{idx:03d}" for idx in range(S)])[s], lat[s], lon[s],
        _hour_of(config.start) + t, latents + noise[t, s] + spikes[t, s],
    )
    return SynthResult(readings, latents, config)
