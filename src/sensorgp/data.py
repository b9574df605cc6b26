"""Sensor-data ingestion, cleaning, normalization and synthesis.

The pipeline: load hourly readings from CSV, drop sites with too few
readings, optionally remove outliers and join weather covariates, then
build the normalized design matrix all models train on. A synthetic
generator with known ground truth closes the loop for end-to-end tests.
"""

import csv
import math
import operator
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class SensorReading:
    """One calibrated PM2.5 observation at a site and hour."""

    site_id: str
    latitude: float
    longitude: float
    timestamp: datetime          # UTC, floored to the hour
    pm25: float
    covariates: dict = None


def _parse_timestamp(raw, path, line_no):
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise FormatError(
            f"{path}: line {line_no}: timestamp {raw!r} is not ISO-8601"
        ) from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    else:
        ts = ts.astimezone(timezone.utc)
    return ts.replace(minute=0, second=0, microsecond=0)


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
    """Read sensor readings; returns (readings, LoadReport).

    Rows whose pm2_5 is missing, unparseable, negative or non-finite are
    dropped and counted. Duplicate (site, hour) rows are averaged. Bad
    timestamps or non-finite coordinates are format errors naming the line.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        _, rows = _read_csv(handle, path, SENSOR_COLUMNS)
        report = LoadReport()
        merged = {}
        for line_no, (site, lat, lon, stamp, pm) in rows:
            report.rows_read += 1
            try:
                pm25 = float(pm)
            except ValueError:
                pm25 = math.nan
            if not math.isfinite(pm25) or pm25 < 0:
                report.dropped_bad_value += 1
                continue
            ts = _parse_timestamp(stamp, path, line_no)
            lat = _number(lat, path, line_no, "latitude")
            lon = _number(lon, path, line_no, "longitude")
            key = (site.strip(), ts)
            if key in merged:
                merged[key][3].append(pm25)
                report.duplicates_averaged += 1
            else:
                merged[key] = (key[0], lat, lon, [pm25])

    if not merged:
        raise InputError(f"{path}: no usable readings")
    readings = [
        SensorReading(
            site, lat, lon, ts, values[0] if len(values) == 1 else float(np.mean(values))
        )
        for (site, ts), (_, lat, lon, values) in sorted(
            merged.items(), key=lambda item: (item[0][1], item[0][0])
        )
    ]
    return readings, report


def drop_sparse_sites(readings, min_count=100):
    """Remove all readings from sites with fewer than min_count rows."""
    counts = {}
    for r in readings:
        counts[r.site_id] = counts.get(r.site_id, 0) + 1
    dropped = sorted(site for site, c in counts.items() if c < min_count)
    if not dropped:
        return list(readings), []
    keep = [r for r in readings if r.site_id not in set(dropped)]
    return keep, dropped


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

    @property
    def total_removed(self):
        return sum(g.removed for g in self.groups.values())

    @property
    def removed_fraction(self):
        total = sum(g.count for g in self.groups.values())
        return self.total_removed / total if total else 0.0


def _fences(values, factor, mode):
    q1 = float(np.percentile(values, 25))
    q3 = float(np.percentile(values, 75))
    iqr = q3 - q1
    margin = 0.0 if iqr == 0.0 else factor * iqr
    if mode == "tukey":
        return q1, q3, iqr, q1 - margin, q3 + margin
    if mode == "mean":
        center = float(np.mean(values))
        return q1, q3, iqr, center - margin, center + margin
    raise InputError(f"unknown outlier mode {mode!r} (expected 'tukey' or 'mean')")


def remove_outliers(readings, factor=1.5, scope="per-site", mode="tukey"):
    """Drop readings outside the interquartile fences; returns (kept, OutlierReport).

    'tukey' anchors the fences on the quartiles (Q1 - f*IQR, Q3 + f*IQR);
    'mean' centers them on the group mean instead. Groups with fewer than
    four readings are left untouched and flagged as skipped.
    """
    if scope not in ("per-site", "global"):
        raise InputError(f"unknown outlier scope {scope!r}")
    groups = {}
    for r in readings:
        key = r.site_id if scope == "per-site" else "__all__"
        groups.setdefault(key, []).append(r)

    report = OutlierReport(factor=factor, mode=mode, scope=scope)
    kept = []
    for key in sorted(groups):
        rows = groups[key]
        values = np.array([r.pm25 for r in rows])
        if len(rows) < 4:
            report.groups[key] = GroupFences(
                math.nan, math.nan, math.nan, -math.inf, math.inf,
                len(rows), 0, skipped=True,
            )
            kept.extend(rows)
            continue
        q1, q3, iqr, lower, upper = _fences(values, factor, mode)
        surviving = [r for r in rows if lower <= r.pm25 <= upper]
        report.groups[key] = GroupFences(
            q1, q3, iqr, lower, upper, len(rows), len(rows) - len(surviving)
        )
        kept.extend(surviving)
    kept.sort(key=lambda r: (r.timestamp, r.site_id))
    return kept, report


def filter_with_fences(readings, report):
    """Reapply a previous report's frozen fences (used for idempotence checks)."""
    kept = []
    for r in readings:
        key = r.site_id if report.scope == "per-site" else "__all__"
        fences = report.groups.get(key)
        if fences is None or fences.skipped or fences.lower <= r.pm25 <= fences.upper:
            kept.append(r)
    return kept


def load_weather_csv(path):
    """Weather covariates keyed by UTC hour; one row per hour."""
    names = WEATHER_COLUMNS[1:]
    with open(path, newline="", encoding="utf-8") as handle:
        _, rows = _read_csv(handle, path, WEATHER_COLUMNS)
        table = {}
        for line_no, (stamp, *cells) in rows:
            ts = _parse_timestamp(stamp, path, line_no)
            if ts in table:
                raise FormatError(f"{path}: line {line_no}: duplicate hour {ts.isoformat()}")
            table[ts] = {
                name: _number(cell, path, line_no, name)
                for name, cell in zip(names, cells)
            }
    if not table:
        raise InputError(f"{path}: no usable weather rows")
    return table


def _with_winddir_encoding(covariates):
    """The covariates plus wind direction as a (sin, cos) pair, since direction is circular."""
    theta = math.radians(covariates["winddir"])
    return {**covariates, "winddir_sin": math.sin(theta), "winddir_cos": math.cos(theta)}


def join_weather(readings, weather):
    """Attach each reading's hourly covariates; readings with no match are dropped.

    `weather` is a path or a table from load_weather_csv. Wind direction is
    kept in degrees and additionally encoded as a (sin, cos) pair.
    """
    if not isinstance(weather, dict):
        weather = load_weather_csv(weather)
    joined, dropped = [], 0
    for r in readings:
        row = weather.get(r.timestamp)
        if row is None:
            dropped += 1
            continue
        joined.append(replace(r, covariates=_with_winddir_encoding(row)))
    return joined, dropped


def load_query_csv(path, columns):
    """Query readings for a model with input `columns`; returns (readings, ignored).

    The file needs latitude, longitude and timestamp, plus the raw weather
    column behind each covariate in `columns`; site_id is optional and
    defaults to q<line>. Readings carry a NaN target. `ignored` lists the
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
        readings = []
        for line_no, cells in rows:
            lat, lon, stamp = cells[:3]
            covs = None
            if weather:
                covs = {
                    name: _number(cell, path, line_no, name)
                    for name, cell in zip(weather, cells[3:])
                }
                if "winddir" in covs:
                    covs = _with_winddir_encoding(covs)
            readings.append(
                SensorReading(
                    cells[-1].strip() if has_site else f"q{line_no}",
                    _number(lat, path, line_no, "latitude"),
                    _number(lon, path, line_no, "longitude"),
                    _parse_timestamp(stamp, path, line_no),
                    math.nan,
                    covs,
                )
            )
    if not readings:
        raise InputError(f"{path}: no query rows")
    ignored = sorted(set(header) - set(required) - {"site_id", "pm2_5"})
    return readings, ignored


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

    @property
    def d(self):
        return self.X.shape[1]

    def take(self, indices):
        """Row subset sharing this dataset's normalization statistics."""
        indices = np.asarray(indices)
        return Dataset(
            self.X[indices], self.y[indices], self.columns,
            self.col_mean, self.col_scale, self.y_mean, self.y_scale, self.t0,
        )

    def raw_inputs(self, rows=None):
        X = self.X if rows is None else self.X[rows]
        return X * self.col_scale + self.col_mean

    def encode_inputs(self, readings):
        """Design-matrix rows for new readings, using this dataset's statistics."""
        raw = _raw_matrix(readings, self.columns, self.t0)
        return (raw - self.col_mean) / self.col_scale

    def encode_targets(self, values):
        return (np.asarray(values, dtype=float) - self.y_mean) / self.y_scale

    def decode_targets(self, values):
        return np.asarray(values, dtype=float) * self.y_scale + self.y_mean

    def decode_variance(self, variances):
        return np.asarray(variances, dtype=float) * self.y_scale**2


def _raw_matrix(readings, columns, t0):
    rows = np.empty((len(readings), len(columns)))
    for i, r in enumerate(readings):
        for j, name in enumerate(columns):
            if name == "lat":
                rows[i, j] = r.latitude
            elif name == "lon":
                rows[i, j] = r.longitude
            elif name == "time_h":
                rows[i, j] = (r.timestamp - t0).total_seconds() / 3600.0
            else:
                if not r.covariates or name not in r.covariates:
                    raise InputError(
                        f"reading at {r.site_id}/{r.timestamp.isoformat()} lacks covariate {name!r}"
                    )
                rows[i, j] = r.covariates[name]
    return rows


def build_dataset(readings, include_covariates=False):
    """Z-score every input column and standardize the target.

    Columns: lat, lon, hours since the earliest reading, then the documented
    covariate block when requested. Constant columns keep scale 1 so the
    transform stays invertible.
    """
    if not readings:
        raise InputError("cannot build a dataset from zero readings")
    columns = BASE_INPUT_COLUMNS + (COVARIATE_INPUT_COLUMNS if include_covariates else ())
    t0 = min(r.timestamp for r in readings)
    raw = _raw_matrix(readings, columns, t0)
    col_mean = raw.mean(axis=0)
    col_scale = raw.std(axis=0)
    col_scale[col_scale == 0.0] = 1.0
    targets = np.array([r.pm25 for r in readings])
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
    by_site_hour = {}
    by_hour = {}
    for r in readings:
        hour = r.timestamp.hour
        by_site_hour.setdefault(r.site_id, {}).setdefault(hour, []).append(r.pm25)
        by_hour.setdefault(hour, []).append(r.pm25)

    boxes, site_means = {}, {}
    for site, hours in sorted(by_site_hour.items()):
        site_boxes = []
        means = {}
        for hour in sorted(hours):
            values = np.array(hours[hour])
            means[hour] = float(values.mean())
            q1 = float(np.percentile(values, 25))
            q3 = float(np.percentile(values, 75))
            iqr = q3 - q1
            lower, upper = q1 - 1.5 * iqr, q3 + 1.5 * iqr
            outliers = sorted(float(v) for v in values if v < lower or v > upper)
            site_boxes.append(
                HourOfDayBox(
                    hour, len(values), float(np.median(values)), q1, q3, lower, upper, outliers
                )
            )
        boxes[site] = site_boxes
        site_means[site] = means
    overall = {hour: float(np.mean(values)) for hour, values in sorted(by_hour.items())}
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
    readings: list
    latents: list       # noise-free field value aligned with readings
    config: SynthConfig


def synth_generate(config=None, **overrides):
    """Sample readings from a known spatial field plus daily/weekly cycles.

    The latent field is a squared-exponential GP draw over random site
    locations plus two sinusoids; observations add Gaussian noise and
    exponentially-sized positive spikes at Poisson-thinned cells.
    Deterministic per seed.
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

    readings, latents = [], []
    site_ids = [f"site{idx:03d}" for idx in range(S)]
    for t in range(T):
        ts = config.start + timedelta(hours=int(t))
        for s in range(S):
            if not observed_mask[t, s]:
                continue
            latent = config.base_level + site_offset[s] + daily[t] + weekly[t]
            value = latent + noise[t, s] + spikes[t, s]
            readings.append(
                SensorReading(site_ids[s], float(lat[s]), float(lon[s]), ts, float(value))
            )
            latents.append(float(latent))
    return SynthResult(readings, latents, config)
