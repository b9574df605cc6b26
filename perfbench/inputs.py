"""Seeded synthetic inputs for the benchmark, made apart from the program.

The generator is the benchmark's own, so a change to the program's
`synth` code cannot change what the benchmark measures. The latent field
mirrors the setting the program targets: hourly PM2.5 at sites scattered
over a city, with spatially correlated site offsets, a daily and a weekly
cycle, Gaussian sensor noise, rare positive spikes
and dropped readings. The latent truth is kept so the checks can compute
the noise floor.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

START = datetime(2021, 11, 1, tzinfo=timezone.utc)
BASE_LEVEL = 40.0
SPATIAL_STD = 3.0
SPATIAL_LENGTHSCALE = 0.08      # degrees
DAILY_AMPLITUDE = 8.0
WEEKLY_AMPLITUDE = 4.0
# Traffic sets the cycles' phases, so they do not vary between networks.
DAILY_PHASE = 0.8
WEEKLY_PHASE = 2.0
NOISE_STD = 4.0
SPIKE_RATE = 0.02
SPIKE_MEAN = 5.0
MISSING_RATE = 0.05


@dataclass
class Network:
    """One generated network: readings in time-major order, with latent truth."""

    site_ids: list
    lat: np.ndarray          # (S,)
    lon: np.ndarray          # (S,)
    hours: int
    site: np.ndarray         # (N,) site index of each reading
    hour: np.ndarray         # (N,) hour index of each reading
    observed: np.ndarray     # (N,) pm2_5 written to the CSV
    latent: np.ndarray       # (N,) noise-free value of the same reading
    weather: np.ndarray      # (hours, 6): windspeed, winddir, windgust, humidity, temp, precip

    def timestamp(self, h):
        return (START + timedelta(hours=int(h))).strftime("%Y-%m-%dT%H:00:00Z")


def generate(sites, days, seed):
    """A network of `sites` sites over `days` days; the same seed gives the same network."""
    rng = np.random.default_rng(seed)
    S, T = sites, days * 24
    lat = 0.25 + 0.15 * rng.random(S)
    lon = 32.50 + 0.20 * rng.random(S)
    coords = np.column_stack([lat, lon])
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    K = SPATIAL_STD**2 * np.exp(-0.5 * d2 / SPATIAL_LENGTHSCALE**2)
    offsets = np.linalg.cholesky(K + 1e-9 * np.eye(S)) @ rng.standard_normal(S)

    t = np.arange(T)
    wind = np.abs(3.0 + np.cumsum(rng.normal(0.0, 0.3, T)) * 0.2 + rng.normal(0.0, 0.5, T))
    cycle = (
        DAILY_AMPLITUDE * np.sin(2.0 * math.pi * t / 24.0 + DAILY_PHASE)
        + WEEKLY_AMPLITUDE * np.sin(2.0 * math.pi * t / 168.0 + WEEKLY_PHASE)
    )
    latent = BASE_LEVEL + offsets[None, :] + cycle[:, None]                 # (T, S)
    noise = rng.normal(0.0, NOISE_STD, size=(T, S))
    spikes = np.where(
        rng.random((T, S)) < SPIKE_RATE, rng.exponential(SPIKE_MEAN, size=(T, S)), 0.0
    )
    kept = rng.random((T, S)) >= MISSING_RATE
    # a reading is never negative; clipping keeps the latent truth unchanged
    observed = np.maximum(latent + noise + spikes, 0.0)

    hour, site = np.nonzero(kept)           # time-major, then site order
    weather = np.column_stack(
        [
            wind,
            (200.0 + np.cumsum(rng.normal(0.0, 15.0, T))) % 360.0,
            wind * 1.6 + rng.random(T),
            70.0 + 15.0 * np.sin(2.0 * math.pi * (t - 6) / 24.0) + rng.normal(0.0, 3.0, T),
            22.0 - 4.0 * np.sin(2.0 * math.pi * (t - 6) / 24.0) + rng.normal(0.0, 1.0, T),
            np.where(rng.random(T) < 0.1, rng.exponential(2.0, T), 0.0),
        ]
    )
    return Network(
        [f"site{s:03d}" for s in range(S)], lat, lon, T,
        site, hour, observed[hour, site], latent[hour, site], weather,
    )


def write_readings(path, net, rows):
    """Sensor CSV (site_id, latitude, longitude, timestamp, pm2_5) for the rows in a mask."""
    lines = ["site_id,latitude,longitude,timestamp,pm2_5"]
    stamps = [net.timestamp(h) for h in range(net.hours)]
    for i in np.flatnonzero(rows):
        s = net.site[i]
        lines.append(
            f"{net.site_ids[s]},{float(net.lat[s])!r},{float(net.lon[s])!r},"
            f"{stamps[net.hour[i]]},{float(net.observed[i])!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_queries(path, net, rows):
    """Query CSV for `predict`: the masked rows' sites and hours, with no readings."""
    lines = ["site_id,latitude,longitude,timestamp"]
    for i in np.flatnonzero(rows):
        s = net.site[i]
        lines.append(
            f"{net.site_ids[s]},{float(net.lat[s])!r},{float(net.lon[s])!r},"
            f"{net.timestamp(net.hour[i])}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_weather(path, net):
    """Hourly weather CSV covering every hour of the network."""
    lines = ["timestamp,windspeed,winddir,windgust,humidity,temp,precip"]
    for h in range(net.hours):
        lines.append(net.timestamp(h) + "," + ",".join(repr(float(v)) for v in net.weather[h]))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
