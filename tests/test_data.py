import math
from datetime import datetime, timezone

import numpy as np
import pytest

from sensorgp import data
from sensorgp.errors import FormatError, InputError
from helpers import START_HOUR, filter_with_fences, hour_of, raw_inputs, rows_of, table


def write_csv(path, rows, header=data.SENSOR_COLUMNS):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sensor CSV loading


def test_load_basic_and_sorting(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(
        p,
        [
            ("b", 0.35, 32.6, "2021-11-01T05:00:00Z", 12.0),
            ("a", 0.30, 32.5, "2021-11-01T05:00:00Z", 10.0),
            ("a", 0.30, 32.5, "2021-11-01T04:00:00Z", 11.0),
        ],
    )
    readings, report = data.load_sensor_csv(p)
    assert readings.site.tolist() == ["a", "a", "b"]
    assert report.rows_read == 3
    assert report.dropped_bad_value == 0
    assert readings.hour[0] == hour_of(datetime(2021, 11, 1, 4, tzinfo=timezone.utc))
    assert readings.pm25[0] == 11.0
    assert readings.lat[0] == 0.30


def test_load_drops_unparseable_values(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(
        p,
        [
            ("a", 0.3, 32.5, "2021-11-01T00:00:00Z", 10.0),
            ("a", 0.3, 32.5, "2021-11-01T01:00:00Z", ""),
            ("a", 0.3, 32.5, "2021-11-01T02:00:00Z", "n/a"),
            ("a", 0.3, 32.5, "2021-11-01T03:00:00Z", -4.0),
            ("a", 0.3, 32.5, "2021-11-01T04:00:00Z", 12.5),
        ],
    )
    readings, report = data.load_sensor_csv(p)
    assert len(readings) == 2
    assert report.dropped_bad_value == 3
    assert report.rows_read == 5


def test_load_averages_duplicate_site_hours(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(
        p,
        [
            ("a", 0.3, 32.5, "2021-11-01T00:10:00Z", 10.0),
            ("a", 0.3, 32.5, "2021-11-01T00:50:00Z", 14.0),
            ("a", 0.3, 32.5, "2021-11-01T01:00:00Z", 9.0),
        ],
    )
    readings, report = data.load_sensor_csv(p)
    assert len(readings) == 2
    assert report.duplicates_averaged == 1
    assert readings.pm25[0] == pytest.approx(12.0)
    assert readings.hour[0] == START_HOUR  # floored to the hour


def test_load_timestamp_forms(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(
        p,
        [
            ("a", 0.3, 32.5, "2021-11-01T00:00:00Z", 1.0),
            ("a", 0.3, 32.5, "2021-11-01T01:00:00+00:00", 2.0),
            ("a", 0.3, 32.5, "2021-11-01 02:00:00", 3.0),  # naive, assumed UTC
            ("a", 0.3, 32.5, "2021-11-01T06:30:00+03:30", 4.0),
        ],
    )
    readings, _ = data.load_sensor_csv(p)
    assert (readings.hour - START_HOUR).tolist() == [0, 1, 2, 3]


def test_load_bad_timestamp_names_line(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(
        p,
        [
            ("a", 0.3, 32.5, "2021-11-01T00:00:00Z", 1.0),
            ("a", 0.3, 32.5, "yesterday", 2.0),
        ],
    )
    with pytest.raises(FormatError, match="line 3"):
        data.load_sensor_csv(p)


@pytest.mark.parametrize("latitude", ["north", "nan", "inf"])
def test_load_bad_coordinates_rejected(tmp_path, latitude):
    p = tmp_path / "s.csv"
    write_csv(p, [("a", latitude, 32.5, "2021-11-01T00:00:00Z", 1.0)])
    with pytest.raises(FormatError, match="line 2: latitude"):
        data.load_sensor_csv(p)


def test_load_missing_column_names_header_line(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("site_id,latitude,timestamp,pm2_5\na,0.3,2021-11-01T00:00:00Z,1.0\n")
    with pytest.raises(FormatError, match="longitude"):
        data.load_sensor_csv(p)


def test_load_empty_file(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("")
    with pytest.raises(InputError):
        data.load_sensor_csv(p)


def test_load_extra_columns_tolerated(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text(
        "site_id,latitude,longitude,timestamp,pm2_5,battery\n"
        "a,0.3,32.5,2021-11-01T00:00:00Z,7.5,88\n"
    )
    readings, _ = data.load_sensor_csv(p)
    assert len(readings) == 1 and readings.pm25[0] == 7.5


# ---------------------------------------------------------------------------
# sparse-site filtering


def make_reading(site, hour, value, lat=0.3, lon=32.5):
    return (site, lat, lon, hour, value)


def test_drop_sparse_sites():
    rows = []
    for site, count in (("a", 6), ("b", 3), ("c", 6), ("d", 1)):
        rows += [make_reading(site, h, 10.0) for h in range(count)]
    readings = table(rows)
    kept, dropped = data.drop_sparse_sites(readings, min_count=5)
    assert sorted(set(kept.site.tolist())) == ["a", "c"]
    assert dropped == ["b", "d"]
    assert rows_of(data.drop_sparse_sites(readings, min_count=0)[0]) == rows_of(readings)


# ---------------------------------------------------------------------------
# outlier fences


def fence_rows(values, site="a"):
    return [make_reading(site, i, v) for i, v in enumerate(values)]


def fence_data(values, site="a"):
    return table(fence_rows(values, site))


def total_removed(report):
    return sum(g.removed for g in report.groups.values())


def test_tukey_fences_worked_example():
    kept, report = data.remove_outliers(fence_data([1.0, 2.0, 3.0, 4.0, 100.0]))
    g = report.groups["a"]
    assert g.q1 == pytest.approx(2.0)
    assert g.q3 == pytest.approx(4.0)
    assert g.lower == pytest.approx(-1.0)
    assert g.upper == pytest.approx(7.0)
    assert kept.pm25.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert total_removed(report) == 1
    assert sum(g.count for g in report.groups.values()) == 5


def test_fences_frozen_reapplication_idempotent():
    readings = fence_data([1.0, 2.0, 3.0, 4.0, 100.0, -50.0])
    kept, report = data.remove_outliers(readings)
    again = filter_with_fences(kept, report)
    assert rows_of(again) == rows_of(kept)
    # and the original filtered through the frozen fences gives the same survivors
    assert rows_of(filter_with_fences(readings, report)) == rows_of(kept)


def test_infinite_factor_removes_nothing():
    readings = fence_data([1.0, 2.0, 3.0, 4.0, 1e6])
    kept, report = data.remove_outliers(readings, factor=math.inf)
    assert len(kept) == 5
    assert total_removed(report) == 0


def test_identical_values_not_removed():
    kept, report = data.remove_outliers(fence_data([5.0] * 10))
    assert len(kept) == 10
    assert report.groups["a"].iqr == 0.0


def test_small_groups_skipped():
    kept, report = data.remove_outliers(fence_data([1.0, 2.0, 1e9]))
    assert len(kept) == 3
    assert report.groups["a"].skipped


def test_per_site_vs_global_scope():
    readings = table(fence_rows([10.0] * 8) + fence_rows([1000.0] * 8, site="b"))
    kept_ps, rep_ps = data.remove_outliers(readings, scope="per-site")
    assert len(kept_ps) == 16  # each site is self-consistent
    kept_g, rep_g = data.remove_outliers(readings, scope="global")
    assert set(rep_g.groups) == {"__all__"}
    with pytest.raises(InputError):
        data.remove_outliers(readings, scope="per-country")


def test_mean_mode_centers_on_mean():
    values = [0.0, 0.0, 0.0, 0.0, 10.0]
    _, rep_mean = data.remove_outliers(fence_data(values), mode="mean")
    g = rep_mean.groups["a"]
    # fences centered on the mean (2.0) with half-width factor*IQR
    assert (g.lower + g.upper) / 2.0 == pytest.approx(2.0)


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], []], ids=["small-group", "empty"])
def test_unknown_mode_rejected_up_front(values):
    # no group reaches four readings, so no fence is ever computed
    readings = fence_data(values) if values else fence_data([1.0]).take(np.zeros(0, int))
    with pytest.raises(InputError, match="unknown outlier mode 'median'"):
        data.remove_outliers(readings, mode="median")


# ---------------------------------------------------------------------------
# weather join


def write_weather(path, hours, base=None):
    rows = []
    for h in hours:
        rows.append(
            (f"2021-11-01T{h:02d}:00:00Z", 2.0 + h, 90.0, 3.5, 0.7, 24.0, 0.0)
        )
    write_csv(path, rows, header=data.WEATHER_COLUMNS)


def test_join_weather_full_coverage(tmp_path):
    wpath = tmp_path / "w.csv"
    write_weather(wpath, range(4))
    weather = data.load_weather_csv(wpath)
    readings = table([make_reading("a", h, 10.0 + h) for h in range(4)])
    joined, dropped = data.join_weather(readings, weather)
    assert dropped == 0
    row = dict(zip(data.COVARIATE_INPUT_COLUMNS, joined.covariates[2]))
    assert row["windspeed"] == pytest.approx(4.0)
    # wind direction becomes a unit vector
    assert row["winddir_sin"] == pytest.approx(np.sin(np.radians(90.0)))
    assert row["winddir_cos"] == pytest.approx(np.cos(np.radians(90.0)), abs=1e-12)


def test_join_weather_drops_unmatched_hours(tmp_path):
    wpath = tmp_path / "w.csv"
    write_weather(wpath, [0, 1, 3])
    weather = data.load_weather_csv(wpath)
    readings = table([make_reading("a", h, 10.0) for h in range(4)])
    joined, dropped = data.join_weather(readings, weather)
    assert dropped == 1
    assert (joined.hour - START_HOUR).tolist() == [0, 1, 3]


@pytest.mark.parametrize(
    "second_row",
    [
        pytest.param(("2021-11-01T00:30:00Z", 2, 0, 0, 0, 21, 0), id="duplicate-hour"),
        pytest.param(("2021-11-01T01:00:00Z", 2, "nan", 0, 0, 21, 0), id="nan"),
        pytest.param(("2021-11-01T01:00:00Z", 2, 0, 0, 0, "-inf", 0), id="inf"),
        pytest.param(("2021-11-01T01:00:00Z", 2, 0, "calm", 0, 21, 0), id="text"),
    ],
)
def test_weather_bad_row_rejected(tmp_path, second_row):
    wpath = tmp_path / "w.csv"
    rows = [("2021-11-01T00:00:00Z", 1, 0, 0, 0, 20, 0), second_row]
    write_csv(wpath, rows, header=data.WEATHER_COLUMNS)
    with pytest.raises(FormatError, match="line 3"):
        data.load_weather_csv(wpath)


# ---------------------------------------------------------------------------
# dataset assembly


def test_build_dataset_normalization_roundtrip():
    res = data.synth_generate(sites=6, days=4, seed=1, missing_rate=0.0)
    ds = data.build_dataset(res.readings)
    assert tuple(ds.columns) == data.BASE_INPUT_COLUMNS
    assert ds.X.shape[1] == 3 and ds.n == len(res.readings)
    np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(ds.X.std(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(ds.y.mean(), 0.0, atol=1e-10)
    r = res.readings
    raw = np.column_stack([r.lat, r.lon, r.hour - hour_of(ds.t0)])
    np.testing.assert_allclose(raw_inputs(ds), raw, atol=1e-10)
    values = r.pm25
    np.testing.assert_allclose(ds.decode_targets(ds.y), values, atol=1e-10)
    np.testing.assert_allclose((values - ds.y_mean) / ds.y_scale, ds.y, atol=1e-12)


def test_build_dataset_time_axis_in_hours():
    readings = table([make_reading("a", h, 10.0) for h in range(5)])
    ds = data.build_dataset(readings)
    t = raw_inputs(ds)[:, 2]
    np.testing.assert_allclose(np.diff(np.sort(t)), 1.0, atol=1e-12)


def test_build_dataset_constant_column_scale_one():
    readings = table([make_reading("a", h, 10.0) for h in range(5)])
    ds = data.build_dataset(readings)
    # single site: lat and lon are constant, scale must fall back to 1.0
    assert ds.col_scale[0] == 1.0 and ds.col_scale[1] == 1.0


def test_build_dataset_with_covariates(tmp_path):
    wpath = tmp_path / "w.csv"
    write_weather(wpath, range(6))
    weather = data.load_weather_csv(wpath)
    readings = table([make_reading(s, h, 10.0 + h) for s in ("a", "b") for h in range(6)])
    joined, _ = data.join_weather(readings, weather)
    ds = data.build_dataset(joined, include_covariates=True)
    assert tuple(ds.columns) == data.BASE_INPUT_COLUMNS + data.COVARIATE_INPUT_COLUMNS
    assert ds.X.shape[1] == 10


def test_build_dataset_missing_covariate_named():
    readings = table([make_reading("a", h, 10.0) for h in range(4)])
    with pytest.raises(InputError, match="windspeed"):
        data.build_dataset(readings, include_covariates=True)


def test_encode_inputs_matches_training_rows():
    res = data.synth_generate(sites=3, days=2, seed=2, missing_rate=0.0)
    ds = data.build_dataset(res.readings)
    X2 = ds.encode_inputs(res.readings)
    np.testing.assert_allclose(X2, ds.X, atol=1e-12)


def test_dataset_take_subset():
    res = data.synth_generate(sites=3, days=2, seed=4, missing_rate=0.0)
    ds = data.build_dataset(res.readings)
    sub = ds.take(np.array([0, 2, 4]))
    np.testing.assert_array_equal(sub.X, ds.X[[0, 2, 4]])
    assert sub.y_mean == ds.y_mean and sub.t0 == ds.t0


# ---------------------------------------------------------------------------
# summaries


def test_summary_stats_diurnal_peaks():
    # two sinusoidal bumps at hours 8 and 21, several days of data
    rows = []
    for day in range(7):
        for hour in range(24):
            value = (
                40.0
                + 10.0 * math.exp(-0.5 * ((hour - 8.0) / 2.0) ** 2)
                + 12.0 * math.exp(-0.5 * ((hour - 21.0) / 2.0) ** 2)
            )
            rows.append(make_reading("a", 24 * day + hour, value))
    stats = data.summary_stats(table(rows))
    hours = sorted(stats.overall_hourly_mean)
    means = [stats.overall_hourly_mean[h] for h in hours]
    morning = max(range(0, 15), key=lambda h: means[h])
    evening = max(range(15, 24), key=lambda h: means[h])
    assert morning == 8 and evening == 21
    box8 = [b for b in stats.boxes["a"] if b.hour == 8][0]
    assert box8.count == 7
    assert box8.median == pytest.approx(means[8], abs=1e-9)


def test_summary_stats_constant_values():
    readings = table([make_reading("a", h, 5.0) for h in range(24)] * 4)
    stats = data.summary_stats(readings)
    for box in stats.boxes["a"]:
        assert box.q1 == box.q3 == box.median == 5.0
        assert box.outliers == []


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic():
    a = data.synth_generate(sites=4, days=2, seed=7)
    b = data.synth_generate(sites=4, days=2, seed=7)
    assert rows_of(a.readings) == rows_of(b.readings)
    c = data.synth_generate(sites=4, days=2, seed=8)
    assert c.readings.pm25.tolist() != a.readings.pm25.tolist()


def test_synth_shapes_and_missingness():
    res = data.synth_generate(sites=5, days=3, seed=0, missing_rate=0.0)
    assert len(res.readings) == 5 * 72
    assert len(res.latents) == len(res.readings)
    assert len(set(res.readings.site.tolist())) == 5
    res2 = data.synth_generate(sites=5, days=3, seed=0, missing_rate=0.4)
    frac = 1.0 - len(res2.readings) / (5 * 72)
    assert 0.25 < frac < 0.55


def test_synth_no_spikes_bounds_noise():
    res = data.synth_generate(
        sites=14, days=30, seed=5, spike_rate=0.0, missing_rate=0.0
    )
    assert len(res.readings) >= 10000
    resid = res.readings.pm25 - res.latents
    assert np.max(np.abs(resid)) <= 5.0 * res.config.noise_std
    assert np.std(resid) == pytest.approx(res.config.noise_std, rel=0.1)


def test_synth_spikes_positive_and_rare():
    cfg = dict(sites=10, days=10, seed=6, missing_rate=0.0)
    with_spikes = data.synth_generate(spike_rate=0.02, **cfg)
    without = data.synth_generate(spike_rate=0.0, **cfg)
    delta = with_spikes.readings.pm25 - without.readings.pm25
    spiked = delta > 1e-9
    assert 0.005 < spiked.mean() < 0.05
    assert np.all(delta >= -1e-9)


def test_synth_input_validation():
    with pytest.raises(InputError):
        data.synth_generate(sites=0)
    with pytest.raises(InputError):
        data.synth_generate(missing_rate=1.5)
