import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from sensorgp import evaluation as ev
from sensorgp import linalg
from sensorgp.data import SensorReading
from sensorgp.errors import ConfigError, InputError, ProtocolError


def mk(site, lat, lon, hours, value):
    ts = datetime(2021, 11, 1, tzinfo=timezone.utc) + timedelta(hours=hours)
    return SensorReading(site, lat, lon, ts, value)


# a config whose model ignores its inputs: near-zero signal variance makes
# every prediction collapse to the training mean
MEAN_PREDICTOR = dict(
    backend="exact",
    kernel_variance=1e-12,
    noise_variance=1.0,
    budget=1,
    learning_rate=1e-9,
    repetitions=1,
    seeds=(1,),
    parallelism=1,
)


# ---------------------------------------------------------------------------
# rmse


def test_rmse_hand_values():
    assert ev.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ev.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert ev.rmse([2.0], [7.5]) == pytest.approx(5.5, abs=1e-12)


def test_rmse_rejects_mismatch():
    with pytest.raises(InputError):
        ev.rmse([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        ev.rmse([], [])


# ---------------------------------------------------------------------------
# config resolution


def test_config_defaults_per_backend():
    exact = ev.ExperimentConfig(backend="exact").resolved()
    assert exact.repetitions == 4 and exact.seeds == (1, 2, 3, 4)
    assert exact.budget == 500
    svgp = ev.ExperimentConfig(backend="svgp").resolved()
    assert svgp.repetitions == 1 and svgp.budget == 5000
    ss = ev.ExperimentConfig(backend="statespace").resolved()
    assert ss.repetitions == 1


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ev.ExperimentConfig(backend="deep-ensemble").resolved()
    with pytest.raises(ConfigError):
        ev.ExperimentConfig(backend="statespace", periodic=True).resolved()
    with pytest.raises(ConfigError):
        ev.ExperimentConfig(backend="statespace", additional_inputs=True).resolved()
    with pytest.raises(ConfigError):
        ev.ExperimentConfig(repetitions=0).resolved()
    with pytest.raises(ConfigError):
        ev.ExperimentConfig(repetitions=2, seeds=(1, 2, 3)).resolved()


def test_default_matrix_flag_pattern():
    rows = [c.resolved().flags_row() for c in ev.default_matrix()]
    pattern = [
        (False, False, False, "none"),
        (True, False, False, "none"),
        (True, True, False, "none"),
        (True, True, True, "none"),
        (True, True, True, "SVGP"),
        (False, True, False, "ST"),
    ]
    got = [
        (r["periodic"], r["outliers_removed"], r["additional_inputs"], r["sparse"])
        for r in rows
    ]
    assert got == pattern


# ---------------------------------------------------------------------------
# nowcasting protocol


def two_constant_sites():
    readings = []
    for h in range(30):
        readings.append(mk("a", 0.30, 32.50, h, 10.0))
        readings.append(mk("b", 0.40, 32.60, h, 20.0))
    return readings


def test_nowcast_mean_predictor_proves_exclusion():
    # with the mean predictor, the held-out site is scored against the other
    # site's mean; any leakage of the test site into training would shift it
    readings = two_constant_sites()
    report = ev.nowcast_loo(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))
    assert set(report.per_site) == {"a", "b"}
    assert report.per_site["a"] == pytest.approx(10.0, abs=1e-5)
    assert report.per_site["b"] == pytest.approx(10.0, abs=1e-5)
    assert report.min_rmse == pytest.approx(10.0, abs=1e-5)
    assert report.max_rmse == pytest.approx(10.0, abs=1e-5)
    assert report.pooled_rmse == pytest.approx(10.0, abs=1e-5)


def test_nowcast_mean_predictor_matches_test_std():
    rng = np.random.default_rng(0)
    values_b = rng.uniform(10, 60, size=40)
    readings = [mk("a", 0.3, 32.5, h, 30.0) for h in range(40)]
    readings += [mk("b", 0.4, 32.6, h, float(values_b[h])) for h in range(40)]
    report = ev.nowcast_loo(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))
    # fold b trains on site a whose mean is exactly 30
    expected = float(np.sqrt(np.mean((values_b - 30.0) ** 2)))
    assert report.per_site["b"] == pytest.approx(expected, abs=1e-5)


def test_nowcast_needs_two_sites():
    readings = [mk("a", 0.3, 32.5, h, 10.0) for h in range(30)]
    with pytest.raises(ProtocolError):
        ev.nowcast_loo(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))


def test_nowcast_duplicate_site_noiseless():
    # the held-out site is an exact copy of a training site: near-perfect score
    readings = []
    for h in range(96):
        v = 40.0 + 8.0 * math.sin(2 * math.pi * h / 24.0)
        readings.append(mk("a", 0.30, 32.50, h, v))
        readings.append(mk("b", 0.30, 32.50, h, v))
    cfg = ev.ExperimentConfig(
        backend="exact", periodic=True, repetitions=1, seeds=(1,),
        budget=200, learning_rate=0.1, parallelism=2,
    )
    report = ev.nowcast_loo(readings, cfg)
    assert report.max_rmse <= 0.5


def test_nowcast_parallelism_does_not_change_results():
    readings = two_constant_sites()
    r1 = ev.nowcast_loo(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))
    r4 = ev.nowcast_loo(
        readings, ev.ExperimentConfig(**{**MEAN_PREDICTOR, "parallelism": 4})
    )
    assert r1.per_site == r4.per_site
    assert r1.avg_rmse == r4.avg_rmse


def test_nowcast_folds_run_on_one_blas_thread(monkeypatch):
    # two fake OpenBLAS libraries stand in for numpy's and scipy's
    threads = {"numpy": 2, "scipy": 3}
    controls = [
        linalg._ThreadControl(
            name, lambda name=name: threads[name],
            lambda n, name=name: threads.__setitem__(name, n),
        )
        for name in threads
    ]
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: controls)
    seen = []
    fit_and_predict = ev._fit_and_predict

    def recording(*args):
        seen.append(dict(threads))
        return fit_and_predict(*args)

    monkeypatch.setattr(ev, "_fit_and_predict", recording)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "parallelism": 2})
    report = ev.nowcast_loo(two_constant_sites(), config)
    assert set(report.per_site) == {"a", "b"}
    assert seen == [{"numpy": 1, "scipy": 1}] * 2
    assert threads == {"numpy": 2, "scipy": 3}


# ---------------------------------------------------------------------------
# forecasting protocol


def test_forecast_mean_predictor_last_day_deviation():
    readings = []
    for h in range(72):  # 3 days; the final 24 hours are held out
        readings.append(mk("a", 0.3, 32.5, h, 20.0))
        readings.append(mk("b", 0.4, 32.6, h, 20.0 if h < 40 else 32.0))
    report = ev.forecast_holdout(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))
    # training rows are hours 0..47: site a all 20, site b 40x20 then 8x32
    train_mean = (48 * 20.0 + 40 * 20.0 + 8 * 32.0) / 96
    assert train_mean == 21.0
    assert report.per_site["a"] == pytest.approx(1.0, abs=1e-5)
    assert report.per_site["b"] == pytest.approx(11.0, abs=1e-5)


def test_forecast_single_day_rejected():
    readings = [mk("a", 0.3, 32.5, h, 10.0) for h in range(10)]
    readings += [mk("b", 0.4, 32.6, h, 12.0) for h in range(10)]
    with pytest.raises(ProtocolError):
        ev.forecast_holdout(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))


def test_forecast_site_without_last_day_noted():
    readings = []
    for h in range(72):
        readings.append(mk("a", 0.3, 32.5, h, 20.0))
    for h in range(40):  # site b stops before the holdout window
        readings.append(mk("b", 0.4, 32.6, h, 25.0))
    report = ev.forecast_holdout(readings, ev.ExperimentConfig(**MEAN_PREDICTOR))
    assert report.omitted_sites == ["b"]
    assert set(report.per_site) == {"a"}


def test_forecast_periodic_noiseless_extrapolates():
    readings = []
    coords = [(0.30, 32.50), (0.35, 32.55), (0.40, 32.60)]
    for h in range(120):  # 5 days
        v = 40.0 + 10.0 * math.sin(2 * math.pi * h / 24.0)
        for i, (lat, lon) in enumerate(coords):
            readings.append(mk(f"s{i}", lat, lon, h, v))
    cfg = ev.ExperimentConfig(
        backend="exact", periodic=True, repetitions=1, seeds=(1,),
        budget=500, learning_rate=0.1,
    )
    report = ev.forecast_holdout(readings, cfg)
    assert report.max_rmse <= 1e-2


def test_forecast_outlier_flag_touches_training_only():
    # one spike in the training window, one in the test window; cleaning may
    # remove the training spike but the test spike must stay in the score
    readings = []
    for h in range(72):
        v = 20.0
        if h == 10:
            v = 500.0  # training outlier
        readings.append(mk("a", 0.3, 32.5, h, v))
        w = 20.0
        if h == 60:
            w = 400.0  # test-window outlier
        readings.append(mk("b", 0.4, 32.6, h, w))
    base = ev.ExperimentConfig(**MEAN_PREDICTOR)
    cleaned = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "clean_outliers": True})
    r0 = ev.forecast_holdout(readings, base)
    r1 = ev.forecast_holdout(readings, cleaned)
    # the cleaned run trains on a lower mean (spike removed)
    assert r1.per_site["a"] < r0.per_site["a"]
    # site b's test RMSE keeps the 400 test spike in both runs; with the
    # uncleaned training mean 25 and the cleaned mean exactly 20:
    expect_raw = math.sqrt((23 * 5.0**2 + 375.0**2) / 24)
    expect_clean = math.sqrt(380.0**2 / 24)
    assert r0.per_site["b"] == pytest.approx(expect_raw, abs=1e-4)
    assert r1.per_site["b"] == pytest.approx(expect_clean, abs=1e-4)


def test_forecast_denormalization_shift_invariance():
    rng = np.random.default_rng(1)
    vals = rng.uniform(20, 60, size=72)
    base = [mk("a", 0.3, 32.5, h, float(vals[h])) for h in range(72)]
    base += [mk("b", 0.4, 32.6, h, float(vals[h]) + 3.0) for h in range(72)]
    shifted = [
        SensorReading(r.site_id, r.latitude, r.longitude, r.timestamp, r.pm25 + 1000.0)
        for r in base
    ]
    cfg = ev.ExperimentConfig(**MEAN_PREDICTOR)
    r0 = ev.forecast_holdout(base, cfg)
    r1 = ev.forecast_holdout(shifted, cfg)
    for site in r0.per_site:
        assert r0.per_site[site] == pytest.approx(r1.per_site[site], abs=1e-8)


# ---------------------------------------------------------------------------
# matrix execution and report emission


def test_run_matrix_single_config_both_protocols():
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 10.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 20.0) for h in range(30, 50)]
    reports = ev.run_matrix(readings, [ev.ExperimentConfig(**MEAN_PREDICTOR)])
    assert [r.protocol for r in reports] == ["nowcast", "forecast"]
    rows = ev.comparison_rows(reports)
    assert len(rows) == 2
    assert rows[0]["sparse"] == "none"


def test_run_matrix_deterministic():
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 11.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 19.0) for h in range(30, 50)]
    cfgs = [ev.ExperimentConfig(**MEAN_PREDICTOR), ev.ExperimentConfig(**MEAN_PREDICTOR)]
    reports = ev.run_matrix(readings, cfgs, protocols=("forecast",))
    a, b = ev.comparison_rows(reports)
    assert a == b


def test_run_matrix_validates():
    with pytest.raises(InputError):
        ev.run_matrix(two_constant_sites(), [])
    with pytest.raises(ConfigError):
        ev.run_matrix(
            two_constant_sites(),
            [ev.ExperimentConfig(**MEAN_PREDICTOR)],
            protocols=("hindcast",),
        )


def test_repetition_averaging_identity():
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 12.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 18.0) for h in range(30, 50)]
    cfg = ev.ExperimentConfig(
        **{**MEAN_PREDICTOR, "repetitions": 3, "seeds": (1, 2, 3)}
    )
    report = ev.forecast_holdout(readings, cfg)
    for site, vals in report.per_repetition.items():
        assert len(vals) == 3
        assert report.per_site[site] == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert report.min_rmse <= report.avg_rmse <= report.max_rmse


def test_comparison_text_table_layout(tmp_path):
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 10.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 20.0) for h in range(30, 50)]
    reports = ev.run_matrix(readings, [ev.ExperimentConfig(**MEAN_PREDICTOR)])
    txt = tmp_path / "cmp.txt"
    csv = tmp_path / "cmp.csv"
    ev.write_comparison_text(reports, txt)
    ev.write_comparison_csv(reports, csv)
    text = txt.read_text()
    assert "== nowcast ==" in text and "== forecast ==" in text
    assert "Periodic" in text and "Average RMSE" in text
    header = csv.read_text().splitlines()[0]
    assert header.split(",")[:6] == [
        "protocol", "name", "periodic", "outliers_removed", "additional_inputs", "sparse",
    ]
