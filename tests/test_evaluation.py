import math
import threading
import time

import numpy as np
import pytest

from sensorgp import evaluation as ev
from sensorgp import exact_gp, linalg, model_io, optim, statespace, svgp
from sensorgp.data import build_dataset, synth_generate
from sensorgp.errors import ConfigError, InputError, ProtocolError
from sensorgp.exact_gp import GPModel
from helpers import table


def mk(site, lat, lon, hours, value):
    return (site, lat, lon, hours, value)


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
    seeded = ev.ExperimentConfig(backend="svgp", seeds=(1, 2)).resolved()
    assert seeded.repetitions == 2 and seeded.seeds == (1, 2)
    seeded = ev.ExperimentConfig(backend="exact", seeds=[7]).resolved()
    assert seeded.repetitions == 1 and seeded.seeds == (7,)


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
    with pytest.raises(ConfigError, match="3 seeds for 1 repetitions"):
        ev.ExperimentConfig(backend="svgp", repetitions=1, seeds=(1, 2, 3)).resolved()
    for bad in (0, -3, True, False, "4", 2.0, None):
        with pytest.raises(ConfigError, match="parallelism must be a positive integer"):
            ev.ExperimentConfig(parallelism=bad).resolved()
    for key in ("budget", "subsample", "n_inducing", "batch_size"):
        for bad in (0, "ten", 2.5, True):
            with pytest.raises(ConfigError, match=f"{key} must be a positive integer"):
                ev.ExperimentConfig(**{key: bad}).resolved()
    for key in ("learning_rate", "noise_variance", "kernel_variance", "kernel_lengthscale",
                "outlier_factor"):
        for bad in ("big", None, False):
            with pytest.raises(ConfigError, match=f"{key} must be a number"):
                ev.ExperimentConfig(**{key: bad}).resolved()
    with pytest.raises(ConfigError, match="seeds must be integers"):
        ev.ExperimentConfig(seeds=("one",)).resolved()
    assert ev.ExperimentConfig(learning_rate=1, seeds=[np.int64(3)]).resolved().seeds == (3,)


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


def test_evaluation_reads_backend_facts_from_the_registry(monkeypatch):
    fits = []

    class Stub(GPModel):
        backend, label, repetitions, budget = "stub", "STUB", 2, 3

        @classmethod
        def fit_experiment(cls, kernel, dataset, config, seed):
            fits.append((config.budget, seed))
            return super().fit_experiment(kernel, dataset, config, seed)

    monkeypatch.setitem(model_io.BACKENDS, "stub", Stub)
    config = ev.ExperimentConfig(
        backend="stub", kernel_variance=1e-12, noise_variance=1.0, learning_rate=1e-9
    )
    resolved = config.resolved()
    assert (resolved.repetitions, resolved.seeds, resolved.budget) == (2, (1, 2), 3)
    assert resolved.name == "stub" and resolved.flags_row()["sparse"] == "STUB"

    readings = [mk(site, lat, 32.5, h, 20.0) for h in range(72)
                for site, lat in (("a", 0.3), ("b", 0.4))]
    report = ev.forecast_holdout(table(readings), config)
    assert fits == [(3, 1), (3, 2)]
    assert report.per_repetition["a"] == pytest.approx([0.0, 0.0], abs=1e-6)
    assert ev.comparison_rows([report])[0]["sparse"] == "STUB"

    Stub.spatial_only = True
    with pytest.raises(ConfigError, match="stub backend supports neither"):
        ev.ExperimentConfig(backend="stub", periodic=True).resolved()


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
    report = ev.nowcast_loo(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))
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
    report = ev.nowcast_loo(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))
    # fold b trains on site a whose mean is exactly 30
    expected = float(np.sqrt(np.mean((values_b - 30.0) ** 2)))
    assert report.per_site["b"] == pytest.approx(expected, abs=1e-5)


def test_nowcast_needs_two_sites():
    readings = [mk("a", 0.3, 32.5, h, 10.0) for h in range(30)]
    with pytest.raises(ProtocolError):
        ev.nowcast_loo(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))


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
    report = ev.nowcast_loo(table(readings), cfg)
    assert report.max_rmse <= 0.5


def wavy_sites(n_sites=4, n_hours=48):
    return [
        mk(f"s{i}", 0.30 + 0.02 * i, 32.50 + 0.03 * i, h,
           30.0 + 5.0 * i + 8.0 * math.sin(2 * math.pi * (h + 3 * i) / 24.0))
        for i in range(n_sites)
        for h in range(n_hours)
    ]


# SVGP fits on the fold threads run the shared optimizer loop on minibatches
SMALL_SVGP = dict(
    backend="svgp", n_inducing=6, batch_size=32, budget=80, learning_rate=0.05,
    repetitions=1, seeds=(2,), parallelism=1,
)


SMALL_STATESPACE = dict(
    backend="statespace", budget=5, repetitions=1, seeds=(1,), parallelism=1,
)


@pytest.mark.parametrize(
    "readings, config",
    [(two_constant_sites, MEAN_PREDICTOR), (wavy_sites, SMALL_SVGP),
     (wavy_sites, SMALL_STATESPACE)],
    ids=["exact-mean", "svgp", "statespace"],
)
def test_nowcast_parallelism_does_not_change_results(monkeypatch, readings, config):
    readings = readings()
    r1 = ev.nowcast_loo(table(readings), ev.ExperimentConfig(**config))
    monkeypatch.setattr(ev, "usable_cores", lambda: 4)   # four threads on any box
    r4 = ev.nowcast_loo(table(readings), ev.ExperimentConfig(**{**config, "parallelism": 4}))
    assert len(r1.per_site) > 1
    assert r1.per_site == r4.per_site
    assert r1.avg_rmse == r4.avg_rmse


def record_fold_threads(monkeypatch):
    """The thread of every `_fit_and_predict` call, and the most calls ever running at once."""
    idents, running, peak = [], [0], [0]
    lock = threading.Lock()
    fit_and_predict = ev._fit_and_predict

    def recording(*args):
        with lock:
            idents.append(threading.get_ident())
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.02)                     # hold the fold so that others overlap it
        try:
            return fit_and_predict(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(ev, "_fit_and_predict", recording)
    return idents, peak


def test_nowcast_pool_never_outgrows_the_cores(monkeypatch):
    idents, peak = record_fold_threads(monkeypatch)
    monkeypatch.setattr(ev, "usable_cores", lambda: 1)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "parallelism": 4})
    report = ev.nowcast_loo(table(wavy_sites()), config)
    assert len(report.per_site) == 4
    assert len(idents) == 4 and len(set(idents)) == 1 and peak[0] == 1


def test_nowcast_pool_never_outgrows_parallelism(monkeypatch):
    idents, peak = record_fold_threads(monkeypatch)
    monkeypatch.setattr(ev, "usable_cores", lambda: 3)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "parallelism": 2})
    report = ev.nowcast_loo(table(wavy_sites(n_sites=6)), config)
    assert len(report.per_site) == 6
    assert len(idents) == 6 and len(set(idents)) <= 2 and peak[0] <= 2


def test_usable_cores_counts_the_affinity_set(monkeypatch):
    assert ev.usable_cores() >= 1
    monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: {0, 5, 7})
    assert ev.usable_cores() == 3
    monkeypatch.delattr(ev.os, "sched_getaffinity")
    monkeypatch.setattr(ev.os, "cpu_count", lambda: None)
    assert ev.usable_cores() == 1


@pytest.fixture()
def fake_blas(monkeypatch):
    """Two fake OpenBLAS thread controls, standing in for numpy's and scipy's."""
    threads = {"numpy": 2, "scipy": 3}
    controls = [
        linalg._ThreadControl(
            name, lambda name=name: threads[name],
            lambda n, name=name: threads.__setitem__(name, n),
        )
        for name in threads
    ]
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: controls)
    return threads


def record_threads_per_fit(monkeypatch, threads):
    """The thread counts every `_fit_and_predict` call saw."""
    seen = []
    fit_and_predict = ev._fit_and_predict

    def recording(*args):
        seen.append(dict(threads))
        return fit_and_predict(*args)

    monkeypatch.setattr(ev, "_fit_and_predict", recording)
    return seen


def test_nowcast_folds_run_on_one_blas_thread(monkeypatch, fake_blas):
    seen = record_threads_per_fit(monkeypatch, fake_blas)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "parallelism": 2})
    report = ev.nowcast_loo(table(two_constant_sites()), config)
    assert set(report.per_site) == {"a", "b"}
    assert seen == [{"numpy": 1, "scipy": 1}] * 2
    assert fake_blas == {"numpy": 2, "scipy": 3}


def test_forecast_fits_run_on_one_blas_thread(monkeypatch, fake_blas):
    seen = record_threads_per_fit(monkeypatch, fake_blas)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "repetitions": 2, "seeds": (1, 2)})
    report = ev.forecast_holdout(table(two_constant_sites()), config)
    assert set(report.per_site) == {"a", "b"}
    assert seen == [{"numpy": 1, "scipy": 1}] * 2
    assert fake_blas == {"numpy": 2, "scipy": 3}


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_library_fits_and_predicts_run_on_one_blas_thread(monkeypatch, fake_blas, backend):
    # outside any protocol: the optimizer loop and predict pin BLAS themselves
    seen = []
    step = optim.AdamState.step
    monkeypatch.setattr(
        optim.AdamState, "step", lambda *args: seen.append(dict(fake_blas)) or step(*args)
    )
    for module in (exact_gp, svgp, statespace):
        check = module.query_matrix
        monkeypatch.setattr(
            module, "query_matrix",
            lambda *args, check=check: seen.append(dict(fake_blas)) or check(*args),
        )
    dataset = build_dataset(synth_generate(sites=3, days=2, seed=0).readings)
    config = ev.ExperimentConfig(backend=backend, budget=3, n_inducing=5).resolved()
    model, _ = ev.fit_model(dataset, config, seed=1)
    model.predict(dataset.X[:4])
    assert len(seen) == 4 and seen == [{"numpy": 1, "scipy": 1}] * 4
    assert fake_blas == {"numpy": 2, "scipy": 3}
    if backend == "svgp":
        # the closed-form variational optimum factors its own matrices
        seen.clear()
        chol = svgp.chol_with_jitter
        monkeypatch.setattr(
            svgp, "chol_with_jitter",
            lambda *args: seen.append(dict(fake_blas)) or chol(*args),
        )
        model.set_optimal_variational()
        assert seen and seen == [{"numpy": 1, "scipy": 1}] * len(seen)
        assert fake_blas == {"numpy": 2, "scipy": 3}


def test_nowcast_results_do_not_depend_on_the_pool(monkeypatch):
    # the program's own outputs: one fold thread or two, run twice, same bits
    monkeypatch.setattr(ev, "usable_cores", lambda: 2)    # two threads on any box
    readings = synth_generate(sites=4, days=2, seed=3).readings
    config = dict(backend="svgp", n_inducing=5, batch_size=16, budget=12,
                  repetitions=1, seeds=(2,))
    serial = ev.nowcast_loo(readings, ev.ExperimentConfig(**config, parallelism=1))
    pooled = [
        ev.nowcast_loo(readings, ev.ExperimentConfig(**config, parallelism=2))
        for _ in range(2)
    ]
    assert len(serial.per_site) == 4
    for report in pooled:
        assert report.per_site == serial.per_site
        assert report.pooled_rmse == serial.pooled_rmse


# ---------------------------------------------------------------------------
# the fold runner both protocols share


def runner_readings():
    """Sites a and b over 3 days; site c stops before the final day."""
    rows = [mk(site, lat, 32.5, h, 10.0 + 5.0 * k + h % 5)
            for h in range(72)
            for k, (site, lat) in enumerate((("a", 0.30), ("b", 0.32)))]
    rows += [mk("c", 0.34, 32.5, h, 40.0 + h % 7) for h in range(40)]
    return rows


def known_means(train, test, config, seed):
    """A stand-in fit: the truth scaled by 1 + seed/10, so every error is seed/10 x truth."""
    assert np.all(test.site[:-1] <= test.site[1:])       # test rows grouped by site
    held = set(zip(test.site.tolist(), test.hour.tolist()))
    assert held.isdisjoint(zip(train.site.tolist(), train.hour.tolist()))
    return test.pm25 * (1.0 + seed / 10.0)


def by_hand(values, seed):
    return math.sqrt(sum((seed / 10.0 * v) ** 2 for v in values) / len(values))


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("protocol", ["nowcast", "forecast"])
def test_fold_runner_scores_known_means(monkeypatch, protocol, parallelism):
    monkeypatch.setattr(ev, "_fit_and_predict", known_means)
    monkeypatch.setattr(ev, "usable_cores", lambda: 2)
    rows = runner_readings()
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "repetitions": 2, "seeds": (1, 2),
                                    "parallelism": parallelism})
    run = ev.nowcast_loo if protocol == "nowcast" else ev.forecast_holdout
    report = run(table(rows), config)

    # nowcast scores every reading of each site; forecast the final 24 hours
    tested = [r for r in rows if protocol == "nowcast" or r[3] >= 48]
    scored = sorted({r[0] for r in tested})
    values = {site: [r[4] for r in tested if r[0] == site] for site in scored}
    expected = {site: [by_hand(values[site], seed) for seed in (1, 2)] for site in scored}
    assert list(report.per_repetition) == scored
    for site in scored:
        assert report.per_repetition[site] == pytest.approx(expected[site], rel=1e-12)
        assert report.per_site[site] == pytest.approx(np.mean(expected[site]), rel=1e-12)
    pooled = np.mean([by_hand([r[4] for r in tested], seed) for seed in (1, 2)])
    assert report.pooled_rmse == pytest.approx(pooled, rel=1e-12)
    assert report.min_rmse == min(report.per_site.values())
    assert report.max_rmse == max(report.per_site.values())
    if protocol == "nowcast":
        assert list(report.fold_seconds) == ["a", "b", "c"]
        assert report.omitted_sites == []
    else:
        assert list(report.fold_seconds) == ["all"]
        assert report.omitted_sites == ["c"]


def test_forecast_fold_runs_on_the_calling_thread(monkeypatch):
    idents = []

    def recording(train, test, config, seed):
        idents.append(threading.get_ident())
        return known_means(train, test, config, seed)

    monkeypatch.setattr(ev, "_fit_and_predict", recording)
    monkeypatch.setattr(ev, "usable_cores", lambda: 4)
    config = ev.ExperimentConfig(**{**MEAN_PREDICTOR, "repetitions": 2, "seeds": (1, 2),
                                    "parallelism": 4})
    report = ev.forecast_holdout(table(runner_readings()), config)
    assert set(report.per_site) == {"a", "b"}
    assert idents == [threading.get_ident()] * 2


# ---------------------------------------------------------------------------
# forecasting protocol


def test_forecast_mean_predictor_last_day_deviation():
    readings = []
    for h in range(72):  # 3 days; the final 24 hours are held out
        readings.append(mk("a", 0.3, 32.5, h, 20.0))
        readings.append(mk("b", 0.4, 32.6, h, 20.0 if h < 40 else 32.0))
    report = ev.forecast_holdout(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))
    # training rows are hours 0..47: site a all 20, site b 40x20 then 8x32
    train_mean = (48 * 20.0 + 40 * 20.0 + 8 * 32.0) / 96
    assert train_mean == 21.0
    assert report.per_site["a"] == pytest.approx(1.0, abs=1e-5)
    assert report.per_site["b"] == pytest.approx(11.0, abs=1e-5)


def test_forecast_single_day_rejected():
    readings = [mk("a", 0.3, 32.5, h, 10.0) for h in range(10)]
    readings += [mk("b", 0.4, 32.6, h, 12.0) for h in range(10)]
    with pytest.raises(ProtocolError):
        ev.forecast_holdout(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))


def test_forecast_site_without_last_day_noted():
    readings = []
    for h in range(72):
        readings.append(mk("a", 0.3, 32.5, h, 20.0))
    for h in range(40):  # site b stops before the holdout window
        readings.append(mk("b", 0.4, 32.6, h, 25.0))
    report = ev.forecast_holdout(table(readings), ev.ExperimentConfig(**MEAN_PREDICTOR))
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
    report = ev.forecast_holdout(table(readings), cfg)
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
    r0 = ev.forecast_holdout(table(readings), base)
    r1 = ev.forecast_holdout(table(readings), cleaned)
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
    shifted = [(site, lat, lon, h, value + 1000.0) for site, lat, lon, h, value in base]
    cfg = ev.ExperimentConfig(**MEAN_PREDICTOR)
    r0 = ev.forecast_holdout(table(base), cfg)
    r1 = ev.forecast_holdout(table(shifted), cfg)
    for site in r0.per_site:
        assert r0.per_site[site] == pytest.approx(r1.per_site[site], abs=1e-8)


# ---------------------------------------------------------------------------
# matrix execution and report emission


def test_run_matrix_single_config_both_protocols():
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 10.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 20.0) for h in range(30, 50)]
    reports = ev.run_matrix(table(readings), [ev.ExperimentConfig(**MEAN_PREDICTOR)])
    assert [r.protocol for r in reports] == ["nowcast", "forecast"]
    rows = ev.comparison_rows(reports)
    assert len(rows) == 2
    assert rows[0]["sparse"] == "none"


def test_run_matrix_deterministic():
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 11.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 19.0) for h in range(30, 50)]
    cfgs = [ev.ExperimentConfig(**MEAN_PREDICTOR), ev.ExperimentConfig(**MEAN_PREDICTOR)]
    reports = ev.run_matrix(table(readings), cfgs, protocols=("forecast",))
    a, b = ev.comparison_rows(reports)
    assert a == b


def test_run_matrix_validates():
    with pytest.raises(InputError):
        ev.run_matrix(table(two_constant_sites()), [])
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
    report = ev.forecast_holdout(table(readings), cfg)
    for site, vals in report.per_repetition.items():
        assert len(vals) == 3
        assert report.per_site[site] == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert report.min_rmse <= report.avg_rmse <= report.max_rmse


def test_comparison_text_table_layout(tmp_path):
    readings = two_constant_sites() + [
        mk("a", 0.3, 32.5, h, 10.0) for h in range(30, 50)
    ] + [mk("b", 0.4, 32.6, h, 20.0) for h in range(30, 50)]
    reports = ev.run_matrix(table(readings), [ev.ExperimentConfig(**MEAN_PREDICTOR)])
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
