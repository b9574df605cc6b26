"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen; without -s they still appear in the captured output of any
failing test.
"""

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    central_diff,
    dense_lml,
    dense_posterior,
    filter_runtime,
    filter_with_fences,
    separable_gram,
)
from sensorgp import data as data_mod
from sensorgp import evaluation as eval_mod
from sensorgp import kernels, statespace
from sensorgp.cli import main as cli_main
from sensorgp.exact_gp import GPModel
from sensorgp.svgp import SVGPModel, init_inducing


def verdict(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_instance(rng, n, d):
    """Composite kernel + data drawn fresh for oracle comparisons."""
    if d == 1:
        kernel = kernels.SquaredExponential(
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        )
    else:
        kernel = kernels.ActiveDims(
            list(range(d - 1)),
            kernels.SquaredExponential(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
        ) + kernels.ActiveDims(
            [d - 1], kernels.Periodic(rng.uniform(0.5, 2.0), rng.uniform(0.8, 2.0), 3.0)
        )
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    y = rng.normal(size=n)
    noise = rng.uniform(0.05, 0.5)
    mean = rng.normal()
    return kernel, X, y, noise, mean


def test_exact_gp_matches_dense_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 5))
        kernel, X, y, noise, mean = random_instance(rng, n, d)
        model = GPModel(kernel, X, y, noise_variance=noise, mean=mean)

        K = kernel.gram(X) + noise * np.eye(n)
        lml_ref = dense_lml(K, y, 0.0, mean)
        worst = max(worst, abs(model.log_marginal_likelihood() - lml_ref))

        Xq = rng.uniform(-2.5, 2.5, size=(5, d))
        mean_ref, var_ref = dense_posterior(kernel, X, y, noise, mean, Xq)
        p = model.predict(Xq)
        worst = max(worst, np.abs(p.mean - mean_ref).max())
        worst = max(worst, np.abs(p.latent_variance - var_ref).max())
    verdict(
        "criterion 1: exact GP lml+predict vs dense inverse, 50 instances",
        worst < 1e-8, f"max abs err {worst:.2e}",
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 10))
        d = int(rng.integers(1, 4))
        kernel, X, y, noise, mean = random_instance(rng, n, d)

        # kernel gradients, via the sum of gram entries
        K, grads = kernel.gram_and_grads(X, X)
        theta0 = kernel.log_params()

        def gram_sum(theta, kernel=kernel, X=X):
            trial = kernel.copy()
            trial.set_log_params(theta)
            return float(np.sum(trial.gram(X)))

        fd = central_diff(gram_sum, theta0)
        for j in range(kernel.n_params):
            an = float(np.sum(grads[j]))
            worst = max(worst, abs(an - fd[j]) / max(1.0, abs(fd[j])))

        # marginal-likelihood gradients over every log-parameter
        model = GPModel(kernel, X, y, noise_variance=noise, mean=mean)
        analytic = model.grad_log_marginal_likelihood()

        def lml_at(theta, model=model):
            trial = GPModel(
                model.kernel.copy(), model.X, model.y,
                noise_variance=model.noise_variance, mean=0.0,
            )
            trial.set_log_params(theta)
            return trial.log_marginal_likelihood()

        fd = central_diff(lml_at, model.log_params())
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, rel.max())
    verdict(
        "criterion 2: kernel and lml gradients vs central differences, 20 settings",
        worst < 1e-4, f"max rel err {worst:.2e}",
    )


def test_svgp_collapses_to_exact_gp():
    rng = np.random.default_rng(5)
    n = 100
    kernel, X, y, noise, mean = random_instance(rng, n, 3)
    exact = GPModel(kernel.copy(), X, y, noise_variance=noise, mean=mean)
    sparse = SVGPModel(kernel.copy(), X, y, X.copy(), noise_variance=noise, mean=mean)
    sparse.set_optimal_variational()

    gap = abs(sparse.elbo() - exact.log_marginal_likelihood())
    Xq = rng.uniform(-2.5, 2.5, size=(40, 3))
    pe = exact.predict(Xq)
    ps = sparse.predict(Xq)
    mean_gap = np.abs(pe.mean - ps.mean).max()
    var_gap = np.abs(pe.latent_variance - ps.latent_variance).max()
    ok = gap < 1e-6 and mean_gap < 1e-6 and var_gap < 1e-6
    verdict(
        "criterion 3: SVGP with M=N, Z=X collapses to the exact GP",
        ok, f"elbo gap {gap:.2e}, mean gap {mean_gap:.2e}, var gap {var_gap:.2e}",
    )


def test_elbo_is_a_lower_bound():
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(20):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(3, min(n, 40)))
        kernel, X, y, noise, mean = random_instance(rng, n, 2)
        exact = GPModel(kernel.copy(), X, y, noise_variance=noise, mean=mean)
        Z = init_inducing(X, m, seed=int(rng.integers(1000)))
        sparse = SVGPModel(
            kernel.copy(), X, y, Z, noise_variance=noise, mean=mean
        )
        sparse.set_optimal_variational()
        worst = max(worst, sparse.elbo() - exact.log_marginal_likelihood())
    verdict(
        "criterion 4: ELBO never exceeds the exact lml, 20 instances",
        worst <= 1e-8, f"max elbo-lml {worst:.2e}",
    )


def test_statespace_matches_dense_and_scales_linearly():
    rng = np.random.default_rng(31)

    # single site, n <= 200
    single_worst = 0.0
    for name in ("matern12", "matern32"):
        t = np.sort(rng.uniform(0.0, 40.0, size=180))
        temporal = statespace.temporal_kernel(name, variance=1.3, lengthscale=2.5)
        spatial = kernels.SquaredExponential(1.0, 1.0)  # constant over one site
        coords = np.array([[0.2, 0.7]])
        X = np.column_stack(
            [np.repeat(coords, len(t), axis=0), t]
        )
        y = rng.normal(size=len(t))
        model = statespace.StateSpaceGP(
            spatial, temporal, X, y, noise_variance=0.2, mean=0.3
        )
        tq = np.concatenate([t[3:6] + 0.21, [t[-1] + 3.0]])
        Xq = np.column_stack([np.repeat(coords, len(tq), axis=0), tq])
        lml_d, mean_d, var_d = _dense_separable(
            spatial, temporal, X, y, 0.2, 0.3, Xq
        )
        p = model.predict(Xq)
        single_worst = max(
            single_worst,
            abs(model.log_marginal_likelihood() - lml_d),
            np.abs(p.mean - mean_d).max(),
            np.abs(p.latent_variance - var_d).max(),
        )

    # S=4 x T=100 grid with gaps
    coords = rng.uniform(0.0, 1.0, size=(4, 2))
    times = np.sort(rng.uniform(0.0, 25.0, size=100))
    rows, vals = [], []
    for tt in times:
        for i in range(4):
            if rng.random() < 0.2:
                continue
            rows.append([coords[i, 0], coords[i, 1], tt])
            vals.append(rng.standard_normal())
    X = np.array(rows)
    y = np.array(vals)
    spatial = kernels.SquaredExponential(1.1, 0.5)
    temporal = statespace.temporal_kernel("matern32", variance=0.9, lengthscale=3.0)
    model = statespace.StateSpaceGP(spatial, temporal, X, y, noise_variance=0.25, mean=0.0)
    Xq = np.array(
        [
            [coords[1, 0], coords[1, 1], 0.5 * (times[10] + times[11])],
            [0.9, 0.05, times[40]],
            [coords[3, 0], coords[3, 1], times[-1] + 1.5],
        ]
    )
    lml_d, mean_d, var_d = _dense_separable(spatial, temporal, X, y, 0.25, 0.0, Xq)
    p = model.predict(Xq)
    grid_worst = max(
        abs(model.log_marginal_likelihood() - lml_d),
        np.abs(p.mean - mean_d).max(),
        np.abs(p.latent_variance - var_d).max(),
    )

    # doubling T at fixed S should roughly double one filter sweep
    T = 3000
    times = np.arange(T, dtype=float)
    rows = []
    vals = []
    for tt in times:
        for i in range(3):
            rows.append([coords[i, 0], coords[i, 1], tt])
            vals.append(0.0)
    big = statespace.StateSpaceGP(
        spatial, temporal, np.array(rows), np.array(vals), noise_variance=0.25
    )
    half = filter_runtime(big, T // 2, repeats=3)
    full = filter_runtime(big, T, repeats=3)
    ratio = full / half

    ok = single_worst < 1e-6 and grid_worst < 1e-5 and 1.5 <= ratio <= 2.5
    verdict(
        "criterion 5: state-space posterior equals dense GP; runtime linear in T",
        ok,
        f"single-site err {single_worst:.2e}, grid err {grid_worst:.2e}, "
        f"T-doubling ratio {ratio:.2f}",
    )


def _dense_separable(spatial, temporal, X, y, noise, mean, Xq):
    K = separable_gram(spatial, temporal, X, X) + noise * np.eye(len(y))
    Kinv = np.linalg.inv(K)
    Kqx = separable_gram(spatial, temporal, Xq, X)
    resid = y - mean
    mean_q = mean + Kqx @ Kinv @ resid
    var_q = spatial.diag(Xq[:, :2]) * temporal.variance - np.sum(
        (Kqx @ Kinv) * Kqx, axis=1
    )
    lml = float(
        -0.5 * resid @ Kinv @ resid
        - 0.5 * np.linalg.slogdet(K)[1]
        - 0.5 * len(y) * np.log(2.0 * np.pi)
    )
    return lml, mean_q, var_q


def test_tukey_filter_worked_example():
    start = datetime(2021, 11, 1, tzinfo=timezone.utc)
    readings = [
        data_mod.SensorReading("s", 0.0, 32.0, start + timedelta(hours=h), v, None)
        for h, v in enumerate([1.0, 2.0, 3.0, 4.0, 100.0])
    ]
    kept, report = data_mod.remove_outliers(readings, factor=1.5)
    fences = report.groups["s"]
    survivors = sorted(r.pm25 for r in kept)
    again = filter_with_fences(kept, report)

    ok = (
        fences.q1 == pytest.approx(2.0)
        and fences.q3 == pytest.approx(4.0)
        and fences.lower == pytest.approx(-1.0)
        and fences.upper == pytest.approx(7.0)
        and survivors == [1.0, 2.0, 3.0, 4.0]
        and [r.pm25 for r in again] == survivors
    )
    verdict(
        "criterion 6: Tukey fences [-1, 7] drop exactly the 100, idempotent",
        ok,
        f"fences [{fences.lower}, {fences.upper}], kept {survivors}",
    )


@pytest.mark.slow
def test_synthetic_forecast_ordering():
    """Periodic kernel beats plain SE, and outlier removal helps further."""
    result = data_mod.synth_generate(sites=66, days=30, seed=12)
    # sanity on the generator's premise: signal well above noise, spikes present
    assert result.config.daily_amplitude >= 2.0 * result.config.noise_std
    assert result.config.spike_rate > 0.0

    shared = dict(
        backend="exact", subsample=700, budget=250, learning_rate=0.05,
        repetitions=4, seeds=(1, 2, 3, 4), parallelism=4,
    )
    rows = [
        eval_mod.ExperimentConfig(name="base", periodic=False, **shared),
        eval_mod.ExperimentConfig(name="periodic", periodic=True, **shared),
        eval_mod.ExperimentConfig(
            name="periodic-cleaned", periodic=True, clean_outliers=True, **shared
        ),
    ]
    averages = {}
    for config in rows:
        report = eval_mod.forecast_holdout(result.readings, config.resolved())
        averages[config.name] = report.avg_rmse

    ok = (
        averages["periodic"] < averages["base"]
        and averages["periodic-cleaned"] < averages["periodic"]
    )
    verdict(
        "criterion 7: synthetic forecast ordering base > periodic > periodic-cleaned",
        ok,
        ", ".join(f"{k} {v:.2f}" for k, v in averages.items()),
    )


REAL_DATA = Path(__file__).resolve().parent.parent / "data" / "november_2021.csv"


@pytest.mark.slow
def test_real_data_directional_gates():
    """Directional checks on the real sensor export, when someone has placed it.

    Drop the November 2021 network export at data/november_2021.csv
    (site_id, latitude, longitude, timestamp, pm2_5) to enable this gate.
    """
    if not REAL_DATA.exists():
        pytest.skip(
            f"real sensor export not present at {REAL_DATA}; "
            "directional gates not evaluated"
        )
    readings, _ = data_mod.load_sensor_csv(REAL_DATA)
    readings, _ = data_mod.drop_sparse_sites(readings, 100)
    matrix = {c.name: c for c in eval_mod.default_matrix()}

    forecasts = {
        name: eval_mod.forecast_holdout(readings, matrix[name].resolved())
        for name in ("base", "periodic", "periodic-cleaned", "svgp")
    }
    periodicity_helps = forecasts["periodic"].avg_rmse < forecasts["base"].avg_rmse
    cleaning_tames_max = (
        forecasts["periodic-cleaned"].max_rmse < forecasts["periodic"].max_rmse
    )
    full_data_beats_subsample = (
        forecasts["svgp"].avg_rmse < forecasts["periodic-cleaned"].avg_rmse
    )
    ok = periodicity_helps and cleaning_tames_max and full_data_beats_subsample
    verdict(
        "criterion 8: real-data directional gates",
        ok,
        f"periodicity helps {periodicity_helps}, "
        f"cleaning tames max {cleaning_tames_max}, "
        f"full data beats subsample {full_data_beats_subsample}",
    )


def test_benchmark_reports_are_reproducible(tmp_path):
    lines = ["site_id,latitude,longitude,timestamp,pm2_5"]
    rng = np.random.default_rng(3)
    for sid, lat, lon in (("a", 0.30, 32.5), ("b", 0.31, 32.6), ("c", 0.29, 32.7)):
        for h in range(72):
            day, hh = divmod(h, 24)
            value = 30.0 + 8.0 * np.sin(2 * np.pi * h / 24.0) + rng.normal(0, 0.5)
            lines.append(
                f"{sid},{lat},{lon},2021-11-{1 + day:02d}T{hh:02d}:00:00Z,{value:.3f}"
            )
    sensors = tmp_path / "sensors.csv"
    sensors.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "bench.json"
    config.write_text(
        json.dumps(
            {
                "data": {"sensors": str(sensors), "min_site_readings": 10},
                "benchmark": {
                    "matrix": [
                        {
                            "backend": "exact", "name": "tiny", "periodic": True,
                            "budget": 40, "repetitions": 2, "seeds": [1, 2],
                            "parallelism": 2,
                        }
                    ]
                },
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["benchmark", "--config", str(config), "--out-dir", str(out1)])
    rc2 = cli_main(["benchmark", "--config", str(config), "--out-dir", str(out2)])
    same = (out1 / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    verdict(
        "criterion 9: two identical benchmark runs write byte-identical CSVs",
        ok, f"exit codes {rc1}/{rc2}, identical {same}",
    )
