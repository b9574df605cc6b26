"""Self-tests for the benchmark's output checks.

Each workload's checks must pass on the program's real output and fail on
a deliberately corrupted copy of it. The workloads run here at a reduced
size so the whole file takes well under a minute:

    python3 -m pytest -q perfbench/test_checks.py     # from the repository root
"""

import copy
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import sensorgp  # noqa: E402
import sensorgp.cli  # noqa: E402,F401
import spans  # noqa: E402
import workloads  # noqa: E402


class SmallForecastExact(workloads.ForecastExact):
    sites, days = 20, 14
    row = dict(workloads.ForecastExact.row, subsample=400, budget=8)


class SmallNowcastSVGP(workloads.NowcastSVGP):
    sites, days = 5, 6
    ops = 5
    row = dict(workloads.NowcastSVGP.row, budget=40, n_inducing=15)


class SmallForecastStateSpace(workloads.ForecastStateSpace):
    sites, days = 8, 7
    row = dict(workloads.ForecastStateSpace.row, budget=3)
    window = 10


class SmallPredictServed(workloads.PredictServed):
    sites, days = 12, 8
    models = {
        "exact": dict(workloads.PredictServed.models["exact"], subsample=300, budget=6),
        "svgp": dict(workloads.PredictServed.models["svgp"], budget=40, n_inducing=20),
    }


def run_once(workload, tmp_path):
    """Set up and run one round with a recorder installed; returns (state, recorder)."""
    patches = spans.Patches()
    recorder = workloads.Recorder()
    recorder.install(patches, sensorgp)
    try:
        state = workload.setup(sensorgp, tmp_path, seed=3)
        recorder.calls.clear()
        attempted, failed = workload.round(sensorgp, state)
    finally:
        patches.undo()
    assert failed == 0 and attempted == workload.ops
    return state, recorder


def failures_of(workload, state, recorder):
    return workload.check(sensorgp, state, recorder)[1]


def corrupt_predictions(recorder, edit):
    """A copy of the recorder whose recorded predictions were passed through edit."""
    bad = workloads.Recorder()
    for kind, model, arg, result in recorder.calls:
        if kind == "predict":
            result = edit(copy.deepcopy(result))
        bad.calls.append((kind, model, arg, result))
    return bad


def edit_report(state, edit):
    path = state["work"] / "out" / "reports.json"
    doc = json.loads(path.read_text())
    edit(doc["reports"][0])
    path.write_text(json.dumps(doc))


def assert_fails(failures, text):
    assert any(text in f for f in failures), failures


def shifted(result, by=10.0):
    result.mean = result.mean + by
    return result


def negative_variance(result):
    result.latent_variance = result.latent_variance.copy()
    result.latent_variance[0] = -1.0
    return result


@pytest.fixture(scope="module")
def forecast_exact(tmp_path_factory):
    workload = SmallForecastExact()
    return (workload, *run_once(workload, tmp_path_factory.mktemp("fe")))


@pytest.fixture(scope="module")
def nowcast_svgp(tmp_path_factory):
    workload = SmallNowcastSVGP()
    return (workload, *run_once(workload, tmp_path_factory.mktemp("ns")))


@pytest.fixture(scope="module")
def forecast_statespace(tmp_path_factory):
    workload = SmallForecastStateSpace()
    return (workload, *run_once(workload, tmp_path_factory.mktemp("fs")))


@pytest.fixture(scope="module")
def predict_served(tmp_path_factory):
    workload = SmallPredictServed()
    return (workload, *run_once(workload, tmp_path_factory.mktemp("ps")))


# -- forecast-exact -----------------------------------------------------------

def test_forecast_exact_passes_on_real_output(forecast_exact):
    assert failures_of(*forecast_exact) == []


def test_forecast_exact_catches_shifted_means(forecast_exact):
    workload, state, recorder = forecast_exact
    failures = failures_of(workload, state, corrupt_predictions(recorder, shifted))
    assert_fails(failures, "exact mean")
    assert_fails(failures, "noise floor")
    assert_fails(failures, "baseline")
    assert_fails(failures, "reported pooled RMSE")


def test_forecast_exact_catches_negative_variance(forecast_exact):
    workload, state, recorder = forecast_exact
    failures = failures_of(workload, state, corrupt_predictions(recorder, negative_variance))
    assert_fails(failures, "variance out of order")


def test_forecast_exact_catches_missing_site(forecast_exact, tmp_path):
    workload, state, recorder = forecast_exact
    # drop the first held-out site from the report and its rows from the predictions
    moved = dict(state, work=tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "reports.json").write_text(
        (state["work"] / "out" / "reports.json").read_text()
    )
    edit_report(moved, lambda r: r["per_site"].pop(sorted(r["per_site"])[0]))
    failures = failures_of(workload, moved, recorder)
    assert_fails(failures, "not scored")

    def drop_first_rows(result):
        return replace(result, mean=result.mean[5:], latent_variance=result.latent_variance[5:],
                       observed_variance=result.observed_variance[5:])

    bad = workloads.Recorder()
    for kind, model, Xq, result in recorder.calls:
        bad.calls.append((kind, model, Xq[5:], drop_first_rows(result)))
    assert_fails(failures_of(workload, state, bad), "held-out rows unpredicted")


# -- nowcast-svgp -------------------------------------------------------------

def test_nowcast_svgp_passes_on_real_output(nowcast_svgp):
    assert failures_of(*nowcast_svgp) == []


def test_nowcast_svgp_catches_shifted_means(nowcast_svgp):
    workload, state, recorder = nowcast_svgp
    failures = failures_of(workload, state, corrupt_predictions(recorder, shifted))
    assert_fails(failures, "noise floor")
    assert_fails(failures, "baseline")


def test_nowcast_svgp_catches_elbo_above_optimum(nowcast_svgp):
    workload, state, recorder = nowcast_svgp
    bad = workloads.Recorder()
    for kind, model, arg, result in recorder.calls:
        if kind == "fit":
            result = replace(result, objective=result.objective + 1e3)
        bad.calls.append((kind, model, arg, result))
    assert_fails(failures_of(workload, state, bad), "exceeds the optimal-q bound")


def test_nowcast_svgp_catches_missing_fold(nowcast_svgp):
    workload, state, recorder = nowcast_svgp
    bad = workloads.Recorder()
    bad.calls = [c for c in recorder.calls if c[0] == "fit"]
    bad.calls += [c for c in recorder.calls if c[0] == "predict"][1:]
    assert_fails(failures_of(workload, state, bad), "held-out rows unpredicted")


# -- forecast-statespace ------------------------------------------------------

def test_forecast_statespace_passes_on_real_output(forecast_statespace):
    assert failures_of(*forecast_statespace) == []


def test_forecast_statespace_catches_wrong_filter(forecast_statespace, monkeypatch):
    workload, state, recorder = forecast_statespace
    lml = sensorgp.StateSpaceGP.log_marginal_likelihood
    monkeypatch.setattr(sensorgp.StateSpaceGP, "log_marginal_likelihood",
                        lambda self: lml(self) + 1e-3)
    assert_fails(failures_of(workload, state, recorder), "filter log-likelihood")


def test_forecast_statespace_catches_wrong_smoother(forecast_statespace, monkeypatch):
    workload, state, recorder = forecast_statespace
    predict = sensorgp.StateSpaceGP.predict
    monkeypatch.setattr(sensorgp.StateSpaceGP, "predict",
                        lambda self, Xq: shifted(predict(self, Xq), 1e-3))
    assert_fails(failures_of(workload, state, recorder), "smoother mean")


def test_forecast_statespace_catches_shifted_means(forecast_statespace):
    workload, state, recorder = forecast_statespace
    failures = failures_of(workload, state, corrupt_predictions(recorder, shifted))
    assert_fails(failures, "noise floor")


# -- predict-served -----------------------------------------------------------

def rewrite_predictions(state, backend, edit, tmp_path):
    """A copy of the state whose `backend` predictions.csv was passed through edit."""
    moved = dict(state)
    moved[backend] = tmp_path / backend
    moved[backend].mkdir()
    (moved[backend] / "model.json").write_text((state[backend] / "model.json").read_text())
    with open(state[backend] / "predictions.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    rows = edit(rows)
    with open(moved[backend] / "predictions.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return moved


def test_predict_served_passes_on_real_output(predict_served):
    assert failures_of(*predict_served) == []


def test_predict_served_catches_shifted_means(predict_served, tmp_path):
    workload, state, recorder = predict_served

    def shift(rows):
        for r in rows:
            r["mean"] = repr(float(r["mean"]) + 10.0)
        return rows

    failures = failures_of(workload, rewrite_predictions(state, "exact", shift, tmp_path),
                           recorder)
    assert_fails(failures, "exact: mean")
    assert_fails(failures, "noise floor")


def test_predict_served_catches_missing_site(predict_served, tmp_path):
    workload, state, recorder = predict_served

    def drop(rows):
        first = rows[0]["site_id"]
        return [r for r in rows if r["site_id"] != first]

    failures = failures_of(workload, rewrite_predictions(state, "svgp", drop, tmp_path),
                           recorder)
    assert_fails(failures, "not scored")
    assert_fails(failures, "held-out rows unpredicted")


def test_predict_served_catches_negative_std(predict_served, tmp_path):
    workload, state, recorder = predict_served

    def negate(rows):
        rows[0]["latent_std"] = "-0.5"
        return rows

    failures = failures_of(workload, rewrite_predictions(state, "svgp", negate, tmp_path),
                           recorder)
    assert_fails(failures, "variance out of order")


# -- single checks ------------------------------------------------------------

def test_rmse_far_below_the_noise_floor_is_flagged():
    assert checks.check_rmse_floor(4.0, 4.0, 1.25, "x") == []
    assert checks.check_rmse_floor(2.0, 4.0, 1.25, "x")
    assert checks.check_rmse_floor(float("nan"), 4.0, 1.25, "x")


def test_elbo_below_its_start_is_flagged():
    assert checks.check_elbo(-10.0, -5.0, -4.0, "x") == []
    assert_fails(checks.check_elbo(-10.0, -11.0, -4.0, "x"), "below its start")


def test_kernel_oracle_matches_the_program_kernels():
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    space = sensorgp.ActiveDims([0, 1], sensorgp.SquaredExponential(1.3, 0.7))
    time = sensorgp.Periodic(0.8, 0.9, 0.4) * sensorgp.Periodic(1.0, 1.1, 2.0)
    kernel = space + sensorgp.ActiveDims([2], time)
    np.testing.assert_allclose(
        checks.kernel_gram(sensorgp.to_config(kernel), A, B), kernel.gram(A, B), rtol=1e-12
    )
