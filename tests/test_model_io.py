import json
import re

import numpy as np
import pytest

from sensorgp import kernels, model_io
from sensorgp.data import build_dataset, synth_generate
from sensorgp.errors import FormatError, InputError
from sensorgp.exact_gp import GPModel
from sensorgp.optim import FitResult
from sensorgp.statespace import StateSpaceGP
from sensorgp.svgp import SVGPModel


@pytest.fixture(scope="module")
def corpus():
    res = synth_generate(sites=5, days=3, seed=0, missing_rate=0.1)
    ds = build_dataset(res.readings)
    return res.readings, ds


def test_exact_roundtrip(tmp_path, corpus):
    readings, ds = corpus
    k = kernels.SquaredExponential(1.2, 0.8) + kernels.ActiveDims(
        [2], kernels.Periodic(0.5, 1.0, 1.7)
    )
    model = GPModel.from_dataset(k, ds, noise_variance=0.2)
    path = tmp_path / "model.json"
    model_io.save_model(path, model, FitResult({}, -1.0, 3, False))
    loaded = model_io.load_model(path)
    assert loaded.model.backend == "exact"
    mean, lstd, ostd = loaded.predict_readings(readings.take(np.arange(20)))
    direct = model.predict(ds.encode_inputs(readings.take(np.arange(20))))
    np.testing.assert_allclose(mean, ds.decode_targets(direct.mean), atol=1e-10)
    np.testing.assert_allclose(lstd**2, direct.latent_variance * ds.y_scale**2, atol=1e-8)
    np.testing.assert_allclose(ostd**2, direct.observed_variance * ds.y_scale**2, atol=1e-8)


def test_svgp_roundtrip(tmp_path, corpus):
    readings, ds = corpus
    k = kernels.SquaredExponential(1.0, 1.0)
    model = SVGPModel.from_dataset(k, ds, inducing=12, noise_variance=0.15, seed=1)
    rng = np.random.default_rng(2)
    model._m_w[:] = rng.standard_normal(12)
    model._c_pack[:] = 0.1 * rng.standard_normal(model._c_pack.size)
    path = tmp_path / "model.json"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    assert loaded.model.backend == "svgp"
    mean, lstd, _ = loaded.predict_readings(readings.take(np.arange(30)))
    direct = model.predict(ds.encode_inputs(readings.take(np.arange(30))))
    np.testing.assert_allclose(mean, ds.decode_targets(direct.mean), atol=1e-9)
    np.testing.assert_allclose(lstd**2, direct.latent_variance * ds.y_scale**2, atol=1e-8)


def test_statespace_roundtrip(tmp_path, corpus):
    readings, ds = corpus
    model = StateSpaceGP.from_dataset(
        kernels.SquaredExponential(1.0, 0.9), "matern32", ds, noise_variance=0.3
    )
    path = tmp_path / "model.json"
    model_io.save_model(path, model)
    loaded = model_io.load_model(path)
    assert loaded.model.backend == "statespace"
    assert loaded.model.temporal.name == "matern32"
    mean, lstd, _ = loaded.predict_readings(readings.take(np.arange(15)))
    direct = model.predict(ds.encode_inputs(readings.take(np.arange(15))))
    np.testing.assert_allclose(mean, ds.decode_targets(direct.mean), atol=1e-8)


def build(backend, ds):
    if backend == "exact":
        kernel = kernels.SquaredExponential(1.2, 0.8) + kernels.ActiveDims(
            [2], kernels.Periodic(0.5, 1.0, 1.7)
        )
        return GPModel.from_dataset(kernel, ds, noise_variance=0.2)
    if backend == "svgp":
        model = SVGPModel.from_dataset(
            kernels.SquaredExponential(1.0, 1.0), ds, inducing=12, noise_variance=0.15, seed=1
        )
        model.set_optimal_variational()
        return model
    return StateSpaceGP.from_dataset(
        kernels.SquaredExponential(1.0, 0.9), "matern32", ds, noise_variance=0.3
    )


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_loaded_model_saves_the_same_file(tmp_path, corpus, backend):
    readings, ds = corpus
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    model_io.save_model(first, build(backend, ds))
    loaded = model_io.load_model(first)
    model_io.save_model(second, loaded.model)
    assert second.read_bytes() == first.read_bytes()
    # and the reloaded file serves the same predictions, bit for bit
    again = model_io.load_model(second).predict_readings(readings.take(np.arange(10)))
    for a, b in zip(loaded.predict_readings(readings.take(np.arange(10))), again):
        np.testing.assert_array_equal(a, b)


def drifting_logs(size):
    """Log-values that exp then log does not give back: a file that held only
    exp(θ) in decimal would reload each of them an ulp away."""
    draws = np.random.default_rng(0).uniform(-1.0, 1.0, 20_000)
    drifting = draws[np.log(np.exp(draws)) != draws]
    assert drifting.size >= size
    return drifting[:size]


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_loaded_model_predicts_bit_for_bit(tmp_path, corpus, backend):
    readings, ds = corpus
    model = build(backend, ds)
    path = tmp_path / "model.json"
    model_io.save_model(path, model)
    # every stored log-value but the mean, which is not a logarithm
    n = len(json.loads(path.read_text())["log_params"]) - 1
    theta = model.log_params()
    theta[:n] = drifting_logs(n)
    model.set_log_params(theta)
    model_io.save_model(path, model)
    loaded = model_io.load_model(path).model
    np.testing.assert_array_equal(loaded.log_params(), model.log_params())
    Xq = ds.encode_inputs(readings.take(np.arange(10)))
    direct, served = model.predict(Xq), loaded.predict(Xq)
    for field in ("mean", "latent_variance", "observed_variance"):
        np.testing.assert_array_equal(getattr(served, field), getattr(direct, field))
    # a file without the exact values still loads, from the decimal ones
    blob = json.loads(path.read_text())
    del blob["log_params"]
    path.write_text(json.dumps(blob))
    older = model_io.load_model(path).model
    assert not np.array_equal(older.log_params(), model.log_params())
    np.testing.assert_allclose(older.log_params(), model.log_params(), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_training_rows_only_where_the_class_stores_them(tmp_path, corpus, backend):
    _, ds = corpus
    path = tmp_path / "model.json"
    model_io.save_model(path, build(backend, ds))
    blob = json.loads(path.read_text())
    cls = model_io.BACKENDS[backend]
    assert ("train" in blob) == cls.stores_rows
    loaded = model_io.load_model(path).model.dataset
    assert loaded.n == (ds.n if cls.stores_rows else 0)
    if cls.stores_rows:
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.y, ds.y)


@pytest.mark.parametrize(
    "key, value", [("mean", np.nan), ("noise_variance", np.nan), ("mean", -np.inf)]
)
@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_non_finite_model_file_values_rejected(tmp_path, corpus, backend, key, value):
    _, ds = corpus
    path = tmp_path / "model.json"
    model_io.save_model(path, build(backend, ds))
    blob = json.loads(path.read_text())
    blob[key] = value                      # json writes NaN / -Infinity literals
    path.write_text(json.dumps(blob))
    literal = json.dumps(value)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {literal} is not a finite")):
        model_io.load_model(path)


@pytest.mark.parametrize("key, value", [("log_params", ["a", 0.0]), ("noise_variance", "abc")])
@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_malformed_model_file_values_rejected(tmp_path, corpus, backend, key, value):
    _, ds = corpus
    path = tmp_path / "model.json"
    model_io.save_model(path, build(backend, ds))
    blob = json.loads(path.read_text())
    blob[key] = value
    path.write_text(json.dumps(blob))
    with pytest.raises(FormatError, match=re.escape(f"{path}: malformed value")):
        model_io.load_model(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_non_finite_queries_rejected(tmp_path, corpus, backend, bad):
    readings, ds = corpus
    model = build(backend, ds)
    Xq = ds.encode_inputs(readings.take(np.arange(3)))
    Xq[1, 0] = bad
    with pytest.raises(InputError, match="finite"):
        model.predict(Xq)
    path = tmp_path / "model.json"
    model_io.save_model(path, model)
    queries = readings.take(np.arange(2))
    queries.lat[1] = bad
    with pytest.raises(InputError, match="finite"):
        model_io.load_model(path).predict_readings(queries)


def test_file_shape_and_fit_info(tmp_path, corpus):
    _, ds = corpus
    model = GPModel.from_dataset(kernels.SquaredExponential(), ds)
    path = tmp_path / "model.json"
    model_io.save_model(path, model, FitResult({"mean": 0.0}, 2.5, 7, True))
    blob = json.loads(path.read_text())
    assert blob["format"] == model_io.MODEL_FORMAT
    assert blob["version"] == model_io.MODEL_VERSION
    assert blob["backend"] == "exact"
    assert blob["fit"] == {"objective": 2.5, "iterations": 7, "converged": True}
    assert "normalization" in blob and "columns" in blob["normalization"]


def test_save_requires_dataset(tmp_path):
    model = GPModel(kernels.SquaredExponential(), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(InputError):
        model_io.save_model(tmp_path / "m.json", model)


def test_save_refuses_non_finite_values(tmp_path, corpus):
    _, ds = corpus
    model = GPModel.from_dataset(kernels.SquaredExponential(), ds, mean=float("nan"))
    path = tmp_path / "model.json"
    with pytest.raises(InputError, match=re.escape(f"{path}: the model holds a non-finite")):
        model_io.save_model(path, model)
    assert not path.exists()


def test_load_rejects_other_formats(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(FormatError):
        model_io.load_model(p)
    p2 = tmp_path / "worse.json"
    p2.write_text("not json at all")
    with pytest.raises(FormatError):
        model_io.load_model(p2)


def test_loaded_model_missing_covariates_named(tmp_path, corpus):
    readings, _ = corpus
    res = synth_generate(sites=3, days=2, seed=9, missing_rate=0.0)
    ds = build_dataset(res.readings)
    # fake a covariate-trained model by rebuilding with covariates absent
    model = GPModel.from_dataset(kernels.SquaredExponential(), ds)
    path = tmp_path / "m.json"
    model_io.save_model(path, model)
    blob = json.loads(path.read_text())
    blob["normalization"]["columns"] = list(blob["normalization"]["columns"]) + ["windspeed"]
    blob["normalization"]["col_mean"].append(0.0)
    blob["normalization"]["col_scale"].append(1.0)
    # the stored training matrix no longer matches the column list, so rebuild it
    for row in blob["train"]["X"]:
        row.append(0.0)
    path.write_text(json.dumps(blob))
    loaded = model_io.load_model(path)
    with pytest.raises(InputError, match="windspeed"):
        loaded.predict_readings(res.readings.take(np.arange(5)))
