import json

import numpy as np
import pytest

from sensorgp import kernels, model_io
from sensorgp.data import build_dataset, synth_generate
from sensorgp.errors import FormatError, InputError
from sensorgp.exact_gp import GPModel
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
    model_io.save_model(path, model, fit_info={"objective": -1.0, "iterations": 3})
    loaded = model_io.load_model(path)
    assert loaded.backend == "exact"
    mean, lstd, ostd = loaded.predict_readings(readings[:20])
    direct = model.predict(ds.encode_inputs(readings[:20]))
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
    assert loaded.backend == "svgp"
    mean, lstd, _ = loaded.predict_readings(readings[:30])
    direct = model.predict(ds.encode_inputs(readings[:30]))
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
    assert loaded.backend == "statespace"
    assert loaded.model.temporal.name == "matern32"
    mean, lstd, _ = loaded.predict_readings(readings[:15])
    direct = model.predict(ds.encode_inputs(readings[:15]))
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
    again = model_io.load_model(second).predict_readings(readings[:10])
    for a, b in zip(loaded.predict_readings(readings[:10]), again):
        np.testing.assert_array_equal(a, b)


def test_file_shape_and_fit_info(tmp_path, corpus):
    _, ds = corpus
    model = GPModel.from_dataset(kernels.SquaredExponential(), ds)
    path = tmp_path / "model.json"
    model_io.save_model(path, model, fit_info={"objective": 2.5})
    blob = json.loads(path.read_text())
    assert blob["format"] == model_io.MODEL_FORMAT
    assert blob["version"] == model_io.MODEL_VERSION
    assert blob["backend"] == "exact"
    assert blob["fit"]["objective"] == 2.5
    assert "normalization" in blob and "columns" in blob["normalization"]


def test_save_requires_dataset(tmp_path):
    model = GPModel(kernels.SquaredExponential(), np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(InputError):
        model_io.save_model(tmp_path / "m.json", model)


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
        loaded.predict_readings(res.readings[:5])
