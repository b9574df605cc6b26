"""Save and load fitted models as self-contained, human-readable JSON.

A model file carries everything prediction needs. This module writes the
envelope: format marker and version, noise variance and prior mean, the
input normalization statistics, the backend name, the training rows when
the class sets `stores_rows`, and an optional fit block. Each backend
writes and reads its own block through `to_doc` and `from_doc` (kernels,
plus inducing locations and whitened variational parameters for SVGP).
Kernels are written in their config form, with hyperparameters in natural
units; `log_params` also keeps the model's log-hyperparameters, log noise
variance and mean as fitted, since the log of a written exp(θ) can land an
ulp away from θ. Loading sets them when present (older files load from the
natural units), rejects NaN and Infinity, and reconstructs a model that
predicts bit for bit as the saved one without refitting and that can be
saved again.
"""

import json
from datetime import datetime, timezone

import numpy as np

from .data import Dataset
from .errors import FormatError, InputError, SensorGPError
from .exact_gp import GPModel
from .statespace import StateSpaceGP
from .svgp import SVGPModel

MODEL_FORMAT = "sensorgp-model"
MODEL_VERSION = 1
BACKENDS = {cls.backend: cls for cls in (GPModel, SVGPModel, StateSpaceGP)}


def _normalization_block(dataset):
    return {
        "columns": list(dataset.columns),
        "col_mean": dataset.col_mean.tolist(),
        "col_scale": dataset.col_scale.tolist(),
        "y_mean": dataset.y_mean,
        "y_scale": dataset.y_scale,
        "t0": dataset.t0.isoformat(),
    }


def _stored_dataset(doc, with_rows):
    """Inverse of _normalization_block, with the "train" rows when the file keeps them."""
    norm = doc["normalization"]
    columns = tuple(norm["columns"])
    t0 = datetime.fromisoformat(norm["t0"])
    if t0.tzinfo is None:
        t0 = t0.replace(tzinfo=timezone.utc)
    rows = doc["train"] if with_rows else {"X": np.empty((0, len(columns))), "y": ()}
    return Dataset(
        np.array(rows["X"], dtype=float), np.array(rows["y"], dtype=float), columns,
        np.array(norm["col_mean"], dtype=float), np.array(norm["col_scale"], dtype=float),
        float(norm["y_mean"]), float(norm["y_scale"]), t0,
    )


def save_model(path, model, fit_info=None):
    """Write one fitted model and its FitResult, if given; needs a model built from a Dataset."""
    if model.dataset is None:
        raise InputError("only models built from a Dataset can be saved")
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "noise_variance": model.noise_variance,
        "mean": model.mean,
        "normalization": _normalization_block(model.dataset),
        "backend": model.backend,
        **model.to_doc(),
    }
    if model.stores_rows:
        doc["train"] = {"X": model.dataset.X.tolist(), "y": model.dataset.y.tolist()}
    if fit_info is not None:
        doc["fit"] = {
            "objective": fit_info.objective,
            "iterations": fit_info.iterations,
            "converged": fit_info.converged,
        }
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise InputError(f"{path}: the model holds a non-finite value") from None
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")


class LoadedModel:
    """A reconstructed model; its `dataset` holds the normalization that serves queries."""

    def __init__(self, model):
        self.model = model

    def predict_readings(self, readings):
        """Means and standard deviations in original units for a Readings table."""
        dataset = self.model.dataset
        prediction = self.model.predict(dataset.encode_inputs(readings))
        mean = dataset.decode_targets(prediction.mean)
        latent_std = np.sqrt(prediction.latent_variance) * dataset.y_scale
        observed_std = np.sqrt(prediction.observed_variance) * dataset.y_scale
        return mean, latent_std, observed_std


def load_model(path):
    def reject(literal):
        raise FormatError(f"{path}: {literal} is not a finite number")

    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle, parse_constant=reject)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}: not a valid model file ({err})") from None
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: missing or wrong format marker")
    cls = BACKENDS.get(doc.get("backend"))
    if cls is None:
        raise FormatError(f"{path}: unknown backend {doc.get('backend')!r}")
    try:
        return LoadedModel(cls.from_doc(doc, _stored_dataset(doc, cls.stores_rows)))
    except SensorGPError:
        raise
    except KeyError as err:
        raise FormatError(f"{path}: missing key {err.args[0]!r}") from None
    except (TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed value ({err})") from None
