"""Save and load fitted models as self-contained, human-readable JSON.

A model file carries everything prediction needs. This module writes the
envelope: format marker and version, noise variance and prior mean, the
input normalization statistics, the backend name and an optional fit
block. Each backend writes and reads its own block through `to_doc` and
`from_doc` (kernels, plus training rows for the dense and state-space
backends, or inducing locations and the whitened variational parameters
for the sparse one). Loading reconstructs a model that predicts
identically without refitting, and that can be saved again.
"""

import json
from datetime import datetime, timezone

import numpy as np

from .data import Dataset
from .errors import FormatError, InputError
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


def _dataset_without_rows(norm):
    """Inverse of _normalization_block: a Dataset with the statistics and no rows."""
    columns = tuple(norm["columns"])
    t0 = datetime.fromisoformat(norm["t0"])
    if t0.tzinfo is None:
        t0 = t0.replace(tzinfo=timezone.utc)
    return Dataset(
        np.empty((0, len(columns))), np.empty(0), columns,
        np.array(norm["col_mean"], dtype=float), np.array(norm["col_scale"], dtype=float),
        float(norm["y_mean"]), float(norm["y_scale"]), t0,
    )


def save_model(path, model, fit_info=None):
    """Write one fitted model; requires a model built from a Dataset."""
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
    if fit_info is not None:
        if isinstance(fit_info, dict):
            doc["fit"] = dict(fit_info)
        else:
            doc["fit"] = {
                "objective": fit_info.objective,
                "iterations": fit_info.iterations,
                "converged": fit_info.converged,
            }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


class LoadedModel:
    """A reconstructed model; its `dataset` holds the normalization that serves queries."""

    def __init__(self, model):
        self.backend = model.backend
        self.model = model

    def predict_readings(self, readings):
        """Means and standard deviations in original units for query readings."""
        dataset = self.model.dataset
        prediction = self.model.predict(dataset.encode_inputs(readings))
        mean = dataset.decode_targets(prediction.mean)
        latent_std = np.sqrt(prediction.latent_variance) * dataset.y_scale
        observed_std = np.sqrt(prediction.observed_variance) * dataset.y_scale
        return mean, latent_std, observed_std


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise FormatError(f"{path}: not a valid model file ({err})") from None
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: missing or wrong format marker")
    cls = BACKENDS.get(doc.get("backend"))
    if cls is None:
        raise FormatError(f"{path}: unknown backend {doc.get('backend')!r}")
    return LoadedModel(cls.from_doc(doc, _dataset_without_rows(doc["normalization"])))
