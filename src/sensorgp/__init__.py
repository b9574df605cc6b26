"""GP regression toolkit for sparse spatio-temporal sensor data.

Three interchangeable backends (dense Cholesky, sparse variational,
linear-in-time state space) behind a shared kernel language and data
pipeline, plus the benchmark protocols used to compare them.
"""

from .data import (
    Dataset,
    Readings,
    SynthConfig,
    build_dataset,
    drop_sparse_sites,
    join_weather,
    load_sensor_csv,
    remove_outliers,
    summary_stats,
    synth_generate,
)
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    NumericalError,
    ProtocolError,
    SensorGPError,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    default_matrix,
    forecast_holdout,
    nowcast_loo,
    rmse,
    run_matrix,
)
from .exact_gp import GPModel, PosteriorPrediction, subsample
from .kernels import (
    ActiveDims,
    Kernel,
    Periodic,
    Product,
    SquaredExponential,
    Sum,
    from_config,
    rescale_periods,
    to_config,
)
from .model_io import load_model, save_model
from .optim import FitResult, OptimizerOptions
from .statespace import Matern12, Matern32, StateSpaceGP, temporal_kernel
from .svgp import SVGPModel, init_inducing

__all__ = [
    "ActiveDims", "ConfigError", "Dataset", "ExperimentConfig", "ExperimentReport",
    "FitResult", "FormatError", "GPModel", "InputError", "Kernel", "Matern12",
    "Matern32", "NumericalError", "OptimizerOptions", "Periodic",
    "PosteriorPrediction", "Product", "ProtocolError", "Readings", "SVGPModel",
    "SensorGPError", "SquaredExponential", "StateSpaceGP",
    "Sum", "SynthConfig", "build_dataset", "default_matrix", "drop_sparse_sites",
    "forecast_holdout", "from_config", "init_inducing", "join_weather",
    "load_model", "load_sensor_csv", "nowcast_loo", "remove_outliers",
    "rescale_periods", "rmse", "run_matrix", "save_model", "subsample",
    "summary_stats", "synth_generate", "temporal_kernel", "to_config",
]

__version__ = "0.1.0"
