"""Benchmark protocols and the model-comparison matrix.

Two protocols: nowcasting (leave one site out, predict it from the
others over the whole period) and forecasting (hold out the final 24
hours everywhere). Each protocol only lists its folds, as a name and a
held-out mask: one per site for nowcasting, one named "all" for
forecasting. One fold runner does the rest: it runs the folds one at a
time on the calling thread, in listed order and with BLAS on one thread.
It trains each fold on the readings outside the mask, once per seed, and
reports per-site RMSE in original units with min/average/max summaries,
where "average" is the unweighted mean over sites of the per-site values
(a pooled-over-points RMSE is reported alongside).

Outlier cleaning is applied to training folds only; test targets are
never touched.
"""

import contextlib
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import data as data_mod
from . import kernels as kernels_mod
from . import linalg, model_io, statespace
from .errors import ConfigError, InputError, ProtocolError
from .optim import OptimizerOptions

DAILY_HOURS = 24.0
WEEKLY_HOURS = 168.0


def rmse(predictions, truths):
    """Root mean squared error; both arguments in the same (original) units."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(truths, dtype=float).ravel()
    if p.size == 0 or p.size != t.size:
        raise InputError(f"need equal non-zero lengths, got {p.size} and {t.size}")
    return _root_mean_square(p - t)


def _root_mean_square(errors):
    return float(np.sqrt(np.mean(errors ** 2)))


_KINDS = {int: numbers.Integral, float: numbers.Real}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
_INTEGER_BOUNDS = {0: "a non-negative integer", 1: "a positive integer"}


def config_value(value, kind, key, low=None, choices=None):
    """`value` if it has the type `kind` its config field declares, is at
    least `low` (an integer bound) and is one of `choices`, where given;
    otherwise a ConfigError naming `key`. An int field needs an integer, a
    float field takes any real number, a bool is never a number, and
    nothing is coerced."""
    what = _INTEGER_BOUNDS[low] if low is not None else _KIND_NAMES.get(kind, kind.__name__)
    typed = isinstance(value, _KINDS.get(kind, kind)) and (
        kind is bool or not isinstance(value, bool)
    )
    if not typed or (low is not None and value < low):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{key} must be one of {tuple(choices)}, got {value!r}")
    return value


_CHOICES = {"temporal": statespace.TEMPORAL_KERNELS, "outlier_scope": data_mod.OUTLIER_SCOPES,
            "outlier_mode": data_mod.OUTLIER_MODES}


def _seeds(seeds, where):
    """A row's seeds as a tuple of non-negative integers."""
    if isinstance(seeds, (list, tuple)):
        with contextlib.suppress(ConfigError):
            return tuple(int(config_value(seed, int, "seed", low=0)) for seed in seeds)
    raise ConfigError(f"{where}seeds must be integers >= 0, got {seeds!r}")


@dataclass
class ExperimentConfig:
    """One row of the comparison matrix: a backend in model_io.BACKENDS plus the flags."""

    backend: str = "exact"
    name: str = None
    periodic: bool = False
    clean_outliers: bool = False
    additional_inputs: bool = False
    subsample: int = 1000                 # exact backend only
    repetitions: int = None               # default len(seeds), else the backend class's
    seeds: tuple = None                   # default (1, .., repetitions)
    n_inducing: int = 100
    batch_size: int = 256
    budget: int = None                    # default the backend class's
    learning_rate: float = 0.05
    temporal: str = "matern32"
    outlier_factor: float = 1.5
    outlier_scope: str = "per-site"
    outlier_mode: str = "tukey"
    noise_variance: float = 0.1
    kernel_variance: float = 1.0
    kernel_lengthscale: float = 1.0
    optimize_inducing: bool = True

    def resolved(self, where=""):
        """Fill defaults, validate, and return a fully concrete copy. Error
        messages name each key after `where`, the config path of the row."""
        cfg = replace(self)
        cls = model_io.BACKENDS[
            config_value(cfg.backend, str, f"{where}backend", choices=model_io.BACKENDS)
        ]
        if cfg.seeds is not None:
            cfg.seeds = _seeds(cfg.seeds, where)
        if cfg.repetitions is None:
            cfg.repetitions = cls.repetitions if cfg.seeds is None else len(cfg.seeds)
        if cfg.budget is None:
            cfg.budget = cls.budget
        if cfg.name is None:
            tags = {"periodic": cfg.periodic, "cleaned": cfg.clean_outliers,
                    "inputs": cfg.additional_inputs}
            cfg.name = "-".join([cfg.backend] + [tag for tag, on in tags.items() if on])
        for f in fields(cfg):     # the ranges of float fields are checked where they are used
            if f.name != "seeds":
                config_value(getattr(cfg, f.name), f.type, where + f.name,
                             low=1 if f.type is int else None, choices=_CHOICES.get(f.name))
        if cfg.seeds is None:
            cfg.seeds = tuple(range(1, cfg.repetitions + 1))
        if len(cfg.seeds) != cfg.repetitions:
            raise ConfigError(
                f"{where}seeds: got {len(cfg.seeds)} seeds for {cfg.repetitions} repetitions"
            )
        if cls.spatial_only and (cfg.periodic or cfg.additional_inputs):
            key = "periodic" if cfg.periodic else "additional_inputs"
            raise ConfigError(f"{where}{key}: the {cfg.backend} backend supports neither "
                              "periodic kernels nor additional input columns")
        return cfg

    def optimizer_options(self, seed):
        return OptimizerOptions(
            learning_rate=self.learning_rate,
            max_iters=self.budget,
            seed=seed,
            batch_size=self.batch_size,
        )

    def flags_row(self):
        return {
            "periodic": self.periodic,
            "outliers_removed": self.clean_outliers,
            "additional_inputs": self.additional_inputs,
            "sparse": model_io.BACKENDS[self.backend].label,
        }


def default_matrix():
    """The six standard comparison rows, in table order."""
    return [
        ExperimentConfig(backend="exact", name="base"),
        ExperimentConfig(backend="exact", name="periodic", periodic=True),
        ExperimentConfig(
            backend="exact", name="periodic-cleaned", periodic=True, clean_outliers=True
        ),
        ExperimentConfig(
            backend="exact", name="periodic-cleaned-inputs",
            periodic=True, clean_outliers=True, additional_inputs=True,
        ),
        ExperimentConfig(
            backend="svgp", name="svgp",
            periodic=True, clean_outliers=True, additional_inputs=True,
        ),
        ExperimentConfig(backend="statespace", name="statespace", clean_outliers=True),
    ]


@dataclass
class ExperimentReport:
    protocol: str
    config: ExperimentConfig
    per_site: dict                  # site -> RMSE averaged over repetitions
    per_repetition: dict            # site -> [RMSE per repetition]
    min_rmse: float
    avg_rmse: float
    max_rmse: float
    pooled_rmse: float              # over all test points, then averaged over reps
    fold_seconds: dict = field(default_factory=dict)
    omitted_sites: list = field(default_factory=list)


def _build_kernel(columns, config):
    time_dim = columns.index("time_h")
    other_dims = tuple(j for j in range(len(columns)) if j != time_dim)
    v, ls = config.kernel_variance, config.kernel_lengthscale
    if not config.periodic:
        return kernels_mod.SquaredExponential(v, ls)
    return kernels_mod.SquaredExponential(v, ls, dims=other_dims) + (
        kernels_mod.Periodic(v, ls, DAILY_HOURS, dims=[time_dim])
        * kernels_mod.Periodic(1.0, ls, WEEKLY_HOURS, dims=[time_dim])
    )


def _clean_training(train, config):
    if not config.clean_outliers:
        return train
    cleaned, _ = data_mod.remove_outliers(
        train,
        factor=config.outlier_factor,
        scope=config.outlier_scope,
        mode=config.outlier_mode,
    )
    return cleaned


def fit_model(dataset, config, seed):
    """Fit the backend class a resolved config names; returns (model, FitResult)."""
    kernel = kernels_mod.rescale_periods(
        _build_kernel(dataset.columns, config), dataset.col_scale
    )
    return model_io.BACKENDS[config.backend].fit_experiment(kernel, dataset, config, seed)


def _fit_and_predict(train, test, config, seed):
    """Train one model on the `train` readings and return predicted means in
    µg/m³ for the `test` readings."""
    dataset = data_mod.build_dataset(train, include_covariates=config.additional_inputs)
    model, _ = fit_model(dataset, config, seed)
    prediction = model.predict(dataset.encode_inputs(test))
    return dataset.decode_targets(prediction.mean)


def _run_folds(protocol, readings, config, folds):
    """Score a resolved config on each `(name, held-out mask)` fold.

    A fold trains on the readings outside its mask, cleaned, and predicts
    the ones inside it, once per seed. Per-site RMSE is taken over each
    site's test rows and pooled RMSE over every fold's test rows, per seed.
    """

    def run_fold(fold):
        name, held = fold
        start = time.perf_counter()
        test = readings.take(held)
        test = test.take(np.argsort(test.site, kind="stable"))   # grouped by site
        train = _clean_training(readings.take(~held), config)
        if not len(train):
            raise ProtocolError(f"fold {name!r} has an empty training set")
        errors = [
            _fit_and_predict(train, test, config, seed) - test.pm25 for seed in config.seeds
        ]
        sites, firsts = np.unique(test.site, return_index=True)
        ends = np.append(firsts[1:], len(test))
        scores = {
            site: [_root_mean_square(err[a:b]) for err in errors]
            for site, a, b in zip(sites.tolist(), firsts, ends)
        }
        trained = set(train.site.tolist())
        return name, scores, errors, trained, time.perf_counter() - start

    # the fits' small matrices gain nothing from BLAS threads
    with linalg.single_threaded_blas():
        results = [run_fold(fold) for fold in folds]

    names, scores, errors, trained, seconds = zip(*results)
    site_reps = {site: reps for fold in scores for site, reps in fold.items()}
    per_site = {site: float(np.mean(vals)) for site, vals in site_reps.items()}
    values = list(per_site.values())
    return ExperimentReport(
        protocol=protocol,
        config=config,
        per_site=per_site,
        per_repetition=site_reps,
        min_rmse=float(np.min(values)),
        avg_rmse=float(np.mean(values)),
        max_rmse=float(np.max(values)),
        # errors holds each fold's per-seed list; zip(*errors) is each seed's folds
        pooled_rmse=float(np.mean(
            [_root_mean_square(np.concatenate(per_fold)) for per_fold in zip(*errors)]
        )),
        fold_seconds=dict(zip(names, seconds)),
        omitted_sites=sorted(set().union(*trained) - set(site_reps)),
    )


def nowcast_loo(readings, config):
    """Leave-one-site-out: train on every other site, predict the held-out one."""
    config = config.resolved()
    sites = np.unique(readings.site).tolist()
    if len(sites) < 2:
        raise ProtocolError("leave-one-site-out needs at least 2 sites")
    return _run_folds(
        "nowcast", readings, config, [(site, readings.site == site) for site in sites]
    )


def forecast_holdout(readings, config):
    """Hold out the final 24 hours everywhere; train once, score per site."""
    config = config.resolved()
    last = int(readings.hour.max())
    if last - int(readings.hour.min()) < 24:
        raise ProtocolError("forecasting needs at least 2 distinct days of data")
    return _run_folds("forecast", readings, config, [("all", readings.hour > last - 24)])


PROTOCOLS = {"nowcast": nowcast_loo, "forecast": forecast_holdout}


def run_matrix(readings, configs=None, protocols=("nowcast", "forecast")):
    """Run every config under every requested protocol, in table order."""
    if configs is None:
        configs = default_matrix()
    if not configs:
        raise InputError("need at least one experiment configuration")
    for name in protocols:
        if name not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {name!r} (expected nowcast/forecast)")
    reports = []
    for config in configs:
        for name in protocols:
            reports.append(PROTOCOLS[name](readings, config))
    return reports


# -- report emission --------------------------------------------------------

def _flag(value):
    return "yes" if value else "no"


def comparison_rows(reports, digits=4):
    """One row of flags and RMSE summaries per report, as table strings."""
    rows = []
    for report in reports:
        row = {"protocol": report.protocol, "name": report.config.name}
        for key, value in report.config.flags_row().items():
            row[key] = value if key == "sparse" else _flag(value)
        for stat in ("min_rmse", "avg_rmse", "max_rmse", "pooled_rmse"):
            row[stat] = f"{getattr(report, stat):.{digits}f}"
        rows.append(row)
    return rows


def write_comparison_csv(reports, path):
    rows = comparison_rows(reports)
    headers = list(rows[0]) if rows else []
    lines = [",".join(headers)]
    lines += [",".join(str(row[h]) for h in headers) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# comparison.txt's columns: row key -> header
_TEXT_COLUMNS = {
    "periodic": "Periodic", "outliers_removed": "Outliers Removed",
    "additional_inputs": "Additional Inputs", "sparse": "Sparse",
    "min_rmse": "Min RMSE", "avg_rmse": "Average RMSE", "max_rmse": "Max RMSE",
}


def write_comparison_text(reports, path):
    """Aligned text table per protocol, in the standard column order."""
    blocks = []
    for protocol in ("nowcast", "forecast"):
        chosen = [r for r in reports if r.protocol == protocol]
        if not chosen:
            continue
        table = [list(_TEXT_COLUMNS.values())] + [
            [row[key] for key in _TEXT_COLUMNS] for row in comparison_rows(chosen, digits=2)
        ]
        widths = [max(len(row[j]) for row in table) for j in range(len(_TEXT_COLUMNS))]
        lines = [f"== {protocol} =="]
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n\n".join(blocks) + "\n")


def report_json(reports):
    return [
        {
            "protocol": r.protocol,
            "name": r.config.name,
            "backend": r.config.backend,
            "flags": r.config.flags_row(),
            "seeds": list(r.config.seeds),
            "min_rmse": r.min_rmse,
            "avg_rmse": r.avg_rmse,
            "max_rmse": r.max_rmse,
            "pooled_rmse": r.pooled_rmse,
            "per_site": r.per_site,
            "per_repetition": r.per_repetition,
            "fold_seconds": r.fold_seconds,
            "omitted_sites": r.omitted_sites,
        }
        for r in reports
    ]
