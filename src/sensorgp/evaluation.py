"""Benchmark protocols and the model-comparison matrix.

Two protocols: nowcasting (leave one site out, predict it from the
others over the whole period) and forecasting (hold out the final 24
hours everywhere). Each runs a configured model, repeats over seeds,
and reports per-site RMSE in original units with min/average/max
summaries, where "average" is the unweighted mean over sites of the
per-site values (a pooled-over-points RMSE is reported alongside).

Outlier cleaning is applied to training folds only; test targets are
never touched.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import kernels as kernels_mod
from . import linalg, model_io
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
    return float(np.sqrt(np.mean((p - t) ** 2)))


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
    # nowcast folds at once, capped at usable_cores(): a fold thread beyond
    # the cores only waits for the GIL and adds switching
    parallelism: int = 4

    def resolved(self):
        """Fill defaults, validate, and return a fully concrete copy."""
        cfg = replace(self)
        cls = model_io.BACKENDS.get(cfg.backend)
        if cls is None:
            raise ConfigError(
                f"unknown backend {cfg.backend!r} (expected one of {tuple(model_io.BACKENDS)})"
            )
        if cls.spatial_only and (cfg.periodic or cfg.additional_inputs):
            raise ConfigError(
                f"the {cfg.backend} backend supports neither periodic kernels nor "
                "additional input columns"
            )
        if cfg.seeds is not None:
            cfg.seeds = tuple(int(s) for s in cfg.seeds)
        if cfg.repetitions is None:
            cfg.repetitions = cls.repetitions if cfg.seeds is None else len(cfg.seeds)
        if cfg.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if cfg.seeds is None:
            cfg.seeds = tuple(range(1, cfg.repetitions + 1))
        if len(cfg.seeds) != cfg.repetitions:
            raise ConfigError(
                f"got {len(cfg.seeds)} seeds for {cfg.repetitions} repetitions"
            )
        if cfg.budget is None:
            cfg.budget = cls.budget
        if cfg.subsample < 1:
            raise ConfigError("subsample size must be positive")
        if cfg.n_inducing < 1:
            raise ConfigError("need at least one inducing point")
        if type(cfg.parallelism) is not int or cfg.parallelism < 1:
            raise ConfigError(
                f"parallelism must be a positive integer, got {cfg.parallelism!r}"
            )
        if cfg.name is None:
            tags = {"periodic": cfg.periodic, "cleaned": cfg.clean_outliers,
                    "inputs": cfg.additional_inputs}
            cfg.name = "-".join([cfg.backend] + [tag for tag, on in tags.items() if on])
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


def _finalize(protocol, config, site_reps, pooled_reps, fold_seconds, omitted):
    per_site = {site: float(np.mean(vals)) for site, vals in site_reps.items()}
    values = list(per_site.values())
    return ExperimentReport(
        protocol=protocol,
        config=config,
        per_site=per_site,
        per_repetition={site: [float(v) for v in vals] for site, vals in site_reps.items()},
        min_rmse=float(np.min(values)),
        avg_rmse=float(np.mean(values)),
        max_rmse=float(np.max(values)),
        pooled_rmse=float(np.mean(pooled_reps)),
        fold_seconds=fold_seconds,
        omitted_sites=omitted,
    )


def usable_cores():
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def nowcast_loo(readings, config):
    """Leave-one-site-out: train on every other site, predict the held-out one."""
    config = config.resolved()
    sites = np.unique(readings.site).tolist()
    if len(sites) < 2:
        raise ProtocolError("leave-one-site-out needs at least 2 sites")

    def run_fold(site):
        start = time.perf_counter()
        held = readings.site == site
        test = readings.take(held)
        train = _clean_training(readings.take(~held), config)
        if not len(train):
            raise ProtocolError(f"fold {site!r} has an empty training set")
        fold_rmses, fold_errors = [], []
        for seed in config.seeds:
            mean = _fit_and_predict(train, test, config, seed)
            fold_rmses.append(rmse(mean, test.pm25))
            fold_errors.append(mean - test.pm25)
        return site, fold_rmses, fold_errors, time.perf_counter() - start

    # the folds' small matrices gain nothing from BLAS threads; the pool gets
    # the cores, and no more threads than cores
    with linalg.single_threaded_blas(), ThreadPoolExecutor(
        max_workers=min(config.parallelism, usable_cores())
    ) as pool:
        results = list(pool.map(run_fold, sites))

    site_reps, fold_seconds = {}, {}
    errors_by_rep = [[] for _ in config.seeds]
    for site, fold_rmses, fold_errors, seconds in results:
        site_reps[site] = fold_rmses
        fold_seconds[site] = seconds
        for k, err in enumerate(fold_errors):
            errors_by_rep[k].append(err)
    pooled = [
        float(np.sqrt(np.mean(np.concatenate(errs) ** 2))) for errs in errors_by_rep
    ]
    return _finalize("nowcast", config, site_reps, pooled, fold_seconds, [])


def forecast_holdout(readings, config):
    """Hold out the final 24 hours everywhere; train once, score per site."""
    config = config.resolved()
    last = int(readings.hour.max())
    if last - int(readings.hour.min()) < 24:
        raise ProtocolError("forecasting needs at least 2 distinct days of data")
    final_day = readings.hour > last - 24
    train = _clean_training(readings.take(~final_day), config)
    test = readings.take(final_day)
    test = test.take(np.argsort(test.site, kind="stable"))   # grouped by site
    sites, counts = np.unique(test.site, return_counts=True)
    site_order = sites.tolist()
    omitted = sorted(set(train.site.tolist()) - set(site_order))

    start = time.perf_counter()
    site_reps = {site: [] for site in site_order}
    pooled = []
    # serial fits still lose time when numpy's and scipy's BLAS pools contend
    with linalg.single_threaded_blas():
        for seed in config.seeds:
            mean = _fit_and_predict(train, test, config, seed)
            pooled.append(rmse(mean, test.pm25))
            at = 0
            for site, k in zip(site_order, counts):
                site_reps[site].append(rmse(mean[at:at + k], test.pm25[at:at + k]))
                at += k
    seconds = {"all": time.perf_counter() - start}
    return _finalize("forecast", config, site_reps, pooled, seconds, omitted)


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

def comparison_rows(reports):
    rows = []
    for report in reports:
        flags = report.config.flags_row()
        rows.append(
            {
                "protocol": report.protocol,
                "name": report.config.name,
                "periodic": _flag(flags["periodic"]),
                "outliers_removed": _flag(flags["outliers_removed"]),
                "additional_inputs": _flag(flags["additional_inputs"]),
                "sparse": flags["sparse"],
                "min_rmse": f"{report.min_rmse:.4f}",
                "avg_rmse": f"{report.avg_rmse:.4f}",
                "max_rmse": f"{report.max_rmse:.4f}",
                "pooled_rmse": f"{report.pooled_rmse:.4f}",
            }
        )
    return rows


def write_comparison_csv(reports, path):
    rows = comparison_rows(reports)
    headers = list(rows[0]) if rows else []
    lines = [",".join(headers)]
    lines += [",".join(str(row[h]) for h in headers) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_comparison_text(reports, path):
    """Aligned text table per protocol, in the standard column order."""
    headers = [
        "Periodic", "Outliers Removed", "Additional Inputs", "Sparse",
        "Min RMSE", "Average RMSE", "Max RMSE",
    ]
    blocks = []
    for protocol in ("nowcast", "forecast"):
        chosen = [r for r in reports if r.protocol == protocol]
        if not chosen:
            continue
        table = [headers]
        for report in chosen:
            flags = report.config.flags_row()
            table.append(
                [
                    _flag(flags["periodic"]),
                    _flag(flags["outliers_removed"]),
                    _flag(flags["additional_inputs"]),
                    flags["sparse"],
                    f"{report.min_rmse:.2f}",
                    f"{report.avg_rmse:.2f}",
                    f"{report.max_rmse:.2f}",
                ]
            )
        widths = [max(len(row[j]) for row in table) for j in range(len(headers))]
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
