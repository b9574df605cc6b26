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

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import timedelta

import numpy as np

from . import data as data_mod
from . import kernels as kernels_mod
from . import linalg
from .errors import ConfigError, InputError, ProtocolError
from .exact_gp import GPModel, subsample
from .optim import OptimizerOptions
from .statespace import StateSpaceGP
from .svgp import SVGPModel

BACKENDS = ("exact", "svgp", "statespace")
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
    """One row of the comparison matrix: a backend plus the factor flags."""

    backend: str = "exact"
    name: str = None
    periodic: bool = False
    clean_outliers: bool = False
    additional_inputs: bool = False
    subsample: int = 1000                 # exact backend only
    repetitions: int = None               # default 4 for exact, else 1
    seeds: tuple = None                   # default (1, .., repetitions)
    n_inducing: int = 100
    batch_size: int = 256
    budget: int = None                    # default 500, but 5000 for svgp
    learning_rate: float = 0.05
    temporal: str = "matern32"
    outlier_factor: float = 1.5
    outlier_scope: str = "per-site"
    outlier_mode: str = "tukey"
    noise_variance: float = 0.1
    kernel_variance: float = 1.0
    kernel_lengthscale: float = 1.0
    optimize_inducing: bool = True
    parallelism: int = 4

    def resolved(self):
        """Fill defaults, validate, and return a fully concrete copy."""
        cfg = replace(self)
        if cfg.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {cfg.backend!r} (expected one of {BACKENDS})")
        if cfg.backend == "statespace" and (cfg.periodic or cfg.additional_inputs):
            raise ConfigError(
                "the state-space backend supports neither periodic kernels nor "
                "additional input columns"
            )
        if cfg.repetitions is None:
            cfg.repetitions = 4 if cfg.backend == "exact" else 1
        if cfg.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if cfg.seeds is None:
            cfg.seeds = tuple(range(1, cfg.repetitions + 1))
        else:
            cfg.seeds = tuple(int(s) for s in cfg.seeds)
        if len(cfg.seeds) != cfg.repetitions:
            raise ConfigError(
                f"got {len(cfg.seeds)} seeds for {cfg.repetitions} repetitions"
            )
        if cfg.budget is None:
            cfg.budget = 5000 if cfg.backend == "svgp" else 500
        if cfg.subsample < 1:
            raise ConfigError("subsample size must be positive")
        if cfg.n_inducing < 1:
            raise ConfigError("need at least one inducing point")
        if cfg.name is None:
            tags = [cfg.backend]
            if cfg.periodic:
                tags.append("periodic")
            if cfg.clean_outliers:
                tags.append("cleaned")
            if cfg.additional_inputs:
                tags.append("inputs")
            cfg.name = "-".join(tags)
        return cfg

    def optimizer_options(self, seed):
        return OptimizerOptions(
            learning_rate=self.learning_rate,
            max_iters=self.budget,
            seed=seed,
            batch_size=self.batch_size,
        )

    def flags_row(self):
        sparse = {"exact": "none", "svgp": "SVGP", "statespace": "ST"}[self.backend]
        return {
            "periodic": self.periodic,
            "outliers_removed": self.clean_outliers,
            "additional_inputs": self.additional_inputs,
            "sparse": sparse,
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
    periodic = kernels_mod.Periodic(v, ls, DAILY_HOURS) * kernels_mod.Periodic(
        1.0, ls, WEEKLY_HOURS
    )
    return kernels_mod.ActiveDims(
        other_dims, kernels_mod.SquaredExponential(v, ls)
    ) + kernels_mod.ActiveDims((time_dim,), periodic)


def _clean_training(train_readings, config):
    if not config.clean_outliers:
        return train_readings
    cleaned, _ = data_mod.remove_outliers(
        train_readings,
        factor=config.outlier_factor,
        scope=config.outlier_scope,
        mode=config.outlier_mode,
    )
    return cleaned


def fit_model(dataset, config, seed):
    """Build the backend a resolved config names and fit it; returns (model, FitResult).

    The exact backend trains on a seeded subsample when the dataset is
    larger than `config.subsample`.
    """
    opts = config.optimizer_options(seed)
    if config.backend == "statespace":
        spatial = kernels_mod.SquaredExponential(
            config.kernel_variance, config.kernel_lengthscale
        )
        model = StateSpaceGP.from_dataset(
            spatial, config.temporal, dataset, noise_variance=config.noise_variance
        )
        return model, model.fit(opts)
    kernel = kernels_mod.rescale_periods(
        _build_kernel(dataset.columns, config), dataset.col_scale
    )
    if config.backend == "svgp":
        model = SVGPModel.from_dataset(
            kernel, dataset, min(config.n_inducing, dataset.n),
            noise_variance=config.noise_variance, seed=seed,
        )
        return model, model.fit(opts, optimize_inducing=config.optimize_inducing)
    if config.subsample < dataset.n:
        dataset = subsample(dataset, config.subsample, seed)
    model = GPModel.from_dataset(kernel, dataset, noise_variance=config.noise_variance)
    return model, model.fit(opts)


def _fit_and_predict(train_readings, test_readings, config, seed):
    """Train one model per the config and return predicted means in µg/m³."""
    dataset = data_mod.build_dataset(
        train_readings, include_covariates=config.additional_inputs
    )
    model, _ = fit_model(dataset, config, seed)
    prediction = model.predict(dataset.encode_inputs(test_readings))
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


def nowcast_loo(readings, config):
    """Leave-one-site-out: train on every other site, predict the held-out one."""
    config = config.resolved()
    sites = sorted({r.site_id for r in readings})
    if len(sites) < 2:
        raise ProtocolError("leave-one-site-out needs at least 2 sites")

    def run_fold(site):
        start = time.perf_counter()
        test = [r for r in readings if r.site_id == site]
        train = [r for r in readings if r.site_id != site]
        train = _clean_training(train, config)
        if not train:
            raise ProtocolError(f"fold {site!r} has an empty training set")
        truth = [r.pm25 for r in test]
        fold_rmses, fold_errors = [], []
        for seed in config.seeds:
            mean = _fit_and_predict(train, test, config, seed)
            fold_rmses.append(rmse(mean, truth))
            fold_errors.append(np.asarray(mean) - np.asarray(truth))
        return site, fold_rmses, fold_errors, time.perf_counter() - start

    # the folds' small matrices gain nothing from BLAS threads; the pool gets the cores
    with linalg.single_threaded_blas(), ThreadPoolExecutor(
        max_workers=max(1, config.parallelism)
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
    last = max(r.timestamp for r in readings)
    first = min(r.timestamp for r in readings)
    if last - first < timedelta(hours=24):
        raise ProtocolError("forecasting needs at least 2 distinct days of data")
    cutoff = last - timedelta(hours=24)
    train = [r for r in readings if r.timestamp <= cutoff]
    test = [r for r in readings if r.timestamp > cutoff]
    if not train or not test:
        raise ProtocolError("the final-day split produced an empty partition")
    train = _clean_training(train, config)

    test_by_site = {}
    for r in test:
        test_by_site.setdefault(r.site_id, []).append(r)
    train_sites = {r.site_id for r in train}
    omitted = sorted(train_sites - set(test_by_site))

    site_order = sorted(test_by_site)
    start = time.perf_counter()
    site_reps = {site: [] for site in site_order}
    pooled = []
    for seed in config.seeds:
        all_test = [r for site in site_order for r in test_by_site[site]]
        mean = _fit_and_predict(train, all_test, config, seed)
        truth = np.array([r.pm25 for r in all_test])
        pooled.append(rmse(mean, truth))
        at = 0
        for site in site_order:
            k = len(test_by_site[site])
            site_reps[site].append(rmse(mean[at:at + k], truth[at:at + k]))
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
