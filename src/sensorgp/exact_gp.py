"""Exact Gaussian-process regression via Cholesky factorization.

Posterior prediction, log marginal likelihood and its analytic gradient,
and gradient-ascent hyperparameter fitting. Cost is cubic in the number of
training points, which is why the benchmark subsamples training folds for
this backend.

The gradient ½ tr((ααᵀ − K⁻¹) dK/dθ) (Rasmussen & Williams 2006, §5.4.1)
is one reverse kernel pass on K̄ = ½(ααᵀ − K⁻¹), with K⁻¹ from the factor
by LAPACK dpotri and the training inputs' kernel terms prepared once per
fit, so a step forms no derivative matrix per parameter.

A fit keeps one workspace: the prepared inputs, whose passes write into
their own arrays, the noisy matrix, which LAPACK dpotrf factors in place,
and K̄, which dpotri inverts in place from a copy of the factor. A warm
step therefore allocates no n × n array. When the fit ends the model
keeps the factor alone.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyr

from .errors import InputError
from .kernels import _as_matrix, from_config, to_config
from .linalg import (
    chol_inverse_lower, chol_solve, chol_with_jitter, single_threaded_blas, tri_solve,
)
from .optim import FitResult, OptimizerOptions, maximize

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PosteriorPrediction:
    """Predictive marginals per query point, in model (standardized) units."""

    mean: np.ndarray
    latent_variance: np.ndarray      # noise-free, clamped at zero
    observed_variance: np.ndarray    # latent + noise variance


def query_matrix(Xq, n_cols):
    """Query rows as an (n, n_cols) float matrix; every backend's `predict`
    runs this one check, so a NaN or infinite input fails by name."""
    Xq = _as_matrix(Xq)
    if Xq.shape[1] != n_cols:
        raise InputError(f"query rows must have {n_cols} columns, got shape {Xq.shape}")
    if not np.isfinite(Xq).all():
        raise InputError("query rows must be finite (got NaN or infinity)")
    return Xq


class GPModel:
    """GP regression model with a constant learned mean and Gaussian noise."""

    backend = "exact"      # its name in model files
    label = "none"         # the comparison table's Sparse column
    repetitions = 4        # default number of seeds per experiment row
    budget = 500           # default optimizer step budget
    spatial_only = False   # True rejects periodic rows and covariate columns
    stores_rows = True     # the model file keeps the training rows

    def __init__(self, kernel, X, y, noise_variance=0.1, mean=None):
        if noise_variance <= 0:
            raise InputError("noise variance must be positive")
        self.kernel = kernel.copy()
        self.X = _as_matrix(X)
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise InputError(
                f"X has {self.X.shape[0]} rows but y has {self.y.size} entries"
            )
        if self.y.size == 0:
            raise InputError("training set must be non-empty")
        self.log_noise_variance = float(np.log(noise_variance))
        self.mean = float(np.mean(self.y)) if mean is None else float(mean)
        self.dataset = None
        self._cache = None
        self._workspace = None    # during a fit: prepared inputs, noisy matrix, K̄

    @classmethod
    def from_dataset(cls, kernel, dataset, noise_variance=0.1, mean=None):
        model = cls(kernel, dataset.X, dataset.y, noise_variance, mean)
        model.dataset = dataset
        return model

    @classmethod
    def fit_experiment(cls, kernel, dataset, config, seed):
        """Fit one experiment row on a seeded subsample of at most `config.subsample` rows."""
        if config.subsample < dataset.n:
            dataset = subsample(dataset, config.subsample, seed)
        model = cls.from_dataset(kernel, dataset, config.noise_variance)
        return model, model.fit(config.optimizer_options(seed))

    # -- model file block: the kernel (model_io keeps the training rows) ----

    def to_doc(self):
        return {"kernel": to_config(self.kernel), "log_params": self.log_params().tolist()}

    @classmethod
    def from_doc(cls, doc, dataset):
        """Rebuild from a model file; `dataset` carries its normalization and rows."""
        model = cls.from_dataset(
            from_config(doc["kernel"]), dataset, float(doc["noise_variance"]), float(doc["mean"])
        )
        if "log_params" in doc:
            model.set_log_params(doc["log_params"])
        return model

    @property
    def noise_variance(self):
        return float(np.exp(self.log_noise_variance))

    # -- parameter vector: kernel log-params, log noise, mean --------------

    def log_params(self):
        return np.concatenate(
            [self.kernel.log_params(), [self.log_noise_variance, self.mean]]
        )

    def set_log_params(self, values):
        """Set the parameters; the cached factor survives only a vector equal
        to the current one bit for bit."""
        values = np.asarray(values, dtype=float).ravel()
        k = self.kernel.n_params
        if values.size != k + 2:
            raise InputError(f"expected {k + 2} parameters, got {values.size}")
        if values.tobytes() == self.log_params().tobytes():
            return
        self.kernel.set_log_params(values[:k])
        self.log_noise_variance = float(values[k])
        self.mean = float(values[k + 1])
        self._cache = None

    def param_names(self):
        return self.kernel.param_names() + ["log_noise_variance", "mean"]

    # -- inference ----------------------------------------------------------

    def _factor(self, K=None):
        """Cholesky factor and weights at the current parameters, cached.

        K, when given, is the Gram matrix at these parameters, so a caller
        that already evaluated it does not pay for a second kernel pass.
        Inside a fit the factor is built in the workspace's noisy-matrix
        array, which the next factor overwrites.
        """
        if self._cache is None:
            if K is None:
                K = self.kernel.gram(self.X)
            out = None if self._workspace is None else self._workspace[1]
            L, jitter = chol_with_jitter(K, self.noise_variance, out=out)
            residual = self.y - self.mean
            alpha = chol_solve(L, residual)
            self._cache = (L, alpha, residual, jitter)
        return self._cache

    def log_marginal_likelihood(self):
        L, alpha, residual, _ = self._factor()
        n = residual.size
        return float(
            -0.5 * residual @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * LOG_2PI
        )

    def grad_log_marginal_likelihood(self):
        """Gradient over [kernel log-params, log noise variance, mean]: one
        reverse kernel pass on K̄ = ½(ααᵀ − K⁻¹), K⁻¹ from the cached factor."""
        if self._workspace is None:    # outside a fit: nothing is kept
            inputs, out = self.kernel.prepare(self.X), None
        else:
            inputs, _, out = self._workspace
        K, vjp = inputs.gram_and_vjp()
        L, alpha, _, _ = self._factor(K)
        Kbar = _folded_adjoint(L, alpha, out)
        return np.concatenate(
            [vjp(Kbar), [self.noise_variance * np.trace(Kbar), np.sum(alpha)]]
        )

    def fit(self, opts=None):
        """Maximize the log marginal likelihood; the model keeps the best iterate."""
        opts = opts or OptimizerOptions()

        def value_and_grad(theta):
            # gradient first: its kernel pass also feeds the cached factor
            self.set_log_params(theta)
            grad = self.grad_log_marginal_likelihood()
            return self.log_marginal_likelihood(), grad

        def value_only(theta):
            # the same forward pass and factor as value_and_grad, no reverse pass
            self.set_log_params(theta)
            self._factor(self._workspace[0].gram_and_vjp()[0])
            return self.log_marginal_likelihood()

        # X is fixed: its kernel terms and the step's arrays serve every step
        n = self.y.size
        self._workspace = (self.kernel.prepare(self.X), np.empty((n, n)), np.empty((n, n)))
        try:
            best, value, iters, converged, trace = maximize(
                value_and_grad, self.log_params(), opts, value=value_only
            )
        finally:
            # a fitted model keeps its factor, not the workspace
            self._workspace = None
        self.set_log_params(best)
        params = dict(zip(self.param_names(), best.tolist()))
        return FitResult(params, value, iters, converged, trace)

    @single_threaded_blas()
    def predict(self, Xq):
        Xq = query_matrix(Xq, self.X.shape[1])
        L, alpha, _, _ = self._factor()
        K_q = self.kernel.gram(self.X, Xq)
        mean = self.mean + K_q.T @ alpha
        v = tri_solve(L, K_q)
        latent = np.maximum(self.kernel.diag(Xq) - np.sum(v * v, axis=0), 0.0)
        return PosteriorPrediction(mean, latent, latent + self.noise_variance)


def _folded_adjoint(L, alpha, out=None):
    """K̄ = ½(ααᵀ − K⁻¹) folded onto its lower triangle: entries below the
    diagonal doubled, zeros above; in `out` when given.

    The gradient only reduces K̄ against symmetric matrices (the training
    Gram and its derivatives), where the fold gives the same sums, and it
    spares mirroring the inverse that dpotri leaves in one triangle.
    """
    Kbar = chol_inverse_lower(L, out=out)
    np.negative(Kbar, out=Kbar)
    # the Fortran-order view's upper triangle is this lower one: += ααᵀ there
    Kbar = dsyr(1.0, alpha, lower=0, a=Kbar.T, overwrite_a=1).T
    Kbar.flat[:: alpha.size + 1] *= 0.5
    return Kbar


def subsample(dataset, n, seed):
    """Uniform sample of n rows without replacement; keeps the parent's normalization."""
    if n > dataset.n:
        raise InputError(f"cannot subsample {n} rows from {dataset.n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=n, replace=False)
    return dataset.take(idx)
