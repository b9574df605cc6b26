"""Exact Gaussian-process regression via Cholesky factorization.

Posterior prediction, log marginal likelihood and its analytic gradient,
and gradient-ascent hyperparameter fitting. Cost is cubic in the number of
training points, which is why the benchmark subsamples training folds for
this backend.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .kernels import _as_matrix, from_config, to_config
from .linalg import chol_solve, chol_with_jitter, tri_solve
from .optim import FitResult, OptimizerOptions, maximize

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class PosteriorPrediction:
    """Predictive marginals per query point, in model (standardized) units."""

    mean: np.ndarray
    latent_variance: np.ndarray      # noise-free, clamped at zero
    observed_variance: np.ndarray    # latent + noise variance


class GPModel:
    """GP regression model with a constant learned mean and Gaussian noise."""

    backend = "exact"  # its name in model files

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

    @classmethod
    def from_dataset(cls, kernel, dataset, noise_variance=0.1, mean=None):
        model = cls(kernel, dataset.X, dataset.y, noise_variance, mean)
        model.dataset = dataset
        return model

    # -- model file block: kernel and training rows -------------------------

    def to_doc(self):
        return {
            "kernel": to_config(self.kernel),
            "train": {"X": self.X.tolist(), "y": self.y.tolist()},
        }

    @classmethod
    def from_doc(cls, doc, dataset):
        """Rebuild from a model file; `dataset` carries its normalization, no rows."""
        train = replace(
            dataset,
            X=np.array(doc["train"]["X"], dtype=float),
            y=np.array(doc["train"]["y"], dtype=float),
        )
        return cls.from_dataset(
            from_config(doc["kernel"]), train, float(doc["noise_variance"]), float(doc["mean"])
        )

    @property
    def noise_variance(self):
        return float(np.exp(self.log_noise_variance))

    # -- parameter vector: kernel log-params, log noise, mean --------------

    def log_params(self):
        return np.concatenate(
            [self.kernel.log_params(), [self.log_noise_variance, self.mean]]
        )

    def set_log_params(self, values):
        values = np.asarray(values, dtype=float).ravel()
        k = self.kernel.n_params
        if values.size != k + 2:
            raise InputError(f"expected {k + 2} parameters, got {values.size}")
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
        """
        if self._cache is None:
            if K is None:
                K = self.kernel.gram(self.X)
            A = K + self.noise_variance * np.eye(self.X.shape[0])
            L, jitter = chol_with_jitter(A)
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
        """Gradient over [kernel log-params, log noise variance, mean]."""
        K, dKs = self.kernel.gram_and_grads(self.X)
        L, alpha, _, _ = self._factor(K)
        n = alpha.size
        K_inv = chol_solve(L, np.eye(n))
        M = np.outer(alpha, alpha) - K_inv
        grads = [0.5 * float(np.sum(M * dK)) for dK in dKs]
        grads.append(0.5 * self.noise_variance * float(np.trace(M)))
        grads.append(float(np.sum(alpha)))
        return np.array(grads)

    def fit(self, opts=None):
        """Maximize the log marginal likelihood; the model keeps the best iterate."""
        opts = opts or OptimizerOptions()

        def value_and_grad(theta):
            # gradient first: its kernel pass also feeds the cached factor
            self.set_log_params(theta)
            grad = self.grad_log_marginal_likelihood()
            return self.log_marginal_likelihood(), grad

        best, value, iters, converged, trace = maximize(
            value_and_grad, self.log_params(), opts
        )
        self.set_log_params(best)
        params = dict(zip(self.param_names(), best.tolist()))
        return FitResult(params, value, iters, converged, trace)

    def predict(self, Xq):
        Xq = _as_matrix(Xq)
        if Xq.shape[1] != self.X.shape[1]:
            raise InputError(
                f"query dimensionality {Xq.shape[1]} != training {self.X.shape[1]}"
            )
        L, alpha, _, _ = self._factor()
        K_q = self.kernel.gram(self.X, Xq)
        mean = self.mean + K_q.T @ alpha
        v = tri_solve(L, K_q)
        latent = np.maximum(self.kernel.diag(Xq) - np.sum(v * v, axis=0), 0.0)
        return PosteriorPrediction(mean, latent, latent + self.noise_variance)


def subsample(dataset, n, seed):
    """Uniform sample of n rows without replacement; keeps the parent's normalization."""
    if n > dataset.n:
        raise InputError(f"cannot subsample {n} rows from {dataset.n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n, size=n, replace=False)
    return dataset.take(idx)
