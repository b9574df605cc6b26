"""Sparse variational GP regression with whitened inducing variables.

The posterior over M inducing values is parameterized in whitened
coordinates: u = mu0 + L w with L the Cholesky factor of K_ZZ and
q(w) = N(m_w, C C^T), C lower triangular with log-stored diagonal. The
evidence lower bound and all gradients (hyperparameters, variational
parameters, and optionally the inducing locations themselves) are
computed in closed form; the Cholesky factor is differentiated through
its reverse-mode propagation rule rather than by rebuilding K_ZZ^-1, and
the adjoints of K_ZZ, K_ZX and diag K_XX go through the kernel's reverse
pass (kernels.py), so no per-parameter derivative matrix is formed; the
passes over K_ZZ and K_ZX also give the inducing-location gradient.

Minibatches rescale the data-fit sum by n/batch so the stochastic bound
stays unbiased. `fit` hands minibatch gradients and the full-batch bound
to optim.maximize, the training loop every backend shares, which keeps
the iterate with the best full-batch bound.
"""

import math

import numpy as np

from . import optim
from .errors import InputError
from .exact_gp import LOG_2PI, PosteriorPrediction, query_matrix
from .kernels import from_config, to_config
from .linalg import chol_rev, chol_with_jitter, single_threaded_blas, tri_solve


def init_inducing(X, m, seed=0):
    """Pick m inducing locations from the rows of X by k-means++ seeding.

    Greedy D^2 sampling: each new center is drawn with probability
    proportional to its squared distance from the closest center chosen
    so far. Deterministic for a given seed. When m is not smaller than
    the number of rows, every row is used (recycling uniformly at random
    if m exceeds it).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InputError("inducing initialization needs a non-empty 2-D input array")
    if m < 1:
        raise InputError("need at least one inducing point")
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    if m >= n:
        extra = rng.choice(n, size=m - n, replace=True) if m > n else np.empty(0, dtype=int)
        return X[np.concatenate([np.arange(n), extra])].copy()

    chosen = np.empty(m, dtype=int)
    chosen[0] = rng.integers(n)
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for k in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            # all remaining rows coincide with a center; fill uniformly
            chosen[k:] = rng.choice(n, size=m - k, replace=False)
            break
        chosen[k] = rng.choice(n, p=d2 / total)
        d2 = np.minimum(d2, np.sum((X - X[chosen[k]]) ** 2, axis=1))
    return X[chosen].copy()


class SVGPModel:
    """GP regression with an O(n m^2) variational bound instead of O(n^3)."""

    backend = "svgp"       # its name in model files
    label = "SVGP"         # the comparison table's Sparse column
    repetitions = 1        # default number of seeds per experiment row
    budget = 5000          # default optimizer step budget
    spatial_only = False   # True rejects periodic rows and covariate columns
    stores_rows = False    # the model file keeps no training rows

    def __init__(self, kernel, X, y, inducing, noise_variance=0.1, seed=0, mean=None):
        self.kernel = kernel.copy()
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.ndim != 2:
            raise InputError("X must be a 2-D array of input rows")
        if self.X.shape[0] != self.y.shape[0]:
            raise InputError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]} targets"
            )
        if np.isscalar(inducing) or np.ndim(inducing) == 0:
            self.Z = init_inducing(self.X, int(inducing), seed=seed)
        else:
            self.Z = np.array(inducing, dtype=float)
            if self.Z.ndim != 2 or self.Z.shape[1] != self.X.shape[1]:
                raise InputError("inducing locations must be (m, d) with d matching X")
        if noise_variance <= 0:
            raise InputError("noise variance must be positive")
        self._log_noise = math.log(noise_variance)
        self.mean = float(np.mean(self.y)) if mean is None else float(mean)

        m = self.Z.shape[0]
        self._m_w = np.zeros(m)
        self._c_pack = np.zeros(m * (m + 1) // 2)   # identity: log-diag zeros
        self._tril = np.tril_indices(m)
        self._diag_slots = np.flatnonzero(self._tril[0] == self._tril[1])
        self.dataset = None
        self._cache_key = None
        self._cache = None

    @classmethod
    def from_dataset(cls, kernel, dataset, inducing, noise_variance=0.1, seed=0, mean=None):
        model = cls(kernel, dataset.X, dataset.y, inducing, noise_variance, seed, mean)
        model.dataset = dataset
        return model

    @classmethod
    def fit_experiment(cls, kernel, dataset, config, seed):
        """Fit one experiment row on min(n_inducing, n) seeded inducing points."""
        model = cls.from_dataset(
            kernel, dataset, min(config.n_inducing, dataset.n), config.noise_variance, seed
        )
        return model, model.fit(config.optimizer_options(seed), config.optimize_inducing)

    # -- model file block: kernel, inducing locations, whitened q(w) --------

    def to_doc(self):
        return {
            "kernel": to_config(self.kernel),
            "inducing": self.Z.tolist(),
            "variational": {
                "whitened_mean": self._m_w.tolist(),
                "cov_factor_packed": self._c_pack.tolist(),
            },
            "log_params": self.log_params()[: self.kernel.n_params + 2].tolist(),
        }

    @classmethod
    def from_doc(cls, doc, dataset):
        """Rebuild from a model file; `dataset` carries its normalization and no
        rows, since prediction needs none."""
        model = cls.from_dataset(
            from_config(doc["kernel"]), dataset, np.array(doc["inducing"], dtype=float),
            float(doc["noise_variance"]), mean=float(doc["mean"]),
        )
        model._m_w = np.array(doc["variational"]["whitened_mean"], dtype=float)
        model._c_pack = np.array(doc["variational"]["cov_factor_packed"], dtype=float)
        if "log_params" in doc:
            model.set_log_params(np.concatenate([doc["log_params"], model._m_w, model._c_pack]))
        return model

    # -- parameter vector ---------------------------------------------------
    # Order: kernel log-params, log noise, mean, m_w, packed C, flattened Z
    # (the Z block appears only when inducing locations are being optimized).

    @property
    def noise_variance(self):
        return math.exp(self._log_noise)

    @property
    def n_inducing(self):
        return self.Z.shape[0]

    def variational_cov_factor(self):
        """The lower-triangular C with exponentiated diagonal, as a dense matrix."""
        m = self.n_inducing
        C = np.zeros((m, m))
        C[self._tril] = self._c_pack
        ii = np.arange(m)
        C[ii, ii] = np.exp(C[ii, ii])
        return C

    def log_params(self, include_inducing=False):
        parts = [
            self.kernel.log_params(),
            [self._log_noise, self.mean],
            self._m_w,
            self._c_pack,
        ]
        if include_inducing:
            parts.append(self.Z.ravel())
        return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])

    def set_log_params(self, values, include_inducing=False):
        values = np.asarray(values, dtype=float).ravel()
        k = self.kernel.n_params
        m = self.n_inducing
        expected = k + 2 + m + self._c_pack.size + (self.Z.size if include_inducing else 0)
        if values.size != expected:
            raise InputError(f"expected {expected} parameters, got {values.size}")
        self.kernel.set_log_params(values[:k])
        self._log_noise = float(values[k])
        self.mean = float(values[k + 1])
        at = k + 2
        self._m_w = values[at:at + m].copy()
        at += m
        self._c_pack = values[at:at + self._c_pack.size].copy()
        at += self._c_pack.size
        if include_inducing:
            self.Z = values[at:].reshape(self.Z.shape).copy()
        self._cache_key = None

    def param_names(self, include_inducing=False):
        names = self.kernel.param_names() + ["log_noise_variance", "mean"]
        names += [f"w_mean[{i}]" for i in range(self.n_inducing)]
        names += [f"w_cov[{r},{c}]" for r, c in zip(*self._tril)]
        if include_inducing:
            names += [
                f"inducing[{i},{j}]"
                for i in range(self.Z.shape[0])
                for j in range(self.Z.shape[1])
            ]
        return names

    # -- bound and gradients ------------------------------------------------

    def _chol_zz(self):
        key = (self.kernel.log_params().tobytes(), self.Z.tobytes())
        if self._cache_key != key:
            L, jitter = chol_with_jitter(self.kernel.gram(self.Z))
            self._cache_key = key
            self._cache = (L, jitter)
        return self._cache

    def _marginals(self, A, C, kdiag):
        """(U, mean, variance) of q(f) from A = L⁻¹K_zx, with U = CᵀA for the
        gradient. Callers solve for A themselves, so that an (m, n) K_zx they
        do not keep is freed before U is formed."""
        U = C.T @ A
        mu = self.mean + A.T @ self._m_w
        var = kdiag - np.sum(A * A, axis=0) + np.sum(U * U, axis=0)
        return U, mu, var

    def elbo(self, batch=None):
        """Evidence lower bound; a batch of indices gives the unbiased estimate."""
        idx = np.arange(self.X.shape[0]) if batch is None else np.asarray(batch)
        scale = self.X.shape[0] / idx.size
        Xb, yb = self.X[idx], self.y[idx]
        L, _ = self._chol_zz()
        C = self.variational_cov_factor()
        A = tri_solve(L, self.kernel.gram(self.Z, Xb))
        _, mu, var = self._marginals(A, C, self.kernel.diag(Xb))
        sigma2 = self.noise_variance
        fit = scale * np.sum(
            -0.5 * (LOG_2PI + math.log(sigma2)) - ((yb - mu) ** 2 + var) / (2.0 * sigma2)
        )
        kl = 0.5 * (
            np.sum(C * C) + self._m_w @ self._m_w - self.n_inducing
        ) - np.sum(np.log(np.diag(C)))
        return float(fit - kl)

    def elbo_and_grad(self, batch=None, include_inducing=False):
        """Bound plus its gradient in the layout of log_params()."""
        idx = np.arange(self.X.shape[0]) if batch is None else np.asarray(batch)
        scale = self.X.shape[0] / idx.size
        Xb, yb = self.X[idx], self.y[idx]
        m = self.n_inducing

        Kzz, zz_vjp = self.kernel.prepare(self.Z).gram_and_vjp()
        L, _ = chol_with_jitter(Kzz)
        Kzx, zx_vjp = self.kernel.prepare(self.Z, Xb).gram_and_vjp()
        kdiag, diag_vjp = self.kernel.prepare_diag(Xb).gram_and_vjp()
        C = self.variational_cov_factor()
        A = tri_solve(L, Kzx)
        U, mu, var = self._marginals(A, C, kdiag)
        sigma2 = self.noise_variance
        resid = yb - mu
        fit = scale * np.sum(
            -0.5 * (LOG_2PI + math.log(sigma2)) - (resid**2 + var) / (2.0 * sigma2)
        )
        diag_c = np.diag(C).copy()
        kl = 0.5 * (np.sum(C * C) + self._m_w @ self._m_w - m) - np.sum(np.log(diag_c))
        value = float(fit - kl)

        # adjoints of the per-point mean and variance
        gmu = scale * resid / sigma2
        vbar = -scale / (2.0 * sigma2)

        grad_m_w = A @ gmu - self._m_w
        Cbar = 2.0 * vbar * (A @ U.T) - (C - np.diag(1.0 / diag_c))
        Cbar = np.tril(Cbar)
        ii = np.arange(m)
        Cbar[ii, ii] *= diag_c                      # diagonal is stored as a log
        grad_c_pack = Cbar[self._tril]

        Abar = np.outer(self._m_w, gmu) + 2.0 * vbar * (C @ U - A)
        Kzx_bar = tri_solve(L, Abar, trans=True)
        Lbar = np.tril(-Kzx_bar @ A.T)
        Kzz_bar = chol_rev(L, Lbar)

        # one reverse kernel pass per matrix the bound reads; Kzz's and Kzx's also give Z̄
        zz = zz_vjp(Kzz_bar, inputs=include_inducing)
        zx = zx_vjp(Kzx_bar, inputs=include_inducing)
        if include_inducing:
            (zz, Zbar_zz), (zx, Zbar_zx) = zz, zx
        grad_kernel = zz + zx + diag_vjp(np.full(idx.size, vbar))
        grad_log_noise = sigma2 * scale * np.sum(
            -1.0 / (2.0 * sigma2) + (resid**2 + var) / (2.0 * sigma2**2)
        )
        grad_mean = float(np.sum(gmu))

        parts = [grad_kernel, [grad_log_noise, grad_mean], grad_m_w, grad_c_pack]
        if include_inducing:
            # Kzz_bar is symmetric, so Z's second place in Kzz adds as much again
            parts.append(2.0 * Zbar_zz + Zbar_zx)
        grad = np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])
        return value, grad

    # -- fitting ------------------------------------------------------------

    def fit(self, opts=None, optimize_inducing=True):
        """Stochastic ascent on the bound through optim.maximize.

        Steps follow minibatch gradients drawn from default_rng(opts.seed),
        or the full data when batch_size covers it; the full-batch bound
        scores the iterates, and the model is left at the best one.
        """
        opts = opts or optim.OptimizerOptions()
        n = self.X.shape[0]
        if n == 0:
            raise InputError("cannot fit a model to zero observations")
        full_batch = opts.batch_size >= n
        rng = np.random.default_rng(opts.seed)

        def value_and_grad(params):
            batch = None if full_batch else rng.choice(n, size=opts.batch_size, replace=False)
            self.set_log_params(params, include_inducing=optimize_inducing)
            return self.elbo_and_grad(batch, include_inducing=optimize_inducing)

        def evaluate(params):
            self.set_log_params(params, include_inducing=optimize_inducing)
            return self.elbo()

        best_x, best_value, iterations, converged, trace = optim.maximize(
            value_and_grad, self.log_params(include_inducing=optimize_inducing), opts,
            evaluate=evaluate,
        )
        self.set_log_params(best_x, include_inducing=optimize_inducing)
        names = self.param_names(include_inducing=optimize_inducing)
        return optim.FitResult(
            params=dict(zip(names, best_x.tolist())),
            objective=best_value,
            iterations=iterations,
            converged=converged,
            objective_trace=trace,
        )

    @single_threaded_blas()
    def set_optimal_variational(self):
        """Closed-form optimum of q for the current hyperparameters.

        For fixed kernel and noise the bound is maximized by
        q(w) = N(sigma^-2 B^-1 A r, B^-1) with A the whitened cross
        covariance over the full data, B = I + sigma^-2 A A^T and r the
        centered targets.
        """
        L, _ = self._chol_zz()
        A = tri_solve(L, self.kernel.gram(self.Z, self.X))
        sigma2 = self.noise_variance
        m = self.n_inducing
        B = np.eye(m) + (A @ A.T) / sigma2
        LB, _ = chol_with_jitter(B)
        resid = self.y - self.mean
        self._m_w = tri_solve(LB, tri_solve(LB, A @ resid / sigma2), trans=True)
        Binv = tri_solve(LB, tri_solve(LB, np.eye(m)), trans=True)
        Cfac, _ = chol_with_jitter(0.5 * (Binv + Binv.T))
        pack = Cfac[self._tril]
        pack[self._diag_slots] = np.log(Cfac[np.arange(m), np.arange(m)])
        self._c_pack = pack

    # -- prediction ---------------------------------------------------------

    @single_threaded_blas()
    def predict(self, Xq):
        """Variational posterior at query rows; same contract as the dense model."""
        Xq = query_matrix(Xq, self.X.shape[1])
        L, _ = self._chol_zz()
        C = self.variational_cov_factor()
        A = tri_solve(L, self.kernel.gram(self.Z, Xq))
        _, mean, latent = self._marginals(A, C, self.kernel.diag(Xq))
        latent = np.maximum(latent, 0.0)
        return PosteriorPrediction(mean, latent, latent + self.noise_variance)
