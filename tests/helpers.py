"""Shared test oracles: dense brute-force GP math, finite differences, and
reference forms of what the library does not need itself.

Everything here deliberately avoids the library's own linear algebra
(explicit inverses instead of Cholesky solves) so tests compare two
independent routes to the same number.
"""

import time

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)


def dense_lml(K, y, noise_variance, mean):
    """Log marginal likelihood via explicit inverse and slogdet."""
    n = len(y)
    Ky = K + noise_variance * np.eye(n)
    resid = np.asarray(y, dtype=float) - mean
    Kinv = np.linalg.inv(Ky)
    _, logdet = np.linalg.slogdet(Ky)
    return float(-0.5 * resid @ Kinv @ resid - 0.5 * logdet - 0.5 * n * LOG_2PI)


def dense_posterior(kernel, X, y, noise_variance, mean, Xq):
    """Posterior mean and latent variance via explicit inverse."""
    Ky = kernel.gram(X) + noise_variance * np.eye(len(y))
    Kinv = np.linalg.inv(Ky)
    Kqx = kernel.gram(Xq, X)
    resid = np.asarray(y, dtype=float) - mean
    mean_q = mean + Kqx @ Kinv @ resid
    var_q = kernel.diag(Xq) - np.sum((Kqx @ Kinv) * Kqx, axis=1)
    return mean_q, var_q


def central_diff(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = step * max(1.0, abs(x[i]))
        hi, lo = x.copy(), x.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (f(hi) - f(lo)) / (2.0 * h)
    return grad


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.max(np.abs(a - b) / np.maximum(floor, np.abs(a) + np.abs(b))))


def separable_gram(spatial, temporal, A, B):
    """Dense covariance for (lat, lon, time) rows of a separable model."""
    Ks = spatial.gram(A[:, :2], B[:, :2])
    tau = np.abs(A[:, 2][:, None] - B[:, 2][None, :])
    return Ks * temporal.covariance(tau)


def dense_posterior_cov(kernel, X, noise_variance, Xq):
    """Full latent posterior covariance at Xq via explicit inverse."""
    Kinv = np.linalg.inv(kernel.gram(X) + noise_variance * np.eye(X.shape[0]))
    Kqx = kernel.gram(Xq, X)
    return kernel.gram(Xq) - Kqx @ Kinv @ Kqx.T


def svgp_posterior_cov(model, Xq):
    """Full latent covariance of an SVGP's q(f) at Xq, with u = L w and q(w) = N(m, C C^T)."""
    Linv = np.linalg.inv(np.linalg.cholesky(model.kernel.gram(model.Z)))
    A = Linv @ model.kernel.gram(model.Z, Xq)
    U = model.variational_cov_factor().T @ A
    return model.kernel.gram(Xq) - A.T @ A + U.T @ U


def temporal_sde(temporal):
    """(F, L, q, H) of a Matern temporal kernel's state-space SDE.

    dx = F x dt + L dW with white-noise spectral density q; the function
    value is H x.
    """
    ell, var = temporal.lengthscale, temporal.variance
    if temporal.name == "matern12":
        return np.array([[-1.0 / ell]]), np.array([[1.0]]), 2.0 * var / ell, np.array([[1.0]])
    lam = np.sqrt(3.0) / ell
    F = np.array([[0.0, 1.0], [-lam * lam, -2.0 * lam]])
    return F, np.array([[0.0], [1.0]]), 4.0 * lam**3 * var, np.array([[1.0, 0.0]])


def filter_runtime(model, n_steps, repeats=2):
    """Seconds for one filter sweep over the first n_steps rows (best of repeats)."""
    times = model.grid.times[:n_steps]
    values = model.grid.values[:n_steps]
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        model._filter(times, values)
        best = min(best, time.perf_counter() - start)
    return best


def filter_with_fences(readings, report):
    """Readings inside a previous OutlierReport's frozen fences."""
    kept = []
    for r in readings:
        key = r.site_id if report.scope == "per-site" else "__all__"
        fences = report.groups.get(key)
        if fences is None or fences.skipped or fences.lower <= r.pm25 <= fences.upper:
            kept.append(r)
    return kept


def raw_inputs(dataset):
    """A Dataset's design matrix in original units."""
    return dataset.X * dataset.col_scale + dataset.col_mean
