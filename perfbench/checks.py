"""Output checks, computed apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
The oracles here evaluate kernels from their saved config form and solve
with explicit inverses, so they share no code path with the program's
kernels, Cholesky factorizations or triangular solves. Margins were set
from measurement over the seeds the benchmark is run with (see README).
"""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Margins, each with the measurement it rests on in README.md.
FLOOR_FACTOR = {"exact": 1.25, "svgp": 1.6, "statespace": 3.0}
FLOOR_LOWER = 0.9           # below this share of the noise floor, test data leaked
DENSE_MEAN_TOL = 1e-6       # |mean - oracle| / target scale
ELBO_TOL = 1e-6             # relative slack on the optimal-q bound
STATESPACE_LML_TOL = 1e-6   # |filter - dense| / (1 + |dense|)
STATESPACE_MEAN_TOL = 1e-6
STATESPACE_VAR_TOL = 1e-6
REPORT_TOL = 1e-9           # program-reported RMSE vs the benchmark's own


# -- kernels evaluated from their config form -----------------------------

def kernel_gram(node, A, B):
    """Covariance between the rows of A and B for a kernel config tree."""
    (kind, body), = node.items()
    if kind == "sum":
        return sum(kernel_gram(child, A, B) for child in body)
    if kind == "product":
        out = np.ones((A.shape[0], B.shape[0]))
        for child in body:
            out = out * kernel_gram(child, A, B)
        return out
    dims = body.get("dims")
    if dims is not None:
        A, B = A[:, dims], B[:, dims]
    diff = A[:, None, :] - B[None, :, :]
    if kind == "se":
        d2 = np.sum((diff / np.asarray(body["lengthscale"], dtype=float)) ** 2, axis=-1)
        return body["variance"] * np.exp(-0.5 * d2)
    if kind == "periodic":
        s = np.sum(np.sin(math.pi * diff / body["period"]) ** 2, axis=-1)
        return body["variance"] * np.exp(-2.0 * s / body["lengthscale"] ** 2)
    raise ValueError(f"unknown kernel kind {kind!r}")


def gram_of(node):
    """The covariance function of a kernel config tree, as gram(A, B)."""
    return lambda A, B: kernel_gram(node, A, B)


def dense_posterior(gram, X, y, noise_variance, mean, Xq):
    """Exact GP posterior mean and latent variance through an explicit inverse.

    `gram(A, B)` is the covariance between the rows of A and B.
    """
    Kinv = np.linalg.inv(gram(X, X) + noise_variance * np.eye(len(y)))
    Kqx = gram(Xq, X)
    mean_q = mean + Kqx @ (Kinv @ (y - mean))
    prior = np.array([gram(q[None, :], q[None, :])[0, 0] for q in Xq])
    var_q = prior - np.sum((Kqx @ Kinv) * Kqx, axis=1)
    return mean_q, var_q


def matern_time(family, variance, lengthscale, tau):
    tau = np.abs(tau)
    if family == "matern12":
        return variance * np.exp(-tau / lengthscale)
    if family == "matern32":
        lam = math.sqrt(3.0) / lengthscale
        return variance * (1.0 + lam * tau) * np.exp(-lam * tau)
    raise ValueError(f"unknown temporal family {family!r}")


def separable_gram(spatial, temporal, A, B):
    """Dense k_space(s, s') * k_time(t - t') over (lat, lon, time) rows."""
    family, variance, lengthscale = temporal
    tau = A[:, 2][:, None] - B[:, 2][None, :]
    return kernel_gram(spatial, A[:, :2], B[:, :2]) * matern_time(
        family, variance, lengthscale, tau
    )


def dense_lml(K, y, noise_variance, mean):
    Ky = K + noise_variance * np.eye(len(y))
    r = y - mean
    _, logdet = np.linalg.slogdet(Ky)
    return float(-0.5 * r @ np.linalg.inv(Ky) @ r - 0.5 * logdet - 0.5 * len(y) * LOG_2PI)


# -- checks -----------------------------------------------------------------

def rmse(pred, truth):
    pred, truth = np.asarray(pred, dtype=float), np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def check_sites_scored(expected, scored, what):
    missing = sorted(set(expected) - set(scored))
    extra = sorted(set(scored) - set(expected))
    out = []
    if missing:
        out.append(f"{what}: held-out site(s) not scored: {missing}")
    if extra:
        out.append(f"{what}: scored site(s) that were not held out: {extra}")
    return out


def check_rows_predicted(expected, predicted, what):
    """Each held-out reading (a key) is predicted exactly once."""
    seen = {}
    for key in predicted:
        seen[key] = seen.get(key, 0) + 1
    twice = sum(1 for n in seen.values() if n > 1)
    missing = len(set(expected) - set(seen))
    extra = len(set(seen) - set(expected))
    if twice or missing or extra:
        return [f"{what}: {missing} held-out rows unpredicted, {extra} extra, {twice} repeated"]
    return []


def check_finite_and_variances(mean, latent_var, observed_var, what):
    """Means finite; 0 <= latent variance <= observed variance, all finite."""
    mean, lv, ov = (np.asarray(a, dtype=float) for a in (mean, latent_var, observed_var))
    out = []
    if not np.all(np.isfinite(mean)):
        out.append(f"{what}: {int(np.sum(~np.isfinite(mean)))} non-finite means")
    if not (np.all(np.isfinite(lv)) and np.all(np.isfinite(ov))):
        out.append(f"{what}: non-finite variances")
    elif np.any(lv < 0.0) or np.any(ov < lv):
        out.append(
            f"{what}: variance out of order (min latent {lv.min():.3g}, "
            f"min observed - latent {np.min(ov - lv):.3g})"
        )
    return out


def check_rmse_floor(value, floor, factor, what):
    if not math.isfinite(value) or value > factor * floor or value < FLOOR_LOWER * floor:
        return [
            f"{what}: RMSE {value:.4f} outside [{FLOOR_LOWER} x, {factor} x] "
            f"the noise floor {floor:.4f}"
        ]
    return []


def check_below_baseline(value, baseline, what):
    if not value < baseline:
        return [f"{what}: RMSE {value:.4f} not below the training-mean baseline {baseline:.4f}"]
    return []


def check_close(value, reference, scale, tol, what):
    value, reference = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        return [f"{what}: shape {value.shape} != oracle {reference.shape}"]
    err = float(np.max(np.abs(value - reference))) / scale if value.size else 0.0
    if not err <= tol:
        return [f"{what}: differs from the oracle by {err:.3g} (relative), tolerance {tol}"]
    return []


def check_elbo(start, final, optimal, what):
    """The fit never ends below its start, and no q beats the closed-form optimum."""
    out = []
    if not final >= start:
        out.append(f"{what}: final ELBO {final:.6f} below its start {start:.6f}")
    if not final <= optimal + ELBO_TOL * (1.0 + abs(optimal)):
        out.append(f"{what}: ELBO {final:.6f} exceeds the optimal-q bound {optimal:.6f}")
    return out
