"""Shared test oracles: dense brute-force GP math, finite differences, and
reference forms of what the library does not need itself.

Everything here deliberately avoids the library's own linear algebra
(explicit inverses instead of Cholesky solves) so tests compare two
independent routes to the same number.
"""

import csv
import math
import time
from datetime import datetime, timezone

import numpy as np

from sensorgp import kernels
from sensorgp.data import EPOCH, HOUR, Readings
from sensorgp.linalg import single_threaded_blas

# 2021-11-01T00:00Z in hours since the epoch; table() counts hours from it
START_HOUR = 454368

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


def dense_grad_x(kernel, X, X2):
    """d k(x_i, x2_j) / d x_i as an (n, m, d) array: each leaf's closed-form
    derivative over its own columns, combined by the sum and product rules.
    The reverse pass's input adjoint X̄ is this contracted with K̄ over j."""
    if isinstance(kernel, kernels.Sum):
        return sum(dense_grad_x(child, X, X2) for child in kernel.children)
    if isinstance(kernel, kernels.Product):
        grams = [child.gram(X, X2) for child in kernel.children]
        total = 0.0
        for i, child in enumerate(kernel.children):
            others = np.prod([g for j, g in enumerate(grams) if j != i] or [1.0], axis=0)
            total = total + dense_grad_x(child, X, X2) * np.expand_dims(others, -1)
        return total
    columns = list(range(X.shape[1])) if kernel.dims is None else kernel.dims
    diff = X[:, None, columns] - X2[None, :, columns]
    K = kernel.gram(X, X2)[..., None]
    out = np.zeros((X.shape[0], X2.shape[0], X.shape[1]))
    if isinstance(kernel, kernels.SquaredExponential):
        out[..., columns] = -K * diff / np.atleast_1d(kernel.lengthscale) ** 2
    else:
        coeff = -2.0 * np.pi / (kernel.lengthscale**2 * kernel.period)
        out[..., columns] = K * coeff * np.sin(2.0 * np.pi * diff / kernel.period)
    return out


def dense_gram_and_grads(kernel, X, X2=None):
    """K and the dense dK/dθ of a kernel tree in log_params order, X2 None
    giving the diagonal: each leaf's K from its own gram or diag and its
    derivatives in closed form from the raw differences, combined by the
    sum and product rules with every product multiplied out child by child
    (the form the library replaces by one exponential per product of
    leaves). A leaf's log-variance derivative is K; an SE's log-lengthscale
    one is K ∘ (x_c - x'_c)²/ℓ_c², per column under ARD and summed over its
    columns for a shared ℓ; a periodic leaf's is K ∘ 4 Σ sin²(π(x - x')/p)/ℓ²."""
    if isinstance(kernel, kernels._Combination):
        parts = [dense_gram_and_grads(child, X, X2) for child in kernel.children]
        grams = [K for K, _ in parts]
        if isinstance(kernel, kernels.Sum):
            return sum(grams), [g for _, grads in parts for g in grads]
        tangents = []
        for i, (_, grads) in enumerate(parts):
            others = np.prod([K for j, K in enumerate(grams) if j != i] or [1.0], axis=0)
            tangents += [g * others for g in grads]
        return np.prod(grams, axis=0), tangents
    columns = list(range(X.shape[1])) if kernel.dims is None else kernel.dims
    if X2 is None:
        K, diff = kernel.diag(X), np.zeros((X.shape[0], len(columns)))
    else:
        K, diff = kernel.gram(X, X2), X[:, None, columns] - X2[None, :, columns]
    if isinstance(kernel, kernels.SquaredExponential):
        scaled = diff**2 / np.atleast_1d(kernel.lengthscale) ** 2
        per_column = [K * scaled[..., c] for c in range(len(columns))]
        return K, [K] + (per_column if kernel.ard else [sum(per_column)])
    sin2 = np.sum(np.sin(np.pi * diff / kernel.period) ** 2, axis=-1)
    return K, [K, K * 4.0 * sin2 / kernel.lengthscale**2]


def unfused_gram(kernel, X, X2):
    """gram(X, X2) walked as the unfused form: each child's Gram in turn,
    multiplied (or added) into the first."""
    if not isinstance(kernel, kernels._Combination):
        return kernel.gram(X, X2)
    K = unfused_gram(kernel.children[0], X, X2)
    for child in kernel.children[1:]:
        K = K * unfused_gram(child, X, X2) if isinstance(kernel, kernels.Product) \
            else K + unfused_gram(child, X, X2)
    return K


def difference_base(leaf, X, X2):
    """A leaf's hyperparameter-free base from the (n, m, d) differences: the
    summed squared differences of an SE, or the summed sin^2(π(x - x')/p)
    of a fixed-period leaf, the direct route the library replaces by one
    matrix product of embeddings."""
    diff = X[:, None, :] - X2[None, :, :]
    if isinstance(leaf, kernels.SquaredExponential):
        return np.sum(diff**2, axis=-1)
    return np.sum(np.sin(np.pi * diff / leaf.period) ** 2, axis=-1)


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


def _kron_tangents(Ks, dKs, Pt, dPt):
    """Tangents of Ks (x) Pt: dKs_i (x) Pt per spatial parameter, then
    Ks (x) dPt_j per temporal one, as one (len(dKs) + 2, n, n) array."""
    return np.stack([np.kron(dK, Pt) for dK in dKs] + [np.kron(Ks, d) for d in dPt])


def tangent_gradient(model):
    """(loglik, gradient) of a StateSpaceGP's filter likelihood by forward
    mode: the Kalman recursion also carries dm/dθ and dP/dθ, one row per
    parameter in `log_params` order, as (k + 4, n) and (k + 4, n, n) arrays
    through every predict and update step (Sarkka 2013, ch. 12), with the
    closed-form kernel tangents of dense_gram_and_grads and explicit inverses
    of the innovation covariance."""
    times, values = model.grid.times, model.grid.values
    S = model.grid.coords.shape[0]
    q = model.temporal.state_dim
    n = S * q
    pos = np.arange(S) * q
    sigma2 = model.noise_variance
    coords = model.grid.coords
    Ks, dKs = dense_gram_and_grads(model.spatial_kernel, coords, coords)
    Pinf, dPinf = model.temporal.stationary_cov_and_grads()
    # tangent rows: spatial params, time variance, time lengthscale, noise,
    # mean; the first k + 2 enter through Ks (x) P_inf and Ks (x) Q
    k = len(dKs)
    ell, noise, mean = k + 1, k + 2, k + 3
    m, P = np.zeros(n), np.kron(Ks, Pinf)
    dm, dP = np.zeros((k + 4, n)), np.zeros((k + 4, n, n))
    dP[:k + 2] = _kron_tangents(Ks, dKs, Pinf, dPinf)
    loglik, gradient = 0.0, np.zeros(k + 4)
    I_S = np.eye(S)
    for t in range(times.size):
        if t > 0:
            A, Qt, dA, dQt = model.temporal.transition_and_grads(float(times[t] - times[t - 1]))
            AJ, dAJ = np.kron(I_S, A), np.kron(I_S, dA[1])
            # the lengthscale moves A itself: d(A m) and d(A P A^T) gain
            # dA m and dA P A^T + its transpose
            cross = dAJ @ P @ AJ.T
            dm = dm @ AJ.T
            dm[ell] += dAJ @ m
            dP = AJ @ dP @ AJ.T
            dP[ell] += cross + cross.T
            dP[:k + 2] += _kron_tangents(Ks, dKs, Qt, dQt)
            m, P = AJ @ m, AJ @ P @ AJ.T + np.kron(Ks, Qt)
        row = values[t]
        obs = np.flatnonzero(~np.isnan(row))
        if not obs.size:
            continue
        rows = pos[obs]
        innovation = P[np.ix_(rows, rows)] + sigma2 * np.eye(obs.size)
        Sinv = np.linalg.inv(innovation)
        e = row[obs] - model.mean - m[rows]
        G = Sinv @ P[rows]                     # S^-1 H P, the gain's transpose
        alpha = Sinv @ e                       # S^-1 e
        loglik += -0.5 * e @ alpha - 0.5 * np.linalg.slogdet(innovation)[1] \
            - 0.5 * obs.size * LOG_2PI
        # per parameter:
        #   d loglik = -alpha.de + alpha.dS.alpha / 2 - tr(S^-1 dS) / 2
        #   dm+ = dm + dP H^T alpha + G^T (de - dS alpha)
        #   dP+ = dP - M - M^T, with M = G^T (H dP - dS G / 2)
        B = dP[:, rows]                        # H dP
        dS = B[:, :, rows]
        dS[noise] += sigma2 * np.eye(obs.size)
        de = -dm[:, rows]
        de[mean] -= 1.0
        dS_alpha = dS @ alpha
        gradient += -de @ alpha + 0.5 * (dS_alpha @ alpha) \
            - 0.5 * np.einsum("pab,ab->p", dS, Sinv)
        dm = dm + alpha @ B + (de - dS_alpha) @ G
        M = G.T @ (B - 0.5 * dS @ G)
        dP = dP - M - M.transpose(0, 2, 1)
        m = m + G.T @ e
        P = P - P[:, rows] @ G
        P = 0.5 * (P + P.T)
    return float(loglik), gradient


def filter_runtime(model, n_steps, repeats=2):
    """CPU seconds of this thread for one filter sweep over the first n_steps
    rows (best of repeats). Call it under single_threaded_blas(), so the
    sweep's BLAS work runs on the calling thread and CPU time used by other
    processes does not count."""
    times = model.grid.times[:n_steps]
    values = model.grid.values[:n_steps]
    best = np.inf
    for _ in range(repeats):
        start = time.thread_time()
        model._filter(times, values)
        best = min(best, time.thread_time() - start)
    return best


def filter_doubling_ratio(model, n_steps, pairs=7):
    """Median over pairs of the sweep time over n_steps rows divided by that
    over n_steps // 2. Each pair times the two sizes back to back, in
    alternating order, so a burst of load skews one pair, not one size. The
    sweeps run on one BLAS thread and are timed in thread CPU time."""
    ratios = []
    with single_threaded_blas():
        for k in range(pairs):
            sizes = (n_steps // 2, n_steps) if k % 2 == 0 else (n_steps, n_steps // 2)
            seconds = {size: filter_runtime(model, size, repeats=1) for size in sizes}
            ratios.append(seconds[n_steps] / seconds[n_steps // 2])
    return float(np.median(ratios))


def filter_with_fences(readings, report):
    """Readings inside a previous OutlierReport's frozen fences."""
    keep = []
    for site, value in zip(readings.site, readings.pm25):
        key = site if report.scope == "per-site" else "__all__"
        fences = report.groups.get(key)
        keep.append(fences is None or fences.skipped or fences.lower <= value <= fences.upper)
    return readings.take(np.array(keep, dtype=bool))


def table(rows, covariates=None):
    """A Readings table from (site, lat, lon, hour, pm2.5) rows, with hours
    counted from START_HOUR, in (hour, site) order."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i][3], rows[i][0]))
    site, lat, lon, hour, pm25 = zip(*(rows[i] for i in order))
    return Readings(
        np.array(site), np.array(lat, dtype=float), np.array(lon, dtype=float),
        START_HOUR + np.array(hour, dtype=np.int64), np.array(pm25, dtype=float),
        None if covariates is None else np.asarray(covariates, dtype=float)[order],
    )


def rows_of(readings):
    """A Readings table as a list of (site, lat, lon, hour, pm2.5) tuples."""
    return list(zip(
        readings.site.tolist(), readings.lat.tolist(), readings.lon.tolist(),
        readings.hour.tolist(), readings.pm25.tolist(),
    ))


def hour_of(ts):
    """A UTC datetime as whole hours since the epoch."""
    return (ts - EPOCH) // HOUR


def raw_inputs(dataset):
    """A Dataset's design matrix in original units."""
    return dataset.X * dataset.col_scale + dataset.col_mean


# -- per-row reference readers for the CSV loaders --------------------------


class LineError(Exception):
    """A reference reader rejected the file at `line` (the header is line 1)."""

    def __init__(self, line):
        super().__init__(line)
        self.line = line


def reference_hour(text):
    """An ISO-8601 timestamp as whole UTC hours since the epoch; naive means UTC."""
    ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return math.floor(ts.timestamp() / 3600)


def _reference_records(path):
    """(line, {column: cell}) for each non-blank data row of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = [h.strip() for h in rows[0]]
    return [
        (line, dict(zip(header, row)))
        for line, row in enumerate(rows[1:], start=2)
        if "".join(row).strip()
    ]


def _reference_number(text, line):
    try:
        value = float(text)
    except ValueError:
        raise LineError(line) from None
    if not math.isfinite(value):
        raise LineError(line)
    return value


def _reference_timestamp(text, line):
    try:
        return reference_hour(text)
    except ValueError:
        raise LineError(line) from None


def reference_covariates(windspeed, winddir, windgust, humidity, temp, precip):
    """One row in COVARIATE_INPUT_COLUMNS order."""
    theta = math.radians(winddir)
    return [windspeed, math.sin(theta), math.cos(theta), windgust, humidity, temp, precip]


def reference_sensor_csv(path):
    """What load_sensor_csv should return, row by row: (rows, (rows read,
    bad values dropped, duplicates averaged)), where rows are (site, lat,
    lon, hour, pm2.5) sorted by (hour, site), duplicates averaged in file
    order with the first row's coordinates. Raises LineError."""
    merged, read, dropped = {}, 0, 0
    for line, cells in _reference_records(path):
        read += 1
        try:
            value = float(cells["pm2_5"])
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= 0):
            dropped += 1
            continue
        hour = _reference_timestamp(cells["timestamp"], line)
        lat = _reference_number(cells["latitude"], line)
        lon = _reference_number(cells["longitude"], line)
        merged.setdefault((hour, cells["site_id"].strip()), (lat, lon, []))[2].append(value)
    rows = [
        (site, lat, lon, hour, sum(values) / len(values))
        for (hour, site), (lat, lon, values) in sorted(merged.items())
    ]
    kept = read - dropped
    return rows, (read, dropped, kept - len(rows))


def reference_weather_csv(path):
    """What load_weather_csv should return, row by row: ([hours], [covariate
    rows]) in file order. Raises LineError."""
    hours, covariates = [], []
    for line, cells in _reference_records(path):
        hour = _reference_timestamp(cells["timestamp"], line)
        if hour in hours:
            raise LineError(line)
        values = [
            _reference_number(cells[name], line)
            for name in ("windspeed", "winddir", "windgust", "humidity", "temp", "precip")
        ]
        hours.append(hour)
        covariates.append(reference_covariates(*values))
    return hours, covariates


def reference_query_csv(path, with_covariates):
    """What load_query_csv should return, row by row: [(site, lat, lon, hour,
    covariate row or None)] in file order. Raises LineError."""
    weather = ("windspeed", "winddir", "windgust", "humidity", "temp", "precip")
    rows = []
    for line, cells in _reference_records(path):
        covariates = None
        if with_covariates:
            covariates = reference_covariates(
                *(_reference_number(cells[name], line) for name in weather)
            )
        site = cells["site_id"].strip() if "site_id" in cells else f"q{line}"
        lat = _reference_number(cells["latitude"], line)
        lon = _reference_number(cells["longitude"], line)
        rows.append((site, lat, lon, _reference_timestamp(cells["timestamp"], line), covariates))
    return rows
