"""Linear-in-time GP regression via a joint spatio-temporal state space.

A separable covariance k((s,t),(s',t')) = k_space(s,s') * k_time(|t-t'|)
with a Markovian temporal kernel admits an exact reformulation as a
linear-Gaussian state-space model over the S sites jointly: the state
stacks each site's temporal state (dimension q per site), the transition
is I_S (x) A_t(dt), the process noise K_space (x) Q_t(dt), and the
stationary prior K_space (x) P_inf. Kalman filtering then yields the
exact marginal likelihood in O(T * S^3) instead of O((TS)^3), and the
RTS smoother the exact posterior marginals.

Off-grid sites never enter the filter; they are recovered afterwards
from the smoothed per-time site values by the usual GP conditional,
which is exact for separable kernels because the residual is
independent of the whole on-grid process.
"""

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import InputError, NumericalError
from .exact_gp import LOG_2PI, PosteriorPrediction
from .linalg import chol_solve, chol_with_jitter, tri_solve


class TemporalKernel:
    """Markovian stationary kernel on the time axis.

    Subclasses provide the state dimension, the stationary state
    covariance, the discrete transition over a gap dt, the emission row,
    and the plain covariance function used by dense oracles.
    """

    state_dim = None

    def __init__(self, variance=1.0, lengthscale=1.0):
        if variance <= 0 or lengthscale <= 0:
            raise InputError("temporal variance and lengthscale must be positive")
        self.log_variance = math.log(variance)
        self.log_lengthscale = math.log(lengthscale)

    @property
    def variance(self):
        return math.exp(self.log_variance)

    @property
    def lengthscale(self):
        return math.exp(self.log_lengthscale)

    def log_params(self):
        return np.array([self.log_variance, self.log_lengthscale])

    def set_log_params(self, values):
        self.log_variance, self.log_lengthscale = map(float, values)

    def param_names(self):
        return ["time.log_variance", "time.log_lengthscale"]

    def emission(self):
        row = np.zeros((1, self.state_dim))
        row[0, 0] = 1.0
        return row

    def discretize(self, dt):
        """Transition and process-noise pair (A, Q) for a positive time gap."""
        if dt <= 0:
            raise InputError(f"time gap must be positive, got {dt}")
        return self.transition(dt)


class Matern12(TemporalKernel):
    """Exponential covariance; its sample paths are an OU process."""

    state_dim = 1
    name = "matern12"

    def feedback(self):
        return np.array([[-1.0 / self.lengthscale]])

    def diffusion(self):
        # white-noise loading column and spectral density
        return np.array([[1.0]]), 2.0 * self.variance / self.lengthscale

    def stationary_cov(self):
        return np.array([[self.variance]])

    def transition(self, dt):
        a = math.exp(-dt / self.lengthscale)
        A = np.array([[a]])
        Q = np.array([[self.variance * (1.0 - a * a)]])
        return A, Q

    def covariance(self, tau):
        tau = np.abs(np.asarray(tau, dtype=float))
        return self.variance * np.exp(-tau / self.lengthscale)


class Matern32(TemporalKernel):
    """Once-differentiable Matern; state carries value and derivative."""

    state_dim = 2
    name = "matern32"

    def _lam(self):
        return math.sqrt(3.0) / self.lengthscale

    def feedback(self):
        lam = self._lam()
        return np.array([[0.0, 1.0], [-lam * lam, -2.0 * lam]])

    def diffusion(self):
        lam = self._lam()
        return np.array([[0.0], [1.0]]), 4.0 * lam**3 * self.variance

    def stationary_cov(self):
        lam = self._lam()
        return np.diag([self.variance, self.variance * lam * lam])

    def transition(self, dt):
        lam = self._lam()
        e = math.exp(-lam * dt)
        A = e * np.array(
            [[1.0 + lam * dt, dt], [-lam * lam * dt, 1.0 - lam * dt]]
        )
        Pinf = self.stationary_cov()
        Q = Pinf - A @ Pinf @ A.T
        return A, Q

    def covariance(self, tau):
        tau = np.abs(np.asarray(tau, dtype=float))
        lam = self._lam()
        return self.variance * (1.0 + lam * tau) * np.exp(-lam * tau)


TEMPORAL_KERNELS = {k.name: k for k in (Matern12, Matern32)}


def temporal_kernel(name, variance=1.0, lengthscale=1.0):
    try:
        cls = TEMPORAL_KERNELS[name]
    except KeyError:
        raise InputError(
            f"unknown temporal kernel {name!r} (expected one of {sorted(TEMPORAL_KERNELS)})"
        ) from None
    return cls(variance, lengthscale)


@dataclass
class SiteGrid:
    """Observations arranged as a (time, site) matrix with NaN for missing cells."""

    coords: np.ndarray     # (S, 2)
    times: np.ndarray      # (T,), strictly increasing
    values: np.ndarray     # (T, S), NaN where unobserved
    duplicates_averaged: int = 0


def grid_from_arrays(X, y):
    """Group (lat, lon, time) rows into a SiteGrid, averaging duplicate cells."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[1] != 3:
        raise InputError(
            "state-space models need exactly (lat, lon, time) input columns"
        )
    coords_key = np.round(X[:, :2], 12)
    coords, site_idx = np.unique(coords_key, axis=0, return_inverse=True)
    times_key = np.round(X[:, 2], 12)
    times, time_idx = np.unique(times_key, return_inverse=True)
    total = np.zeros((times.size, coords.shape[0]))
    count = np.zeros_like(total)
    np.add.at(total, (time_idx, site_idx), y)
    np.add.at(count, (time_idx, site_idx), 1.0)
    with np.errstate(invalid="ignore"):
        values = np.where(count > 0, total / np.maximum(count, 1.0), np.nan)
    duplicates = int(y.size - np.count_nonzero(count))
    return SiteGrid(coords, times, values, duplicates)


class StateSpaceGP:
    """Exact GP regression for separable kernels, linear in the number of hours."""

    def __init__(self, spatial_kernel, temporal, X, y, noise_variance=0.1, mean=None):
        self.spatial_kernel = spatial_kernel.copy()
        if isinstance(temporal, str):
            temporal = temporal_kernel(temporal)
        self.temporal = temporal
        self.grid = grid_from_arrays(X, y)
        if noise_variance <= 0:
            raise InputError("noise variance must be positive")
        self._log_noise = math.log(noise_variance)
        if mean is None:
            observed = self.grid.values[~np.isnan(self.grid.values)]
            mean = float(observed.mean()) if observed.size else 0.0
        self.mean = float(mean)
        self.dataset = None
        self._pos = None

    @classmethod
    def from_dataset(cls, spatial_kernel, temporal, dataset, noise_variance=0.1, mean=None):
        model = cls(spatial_kernel, temporal, dataset.X, dataset.y, noise_variance, mean)
        model.dataset = dataset
        return model

    # -- parameters ---------------------------------------------------------

    @property
    def noise_variance(self):
        return math.exp(self._log_noise)

    def log_params(self):
        return np.concatenate(
            [
                self.spatial_kernel.log_params(),
                self.temporal.log_params(),
                [self._log_noise, self.mean],
            ]
        )

    def set_log_params(self, values):
        values = np.asarray(values, dtype=float).ravel()
        k = self.spatial_kernel.n_params
        expected = k + 4
        if values.size != expected:
            raise InputError(f"expected {expected} parameters, got {values.size}")
        self.spatial_kernel.set_log_params(values[:k])
        self.temporal.set_log_params(values[k:k + 2])
        self._log_noise = float(values[k + 2])
        self.mean = float(values[k + 3])

    def param_names(self):
        return (
            self.spatial_kernel.param_names()
            + self.temporal.param_names()
            + ["log_noise_variance", "mean"]
        )

    # -- joint-state mechanics ----------------------------------------------

    def _position_index(self, n_sites):
        return np.arange(n_sites) * self.temporal.state_dim

    def _apply_transition(self, A, m, P):
        """(I (x) A) m, (I (x) A) P (I (x) A)^T and the half product (I (x) A) P,
        without forming the kron."""
        q = self.temporal.state_dim
        S = m.size // q
        m4 = m.reshape(S, q)
        m_new = (m4 @ A.T).ravel()
        P4 = P.reshape(S, q, S, q)
        # fixed contraction order; einsum's path search costs more than the
        # contraction itself at these sizes
        half = np.einsum("ab,ibjc->iajc", A, P4, optimize=False)
        P_new = np.einsum("iajc,dc->iajd", half, A, optimize=False)
        return m_new, P_new.reshape(S * q, S * q), half.reshape(S * q, S * q)

    def _filter(self, times, values, collect=False):
        """Forward pass; returns log-likelihood and, when collecting, the
        per-step filtered moments and gaps needed by the smoother."""
        S = self.grid.coords.shape[0]
        q = self.temporal.state_dim
        Ks = self.spatial_kernel.gram(self.grid.coords)
        Pinf = self.temporal.stationary_cov()
        pos = self._position_index(S)
        sigma2 = self.noise_variance

        m = np.zeros(S * q)
        P = np.kron(Ks, Pinf)
        loglik = 0.0
        transitions = {}
        filtered = [] if collect else None
        gaps = [] if collect else None

        for k in range(times.size):
            if k > 0:
                dt = float(times[k] - times[k - 1])
                key = round(dt, 12)
                if key not in transitions:
                    A, Qt = self.temporal.transition(dt)
                    transitions[key] = (A, np.kron(Ks, Qt))
                A, Q = transitions[key]
                m, P, _ = self._apply_transition(A, m, P)
                P = P + Q
                if collect:
                    gaps.append(dt)

            row = values[k]
            obs = np.flatnonzero(~np.isnan(row))
            if obs.size:
                rows = pos[obs]
                Smat = P[np.ix_(rows, rows)] + sigma2 * np.eye(obs.size)
                Ls, _ = chol_with_jitter(Smat)
                e = row[obs] - self.mean - m[rows]
                alpha = chol_solve(Ls, e)
                loglik += -0.5 * (e @ alpha) - np.sum(np.log(np.diag(Ls))) \
                    - 0.5 * obs.size * LOG_2PI
                PH = P[:, rows]
                K = chol_solve(Ls, PH.T).T
                m = m + K @ e
                P = P - K @ PH.T
                P = 0.5 * (P + P.T)
            if collect:
                filtered.append((m.copy(), P.copy()))

        return float(loglik), filtered, gaps

    def log_marginal_likelihood(self):
        return self._filter(self.grid.times, self.grid.values)[0]

    def negative_log_likelihood(self):
        """Filter-summed negative log-density; zero when nothing is observed."""
        return -self.log_marginal_likelihood()

    def _smoothed_site_moments(self, times, values, wanted):
        """Smoothed mean/cov of the per-site function values at selected steps.

        Runs the filter forward then the RTS recursion backward, keeping
        only the position block (value component of every site's state) at
        the steps listed in `wanted`.
        """
        _, filtered, gaps = self._filter(times, values, collect=True)
        S = self.grid.coords.shape[0]
        pos = self._position_index(S)
        wanted = set(int(w) for w in wanted)
        out = {}
        Ks = self.spatial_kernel.gram(self.grid.coords)
        # not the filter's cache: that one fills in forward order, and gaps
        # rounding to one key differ in their last bits, so sharing it would
        # move the smoothed moments in the last digits
        transitions = {}

        m_s, P_s = filtered[-1]
        if (times.size - 1) in wanted:
            out[times.size - 1] = (m_s[pos].copy(), P_s[np.ix_(pos, pos)].copy())
        for k in range(times.size - 2, -1, -1):
            m_f, P_f = filtered[k]
            key = round(gaps[k], 12)
            if key not in transitions:
                A_k, Qt_k = self.temporal.transition(gaps[k])
                transitions[key] = (A_k, np.kron(Ks, Qt_k))
            A, Q = transitions[key]
            m_pred, P_pred, AP = self._apply_transition(A, m_f, P_f)
            P_pred = P_pred + Q
            Lp, _ = chol_with_jitter(P_pred)
            # G = P_f A_joint^T P_pred^-1, built from its transpose
            G = chol_solve(Lp, AP).T
            m_s = m_f + G @ (m_s - m_pred)
            P_s = P_f + G @ (P_s - P_pred) @ G.T
            P_s = 0.5 * (P_s + P_s.T)
            if k in wanted:
                out[k] = (m_s[pos].copy(), P_s[np.ix_(pos, pos)].copy())
        return out

    # -- fitting ------------------------------------------------------------

    def fit(self, opts=None, fd_step=1e-5):
        """Maximize the filter likelihood with central-difference gradients.

        The parameter count is tiny (two kernels, noise, mean), so finite
        differences cost a handful of filter sweeps per iteration.
        """
        opts = opts or optim.OptimizerOptions()

        def value_and_grad(theta):
            self.set_log_params(theta)
            value = self.log_marginal_likelihood()
            grad = np.empty_like(theta)
            for i in range(theta.size):
                h = fd_step * max(1.0, abs(theta[i]))
                probe = theta.copy()
                probe[i] = theta[i] + h
                self.set_log_params(probe)
                hi = self.log_marginal_likelihood()
                probe[i] = theta[i] - h
                self.set_log_params(probe)
                lo = self.log_marginal_likelihood()
                grad[i] = (hi - lo) / (2.0 * h)
            self.set_log_params(theta)
            return value, grad

        best_x, value, iters, converged, trace = optim.maximize(
            value_and_grad, self.log_params(), opts
        )
        self.set_log_params(best_x)
        params = dict(zip(self.param_names(), best_x.tolist()))
        return optim.FitResult(params, value, iters, converged, trace)

    # -- prediction ---------------------------------------------------------

    def predict(self, Xq, full_cov=False):
        """Posterior at arbitrary (lat, lon, time) rows.

        Query times are spliced into the time grid as unobserved steps, so
        interpolation and forecasting both fall out of the smoother. Sites
        not on the training grid are conditioned on the smoothed on-grid
        values; that conditioning is exact for this covariance.
        """
        if full_cov:
            raise InputError("full covariance output is not available for this backend")
        Xq = np.asarray(Xq, dtype=float)
        if Xq.ndim != 2 or Xq.shape[1] != 3:
            raise InputError("query rows must be (lat, lon, time) triples")
        qc = np.round(Xq[:, :2], 12)
        qt = np.round(Xq[:, 2], 12)

        base_times = np.round(self.grid.times, 12)
        all_times = np.unique(np.concatenate([base_times, qt]))
        values = np.full((all_times.size, self.grid.coords.shape[0]), np.nan)
        base_rows = np.searchsorted(all_times, base_times)
        values[base_rows] = self.grid.values
        query_rows = np.searchsorted(all_times, qt)

        moments = self._smoothed_site_moments(all_times, values, set(query_rows))

        kt0 = float(self.temporal.covariance(0.0))
        Ks = self.spatial_kernel.gram(self.grid.coords)
        Ls, _ = chol_with_jitter(kt0 * Ks)

        mean = np.empty(Xq.shape[0])
        latent = np.empty(Xq.shape[0])
        for i in range(Xq.shape[0]):
            F_mean, F_cov = moments[int(query_rows[i])]
            d2 = np.sum((self.grid.coords - qc[i]) ** 2, axis=1)
            j = int(np.argmin(d2))
            if d2[j] < 1e-18:
                mean[i] = self.mean + F_mean[j]
                latent[i] = F_cov[j, j]
            else:
                c_q = kt0 * self.spatial_kernel.gram(
                    qc[i][None, :], self.grid.coords
                ).ravel()
                c_qq = kt0 * float(self.spatial_kernel.diag(qc[i][None, :])[0])
                a = chol_solve(Ls, c_q)
                residual_var = max(c_qq - c_q @ a, 0.0)
                mean[i] = self.mean + a @ F_mean
                latent[i] = residual_var + a @ F_cov @ a
        latent = np.maximum(latent, 0.0)
        return PosteriorPrediction(mean, latent, latent + self.noise_variance, None)


def filter_runtime(model, n_steps, repeats=2):
    """Seconds for one filter sweep over the first n_steps rows (best of repeats)."""
    times = model.grid.times[:n_steps]
    values = model.grid.values[:n_steps]
    best = math.inf
    for _ in range(repeats):
        start = _time.perf_counter()
        model._filter(times, values)
        best = min(best, _time.perf_counter() - start)
    return best
