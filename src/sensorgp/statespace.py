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
from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import InputError
from .exact_gp import LOG_2PI, PosteriorPrediction, query_matrix
from .kernels import from_config, to_config
from .linalg import chol_rev, chol_solve, chol_with_jitter, single_threaded_blas, tri_solve


def _sandwich(L, P, R, S, q):
    """(I (x) L) P and (I (x) L) P (I (x) R)^T for P of shape (..., S q, S q),
    without forming the krons: batched q x q products on the site blocks."""
    lead, n = P.shape[:-2], S * q
    half = (L @ P.reshape(lead + (S, q, n))).reshape(P.shape)
    full = (half.reshape(lead + (n, S, q)) @ R.T).reshape(P.shape)
    return half, full


class TemporalKernel:
    """Markovian stationary kernel on the time axis.

    Subclasses provide the state dimension, the stationary state
    covariance and the discrete transition over a gap dt, each with its
    derivatives with respect to (log variance, log lengthscale), and the
    plain covariance function; the state's first component is the function
    value.
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

    def stationary_cov(self):
        return self.stationary_cov_and_grads()[0]

    def transition(self, dt):
        """State transition A(dt) and process noise Q(dt) over a gap dt."""
        return self.transition_and_grads(dt)[:2]


class Matern12(TemporalKernel):
    """Exponential covariance; its sample paths are an OU process."""

    state_dim = 1
    name = "matern12"

    def stationary_cov_and_grads(self):
        """P_inf and its (2, 1, 1) derivatives; P_inf does not depend on the lengthscale."""
        Pinf = np.array([[self.variance]])
        return Pinf, np.stack([Pinf, np.zeros((1, 1))])

    def transition_and_grads(self, dt):
        """A, Q and their (2, 1, 1) derivatives; A does not depend on the variance."""
        a = math.exp(-dt / self.lengthscale)
        A = np.array([[a]])
        Q = np.array([[self.variance * (1.0 - a * a)]])
        da = a * dt / self.lengthscale           # d a / d log lengthscale
        dA = np.array([[[0.0]], [[da]]])
        dQ = np.stack([Q, [[-2.0 * self.variance * a * da]]])
        return A, Q, dA, dQ

    def covariance(self, tau):
        tau = np.abs(np.asarray(tau, dtype=float))
        return self.variance * np.exp(-tau / self.lengthscale)


class Matern32(TemporalKernel):
    """Once-differentiable Matern; state carries value and derivative."""

    state_dim = 2
    name = "matern32"

    def _lam(self):
        return math.sqrt(3.0) / self.lengthscale

    def stationary_cov_and_grads(self):
        """P_inf and its (2, 2, 2) derivatives; d lam / d log lengthscale = -lam."""
        lam = self._lam()
        Pinf = np.diag([self.variance, self.variance * lam * lam])
        dPinf_ell = np.diag([0.0, -2.0 * self.variance * lam * lam])
        return Pinf, np.stack([Pinf, dPinf_ell])

    def transition_and_grads(self, dt):
        """A, Q and their (2, 2, 2) derivatives; Q = P_inf - A P_inf A^T."""
        lam = self._lam()
        e = math.exp(-lam * dt)
        A = e * np.array(
            [[1.0 + lam * dt, dt], [-lam * lam * dt, 1.0 - lam * dt]]
        )
        Pinf, dPinf = self.stationary_cov_and_grads()
        Q = Pinf - A @ Pinf @ A.T
        # d A / d lam, then the chain rule through lam = sqrt(3) / lengthscale
        dA_dlam = -dt * A + e * np.array([[dt, 0.0], [-2.0 * lam * dt, -dt]])
        dA_ell = -lam * dA_dlam
        half = dA_ell @ Pinf @ A.T
        dQ_ell = dPinf[1] - A @ dPinf[1] @ A.T - half - half.T
        # Q is linear in the variance, and A does not depend on it
        return A, Q, np.stack([np.zeros((2, 2)), dA_ell]), np.stack([Q, dQ_ell])

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

    backend = "statespace"  # its name in model files
    label = "ST"            # the comparison table's Sparse column
    repetitions = 1         # default number of seeds per experiment row
    budget = 500            # default optimizer step budget
    spatial_only = True     # rejects periodic rows and covariate columns
    stores_rows = True      # the model file keeps the training rows

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

    @classmethod
    def fit_experiment(cls, kernel, dataset, config, seed):
        """Fit one experiment row: `kernel` over space, `config.temporal` over time."""
        model = cls.from_dataset(kernel, config.temporal, dataset, config.noise_variance)
        return model, model.fit(config.optimizer_options(seed))

    # -- model file block: both kernels (model_io keeps the training rows) --

    def to_doc(self):
        return {
            "spatial_kernel": to_config(self.spatial_kernel),
            "temporal": {
                "family": self.temporal.name,
                "variance": self.temporal.variance,
                "lengthscale": self.temporal.lengthscale,
            },
            "log_params": self.log_params().tolist(),
        }

    @classmethod
    def from_doc(cls, doc, dataset):
        """Rebuild from a model file; `dataset` carries its normalization and rows."""
        temporal = temporal_kernel(
            doc["temporal"]["family"],
            float(doc["temporal"]["variance"]),
            float(doc["temporal"]["lengthscale"]),
        )
        model = cls.from_dataset(
            from_config(doc["spatial_kernel"]), temporal, dataset,
            float(doc["noise_variance"]), float(doc["mean"]),
        )
        if "log_params" in doc:
            model.set_log_params(doc["log_params"])
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
        m_new = (m.reshape(S, q) @ A.T).ravel()
        half, P_new = _sandwich(A, P, A, S, q)
        return m_new, P_new, half

    def _filter(self, times, values, keep=False):
        """Forward pass; returns (loglik, steps).

        With `keep`, `steps` holds one (transition, update, m, P) entry per
        step for the backward sweeps (the smoother and `_gradient`): the
        transition is (dt, A, Qt, Ks (x) Qt), one object per distinct gap and
        None at the first step; the update is (rows, Ls, [W | v]), None where
        nothing was observed; m, P are the filtered moments.
        """
        S = self.grid.coords.shape[0]
        n = S * self.temporal.state_dim
        pos = self._position_index(S)
        sigma2 = self.noise_variance
        Ks = self.spatial_kernel.gram(self.grid.coords)

        m = np.zeros(n)
        P = np.kron(Ks, self.temporal.stationary_cov())
        loglik = 0.0
        transitions = {}
        steps = [] if keep else None

        for t in range(times.size):
            transition = update = None
            if t > 0:
                dt = float(times[t] - times[t - 1])
                key = round(dt, 12)
                if key not in transitions:
                    A, Qt = self.temporal.transition(dt)
                    transitions[key] = (dt, A, Qt, np.kron(Ks, Qt))
                transition = transitions[key]
                _, A, _, Q = transition
                m, P, _ = self._apply_transition(A, m, P)
                P = P + Q

            row = values[t]
            obs = np.flatnonzero(~np.isnan(row))
            if obs.size:
                rows = pos[obs]
                # the innovation covariance H P Hᵀ + σ² I, factored in one buffer
                Ls, _ = chol_with_jitter(P[np.ix_(rows, rows)], sigma2)
                e = row[obs] - self.mean - m[rows]
                # one solve: [W | v] = Ls^-1 [H P | e]
                Wv = tri_solve(Ls, np.column_stack([P[rows], e]))
                W, v = Wv[:, :n], Wv[:, n]
                loglik += -0.5 * (v @ v) - np.sum(np.log(np.diag(Ls))) \
                    - 0.5 * obs.size * LOG_2PI
                m = m + W.T @ v
                P = P - W.T @ W
                P = 0.5 * (P + P.T)
                update = (rows, Ls, Wv)
            if keep:
                steps.append((transition, update, m, P))
        return float(loglik), steps

    def log_marginal_likelihood(self):
        return self._filter(self.grid.times, self.grid.values)[0]

    def _gradient(self, steps):
        """Exact gradient of the filter's log-likelihood in `log_params` order,
        from the steps a `_filter(..., keep=True)` kept.

        One backward sweep carries the adjoints m̄, P̄ of the filtered moments
        through each update, with `chol_rev` for the innovation factor (Murray
        2016), and through each prediction by the matrix adjoint rules (Giles
        2008), summing Ā and Q̄ per distinct gap. Only then are they mapped to
        the parameters: the temporal ones through the transition and
        stationary derivatives, the spatial ones through K̄s and one reverse
        pass of the spatial kernel.
        """
        S, q = self.grid.coords.shape[0], self.temporal.state_dim
        n = S * q
        mbar, Pbar, noise_bar, mean_bar = np.zeros(n), np.zeros((n, n)), 0.0, 0.0
        gaps = {}                       # id(transition) -> [transition, Ā, Q̄]
        for t in range(len(steps) - 1, -1, -1):
            transition, update, _, _ = steps[t]
            if update is not None:
                # m = m- + Wᵀv and P = P- - WᵀW, with loglik -v·v/2 - Σ log diag Ls
                rows, Ls, Wv = update
                W, v = Wv[:, :n], Wv[:, n]
                Xbar = np.column_stack([np.outer(v, mbar) - 2.0 * (W @ Pbar), W @ mbar - v])
                # [W | v] = Ls^-1 [H P- | e] with e = y - mean - H m-; the rows H P- reads
                # go half to P̄'s rows and half to its columns, so P̄ stays symmetric
                Bbar = tri_solve(Ls, Xbar, trans=True)
                Lbar = -(Bbar @ Wv.T)
                Lbar[np.diag_indices_from(Lbar)] -= 1.0 / np.diag(Ls)
                Sbar = chol_rev(Ls, Lbar)           # the adjoint of H P- Hᵀ + σ² I
                noise_bar += np.trace(Sbar)
                mean_bar -= Bbar[:, n].sum()
                mbar[rows] -= Bbar[:, n]
                Pbar[rows] += 0.5 * Bbar[:, :n]
                Pbar[:, rows] += 0.5 * Bbar[:, :n].T
                Pbar[np.ix_(rows, rows)] += Sbar
            if transition is not None:
                # m- = (I (x) A) m and P- = (I (x) A) P (I (x) A)ᵀ + Ks (x) Qt
                A = transition[1]
                _, _, m, P = steps[t - 1]
                entry = gaps.setdefault(id(transition), [transition, 0.0, 0.0])
                # Ā sums the diagonal site blocks of m̄ mᵀ + 2 P̄ (I (x) A) P
                AP = (A @ P.reshape(S, q, n)).reshape(n, S, q).transpose(1, 0, 2)
                entry[1] += mbar.reshape(S, q).T @ m.reshape(S, q) \
                    + 2.0 * (Pbar.reshape(S, q, n) @ AP).sum(axis=0)
                entry[2] += Pbar
                mbar = (mbar.reshape(S, q) @ A).ravel()
                Pbar = _sandwich(A.T, Pbar, A.T, S, q)[1]

        Ks, vjp = self.spatial_kernel.prepare(self.grid.coords).gram_and_vjp()
        time_bar, Ks_bar = np.zeros(2), np.zeros((S, S))
        # what is left in P̄ is the prior's, P0 = Ks (x) P_inf
        kron_adjoints = [(*self.temporal.stationary_cov_and_grads(), Pbar)]
        for (dt, _, Qt, _), Abar, Qbar in gaps.values():
            dA, dQt = self.temporal.transition_and_grads(dt)[2:]
            time_bar += np.einsum("pab,ab->p", dA, Abar)
            kron_adjoints.append((Qt, dQt, Qbar))
        for Pt, dPt, Kbar in kron_adjoints:
            # d(Ks (x) Pt): K̄s pairs each site block with Pt, P̄t sums them over Ks
            blocks = Kbar.reshape(S, q, S, q)
            Ks_bar += np.einsum("satb,ab->st", blocks, Pt)
            time_bar += np.einsum("pab,ab->p", dPt, np.einsum("st,satb->ab", Ks, blocks))
        noise_bar *= self.noise_variance        # the noise enters as exp(log σ²)
        return np.concatenate([vjp(Ks_bar), time_bar, [noise_bar, mean_bar]])

    def _smoothed_site_moments(self, times, values, wanted):
        """Smoothed mean/cov of the per-site function values at selected steps.

        Runs the filter forward then the RTS recursion backward, keeping
        only the position block (value component of every site's state) at
        the steps listed in `wanted`. The backward pass inverts the
        filter's own prediction steps: it reuses their transitions.
        """
        _, steps = self._filter(times, values, keep=True)
        S = self.grid.coords.shape[0]
        pos = self._position_index(S)
        wanted = set(int(w) for w in wanted)
        out = {}

        _, _, m_s, P_s = steps[-1]
        if (times.size - 1) in wanted:
            out[times.size - 1] = (m_s[pos].copy(), P_s[np.ix_(pos, pos)].copy())
        for k in range(times.size - 2, -1, -1):
            _, _, m_f, P_f = steps[k]
            _, A, _, Q = steps[k + 1][0]
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

    def fit(self, opts=None):
        """Maximize the filter likelihood; each step is one filter pass that
        keeps its steps, then one backward sweep for the exact gradient."""
        opts = opts or optim.OptimizerOptions()

        def value_and_grad(theta):
            self.set_log_params(theta)
            value, steps = self._filter(self.grid.times, self.grid.values, keep=True)
            return value, self._gradient(steps)

        def value_only(theta):
            # the same sweep without keeping its steps: the same value, bit for bit
            self.set_log_params(theta)
            return self.log_marginal_likelihood()

        best_x, value, iters, converged, trace = optim.maximize(
            value_and_grad, self.log_params(), opts, value=value_only
        )
        self.set_log_params(best_x)
        params = dict(zip(self.param_names(), best_x.tolist()))
        return optim.FitResult(params, value, iters, converged, trace)

    # -- prediction ---------------------------------------------------------

    @single_threaded_blas()
    def predict(self, Xq):
        """Posterior at arbitrary (lat, lon, time) rows.

        Query times are spliced into the time grid as unobserved steps, so
        interpolation and forecasting both fall out of the smoother. Sites
        not on the training grid are conditioned on the smoothed on-grid
        values; that conditioning is exact for this covariance.
        """
        Xq = query_matrix(Xq, 3)
        qc = np.round(Xq[:, :2], 12)
        qt = np.round(Xq[:, 2], 12)
        coords = self.grid.coords

        base_times = np.round(self.grid.times, 12)
        all_times = np.unique(np.concatenate([base_times, qt]))
        values = np.full((all_times.size, coords.shape[0]), np.nan)
        base_rows = np.searchsorted(all_times, base_times)
        values[base_rows] = self.grid.values
        query_rows = np.searchsorted(all_times, qt)

        moments = self._smoothed_site_moments(all_times, values, set(query_rows))

        # each query is a weighting `a` of the smoothed site values: one-hot
        # for an on-grid site, the spatial GP conditional weights off the grid
        d2 = np.sum((qc[:, None, :] - coords[None, :, :]) ** 2, axis=2)
        nearest = np.argmin(d2, axis=1)
        on = d2[np.arange(qc.shape[0]), nearest] < 1e-18
        a = np.zeros(d2.shape)
        a[on, nearest[on]] = 1.0
        latent = np.zeros(qc.shape[0])   # the off-grid residual variance, then + a F_cov a
        off = ~on
        if off.any():
            kt0 = float(self.temporal.covariance(0.0))
            Ls, _ = chol_with_jitter(kt0 * self.spatial_kernel.gram(coords))
            c_q = kt0 * self.spatial_kernel.gram(qc[off], coords)
            a[off] = chol_solve(Ls, c_q.T).T
            c_qq = kt0 * self.spatial_kernel.diag(qc[off])
            latent[off] = np.maximum(c_qq - np.sum(c_q * a[off], axis=1), 0.0)

        F_mean = np.array([moments[k][0] for k in query_rows])
        mean = self.mean + np.sum(a * F_mean, axis=1)
        for k in np.unique(query_rows):
            at = query_rows == k
            latent[at] += np.einsum("qi,ij,qj->q", a[at], moments[k][1], a[at])
        latent = np.maximum(latent, 0.0)
        return PosteriorPrediction(mean, latent, latent + self.noise_variance)
