import numpy as np
import pytest
from scipy.linalg import expm

from sensorgp import kernels, statespace
from sensorgp.errors import InputError
from sensorgp.exact_gp import GPModel
from sensorgp.optim import OptimizerOptions
from helpers import (
    central_diff, filter_runtime, max_rel_err, separable_gram, tangent_gradient, temporal_sde,
)


def gp_for_series(temporal, t, y, noise, mean=0.0):
    """Dense exact GP over a single site, sharing the temporal covariance."""

    class TemporalAsKernel(kernels.Kernel):
        def _base(self, A, B, paired):
            return np.abs(A[:, 0] - B[:, 0]) if paired else np.abs(A[:, :1] - B[:, 0])

        def _forward(self, tau):
            return temporal.covariance(tau), None

        def _get_params(self):
            return []

        def _set_params(self, values):
            pass

        def param_names(self, prefix=""):
            return []

    return GPModel(TemporalAsKernel(), t[:, None], y, noise_variance=noise, mean=mean)


# ---------------------------------------------------------------------------
# discretization closed forms


def test_matern12_closed_form():
    k = statespace.temporal_kernel("matern12", variance=2.0, lengthscale=1.0)
    A, Q = k.transition(1.0)
    assert A[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)
    assert Q[0, 0] == pytest.approx(2.0 * (1.0 - np.exp(-2.0)), abs=1e-13)


def test_matern32_closed_form_unit():
    k = statespace.temporal_kernel("matern32", variance=1.0, lengthscale=1.0)
    lam = np.sqrt(3.0)
    A, Q = k.transition(1.0)
    expected_A = np.exp(-lam) * np.array([[1.0 + lam, 1.0], [-lam * lam, 1.0 - lam]])
    np.testing.assert_allclose(A, expected_A, atol=1e-12)
    Pinf = k.stationary_cov()
    np.testing.assert_allclose(Q, Pinf - A @ Pinf @ A.T, atol=1e-12)


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_transition_matches_matrix_exponential(name):
    k = statespace.temporal_kernel(name, variance=1.4, lengthscale=2.3)
    F = temporal_sde(k)[0]
    for dt in (0.3, 1.0, 7.7):
        A, _ = k.transition(dt)
        np.testing.assert_allclose(A, expm(F * dt), atol=1e-12)


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_large_gap_forgets_the_past(name):
    k = statespace.temporal_kernel(name, variance=1.0, lengthscale=0.5)
    A, Q = k.transition(20.0 * k.lengthscale)
    assert np.max(np.abs(A)) < 1e-8
    np.testing.assert_allclose(Q, k.stationary_cov(), atol=1e-8)


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_process_noise_psd(name):
    k = statespace.temporal_kernel(name, variance=0.8, lengthscale=1.7)
    for dt in (0.01, 0.5, 3.0, 40.0):
        _, Q = k.transition(dt)
        assert np.linalg.eigvalsh(Q).min() >= -1e-10


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_lyapunov_equilibrium(name):
    # F Pinf + Pinf F^T + L q L^T = 0 at stationarity
    k = statespace.temporal_kernel(name, variance=1.2, lengthscale=0.9)
    F, L, q, _ = temporal_sde(k)
    Pinf = k.stationary_cov()
    resid = F @ Pinf + Pinf @ F.T + q * (L @ L.T)
    assert np.max(np.abs(resid)) < 1e-10


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_emission_recovers_covariance_function(name):
    k = statespace.temporal_kernel(name, variance=1.5, lengthscale=1.3)
    F, _, _, H = temporal_sde(k)
    Pinf = k.stationary_cov()
    for tau in (0.0, 0.4, 2.0, 5.0):
        implied = (H @ expm(F * tau) @ Pinf @ H.T).item()
        assert implied == pytest.approx(float(k.covariance(tau)), abs=1e-10)


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_transition_and_stationary_grads_match_central_differences(name):
    k = statespace.temporal_kernel(name, variance=1.4, lengthscale=2.3)
    theta = k.log_params()
    for dt in (0.3, 1.0, 7.7):
        def entries(th):
            k.set_log_params(th)
            A, Q, _, _ = k.transition_and_grads(dt)
            return np.concatenate([A.ravel(), Q.ravel(), k.stationary_cov().ravel()])

        k.set_log_params(theta)
        A, Q, dA, dQ = k.transition_and_grads(dt)
        Pinf, dPinf = k.stationary_cov_and_grads()
        np.testing.assert_array_equal(A, k.transition(dt)[0])
        np.testing.assert_array_equal(Q, k.transition(dt)[1])
        np.testing.assert_array_equal(Pinf, k.stationary_cov())
        analytic = np.concatenate([d.reshape(2, -1) for d in (dA, dQ, dPinf)], axis=1)
        numeric = np.array([
            central_diff(lambda th, j=j: entries(th)[j], theta)
            for j in range(analytic.shape[1])
        ]).T
        k.set_log_params(theta)
        assert max_rel_err(analytic, numeric) < 1e-6


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        statespace.temporal_kernel("matern52")


# ---------------------------------------------------------------------------
# grid assembly


def test_grid_from_arrays_shapes_and_missing():
    X = np.array(
        [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    y = np.array([1.0, 2.0, 3.0])
    grid = statespace.grid_from_arrays(X, y)
    assert grid.coords.shape == (2, 2)
    assert grid.times.tolist() == [0.0, 1.0]
    assert np.isnan(grid.values[1, 1])  # site 1 unobserved at t=1
    assert grid.duplicates_averaged == 0


def test_grid_averages_duplicates():
    X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    grid = statespace.grid_from_arrays(X, np.array([1.0, 3.0]))
    assert grid.values[0, 0] == pytest.approx(2.0)
    assert grid.duplicates_averaged == 1


def test_grid_needs_three_columns():
    with pytest.raises(InputError):
        statespace.grid_from_arrays(np.zeros((3, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# exactness against the dense GP


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_single_site_matches_dense_gp(name):
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 30, size=120))
    k = statespace.temporal_kernel(name, variance=1.3, lengthscale=2.0)
    y = rng.standard_normal(120)
    X = np.column_stack([np.full(120, 0.3), np.full(120, 32.5), t])
    m = statespace.StateSpaceGP(
        kernels.SquaredExponential(1.0, 1.0), k, X, y * 0 + y, noise_variance=0.4, mean=0.2
    )
    # single site: the spatial gram is the scalar k_s(x,x); fold it into a check
    ks = kernels.SquaredExponential(1.0, 1.0).gram(X[:1, :2]).item()
    dense = gp_for_series(
        statespace.temporal_kernel(name, variance=1.3 * ks, lengthscale=2.0),
        t, y, noise=0.4, mean=0.2,
    )
    assert m.log_marginal_likelihood() == pytest.approx(
        dense.log_marginal_likelihood(), abs=1e-6
    )
    # posterior at a mix of interpolation and extrapolation points
    tq = np.array([0.5 * (t[3] + t[4]), t[50], t[-1] + 4.0])
    Xq = np.column_stack([np.full(3, 0.3), np.full(3, 32.5), tq])
    ps = m.predict(Xq)
    pd = dense.predict(tq[:, None])
    np.testing.assert_allclose(ps.mean, pd.mean, atol=1e-6)
    np.testing.assert_allclose(ps.latent_variance, pd.latent_variance, atol=1e-6)


def separable_problem(S=3, T=40, seed=1, missing=0.2):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, size=(S, 2))
    times = np.sort(rng.uniform(0, T / 4, size=T))
    rows = []
    vals = []
    for j, tt in enumerate(times):
        for i in range(S):
            if rng.random() < missing:
                continue
            rows.append([coords[i, 0], coords[i, 1], tt])
            vals.append(rng.standard_normal())
    return np.array(rows), np.array(vals), coords, times


def dense_reference(spatial, temporal, X, y, noise, mean, Xq):
    K = separable_gram(spatial, temporal, X, X) + noise * np.eye(len(y))
    Kinv = np.linalg.inv(K)
    Kqx = separable_gram(spatial, temporal, Xq, X)
    resid = y - mean
    mean_q = mean + Kqx @ Kinv @ resid
    kqq = spatial.diag(Xq[:, :2]) * temporal.variance
    var_q = kqq - np.sum((Kqx @ Kinv) * Kqx, axis=1)
    lml = float(
        -0.5 * resid @ Kinv @ resid
        - 0.5 * np.linalg.slogdet(K)[1]
        - 0.5 * len(y) * np.log(2 * np.pi)
    )
    return lml, mean_q, var_q


@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_grid_matches_dense_gp_with_missing_cells(name):
    X, y, coords, times = separable_problem(S=4, T=30, seed=2)
    spatial = kernels.SquaredExponential(1.2, 0.6)
    temporal = statespace.temporal_kernel(name, variance=1.0, lengthscale=3.0)
    m = statespace.StateSpaceGP(spatial, temporal, X, y, noise_variance=0.3, mean=0.1)

    # queries: on-grid site at a new time, off-grid site, future time
    Xq = np.array(
        [
            [coords[0, 0], coords[0, 1], 0.5 * (times[3] + times[4])],
            [0.77, 0.13, times[10]],
            [coords[2, 0], coords[2, 1], times[-1] + 2.0],
        ]
    )
    lml_d, mean_d, var_d = dense_reference(spatial, temporal, X, y, 0.3, 0.1, Xq)
    assert m.log_marginal_likelihood() == pytest.approx(lml_d, abs=1e-5)
    p = m.predict(Xq)
    np.testing.assert_allclose(p.mean, mean_d, atol=1e-5)
    np.testing.assert_allclose(p.latent_variance, var_d, atol=1e-5)


def test_heldout_cell_matches_dense():
    X, y, coords, times = separable_problem(S=3, T=25, seed=3, missing=0.0)
    # hold out one observed cell entirely
    hold = 17
    Xq = X[hold : hold + 1]
    X2 = np.delete(X, hold, axis=0)
    y2 = np.delete(y, hold)
    spatial = kernels.SquaredExponential(1.0, 0.8)
    temporal = statespace.temporal_kernel("matern32", variance=0.9, lengthscale=2.0)
    m = statespace.StateSpaceGP(spatial, temporal, X2, y2, noise_variance=0.2)
    _, mean_d, var_d = dense_reference(spatial, temporal, X2, y2, 0.2, m.mean, Xq)
    p = m.predict(Xq)
    assert p.mean[0] == pytest.approx(mean_d[0], abs=1e-6)
    assert p.latent_variance[0] == pytest.approx(var_d[0], abs=1e-6)


# ---------------------------------------------------------------------------
# structural behavior


def test_site_permutation_invariance():
    X, y, *_ = separable_problem(S=4, T=20, seed=4)
    spatial = kernels.SquaredExponential(1.0, 0.7)
    m1 = statespace.StateSpaceGP(spatial, "matern32", X, y, noise_variance=0.25)
    perm = np.random.default_rng(5).permutation(len(y))
    m2 = statespace.StateSpaceGP(spatial, "matern32", X[perm], y[perm], noise_variance=0.25)
    assert m1.log_marginal_likelihood() == pytest.approx(
        m2.log_marginal_likelihood(), abs=1e-8
    )


def test_zero_observations_zero_nll():
    X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    y = np.array([np.nan, np.nan])
    m = statespace.StateSpaceGP(
        kernels.SquaredExponential(), "matern12", X, y, noise_variance=0.1
    )
    assert -m.log_marginal_likelihood() == pytest.approx(0.0, abs=1e-12)


def test_all_missing_site_reverts_to_prior():
    # two sites, far apart; site b never observed -> prediction at b is the prior
    coords = np.array([[0.0, 0.0], [50.0, 50.0]])
    t = np.arange(10.0)
    rows, vals = [], []
    for tt in t:
        rows.append([0.0, 0.0, tt])
        vals.append(np.sin(tt))
    X, y = np.array(rows), np.array(vals)
    spatial = kernels.SquaredExponential(1.0, 1.0)
    temporal = statespace.temporal_kernel("matern32", variance=1.0, lengthscale=2.0)
    m = statespace.StateSpaceGP(spatial, temporal, X, y, noise_variance=0.1, mean=0.4)
    p = m.predict(np.array([[50.0, 50.0, 4.5]]))
    assert p.mean[0] == pytest.approx(0.4, abs=1e-6)
    assert p.latent_variance[0] == pytest.approx(
        spatial.gram(coords[1:2]).item() * temporal.variance, abs=1e-6
    )


def test_smoothing_never_inflates_variance():
    X, y, coords, times = separable_problem(S=3, T=30, seed=6)
    m = statespace.StateSpaceGP(
        kernels.SquaredExponential(1.0, 0.7), "matern32", X, y, noise_variance=0.2
    )
    _, steps = m._filter(m.grid.times, m.grid.values, keep=True)
    wanted = set(range(len(m.grid.times)))
    moments = m._smoothed_site_moments(m.grid.times, m.grid.values, wanted)
    pos = m._position_index(m.grid.coords.shape[0])
    for k, (ms, Ps) in moments.items():
        Pf = steps[k][3][np.ix_(pos, pos)]
        assert np.all(np.diag(Ps) <= np.diag(Pf) + 1e-10)


def test_param_names_and_roundtrip():
    X, y, *_ = separable_problem(S=2, T=8, seed=8)
    m = statespace.StateSpaceGP(kernels.SquaredExponential(), "matern32", X, y)
    names = m.param_names()
    assert "time.log_variance" in names and "time.log_lengthscale" in names
    assert names[-1] == "mean" and names[-2] == "log_noise_variance"
    theta = m.log_params()
    m.set_log_params(theta + 0.1)
    np.testing.assert_allclose(m.log_params(), theta + 0.1, atol=1e-12)


# ---------------------------------------------------------------------------
# fitting


def fit_objective(model, monkeypatch):
    """The value-and-gradient function `fit` hands to the optimizer."""
    captured = []

    def capture(value_and_grad, x0, opts, **scorers):
        captured.append(value_and_grad)
        return x0, 0.0, 0, False, []

    monkeypatch.setattr(statespace.optim, "maximize", capture)
    model.fit()
    return captured[0]


@pytest.mark.parametrize("ard", [False, True], ids=["se", "ard-se"])
@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_fit_gradient_matches_central_differences(monkeypatch, name, ard):
    # irregular gaps, missing cells, and with ARD three spatial parameters
    X, y, *_ = separable_problem(S=4, T=30, seed=12, missing=0.3)
    spatial = kernels.SquaredExponential(1.2, np.array([0.5, 0.9]) if ard else 0.6)
    m = statespace.StateSpaceGP(
        spatial, statespace.temporal_kernel(name, 1.1, 2.0), X, y,
        noise_variance=0.3, mean=0.1,
    )
    theta = m.log_params()
    value, grad = fit_objective(m, monkeypatch)(theta)

    def lml(th):
        m.set_log_params(th)
        return m.log_marginal_likelihood()

    assert value == lml(theta)
    assert grad.size == theta.size == spatial.n_params + 4
    assert max_rel_err(grad, central_diff(lml, theta)) < 1e-5


@pytest.mark.parametrize("ard", [False, True], ids=["se", "ard-se"])
@pytest.mark.parametrize("name", ["matern12", "matern32"])
def test_reverse_pass_matches_dense_tangents(name, ard):
    # irregular gaps and missing cells, plus a time step with no observation
    # and a site that is never observed
    X, y, *_ = separable_problem(S=4, T=30, seed=12, missing=0.3)
    spatial = kernels.SquaredExponential(1.2, np.array([0.5, 0.9]) if ard else 0.6)
    m = statespace.StateSpaceGP(
        spatial, statespace.temporal_kernel(name, 1.1, 2.0), X, y,
        noise_variance=0.3, mean=0.1,
    )
    m.grid.values[7] = np.nan
    m.grid.values[:, 2] = np.nan
    value, steps = m._filter(m.grid.times, m.grid.values, keep=True)
    reference_value, reference = tangent_gradient(m)
    assert value == m.log_marginal_likelihood()
    assert value == pytest.approx(reference_value, rel=1e-12)
    assert max_rel_err(m._gradient(steps), reference) < 1e-10


def test_predict_builds_one_transition_per_distinct_gap(monkeypatch):
    # cumulative sums of three step sizes: gaps that round to one key differ
    # in their last bits, and filter and smoother must share one transition
    rng = np.random.default_rng(13)
    times = np.cumsum(rng.choice([0.1, 0.25, 1.0], size=40))
    coords = rng.uniform(0.0, 1.0, size=(3, 2))
    X = np.array([[*c, t] for t in times for c in coords])
    y = rng.standard_normal(len(X))
    m = statespace.StateSpaceGP(
        kernels.SquaredExponential(1.0, 0.7), "matern32", X, y, noise_variance=0.2
    )
    calls = []
    transition = m.temporal.transition

    def counted(dt):
        calls.append(round(dt, 12))
        return transition(dt)

    monkeypatch.setattr(m.temporal, "transition", counted)
    Xq = np.array([[*coords[0], times[5] + 0.05], [0.5, 0.5, times[-1] + 0.1]])
    m.predict(Xq)
    grid = np.unique(np.concatenate([np.round(times, 12), np.round(Xq[:, 2], 12)]))
    keys = {round(float(gap), 12) for gap in np.diff(grid)}
    assert len(keys) < grid.size - 1
    assert sorted(calls) == sorted(keys)


def test_fit_improves_and_reports():
    X, y, *_ = separable_problem(S=2, T=30, seed=9, missing=0.0)
    m = statespace.StateSpaceGP(
        kernels.SquaredExponential(1.0, 0.7), "matern32", X, y, noise_variance=0.5
    )
    before = m.log_marginal_likelihood()
    res = m.fit(OptimizerOptions(max_iters=25, learning_rate=0.1))
    assert res.objective >= before
    assert set(res.params) == set(m.param_names())
    assert m.log_marginal_likelihood() == pytest.approx(res.objective, abs=1e-8)


@pytest.mark.slow
def test_temporal_lengthscale_recovery():
    true_ls, hits = 2.0, 0
    T = 60
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        t = np.arange(float(T))
        k_true = statespace.temporal_kernel("matern32", variance=1.0, lengthscale=true_ls)
        K = k_true.covariance(np.abs(t[:, None] - t[None, :])) + 1e-9 * np.eye(T)
        f = np.linalg.cholesky(K) @ rng.standard_normal(T)
        y = f + 0.2 * rng.standard_normal(T)
        X = np.column_stack([np.zeros(T), np.zeros(T), t])
        m = statespace.StateSpaceGP(
            kernels.SquaredExponential(1.0, 1.0),
            statespace.temporal_kernel("matern32", 1.0, 1.0),
            X, y, noise_variance=0.1,
        )
        m.fit(OptimizerOptions(max_iters=60, learning_rate=0.2, tol=1e-8, patience=15))
        if abs(m.temporal.lengthscale - true_ls) <= 0.3 * true_ls:
            hits += 1
    assert hits >= 8, f"temporal lengthscale recovered in only {hits}/10 runs"


def test_filter_runtime_returns_positive_seconds():
    X, y, *_ = separable_problem(S=2, T=10, seed=10)
    m = statespace.StateSpaceGP(kernels.SquaredExponential(), "matern12", X, y)
    assert filter_runtime(m, 50) > 0.0
