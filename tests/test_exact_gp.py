import tracemalloc

import numpy as np
import pytest

from sensorgp import exact_gp, kernels, linalg
from sensorgp.data import build_dataset, synth_generate
from sensorgp.errors import InputError
from sensorgp.exact_gp import GPModel, subsample
from sensorgp.optim import OptimizerOptions
from helpers import central_diff, dense_lml, dense_posterior, dense_posterior_cov


def toy_model(seed=0, n=8, d=2, noise=0.3, mean=0.4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    k = kernels.SquaredExponential(1.3, 0.9) + kernels.ActiveDims(
        [d - 1], kernels.Periodic(0.6, 1.1, 2.5)
    )
    return GPModel(k, X, y, noise_variance=noise, mean=mean)


# ---------------------------------------------------------------------------
# marginal likelihood


def test_single_point_at_the_mean():
    # unit prior + unit noise at the mean: -0.5 log(2 pi * 2)
    m = GPModel(
        kernels.SquaredExponential(1.0, 1.0),
        np.zeros((1, 1)),
        np.array([0.7]),
        noise_variance=1.0,
        mean=0.7,
    )
    assert m.log_marginal_likelihood() == pytest.approx(-0.5 * np.log(4.0 * np.pi), abs=1e-12)


def test_single_point_off_the_mean():
    m = GPModel(
        kernels.SquaredExponential(1.0, 1.0),
        np.zeros((1, 1)),
        np.array([1.2]),
        noise_variance=0.1,
        mean=0.7,
    )
    expected = -0.5 * np.log(2.0 * np.pi * 1.1) - 0.25 / 2.2
    assert m.log_marginal_likelihood() == pytest.approx(expected, abs=1e-12)


def test_lml_matches_dense_oracle():
    m = toy_model()
    K = m.kernel.gram(m.X)
    assert m.log_marginal_likelihood() == pytest.approx(
        dense_lml(K, m.y, m.noise_variance, m.mean), abs=1e-9
    )


def test_lml_permutation_invariant():
    m = toy_model(n=12)
    perm = np.random.default_rng(1).permutation(12)
    m2 = GPModel(m.kernel.copy(), m.X[perm], m.y[perm], m.noise_variance, m.mean)
    assert abs(m.log_marginal_likelihood() - m2.log_marginal_likelihood()) < 1e-10


# ---------------------------------------------------------------------------
# gradients


def test_gradient_matches_finite_differences():
    m = toy_model(seed=3, n=10)
    theta0 = m.log_params()
    an = m.grad_log_marginal_likelihood()

    def f(theta):
        m.set_log_params(theta)
        return m.log_marginal_likelihood()

    fd = central_diff(f, theta0, step=1e-5)
    m.set_log_params(theta0)
    assert an.shape == fd.shape == (m.kernel.n_params + 2,)
    np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-6)


def test_gradient_matches_finite_differences_ard_and_periodic():
    # the first gradient prepares the training inputs and later ones reuse
    # them, so a base that kept the hyperparameters it was built with fails here
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    k = kernels.ActiveDims([0, 1], kernels.SquaredExponential(1.2, [0.8, 1.5])) + (
        kernels.ActiveDims([2], kernels.Periodic(0.7, 1.1, 2.0))
    )
    m = GPModel(k, X, y, noise_variance=0.2, mean=0.1)
    m.grad_log_marginal_likelihood()
    theta0 = m.log_params() + rng.uniform(-0.3, 0.3, size=m.log_params().size)
    m.set_log_params(theta0)
    an = m.grad_log_marginal_likelihood()

    def f(theta):
        m.set_log_params(theta)
        return m.log_marginal_likelihood()

    fd = central_diff(f, theta0, step=1e-5)
    assert "periodic.log_lengthscale" in m.param_names()[4]
    assert abs(fd[4]) > 1e-3
    np.testing.assert_allclose(an, fd, rtol=1e-4, atol=1e-6)


def test_mean_gradient_zero_when_centered():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 1))
    m = GPModel(kernels.SquaredExponential(), X, np.full(6, 2.5), mean=2.5)
    grad = m.grad_log_marginal_likelihood()
    assert abs(grad[-1]) < 1e-10  # mean is the trailing parameter


def test_param_names_cover_kernel_noise_mean():
    m = toy_model()
    names = m.param_names()
    assert names[-1] == "mean"
    assert names[-2] == "log_noise_variance"
    assert len(names) == m.kernel.n_params + 2


# ---------------------------------------------------------------------------
# fitting


def test_fit_improves_objective():
    m = toy_model(seed=5, n=30)
    before = m.log_marginal_likelihood()
    res = m.fit(OptimizerOptions(max_iters=60, learning_rate=0.1))
    assert res.objective >= before
    assert m.log_marginal_likelihood() == pytest.approx(res.objective, abs=1e-9)
    assert set(res.params) == set(m.param_names())


def test_constant_targets_learn_the_constant():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 1))
    m = GPModel(kernels.SquaredExponential(), X, np.full(20, 3.7), mean=0.0)
    m.fit(OptimizerOptions(max_iters=400, learning_rate=0.1, tol=1e-10, patience=50))
    pred = m.predict(X)
    np.testing.assert_allclose(pred.mean, 3.7, atol=1e-3)


@pytest.mark.slow
def test_lengthscale_recovery_within_30_percent():
    true_ls, hits = 2.0, 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        X = rng.uniform(-10, 10, size=(200, 1))
        k_true = kernels.SquaredExponential(1.0, true_ls)
        K = k_true.gram(X) + 1e-10 * np.eye(200)
        f = np.linalg.cholesky(K) @ rng.normal(size=200)
        y = f + 0.1 * rng.normal(size=200)
        m = GPModel(kernels.SquaredExponential(1.0, 1.0), X, y, noise_variance=0.05)
        m.fit(OptimizerOptions(max_iters=250, learning_rate=0.08, tol=1e-9, patience=40))
        if abs(m.kernel.lengthscale - true_ls) <= 0.3 * true_ls:
            hits += 1
    assert hits >= 8, f"lengthscale recovered in only {hits}/10 runs"


# ---------------------------------------------------------------------------
# prediction


def test_posterior_matches_dense_oracle():
    m = toy_model(seed=7)
    Xq = np.random.default_rng(8).normal(size=(5, 2))
    pred = m.predict(Xq)
    mean_o, var_o = dense_posterior(m.kernel, m.X, m.y, m.noise_variance, m.mean, Xq)
    np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
    np.testing.assert_allclose(pred.latent_variance, var_o, atol=1e-8)
    np.testing.assert_allclose(
        pred.observed_variance, var_o + m.noise_variance, atol=1e-8
    )


def test_interpolates_training_points_with_tiny_noise():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    m = GPModel(kernels.SquaredExponential(1.0, 1.0), X, y, noise_variance=1e-10)
    pred = m.predict(X)
    np.testing.assert_allclose(pred.mean, y, atol=1e-4)


def test_reverts_to_prior_far_from_data():
    X = np.zeros((5, 1)) + np.linspace(0, 1, 5)[:, None]
    y = np.array([2.0, 2.1, 1.9, 2.2, 2.0])
    m = GPModel(kernels.SquaredExponential(1.0, 1.0), X, y, noise_variance=0.1, mean=-1.0)
    pred = m.predict(np.array([[25.0]]))  # >10 lengthscales away
    assert pred.mean[0] == pytest.approx(-1.0, abs=1e-3)
    assert pred.latent_variance[0] == pytest.approx(1.0, abs=1e-3)


def test_posterior_variance_never_exceeds_prior():
    m = toy_model(seed=10, n=40)
    Xq = np.random.default_rng(11).normal(size=(60, 2)) * 2.0
    pred = m.predict(Xq)
    prior = m.kernel.diag(Xq)
    assert np.all(pred.latent_variance <= prior + 1e-8)
    assert np.all(pred.latent_variance >= -1e-10)


def test_conditioning_on_more_data_shrinks_variance():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    k = kernels.SquaredExponential(1.0, 1.0)
    Xq = np.array([[0.1]])
    small = GPModel(k.copy(), X[:5], y[:5], 0.1).predict(Xq).latent_variance[0]
    big = GPModel(k.copy(), X, y, 0.1).predict(Xq).latent_variance[0]
    assert big <= small + 1e-10


def test_full_cov_consistent_with_diagonal():
    m = toy_model(seed=13)
    Xq = np.random.default_rng(14).normal(size=(6, 2))
    pred = m.predict(Xq)
    cov = dense_posterior_cov(m.kernel, m.X, m.noise_variance, Xq)
    np.testing.assert_allclose(np.diag(cov), pred.latent_variance, atol=1e-10)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() >= -1e-8


def test_factor_cache_invalidated_on_param_change():
    m = toy_model(seed=15)
    lml1 = m.log_marginal_likelihood()
    theta = m.log_params()
    theta[0] += 0.3
    m.set_log_params(theta)
    lml2 = m.log_marginal_likelihood()
    assert lml1 != lml2


def test_fit_ending_at_its_best_leaves_the_factor_for_predict(monkeypatch):
    m = toy_model(seed=16, n=20)
    res = m.fit(OptimizerOptions(max_iters=4, learning_rate=0.01))
    assert res.objective == res.objective_trace[-1] > res.objective_trace[0]
    factor = m._cache
    assert factor is not None

    def no_factor(A):
        raise AssertionError("predict factored the training Gram again")

    monkeypatch.setattr(exact_gp, "chol_with_jitter", no_factor)
    m.predict(np.random.default_rng(17).normal(size=(3, 2)))
    assert m._cache is factor
    # a vector equal bit for bit keeps the factor; any change drops it
    m.set_log_params(m.log_params())
    assert m._cache is factor
    theta = m.log_params()
    theta[-1] += 1e-12
    m.set_log_params(theta)
    assert m._cache is None


def forecast_model(n, seed):
    """An exact model on (lat, lon, time) rows with the forecast kernel:
    SE over space plus a daily × weekly product over time."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(size=(n, 2)), rng.uniform(0.0, 5.0, n)])
    y = np.sin(2.0 * np.pi * X[:, 2]) + 0.3 * rng.normal(size=n)
    k = kernels.SquaredExponential(1.0, 1.0, dims=[0, 1]) + kernels.Periodic(
        1.0, 1.0, 1.0, dims=[2]
    ) * kernels.Periodic(1.0, 1.0, 7.0, dims=[2])
    return GPModel(k, X, y, noise_variance=0.1)


def test_warm_fit_step_allocates_less_than_one_gram(monkeypatch):
    n = 300
    m = forecast_model(n, seed=18)
    peaks = []

    def three_steps(value_and_grad, x0, opts, **scorers):
        # inside the fit, with its workspace: two warm steps, then one traced
        for k in (1, 2):
            value_and_grad(x0 + 0.01 * k)
        tracemalloc.start()
        try:
            value_and_grad(x0 + 0.03)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return x0, 0.0, 3, False, []

    monkeypatch.setattr(exact_gp, "maximize", three_steps)
    m.fit()
    assert peaks[0] < n * n * 8
    assert m._workspace is None      # the fitted model keeps the factor alone


@pytest.fixture()
def two_blas_threads():
    """Every loaded OpenBLAS on two threads, as a library caller may leave it."""
    controls = linalg._openblas_thread_controls()
    saved = [control.get() for control in controls]
    for control in controls:
        control.set(2)
    yield
    for control, count in zip(controls, saved):
        control.set(count)


def test_fit_does_not_depend_on_the_callers_blas_threads(two_blas_threads):
    # the fit pins BLAS itself, so a pin around it changes nothing
    opts = OptimizerOptions(max_iters=5)
    outside = forecast_model(250, seed=19)
    outside.fit(opts)
    inside = forecast_model(250, seed=19)
    with linalg.single_threaded_blas():
        inside.fit(opts)
    assert np.array_equal(outside.log_params(), inside.log_params())
    Xq = np.random.default_rng(20).normal(size=(7, 3))
    assert np.array_equal(outside.predict(Xq).mean, inside.predict(Xq).mean)


def test_constructor_validates_shapes():
    with pytest.raises(InputError):
        GPModel(kernels.SquaredExponential(), np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(InputError):
        GPModel(kernels.SquaredExponential(), np.zeros((3, 2)), np.zeros(3), noise_variance=0.0)


# ---------------------------------------------------------------------------
# subsampling


def synth_dataset(n_sites=5, days=3, seed=0):
    res = synth_generate(sites=n_sites, days=days, seed=seed, missing_rate=0.0)
    return build_dataset(res.readings)


def test_subsample_identity_when_full():
    ds = synth_dataset()
    sub = subsample(ds, ds.n, seed=0)
    assert sub.n == ds.n
    np.testing.assert_allclose(np.sort(sub.y), np.sort(ds.y), atol=1e-12)


def test_subsample_deterministic_and_members():
    ds = synth_dataset()
    a = subsample(ds, 50, seed=3)
    b = subsample(ds, 50, seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    c = subsample(ds, 50, seed=4)
    assert not np.array_equal(a.X, c.X)
    # every subsampled row exists in the source
    src = {tuple(row) for row in ds.X}
    assert all(tuple(row) in src for row in a.X)
    # no repeats
    assert len({tuple(row) for row in a.X}) == 50


def test_subsample_too_large_rejected():
    ds = synth_dataset()
    with pytest.raises(InputError):
        subsample(ds, ds.n + 1, seed=0)


def test_subsample_keeps_normalization():
    ds = synth_dataset()
    sub = subsample(ds, 30, seed=1)
    np.testing.assert_allclose(sub.col_mean, ds.col_mean, atol=1e-12)
    np.testing.assert_allclose(sub.y_scale, ds.y_scale, atol=1e-12)
