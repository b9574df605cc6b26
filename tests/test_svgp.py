import numpy as np
import pytest

from sensorgp import kernels
from sensorgp.errors import InputError
from sensorgp.exact_gp import GPModel
from sensorgp.optim import OptimizerOptions
from sensorgp.svgp import SVGPModel, init_inducing
from helpers import central_diff, svgp_posterior_cov


def make_problem(seed=0, n=40, d=2, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    k = kernels.SquaredExponential(1.0, 1.2)
    K = k.gram(X) + 1e-10 * np.eye(n)
    f = np.linalg.cholesky(K) @ rng.standard_normal(n)
    y = f + np.sqrt(noise) * rng.standard_normal(n)
    return X, y, k


# ---------------------------------------------------------------------------
# inducing point initialization


def test_init_inducing_all_points_when_m_equals_n():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 2))
    Z = init_inducing(X, 12, seed=0)
    assert Z.shape == (12, 2)
    assert {tuple(r) for r in Z} == {tuple(r) for r in X}


def test_init_inducing_subset_of_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 3))
    Z = init_inducing(X, 7, seed=2)
    assert Z.shape == (7, 3)
    rows = {tuple(r) for r in X}
    assert all(tuple(z) in rows for z in Z)
    assert len({tuple(z) for z in Z}) == 7


def test_init_inducing_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 2))
    np.testing.assert_array_equal(init_inducing(X, 5, seed=3), init_inducing(X, 5, seed=3))


def test_init_inducing_spreads_points():
    # two tight clusters: 2 inducing points should land one per cluster
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0, 0.01, size=(20, 1)), rng.normal(10, 0.01, size=(20, 1))])
    Z = init_inducing(X, 2, seed=0)
    assert abs(Z[0, 0] - Z[1, 0]) > 5.0


def test_init_inducing_bad_m():
    X = np.zeros((4, 1))
    with pytest.raises(InputError):
        init_inducing(X, 0)


# ---------------------------------------------------------------------------
# ELBO structure


def test_kl_zero_for_whitened_prior():
    X, y, k = make_problem()
    m = SVGPModel(k.copy(), X, y, inducing=5, seed=0)
    # whitened mean 0 and identity factor make q(u) the prior; the ELBO then
    # equals the expected log likelihood alone, which we recompute directly
    m._m_w[:] = 0.0
    m._c_pack[:] = 0.0  # log-diagonal zeros -> identity factor
    elbo = m.elbo()
    mu = np.full(len(y), m.mean)
    var = k.diag(X)  # with q(u) equal to the prior the marginal is the prior
    s2 = m.noise_variance
    fit = np.sum(
        -0.5 * np.log(2 * np.pi * s2) - ((y - mu) ** 2 + var) / (2 * s2)
    )
    assert elbo == pytest.approx(fit, abs=1e-9)


def test_elbo_batch_average_equals_full():
    X, y, k = make_problem(n=48)
    m = SVGPModel(k.copy(), X, y, inducing=6, seed=1)
    rng = np.random.default_rng(4)
    m._m_w[:] = rng.normal(size=m.n_inducing)
    full = m.elbo()
    batches = np.array_split(rng.permutation(48), 4)
    assert all(len(b) == 12 for b in batches)
    avg = np.mean([m.elbo(batch=b) for b in batches])
    assert avg == pytest.approx(full, abs=1e-8)


def test_elbo_is_lower_bound():
    for seed in range(5):
        X, y, k = make_problem(seed=seed, n=60)
        lml = GPModel(k.copy(), X, y, noise_variance=0.1).log_marginal_likelihood()
        m = SVGPModel(k.copy(), X, y, inducing=8, seed=seed)
        m.set_optimal_variational()
        assert m.elbo() <= lml + 1e-8


def test_collapse_with_full_inducing_set():
    X, y, k = make_problem(seed=6, n=50)
    exact = GPModel(k.copy(), X, y, noise_variance=0.1, mean=0.2)
    m = SVGPModel(k.copy(), X, y, inducing=X.copy(), noise_variance=0.1, mean=0.2)
    m.set_optimal_variational()
    assert m.elbo() == pytest.approx(exact.log_marginal_likelihood(), abs=1e-6)
    Xq = np.random.default_rng(7).uniform(-3, 3, size=(20, 2))
    ps, pe = m.predict(Xq), exact.predict(Xq)
    np.testing.assert_allclose(ps.mean, pe.mean, atol=1e-6)
    np.testing.assert_allclose(ps.latent_variance, pe.latent_variance, atol=1e-6)


# ---------------------------------------------------------------------------
# gradients


def fd_model_grad(m, include_inducing, batch=None):
    theta0 = m.log_params(include_inducing)
    _, an = m.elbo_and_grad(batch=batch, include_inducing=include_inducing)

    def f(theta):
        m.set_log_params(theta, include_inducing)
        return m.elbo(batch=batch)

    fd = central_diff(f, theta0, step=1e-6)
    m.set_log_params(theta0, include_inducing)
    return an, fd


@pytest.mark.parametrize("include_inducing", [False, True])
def test_elbo_gradients_match_fd(include_inducing):
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, size=(20, 2))
    y = rng.standard_normal(20)
    k = kernels.SquaredExponential(1.1, 0.9) + kernels.ActiveDims(
        [1], kernels.Periodic(0.7, 1.3, 2.0)
    )
    m = SVGPModel(k, X, y, inducing=3, noise_variance=0.2, seed=0, mean=0.1)
    m._m_w[:] = 0.3 * rng.standard_normal(3)
    m._c_pack[:] = 0.1 * rng.standard_normal(m._c_pack.size)
    an, fd = fd_model_grad(m, include_inducing)
    assert an.shape == fd.shape
    np.testing.assert_allclose(an, fd, rtol=2e-4, atol=1e-7)


def test_elbo_gradient_minibatch_scaling():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(16, 1))
    y = rng.standard_normal(16)
    m = SVGPModel(kernels.SquaredExponential(), X, y, inducing=4, seed=1)
    batch = np.arange(8)
    an, fd = fd_model_grad(m, False, batch=batch)
    np.testing.assert_allclose(an, fd, rtol=2e-4, atol=1e-7)


# ---------------------------------------------------------------------------
# fitting


def test_fit_deterministic_per_seed():
    X, y, k = make_problem(seed=10, n=60)
    opts = OptimizerOptions(max_iters=40, seed=5, batch_size=16)
    r1 = SVGPModel(k.copy(), X, y, inducing=6, seed=2).fit(opts, optimize_inducing=False)
    r2 = SVGPModel(k.copy(), X, y, inducing=6, seed=2).fit(opts, optimize_inducing=False)
    assert r1.params == r2.params
    assert r1.objective == r2.objective


def test_fit_improves_elbo_and_tracks_best():
    X, y, k = make_problem(seed=11, n=80)
    m = SVGPModel(k.copy(), X, y, inducing=10, seed=3)
    before = m.elbo()
    res = m.fit(OptimizerOptions(max_iters=150, batch_size=32, eval_every=25))
    assert res.objective > before
    assert res.objective == pytest.approx(max(res.objective_trace), abs=1e-9)
    assert m.elbo() == pytest.approx(res.objective, abs=1e-7)


def test_fit_moves_inducing_points_when_asked():
    X, y, k = make_problem(seed=12, n=50)
    m = SVGPModel(k.copy(), X, y, inducing=5, seed=4)
    z0 = m.Z.copy()
    m.fit(OptimizerOptions(max_iters=60, batch_size=25), optimize_inducing=True)
    assert np.max(np.abs(m.Z - z0)) > 1e-6
    m2 = SVGPModel(k.copy(), X, y, inducing=5, seed=4)
    z0 = m2.Z.copy()
    m2.fit(OptimizerOptions(max_iters=60, batch_size=25), optimize_inducing=False)
    np.testing.assert_array_equal(m2.Z, z0)


@pytest.mark.slow
def test_full_inducing_matches_exact_rmse():
    # M = n with Z at the training inputs: predictions collapse to the exact GP
    rng = np.random.default_rng(13)
    n = 100
    X = rng.uniform(-4, 4, size=(n, 1))
    f = np.sin(1.5 * X[:, 0])
    y = f + 0.1 * rng.standard_normal(n)
    Xq = rng.uniform(-4, 4, size=(200, 1))
    fq = np.sin(1.5 * Xq[:, 0])

    m = SVGPModel(kernels.SquaredExponential(), X, y, inducing=X.copy(), noise_variance=0.05)
    m.fit(
        OptimizerOptions(max_iters=300, batch_size=n, learning_rate=0.05, eval_every=25),
        optimize_inducing=False,
    )
    exact = GPModel(kernels.SquaredExponential(), X, y, noise_variance=0.05)
    exact.kernel.set_log_params(m.kernel.log_params())
    exact._log_noise = m._log_noise
    exact.mean = m.mean
    rmse_svgp = np.sqrt(np.mean((m.predict(Xq).mean - fq) ** 2))
    rmse_exact = np.sqrt(np.mean((exact.predict(Xq).mean - fq) ** 2))
    assert abs(rmse_svgp - rmse_exact) <= 1e-2


# ---------------------------------------------------------------------------
# prediction


def test_predict_reverts_to_prior_far_away():
    X, y, k = make_problem(seed=14)
    m = SVGPModel(k.copy(), X, y, inducing=6, mean=0.5)
    m.set_optimal_variational()
    p = m.predict(np.array([[60.0, 60.0]]))
    assert p.mean[0] == pytest.approx(0.5, abs=1e-3)
    assert p.latent_variance[0] == pytest.approx(k.variance, abs=1e-3)


def test_predict_variances_nonnegative_and_ordered():
    X, y, k = make_problem(seed=15, n=70)
    m = SVGPModel(k.copy(), X, y, inducing=9, seed=5)
    m.set_optimal_variational()
    Xq = np.random.default_rng(16).uniform(-6, 6, size=(1000, 2))
    p = m.predict(Xq)
    assert np.all(p.latent_variance >= -1e-10)
    np.testing.assert_allclose(
        p.observed_variance - p.latent_variance, m.noise_variance, atol=1e-10
    )


def test_predict_full_cov():
    X, y, k = make_problem(seed=17)
    m = SVGPModel(k.copy(), X, y, inducing=6, seed=6)
    m.set_optimal_variational()
    Xq = np.random.default_rng(18).uniform(-2, 2, size=(5, 2))
    p = m.predict(Xq)
    cov = svgp_posterior_cov(m, Xq)
    np.testing.assert_allclose(np.diag(cov), p.latent_variance, atol=1e-10)
    assert np.linalg.eigvalsh(cov).min() >= -1e-8


def test_constructor_validation():
    X = np.zeros((5, 2))
    with pytest.raises(InputError):
        SVGPModel(kernels.SquaredExponential(), X, np.zeros(4), inducing=3)
    with pytest.raises(InputError):
        SVGPModel(kernels.SquaredExponential(), X, np.zeros(5), inducing=0)


def test_fit_rejects_zero_observations():
    # a model loaded from a file has inducing locations but no training rows
    m = SVGPModel(
        kernels.SquaredExponential(), np.zeros((0, 2)), np.zeros(0),
        inducing=np.zeros((3, 2)), mean=0.0,
    )
    with pytest.raises(InputError, match="zero observations"):
        m.fit()


@pytest.mark.slow
def test_elbo_within_five_percent_of_subsampled_exact():
    # a large-ish problem: the per-point ELBO should approach the per-point
    # exact marginal likelihood of a 1000-point subsample
    rng = np.random.default_rng(19)
    n = 5000
    X = rng.uniform(-5, 5, size=(n, 2))
    k_true = kernels.SquaredExponential(1.0, 1.5)
    f = np.linalg.cholesky(k_true.gram(X) + 1e-8 * np.eye(n)) @ rng.standard_normal(n)
    y = f + 0.3 * rng.standard_normal(n)

    m = SVGPModel(
        kernels.SquaredExponential(1.0, 1.0), X, y, inducing=50, noise_variance=0.2, seed=0
    )
    m.fit(
        OptimizerOptions(max_iters=2000, batch_size=256, learning_rate=0.05, eval_every=100),
        optimize_inducing=True,
    )
    idx = rng.choice(n, size=1000, replace=False)
    exact = GPModel(kernels.SquaredExponential(1.0, 1.0), X[idx], y[idx], noise_variance=0.2)
    exact.fit(OptimizerOptions(max_iters=150, learning_rate=0.08))
    per_point_elbo = m.elbo() / n
    per_point_lml = exact.log_marginal_likelihood() / 1000
    assert abs(per_point_elbo - per_point_lml) <= 0.05 * abs(per_point_lml)
