import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensorgp import kernels
from sensorgp.errors import InputError
from helpers import central_diff, max_rel_err


def random_tree(rng, d=3):
    """A representative composite: SE on space + daily*weekly product on time."""
    k = kernels.ActiveDims(
        list(range(d - 1)),
        kernels.SquaredExponential(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
    ) + kernels.ActiveDims(
        [d - 1],
        kernels.Periodic(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 24.0)
        * kernels.Periodic(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 168.0),
    )
    return k


# ---------------------------------------------------------------------------
# closed-form values


def test_se_unit_distance():
    k = kernels.SquaredExponential(variance=2.0, lengthscale=1.0)
    assert k(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(
        2.0 * np.exp(-0.5), abs=1e-12
    )
    assert k(np.zeros(2), np.zeros(2)) == pytest.approx(2.0, abs=1e-15)


def test_se_lengthscale_scaling():
    k = kernels.SquaredExponential(variance=1.0, lengthscale=3.0)
    assert k(np.array([0.0]), np.array([3.0])) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_periodic_exact_period_and_antiphase():
    k = kernels.Periodic(variance=1.0, lengthscale=1.0, period=24.0)
    assert k(np.array([0.0]), np.array([24.0])) == pytest.approx(1.0, abs=1e-12)
    # half a period away: 2 sin^2(pi/2) / l^2 = 2
    assert k(np.array([0.0]), np.array([12.0])) == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_periodicity_in_shifts():
    k = kernels.Periodic(variance=1.3, lengthscale=0.7, period=24.0)
    x = np.linspace(0.0, 30.0, 11)[:, None]
    base = k.gram(x, np.zeros((1, 1)))
    for m in (1, 3, 10):
        shifted = k.gram(x + 24.0 * m, np.zeros((1, 1)))
        assert np.max(np.abs(shifted - base)) < 1e-12


def test_ard_se_matches_isotropic_when_equal():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    iso = kernels.SquaredExponential(1.5, 0.8)
    ard = kernels.SquaredExponential(1.5, [0.8, 0.8, 0.8])
    assert ard.ard and not iso.ard
    np.testing.assert_allclose(ard.gram(X), iso.gram(X), atol=1e-14)


def test_ard_se_scales_each_dimension():
    ard = kernels.SquaredExponential(1.0, [1.0, 2.0])
    val = ard(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert val == pytest.approx(np.exp(-0.5 * (1.0 + 1.0)), abs=1e-12)


# ---------------------------------------------------------------------------
# structural invariants


@pytest.mark.parametrize("seed", range(4))
def test_gram_psd(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3)) * [1.0, 1.0, 30.0]
    K = random_tree(rng).gram(X)
    eig = np.linalg.eigvalsh(K)
    assert eig.min() >= -1e-8 * max(1.0, eig.max())


def test_gram_symmetry_exact():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(15, 3))
    K = random_tree(rng).gram(X)
    assert np.array_equal(K, K.T)


def test_point_symmetry_exact():
    rng = np.random.default_rng(2)
    k = random_tree(rng)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert k(a, b) == k(b, a)


def test_bounded_by_variance_at_zero():
    rng = np.random.default_rng(3)
    k = random_tree(rng)
    X = rng.normal(size=(50, 3)) * [1.0, 1.0, 100.0]
    K = k.gram(X)
    d = k.diag(X)
    assert np.all(K <= d[:, None] + 1e-12)
    assert np.all(K > 0.0)


def test_diag_matches_gram_diagonal():
    rng = np.random.default_rng(4)
    k = random_tree(rng)
    X = rng.normal(size=(12, 3))
    np.testing.assert_allclose(np.diag(k.gram(X)), k.diag(X), atol=1e-12)


def test_sum_and_product_combine_grams():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 2))
    a = kernels.SquaredExponential(1.2, 0.9)
    b = kernels.Periodic(0.7, 1.1, 3.0)
    np.testing.assert_allclose((a + b).gram(X), a.gram(X) + b.gram(X), atol=1e-14)
    np.testing.assert_allclose((a * b).gram(X), a.gram(X) * b.gram(X), atol=1e-14)


def test_nested_sums_flatten():
    a, b, c = (kernels.SquaredExponential() for _ in range(3))
    k = a + b + c
    assert isinstance(k, kernels.Sum) and len(k.children) == 3
    k2 = a * b * c
    assert isinstance(k2, kernels.Product) and len(k2.children) == 3


def test_active_dims_slices_columns():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(9, 4))
    child = kernels.SquaredExponential(1.0, 0.7)
    k = kernels.ActiveDims([1, 3], child)
    np.testing.assert_allclose(k.gram(X), child.gram(X[:, [1, 3]]), atol=1e-15)
    np.testing.assert_allclose(k.diag(X), child.diag(X[:, [1, 3]]), atol=1e-15)


def test_dimension_mismatch_rejected():
    k = kernels.SquaredExponential()
    with pytest.raises(InputError):
        k.gram(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(InputError):
        kernels.ActiveDims([5], kernels.SquaredExponential()).gram(np.zeros((3, 2)))


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50), min_size=1, max_size=1),
    y=st.lists(st.floats(-50, 50), min_size=1, max_size=1),
)
def test_property_bounded_and_symmetric(x, y):
    k = kernels.SquaredExponential(1.7, 0.6) + kernels.Periodic(0.4, 1.2, 24.0)
    a, b = np.array(x), np.array(y)
    v = k(a, b)
    assert 0.0 < v <= k(a, a) + 1e-12
    assert v == k(b, a)


# ---------------------------------------------------------------------------
# hyperparameter gradients


def fd_check_hypers(kernel, X, step=1e-5, tol=1e-5):
    K, grads = kernel.gram_and_grads(X, X)
    assert len(grads) == kernel.n_params
    theta0 = kernel.log_params()
    for j in range(kernel.n_params):
        def entry_sum(v, j=j):
            trial = kernel.copy()
            t = theta0.copy()
            t[j] = v
            trial.set_log_params(t)
            return float(np.sum(trial.gram(X)))
        h = step * max(1.0, abs(theta0[j]))
        fd = (entry_sum(theta0[j] + h) - entry_sum(theta0[j] - h)) / (2.0 * h)
        an = float(np.sum(grads[j]))
        assert abs(fd - an) <= tol * max(1.0, abs(fd) + abs(an)), (
            kernel.param_names()[j],
            fd,
            an,
        )


def test_variance_gradient_is_gram():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 2))
    for k in (
        kernels.SquaredExponential(1.4, 0.8),
        kernels.Periodic(0.9, 1.1, 5.0),
    ):
        K, grads = k.gram_and_grads(X)
        names = k.param_names()
        idx = [i for i, n in enumerate(names) if "variance" in n][0]
        np.testing.assert_allclose(grads[idx], K, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_fd_gradients_random_hypers(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(7, 3)) * [1.0, 1.0, 10.0]
    k = random_tree(rng)
    theta = np.log(rng.uniform(0.1, 10.0, size=k.n_params))
    k.set_log_params(theta)
    fd_check_hypers(k, X)


def test_fd_gradients_ard_and_learned_period():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 2))
    k = kernels.SquaredExponential(1.1, [0.7, 1.9])
    fd_check_hypers(k, X)
    kp = kernels.Periodic(1.0, 0.9, 3.3, learn_period=True)
    assert kp.n_params == 3
    fd_check_hypers(kp, X[:, :1])


def test_product_gradient_uses_product_rule():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(5, 1))
    a = kernels.SquaredExponential(1.2, 0.8)
    b = kernels.Periodic(0.9, 1.3, 2.0)
    k = a * b
    fd_check_hypers(k, X)
    # the variance grads of a product leaf equal the full product gram
    K, grads = k.gram_and_grads(X)
    names = k.param_names()
    for i, n in enumerate(names):
        if n.endswith("log_variance"):
            np.testing.assert_allclose(grads[i], K, atol=1e-12)


def test_gram_and_grads_matrix_is_gram_bit_for_bit():
    # the exact GP factors the matrix gram_and_grads returns, so its value
    # must not depend on which of the two calls built it
    rng = np.random.default_rng(14)
    X = rng.normal(size=(9, 3))
    three = (
        kernels.SquaredExponential(1.3, 0.7)
        * kernels.Periodic(0.8, 1.1, 2.0)
        * kernels.ActiveDims([0, 2], kernels.SquaredExponential(0.5, [1.0, 2.0]))
    )
    for k in (random_tree(rng), three + kernels.SquaredExponential(0.3, 1.5)):
        K, _ = k.gram_and_grads(X)
        assert np.array_equal(K, k.gram(X))


def test_diag_and_grads_consistent():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 3))
    k = random_tree(rng)
    K, grads = k.gram_and_grads(X)
    d, dgrads = k.diag_and_grads(X)
    np.testing.assert_allclose(d, np.diag(K), atol=1e-13)
    for g, dg in zip(grads, dgrads):
        np.testing.assert_allclose(dg, np.diag(g), atol=1e-13)


# ---------------------------------------------------------------------------
# gradients with respect to inputs


@pytest.mark.parametrize(
    "make_kernel",
    [
        random_tree,
        lambda rng: kernels.from_config({"product": [{"se": {}}]})
        + kernels.SquaredExponential(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
    ],
    ids=["random-tree", "one-factor-product"],
)
def test_grad_x_finite_difference(make_kernel):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(4, 3))
    Z = rng.normal(size=(5, 3))
    k = make_kernel(rng)
    G = k.grad_x(X, Z)
    assert G.shape == (4, 5, 3)
    h = 1e-6
    for d in range(3):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, d] += h
        Xm[:, d] -= h
        fd = (k.gram(Xp, Z) - k.gram(Xm, Z)) / (2.0 * h)
        np.testing.assert_allclose(G[:, :, d], fd, atol=1e-6)


def test_grad_x_zero_at_coincident_points_for_se():
    k = kernels.SquaredExponential(1.0, 1.0)
    X = np.array([[0.3, -0.2]])
    G = k.grad_x(X, X)
    np.testing.assert_allclose(G, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# parameter vector plumbing


def test_log_param_roundtrip_and_names():
    rng = np.random.default_rng(15)
    k = random_tree(rng)
    theta = rng.normal(size=k.n_params)
    k.set_log_params(theta)
    np.testing.assert_allclose(k.log_params(), theta, atol=1e-15)
    names = k.param_names()
    assert len(names) == k.n_params
    assert len(set(names)) == len(names)


def test_set_log_params_wrong_size():
    k = kernels.SquaredExponential()
    with pytest.raises(InputError):
        k.set_log_params(np.zeros(5))


def test_copy_is_independent():
    k = kernels.SquaredExponential(1.0, 1.0)
    k2 = k.copy()
    k2.set_log_params(np.log([4.0, 2.0]))
    assert k.variance == pytest.approx(1.0)
    assert k2.variance == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# config grammar


def test_config_roundtrip_composite():
    node = {
        "sum": [
            {"se": {"dims": [0, 1], "variance": 1.5, "lengthscale": 0.7}},
            {
                "product": [
                    {"periodic": {"dims": [2], "period": 24.0, "lengthscale": 0.9}},
                    {"periodic": {"dims": [2], "period": 168.0}},
                ]
            },
        ]
    }
    k = kernels.from_config(node)
    rng = np.random.default_rng(16)
    X = rng.normal(size=(6, 3))
    k2 = kernels.from_config(kernels.to_config(k))
    np.testing.assert_allclose(k.gram(X), k2.gram(X), atol=1e-15)
    np.testing.assert_allclose(k.log_params(), k2.log_params(), atol=1e-12)


def test_config_distributes_dims_over_composites():
    # ActiveDims([d], A * B) has no direct config form; the dims must be
    # pushed into each branch without changing the gram
    k = kernels.ActiveDims(
        [0, 1], kernels.SquaredExponential(1.2, 0.8)
    ) + kernels.ActiveDims(
        [2], kernels.Periodic(1.0, 1.0, 24.0) * kernels.Periodic(0.7, 1.3, 168.0)
    )
    rng = np.random.default_rng(21)
    X = rng.normal(size=(7, 3))
    config = kernels.to_config(k)
    k2 = kernels.from_config(config)
    np.testing.assert_allclose(k.gram(X), k2.gram(X), atol=1e-15)
    np.testing.assert_allclose(sorted(k.log_params()), sorted(k2.log_params()),
                               atol=1e-12)


def test_config_composes_nested_active_dims():
    # outer picks columns [2, 0]; inner index 1 addresses that slice, so the
    # flattened config must point at original column 0
    k = kernels.ActiveDims(
        [2, 0], kernels.ActiveDims([1], kernels.SquaredExponential(1.0, 0.5))
    )
    config = kernels.to_config(k)
    assert config["se"]["dims"] == [0]
    rng = np.random.default_rng(22)
    X = rng.normal(size=(5, 3))
    np.testing.assert_allclose(
        kernels.from_config(config).gram(X), k.gram(X), atol=1e-15
    )


def test_config_ard_expansion():
    k = kernels.from_config({"se": {"dims": [0, 1, 2], "ard": True, "lengthscale": 2.0}})
    inner = k.child
    assert inner.ard
    np.testing.assert_allclose(np.atleast_1d(inner.lengthscale), [2.0, 2.0, 2.0])
    k2 = kernels.from_config({"se": {"ard": True}}, n_dims=4)
    assert len(np.atleast_1d(k2.lengthscale)) == 4


def test_config_errors_name_the_problem():
    with pytest.raises(InputError, match="bogus"):
        kernels.from_config({"se": {"bogus": 1}})
    with pytest.raises(InputError, match="unknown kernel kind"):
        kernels.from_config({"spline": {}})
    with pytest.raises(InputError):
        kernels.from_config({"sum": []})
    with pytest.raises(InputError):
        kernels.from_config({"se": {"ard": True}})  # no way to size lengthscales
    with pytest.raises(InputError):
        kernels.from_config("se")


def test_rescale_periods_divides_by_column_scale():
    node = {
        "sum": [
            {"se": {"dims": [0, 1]}},
            {"periodic": {"dims": [2], "period": 24.0}},
        ]
    }
    k = kernels.from_config(node)
    scaled = kernels.rescale_periods(k, np.array([1.0, 1.0, 8.0]))
    leaf = scaled.children[1].child
    assert leaf.period == pytest.approx(3.0, rel=1e-12)
    # original untouched
    assert k.children[1].child.period == pytest.approx(24.0)


def test_rescale_periods_requires_single_column():
    k = kernels.from_config({"periodic": {"dims": [0, 1], "period": 24.0}})
    with pytest.raises(InputError):
        kernels.rescale_periods(k, np.ones(2))
    with pytest.raises(InputError):
        kernels.rescale_periods(kernels.Periodic(), np.ones(1))
