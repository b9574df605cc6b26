import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensorgp import kernels
from sensorgp.errors import InputError
from helpers import (
    central_diff, dense_grad_x, difference_base, max_rel_err, unfused_gram,
    unfused_gram_and_grads,
)


def point(k, a, b):
    """k(a, b) for two input vectors."""
    return k.gram(a[None], b[None])[0, 0]


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
    assert point(k, np.array([0.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(
        2.0 * np.exp(-0.5), abs=1e-12
    )
    assert point(k, np.zeros(2), np.zeros(2)) == pytest.approx(2.0, abs=1e-15)


def test_se_lengthscale_scaling():
    k = kernels.SquaredExponential(variance=1.0, lengthscale=3.0)
    assert point(k, np.array([0.0]), np.array([3.0])) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_periodic_exact_period_and_antiphase():
    k = kernels.Periodic(variance=1.0, lengthscale=1.0, period=24.0)
    assert point(k, np.array([0.0]), np.array([24.0])) == pytest.approx(1.0, abs=1e-12)
    # half a period away: 2 sin^2(pi/2) / l^2 = 2
    assert point(k, np.array([0.0]), np.array([12.0])) == pytest.approx(
        np.exp(-2.0), abs=1e-12
    )


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
    val = point(ard, np.array([0.0, 0.0]), np.array([1.0, 2.0]))
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
        assert point(k, a, b) == point(k, b, a)


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
    # the helper only fills in the leaf's own argument
    leaf = kernels.SquaredExponential(1.0, 0.7, dims=[1, 3])
    assert np.array_equal(leaf.gram(X), k.gram(X))
    assert leaf.param_names() == k.param_names()


@pytest.mark.parametrize(
    "dims", [[], ["a"], [[0, 1]], [0.5], [1, 1], [-1], [True], [float("nan")]]
)
def test_malformed_dims_rejected(dims):
    with pytest.raises(InputError, match="dims"):
        kernels.from_config({"se": {"dims": dims}})
    with pytest.raises(InputError, match="dims"):
        kernels.from_config({"periodic": {"dims": dims}})
    with pytest.raises(InputError, match="dims"):
        kernels.ActiveDims(dims, kernels.SquaredExponential())


def test_active_dims_compose_inside_their_range():
    inner = kernels.SquaredExponential(dims=[0, 2])
    assert kernels.ActiveDims([4, 1, 3], inner).dims == [4, 3]
    assert inner.dims == [0, 2]  # the argument is copied, not changed
    with pytest.raises(InputError, match="out of range"):
        kernels.ActiveDims([4, 1], inner)


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
    v = point(k, a, b)
    assert 0.0 < v <= point(k, a, a) + 1e-12
    assert v == point(k, b, a)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 10),
    scale=st.floats(0.1, 30.0),
    period=st.floats(0.03, 10.0),
    sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_product_bases_match_differences(width, scale, period, sizes, seed):
    # the SE and fixed-period bases are squared distances of embeddings from
    # one matrix product; the direct difference route bounds their rounding
    rng = np.random.default_rng(seed)
    X, X2 = (scale * rng.normal(size=(n, width)) for n in sizes)
    se, periodic = kernels.SquaredExponential(), kernels.Periodic(period=period)
    for A, B in ((X, X2), (X, X)):
        norms = np.sum(A**2, axis=1)[:, None] + np.sum(B**2, axis=1)[None, :]
        error = np.abs(se.prepare(A, B).base[0] - difference_base(se, A, B))
        assert np.all(error <= 1e-14 * (1.0 + norms))
        reach = np.max(np.abs(A), axis=1)[:, None] + np.max(np.abs(B), axis=1)[None, :]
        error = np.abs(periodic.prepare(A, B).base[0] - difference_base(periodic, A, B))
        assert np.all(error <= 1e-13 * (1.0 + reach / period))
    # a self-Gram, also through leaves that pick their columns, is exactly
    # symmetric and its diagonal is the diagonal's own route
    tree = kernels.SquaredExponential(1.3, 0.9, dims=list(range(0, width, 2))) + (
        kernels.SquaredExponential(0.7, 1.6) * kernels.Periodic(1.1, 0.8, period, dims=[width - 1])
    )
    for k in (se, periodic, tree):
        K = k.gram(X)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.diag(K), k.diag(X))


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


def test_fd_gradients_ard():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 2))
    k = kernels.SquaredExponential(1.1, [0.7, 1.9])
    fd_check_hypers(k, X)


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
        # the cached route: inputs prepared once serve later parameter values
        prepared = k.prepare(X)
        assert np.array_equal(prepared.gram_and_vjp()[0], K)
        k.set_log_params(k.log_params() + 0.1)
        assert np.array_equal(prepared.gram_and_vjp()[0], k.gram(X))


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
# the reverse pass

WIDTH = 3
positive = st.floats(0.3, 3.0)


@st.composite
def leaves(draw):
    """An SE, ARD SE or periodic leaf, on all input columns or on a subset
    chosen by ActiveDims."""
    dims = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1, max_size=WIDTH, unique=True))
    wrap = draw(st.booleans())
    if not wrap:
        dims = list(range(WIDTH))
    kind = draw(st.sampled_from(["se", "ard", "periodic"]))
    variance, lengthscale = draw(positive), draw(positive)
    if kind == "se":
        leaf = kernels.SquaredExponential(variance, lengthscale)
    elif kind == "ard":
        leaf = kernels.SquaredExponential(variance, [draw(positive) for _ in dims])
    else:
        leaf = kernels.Periodic(variance, lengthscale, draw(st.floats(0.5, 5.0)))
    return kernels.ActiveDims(dims, leaf) if wrap else leaf


# sums and products nest either way round: a Sum under a Product stays one
kernel_trees = st.recursive(
    leaves(),
    lambda children: st.tuples(
        st.sampled_from([kernels.Sum, kernels.Product]),
        st.lists(children, min_size=1, max_size=3),
    ).map(lambda node: node[0](*node[1])),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(kernel=kernel_trees, seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
def test_reverse_pass_matches_dense_tangents(kernel, seed, diagonal):
    rng = np.random.default_rng(seed)
    X, X2 = rng.normal(size=(6, WIDTH)), rng.normal(size=(5, WIDTH))
    if diagonal:
        K, tangents = kernel.diag_and_grads(X)
        K_rev, vjp = kernel.prepare_diag(X).gram_and_vjp()
    else:
        K, tangents = kernel.gram_and_grads(X, X2)
        K_rev, vjp = kernel.prepare(X, X2).gram_and_vjp()
    assert np.array_equal(K_rev, K)
    Kbar = rng.normal(size=K.shape)
    reduced = vjp(Kbar)
    assert reduced.shape == (kernel.n_params,) == (len(tangents),)
    for p, dK in enumerate(tangents):
        # relative to the sum of magnitudes: the sum itself may cancel
        bound = 1e-12 * np.sum(np.abs(Kbar * dK))
        assert abs(reduced[p] - np.sum(Kbar * dK)) <= bound, kernel.param_names()[p]


@settings(max_examples=60, deadline=None)
@given(kernel=kernel_trees, seed=st.integers(0, 2**32 - 1))
def test_config_roundtrip_keeps_every_tree(kernel, seed):
    # a model file holds the tree with exp(θ) in decimal, whose log can land
    # an ulp away, and θ itself; read back through JSON, the two give the
    # same tree (shape, columns, options) and the same Gram bit for bit
    doc = json.loads(json.dumps(
        {"kernel": kernels.to_config(kernel), "log_params": kernel.log_params().tolist()}
    ))
    rebuilt = kernels.from_config(doc["kernel"])
    assert rebuilt.param_names() == kernel.param_names()
    np.testing.assert_allclose(rebuilt.log_params(), kernel.log_params(), rtol=1e-15, atol=1e-15)
    rebuilt.set_log_params(doc["log_params"])
    assert np.array_equal(rebuilt.log_params(), kernel.log_params())
    X = np.random.default_rng(seed).normal(size=(6, WIDTH))
    assert np.array_equal(rebuilt.gram(X), kernel.gram(X))
    assert kernels.to_config(rebuilt) == kernels.to_config(kernel)


# ---------------------------------------------------------------------------
# gradients with respect to inputs


def input_adjoint(kernel, X, X2, Kbar):
    theta_bar, Xbar = kernel.prepare(X, X2).gram_and_vjp()[1](Kbar, inputs=True)
    # asking for X̄ leaves θ̄ as it is
    assert np.array_equal(theta_bar, kernel.prepare(X, X2).gram_and_vjp()[1](Kbar))
    return Xbar


@pytest.mark.parametrize(
    "make_kernel",
    [
        random_tree,
        lambda rng: kernels.from_config({"product": [{"se": {}}]})
        + kernels.SquaredExponential(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
        # leaves whose columns overlap: column 2 gets three terms, column 1 one
        lambda rng: kernels.SquaredExponential(1.1, [0.8, 1.3], dims=[2, 0])
        * kernels.Periodic(0.9, 1.2, 3.0, dims=[2])
        + kernels.SquaredExponential(0.7, 1.4, dims=[1, 2]),
        lambda rng: kernels.SquaredExponential(1.3, rng.uniform(0.5, 2.0, size=3)),
    ],
    ids=["random-tree", "one-factor-product", "overlapping-dims", "ard"],
)
def test_grad_x_finite_difference(make_kernel):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(4, 3))
    Z = rng.normal(size=(5, 3))
    k = make_kernel(rng)
    Kbar = rng.normal(size=(4, 5))
    Xbar = input_adjoint(k, X, Z, Kbar)
    assert Xbar.shape == (4, 3)
    fd = central_diff(lambda x: np.sum(Kbar * k.gram(x.reshape(X.shape), Z)), X.ravel())
    np.testing.assert_allclose(Xbar, fd.reshape(X.shape), atol=1e-6)
    assert np.array_equal(k.grad_x(X, Z, Kbar), Xbar)


def test_grad_x_zero_at_coincident_points_for_se():
    k = kernels.SquaredExponential(1.0, 1.0)
    X = np.array([[0.3, -0.2]])
    np.testing.assert_allclose(k.grad_x(X, X, np.ones((1, 1))), 0.0, atol=1e-14)


def test_periodic_sees_only_the_phase():
    # inputs on a dyadic grid, so adding whole periods of 0.75 is exact: the
    # Gram and the input adjoint thousands of periods on keep every bit
    rng = np.random.default_rng(21)
    k = kernels.Periodic(1.3, 0.4, 0.75)
    X, X2 = rng.integers(0, 48, size=(4, 2)) / 64, rng.integers(0, 48, size=(5, 2)) / 64
    Kbar = rng.normal(size=(4, 5))
    far, far2 = X + 0.75 * 4096, X2 + 0.75 * 1000
    assert np.array_equal(k.gram(far, far2), k.gram(X, X2))
    assert np.array_equal(input_adjoint(k, far, far2, Kbar), input_adjoint(k, X, X2, Kbar))


def test_diagonal_has_no_input_adjoint():
    _, vjp = kernels.SquaredExponential().prepare_diag(np.zeros((3, 2))).gram_and_vjp()
    with pytest.raises(InputError, match="input adjoint"):
        vjp(np.ones(3), inputs=True)


@settings(max_examples=80, deadline=None)
@given(kernel=kernel_trees, seed=st.integers(0, 2**32 - 1))
def test_input_adjoint_contracts_dense_derivatives(kernel, seed):
    rng = np.random.default_rng(seed)
    X, X2 = rng.normal(size=(6, WIDTH)), rng.normal(size=(5, WIDTH))
    Kbar = rng.normal(size=(6, 5))
    terms = Kbar[..., None] * dense_grad_x(kernel, X, X2)
    # relative to the sum of magnitudes: the sum itself may cancel
    bound = 1e-12 * np.sum(np.abs(terms), axis=1)
    assert np.all(np.abs(input_adjoint(kernel, X, X2, Kbar) - terms.sum(axis=1)) <= bound)


# ---------------------------------------------------------------------------
# products of leaves as one exponential


@settings(max_examples=80, deadline=None)
@given(kernel=kernel_trees, seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
def test_fused_products_match_the_unfused_oracle(kernel, seed, diagonal):
    # the oracle multiplies every product out child by child
    rng = np.random.default_rng(seed)
    X, X2 = rng.normal(size=(6, WIDTH)), rng.normal(size=(5, WIDTH))
    K_ref, tangents = unfused_gram_and_grads(kernel, X, None if diagonal else X2)
    prepared = kernel.prepare_diag(X) if diagonal else kernel.prepare(X, X2)
    K, vjp = prepared.gram_and_vjp()
    assert np.all(np.abs(K - K_ref) <= 1e-13 * np.abs(K_ref) + np.finfo(float).tiny)
    Kbar = rng.normal(size=K.shape)
    reduced = vjp(Kbar)
    for p, dK in enumerate(tangents):
        bound = 1e-12 * np.sum(np.abs(Kbar * dK))
        assert abs(reduced[p] - np.sum(Kbar * dK)) <= bound, kernel.param_names()[p]
    if not diagonal:
        terms = Kbar[..., None] * dense_grad_x(kernel, X, X2)
        bound = 1e-12 * np.sum(np.abs(terms), axis=1)
        assert np.all(np.abs(vjp(Kbar, inputs=True)[1] - terms.sum(axis=1)) <= bound)


def traced_peak(f):
    """Peak bytes of traced (numpy included) memory allocated while f runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_of_a_product_peaks_no_higher_than_the_unfused_walk():
    # the walk drops each leaf's base before it builds the next one's
    rng = np.random.default_rng(16)
    X = np.column_stack([rng.normal(size=(200, 2)), rng.uniform(0.0, 5.0, 200)])
    X2 = np.column_stack([rng.normal(size=(300, 2)), rng.uniform(0.0, 5.0, 300)])
    k = (
        kernels.SquaredExponential(1.2, 0.8, dims=[0, 1])
        * kernels.Periodic(0.9, 1.1, 1.0, dims=[2])
        * kernels.Periodic(1.1, 0.7, 7.0, dims=[2])
    )
    fused = traced_peak(lambda: k.gram(X, X2))
    assert fused <= traced_peak(lambda: unfused_gram(k, X, X2))
    assert np.allclose(k.gram(X, X2), unfused_gram(k, X, X2), rtol=1e-13, atol=0.0)


def test_prepared_passes_reuse_their_arrays():
    # the workspace contract: a later call on the same instance overwrites
    # the earlier K, and a warm pass allocates no array of K's size
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, WIDTH))
    k = random_tree(rng)
    prepared = k.prepare(X)
    K1 = prepared.gram_and_vjp()[0]
    first = K1.copy()
    k.set_log_params(k.log_params() + 0.1)
    K2, vjp = prepared.gram_and_vjp()
    assert K2 is K1 and not np.array_equal(K2, first)
    assert np.array_equal(K2, k.gram(X))
    Kbar = rng.normal(size=K2.shape)
    assert traced_peak(lambda: vjp(Kbar)) < K2.nbytes
    assert traced_peak(prepared.gram_and_vjp) < K2.nbytes


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
    assert k.ard
    np.testing.assert_allclose(np.atleast_1d(k.lengthscale), [2.0, 2.0, 2.0])
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


@pytest.mark.parametrize(
    "node, named",
    [
        ({"se": [1]}, "se kernel config must be a mapping"),
        ({"se": {"variance": "a"}}, "se kernel variance"),
        ({"periodic": {"period": [1, 2]}}, "periodic kernel period"),
        ({"se": {"lengthscale": None}}, "se kernel lengthscale"),
        ({"periodic": {"variance": float("nan")}}, "periodic kernel variance"),
        ({"se": {"ard": "yes", "dims": [0]}}, "se kernel ard"),
        ({"periodic": {"learn_period": True}}, "unknown key 'learn_period'"),
    ],
    ids=["body-not-mapping", "string-variance", "list-period", "null-lengthscale",
         "nan-variance", "string-flag", "learned-period"],
)
def test_config_values_fail_with_a_named_error(node, named):
    with pytest.raises(InputError, match=named):
        kernels.from_config(node)


def test_rescale_periods_divides_by_column_scale():
    node = {
        "sum": [
            {"se": {"dims": [0, 1]}},
            {"periodic": {"dims": [2], "period": 24.0}},
        ]
    }
    k = kernels.from_config(node)
    scaled = kernels.rescale_periods(k, np.array([1.0, 1.0, 8.0]))
    leaf = scaled.children[1]
    assert leaf.period == pytest.approx(3.0, rel=1e-12)
    # original untouched
    assert k.children[1].period == pytest.approx(24.0)


def test_rescale_periods_requires_single_column():
    k = kernels.from_config({"periodic": {"dims": [0, 1], "period": 24.0}})
    with pytest.raises(InputError):
        kernels.rescale_periods(k, np.ones(2))
    with pytest.raises(InputError):
        kernels.rescale_periods(kernels.Periodic(), np.ones(1))
