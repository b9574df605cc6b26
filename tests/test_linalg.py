import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from sensorgp import linalg
from sensorgp.errors import NumericalError


def spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_chol_no_jitter_for_well_conditioned():
    rng = np.random.default_rng(0)
    A = spd(rng, 6)
    L, jitter = linalg.chol_with_jitter(A)
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, A, atol=1e-10)
    assert np.allclose(L, np.tril(L))


def test_chol_escalates_jitter_for_singular():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    L, jitter = linalg.chol_with_jitter(A)
    assert jitter > 0.0
    np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(2), atol=1e-10)
    # first rung of the ladder relative to the mean diagonal
    assert jitter == pytest.approx(1e-8 * np.mean(np.diag(A)))


def test_chol_gives_up_with_level_list():
    A = -np.eye(3)
    with pytest.raises(NumericalError) as exc:
        linalg.chol_with_jitter(A)
    levels = exc.value.jitter_levels
    assert levels[0] == 0.0
    assert len(levels) == 8
    # mean diagonal is negative, so the ladder falls back to an absolute scale
    assert levels[-1] == pytest.approx(1e-2)
    assert "jitter" in str(exc.value)


def test_chol_factors_in_place_and_leaves_the_input():
    # the factor of A + diagonal·I lands in `out`, zeros above; A is unchanged,
    # and a failed level is refilled from A before the next
    rng = np.random.default_rng(1)
    A = spd(rng, 5)
    kept = A.copy()
    out = np.empty_like(A)
    L, jitter = linalg.chol_with_jitter(A, 0.5, out=out)
    assert L is out and jitter == 0.0
    assert np.array_equal(A, kept)
    assert np.array_equal(L, np.tril(L))
    np.testing.assert_allclose(L @ L.T, A + 0.5 * np.eye(5), rtol=1e-12)
    singular = np.ones((3, 3))
    L, jitter = linalg.chol_with_jitter(singular, 0.0, out=np.empty((3, 3)))
    assert jitter == pytest.approx(1e-8)
    np.testing.assert_allclose(L @ L.T, singular + jitter * np.eye(3), atol=1e-12)


def test_chol_rejects_non_finite_entries():
    A = np.eye(3)
    A[2, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite") as exc:
        linalg.chol_with_jitter(A)
    assert exc.value.jitter_levels == []


def test_chol_inverse_lower_in_place():
    rng = np.random.default_rng(2)
    A = spd(rng, 6)
    L, _ = linalg.chol_with_jitter(A)
    out = np.empty_like(L)
    inv = linalg.chol_inverse_lower(L, out=out)
    assert inv is out
    np.testing.assert_array_equal(inv, linalg.chol_inverse_lower(L))
    np.testing.assert_allclose(inv, np.tril(np.linalg.inv(A)), atol=1e-12)


def test_tri_solve_matches_numpy():
    rng = np.random.default_rng(1)
    L = np.linalg.cholesky(spd(rng, 5))
    B = rng.normal(size=(5, 3))
    np.testing.assert_allclose(linalg.tri_solve(L, B), np.linalg.solve(L, B), atol=1e-10)
    np.testing.assert_allclose(
        linalg.tri_solve(L, B, trans=True), np.linalg.solve(L.T, B), atol=1e-10
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 60),
    cols=st.one_of(st.none(), st.integers(0, 80)),
    trans=st.booleans(),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tri_solve_is_scipy_bit_for_bit(n, cols, trans, fortran, seed):
    # cols None is a 1-D right-hand side; fortran puts L in Fortran order
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(spd(rng, n))
    if fortran:
        L = np.asfortranarray(L)
    B = rng.normal(size=n if cols is None else (n, cols))
    got = linalg.tri_solve(L, B, trans=trans)
    want = solve_triangular(L, B, lower=True, trans=int(trans), check_finite=False)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_chol_solve_matches_inverse():
    rng = np.random.default_rng(2)
    A = spd(rng, 7)
    L = np.linalg.cholesky(A)
    b = rng.normal(size=7)
    np.testing.assert_allclose(linalg.chol_solve(L, b), np.linalg.inv(A) @ b, atol=1e-9)


def test_chol_inverse_lower_is_the_inverse_lower_triangle():
    rng = np.random.default_rng(3)
    A = spd(rng, 7)
    L, _ = linalg.chol_with_jitter(A)
    inv = linalg.chol_inverse_lower(L)
    assert inv.flags["C_CONTIGUOUS"]
    np.testing.assert_allclose(inv, np.tril(np.linalg.inv(A)), rtol=1e-10, atol=1e-14)
    assert np.array_equal(np.triu(inv, 1), np.zeros_like(inv))


def test_chol_rev_matches_finite_differences():
    rng = np.random.default_rng(3)
    n = 5
    A = spd(rng, n)
    L = np.linalg.cholesky(A)
    Lbar = np.tril(rng.normal(size=(n, n)))
    Abar = linalg.chol_rev(L, Lbar)
    # Abar satisfies d sum(Lbar * chol(A)) = sum(Abar * dA) for symmetric dA
    h = 1e-6

    def f(M):
        return float(np.sum(Lbar * np.linalg.cholesky(M)))

    for i in range(n):
        for j in range(i + 1):
            dA = np.zeros((n, n))
            dA[i, j] = dA[j, i] = 1.0
            fd = (f(A + h * dA) - f(A - h * dA)) / (2.0 * h)
            an = float(np.sum(Abar * dA))
            assert abs(fd - an) < 1e-5 * max(1.0, abs(fd)), (i, j, fd, an)


def test_chol_rev_symmetric_output():
    rng = np.random.default_rng(4)
    A = spd(rng, 4)
    L = np.linalg.cholesky(A)
    Abar = linalg.chol_rev(L, np.tril(rng.normal(size=(4, 4))))
    np.testing.assert_allclose(Abar, Abar.T, atol=1e-12)


@pytest.fixture()
def blas_controls():
    """Every loaded OpenBLAS, set to two threads so a pin to one is visible."""
    controls = linalg._openblas_thread_controls()
    saved = [control.get() for control in controls]
    for control in controls:
        control.set(2)
    yield controls
    for control, count in zip(controls, saved):
        control.set(count)


def counts(controls):
    return [control.get() for control in controls]


def test_single_threaded_blas_pins_and_restores(blas_controls):
    with linalg.single_threaded_blas():
        assert counts(blas_controls) == [1] * len(blas_controls)
    assert counts(blas_controls) == [2] * len(blas_controls)


def test_single_threaded_blas_restores_after_exception(blas_controls):
    with pytest.raises(RuntimeError, match="inside"):
        with linalg.single_threaded_blas():
            assert counts(blas_controls) == [1] * len(blas_controls)
            raise RuntimeError("inside")
    assert counts(blas_controls) == [2] * len(blas_controls)


def test_single_threaded_blas_nests(blas_controls):
    with linalg.single_threaded_blas():
        with linalg.single_threaded_blas():
            assert counts(blas_controls) == [1] * len(blas_controls)
        assert counts(blas_controls) == [1] * len(blas_controls)
    assert counts(blas_controls) == [2] * len(blas_controls)


def test_single_threaded_blas_concurrent_entries_restore_once(blas_controls):
    # pool threads entering and leaving in any order: the counts stay at one
    # while any entry is open and come back when the last one leaves
    both_in = threading.Barrier(2)
    seen = []

    def worker(k):
        with linalg.single_threaded_blas():
            both_in.wait(timeout=10)
            seen.append(counts(blas_controls))
            if k:
                both_in.wait(timeout=10)      # the other thread has left by now
                seen.append(counts(blas_controls))
        if not k:
            both_in.wait(timeout=10)

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(worker, [0, 1]))
    assert seen == [[1] * len(blas_controls)] * 3
    assert counts(blas_controls) == [2] * len(blas_controls)


def test_single_threaded_blas_under_thread_stress(blas_controls):
    # more threads than cores entering and leaving with frequent switches:
    # a lost depth update would restore the counts inside an open entry
    # or leave them pinned after the last exit
    wrong = []

    def worker(_):
        for _ in range(100):
            with linalg.single_threaded_blas():
                if counts(blas_controls) != [1] * len(blas_controls):
                    wrong.append(counts(blas_controls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert counts(blas_controls) == [2] * len(blas_controls)


def test_single_threaded_blas_without_openblas_is_a_no_op(blas_controls, monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [])
    with linalg.single_threaded_blas():
        assert counts(blas_controls) == [2] * len(blas_controls)
    assert counts(blas_controls) == [2] * len(blas_controls)


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="numpy and scipy vendor their own OpenBLAS only in the Linux PyPI wheels",
)
def test_finds_numpy_and_scipy_openblas():
    found = {Path(c.path).parent.name for c in linalg._openblas_thread_controls()}
    assert {"numpy.libs", "scipy.libs"} <= found
