"""Shared dense linear-algebra helpers: jittered Cholesky, the inverse from its
factor and its reverse-mode rule, plus a scoped single-thread pin for the
OpenBLAS libraries numpy and scipy load."""

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotri, dtrtrs

from .errors import NumericalError

# Jitter escalation: try the matrix as given, then mean(diag) scaled by these factors.
_JITTER_FACTORS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def chol_with_jitter(A):
    """Lower Cholesky factor of a symmetric PSD matrix, inflating the diagonal on failure.

    Returns (L, jitter) where jitter is the diagonal inflation actually applied
    (0.0 when the factorization succeeded untouched). Raises NumericalError with
    the attempted jitter levels once the escalation ladder is exhausted.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NumericalError(
            "Cholesky factorization failed: matrix has non-finite entries",
            jitter_levels=[],
        )
    try:
        return np.linalg.cholesky(A), 0.0
    except np.linalg.LinAlgError:
        pass
    base = float(np.mean(np.diag(A))) if A.shape[0] else 1.0
    if not np.isfinite(base) or base <= 0.0:
        base = 1.0
    tried = [0.0]
    eye = np.eye(A.shape[0])
    for factor in _JITTER_FACTORS:
        jitter = factor * base
        tried.append(jitter)
        try:
            return np.linalg.cholesky(A + jitter * eye), jitter
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        "Cholesky factorization failed after jitter escalation "
        f"(levels tried: {tried})",
        jitter_levels=tried,
    )


def tri_solve(L, B, trans=False):
    """Solve L x = B (or L^T x = B when trans) for lower-triangular L.

    One LAPACK dtrtrs call, set up as scipy's solve_triangular sets it up, so
    the result is the same to the bit without scipy's checks per call. A C-order
    L is read as its Fortran-order transpose, which is upper triangular.
    """
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, B, lower=1, trans=int(trans))
    else:
        x, info = dtrtrs(L.T, B, lower=0, trans=int(not trans))
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return x


def chol_solve(L, B):
    """Solve (L L^T) x = B given the lower factor L."""
    return tri_solve(L, tri_solve(L, B), trans=True)


def chol_inverse_lower(L):
    """Lower triangle of (L L^T)^-1, zeros above, given the lower factor L with
    zeros above its diagonal (as chol_with_jitter returns it).

    LAPACK dpotri runs on the factor's transpose, which is L's memory read in
    Fortran order, so no transposed copy is made.
    """
    inv, info = dpotri(L.T, lower=0)
    if info != 0:
        raise NumericalError(f"inverse from the Cholesky factor failed (dpotri info {info})")
    return inv.T


def _phi(M):
    # Lower triangle with the diagonal halved; the projection used by the
    # Cholesky reverse-mode rule.
    out = np.tril(M)
    out[np.diag_indices_from(out)] *= 0.5
    return out


def chol_rev(L, Lbar):
    """Adjoint of A -> chol(A): propagate Lbar back to a symmetric Abar.

    Valid for symmetric perturbations of A, which is the only way A is ever
    produced here (Gram matrices).
    """
    P = _phi(L.T @ Lbar)
    # Abar = L^{-T} P L^{-1}, symmetrized.
    tmp = tri_solve(L, P, trans=True)
    Abar = tri_solve(L, tmp.T, trans=True).T
    return 0.5 * (Abar + Abar.T)


# Thread-count entry points, by OpenBLAS build: plain, and the prefixed
# scipy-openblas builds that the scipy (LP64) and numpy (ILP64) wheels vendor.
_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


class _ThreadControl(NamedTuple):
    path: str
    get: object
    set: object


@lru_cache(maxsize=None)
def _thread_control(path):
    """The thread-count get/set pair a shared library exports, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return _ThreadControl(path, get, set_)
    return None


def _openblas_thread_controls():
    """Thread-count get/set pairs of every OpenBLAS mapped into this process.

    Empty where /proc/self/maps is unreadable (non-Linux) or no mapped
    library carrying "openblas" in its name exports a known pair.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {
                line.split(maxsplit=5)[-1].strip()
                for line in handle
                if "openblas" in line
            }
    except OSError:
        return []
    controls = (
        _thread_control(path)
        for path in sorted(paths)
        if "openblas" in os.path.basename(path)
    )
    return [control for control in controls if control is not None]


@contextmanager
def single_threaded_blas():
    """Run the block with every loaded OpenBLAS on one thread.

    The kernel, Cholesky and Kalman matrices here are too small to gain from
    BLAS threads, so cores are better spent on caller-level parallelism (the
    nowcast fold pool). The thread count is process-wide: enter this once,
    around the whole parallel section, never from its workers. Saved counts
    are restored on exit, also when the block raises. Without a loaded
    OpenBLAS exporting a known setter (MKL, Accelerate, non-Linux) this does
    nothing.
    """
    controls = _openblas_thread_controls()
    saved = [control.get() for control in controls]
    for control in controls:
        control.set(1)
    try:
        yield
    finally:
        for control, count in zip(controls, saved):
            control.set(count)
