"""Shared dense linear-algebra helpers: jittered Cholesky, the inverse from its
factor and its reverse-mode rule, plus a scoped single-thread pin for the
OpenBLAS libraries numpy and scipy load.

Every factor and inverse here is one call into scipy's LAPACK, run in place
on a C-order array read as its Fortran-order transpose, so a caller that
passes its own buffers allocates nothing per call.
"""

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dtrtrs

from .errors import NumericalError

# Jitter escalation: try the matrix as given, then mean(diag) scaled by these factors.
_JITTER_FACTORS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


def _potrf(out):
    """Factor the C-order symmetric `out` in place: LAPACK dpotrf on its
    Fortran-order transpose leaves L in the lower triangle, zeros above.
    Returns False if the matrix is not positive definite."""
    _, info = dpotrf(out.T, lower=0, clean=1, overwrite_a=1)
    if info < 0:
        raise NumericalError(f"Cholesky factorization failed (dpotrf info {info})")
    return info == 0


def chol_with_jitter(A, diagonal=0.0, out=None):
    """Lower Cholesky factor of the symmetric PSD matrix A + diagonal·I,
    inflating the diagonal on failure.

    The factor is built in `out` (a C-order float array of A's shape, or a
    fresh one), refilled from A before each jitter level, so A itself is
    never written. Returns (L, jitter) where jitter is the diagonal
    inflation actually applied on top of `diagonal` (0.0 when the
    factorization succeeded untouched). Raises NumericalError with the
    attempted jitter levels once the escalation ladder is exhausted.
    """
    A = np.asarray(A, dtype=float)
    # a finite sum means finite entries; only an overflowing sum needs the
    # elementwise check, whose boolean array a large A should not pay for
    if not np.isfinite(A.sum()) and not np.isfinite(A).all():
        raise NumericalError(
            "Cholesky factorization failed: matrix has non-finite entries",
            jitter_levels=[],
        )
    L = np.empty(A.shape) if out is None else out
    diag = L.reshape(-1)[:: A.shape[0] + 1]
    tried, base = [], None
    for factor in (0.0,) + _JITTER_FACTORS:
        np.copyto(L, A)
        if diagonal:
            diag += diagonal
        jitter = 0.0
        if factor:
            if base is None:     # the first failure: scale the ladder
                base = float(np.mean(diag)) if A.shape[0] else 1.0
                if not np.isfinite(base) or base <= 0.0:
                    base = 1.0
            jitter = factor * base
            diag += jitter
        tried.append(jitter)
        if _potrf(L):
            return L, jitter
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


def chol_inverse_lower(L, out=None):
    """Lower triangle of (L L^T)^-1, zeros above, given the lower factor L with
    zeros above its diagonal (as chol_with_jitter returns it).

    LAPACK dpotri inverts a copy of L in place, in `out` (a C-order array of
    L's shape, or a fresh one): read in Fortran order, that memory is the
    factor's transpose, so no transposed copy is made.
    """
    out = np.empty(L.shape) if out is None else out
    np.copyto(out, L)
    _, info = dpotri(out.T, lower=0, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"inverse from the Cholesky factor failed (dpotri info {info})")
    return out


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


class _Pin:
    """The process-wide pin's state: entries still open, and the thread
    counts the outermost entry saved."""

    lock = threading.Lock()
    depth = 0
    saved = ()


@contextmanager
def single_threaded_blas():
    """Run the block with every loaded OpenBLAS on one thread.

    The kernel, Cholesky and Kalman matrices here are too small to gain from
    BLAS threads, and results would depend on the thread count, so every fit
    (optim.maximize) and every backend's predict runs inside this pin. A
    caller wanting more cores busy runs fits side by side, on its own
    threads or in separate processes. The thread count is process-wide, so
    the pin is too: entries nest and may come from any thread. The
    outermost entry saves the counts and sets them to one, and the last exit
    restores them, also when the block raises. Without a loaded OpenBLAS
    exporting a known setter (MKL, Accelerate, non-Linux) this does nothing.
    """
    with _Pin.lock:
        if _Pin.depth == 0:
            controls = _openblas_thread_controls()
            _Pin.saved = [(control, control.get()) for control in controls]
            for control in controls:
                control.set(1)
        _Pin.depth += 1
    try:
        yield
    finally:
        with _Pin.lock:
            _Pin.depth -= 1
            if _Pin.depth == 0:
                for control, count in _Pin.saved:
                    control.set(count)
                _Pin.saved = ()
