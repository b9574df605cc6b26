"""Composable covariance functions.

Kernels form an expression tree: squared-exponential and periodic leaves
under ``Sum`` and ``Product`` interior nodes, the same shape as the nested
config form. Each leaf reads its own input columns, ``dims`` (all of them
by default); ``ActiveDims(dims, kernel)`` returns a copy of a tree with a
column choice pushed into its leaves. Every positive hyperparameter is
stored as its logarithm so optimizers can work unconstrained; the flat
parameter vector is ordered depth-first over the tree (each leaf
contributes ``log variance`` first, then its remaining parameters).

``prepare`` computes each leaf's hyperparameter-free base for an input
pair once. Both usual bases are squared distances of an embedding f(x),
``‖f‖² + ‖f′‖² − 2 f·f′``, so one matrix product gives the whole base with
no ``(d, n, m)`` difference array: an SE uses f = x, and a fixed-period
leaf f = ½(cos 2πx/p, sin 2πx/p), whose squared distance is the summed
``sin^2(π(x - x')/p)`` (MacKay 1998). Under ARD an SE keeps one squared
difference block per column, because its gradients need them. A
self-Gram's base is exactly symmetric with a zero diagonal, and a
diagonal's base is zeros.

Every leaf is ``v·exp(Σ a·B)`` over its base terms B, and its derivatives
are ``dK/dθ_p = K ∘ c_p M_p``. A product of leaves is one such term,
``(Π v)·exp(Σ a·B)`` over all its children's terms, so a forward pass
costs one ``exp`` per leaf outside products and one per product of leaves.
The reverse pass maps an adjoint K̄ to ``Σ K̄ ∘ dK/dθ_p`` for every
parameter without forming those matrices: ``Sum`` passes K̄ down, a leaf or
product of leaves forms ``W = K̄ ∘ K`` once and reduces ``c_p ΣW`` for a
variance and ``c_p ⟨W, M_p⟩`` otherwise, and a product with a ``Sum`` among
its children passes K̄ times the other factors (Rasmussen & Williams 2006,
§4.2.4); every fit takes its kernel gradient from this pass. The same walk
gives X̄ = ∂ sum(K̄ ∘ K)/∂X for the first input, each leaf adding its columns
from W by ``(n, m)`` products. No fit calls ``gram_and_grads`` or
``diag_and_grads``, which multiply a forward tape out into dense tangents.
A diagonal is the same tree over paired rows.

A ``PreparedInputs`` is also its passes' workspace: each node keeps its
output array across ``gram_and_vjp()`` calls, so a warm pass allocates no
array of K's size, and each call overwrites the previous call's K and
tape. ``gram`` runs the same arithmetic without a tape, building each
leaf's base only when it is needed and dropping it after, so its results
equal a prepared pass's bit for bit.
"""

import copy
import math

import numpy as np

from .errors import InputError


def _as_matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InputError(f"inputs must be 1-D or 2-D, got shape {X.shape}")
    return X


def _check_pair(X, X2):
    X = _as_matrix(X)
    X2 = X if X2 is None else _as_matrix(X2)
    if X.shape[1] != X2.shape[1]:
        raise InputError(
            f"input dimensionality mismatch: {X.shape[1]} vs {X2.shape[1]}"
        )
    return X, X2


def _check_dims(dims):
    """The distinct, non-negative column indices a leaf reads; None means all."""
    if dims is None:
        return None
    values = np.atleast_1d(dims)
    valid = values.ndim == 1 and values.size and values.dtype.kind in "iuf"
    if not (valid and np.all(values >= 0) and np.all(values % 1 == 0)):
        raise InputError(f"dims must list one or more non-negative column indices, got {dims!r}")
    if np.unique(values).size != values.size:
        raise InputError(f"dims must be distinct, got {dims!r}")
    return [int(d) for d in values]


def _log_positive(kind, name, value, vector=False):
    """log of a positive, finite number (or, for a vector, of a non-empty
    list of them); anything else is an InputError naming the leaf and key."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = np.array(np.nan)
    valid = array.ndim <= int(vector) and array.size and np.all((array > 0) & (array < np.inf))
    if isinstance(value, (str, bool)) or not valid:
        raise InputError(f"{kind} kernel {name} must be a positive number, got {value!r}")
    return np.log(array) if array.ndim else float(np.log(array))


def _times(a, b):
    """a * b, where None stands for an empty product."""
    if a is None:
        return b
    if b is None:
        return a
    return a * b


_BLOCK = 1 << 15    # elements of the norm-sum block _sqdist forms at a time


def _sqdist(F, F2):
    """Squared distances between the rows of F and F2, (‖f‖² + ‖f′‖²) − 2 F F2ᵀ,
    clamped at 0: one matrix product and no (d, n, m) array. The norm sum
    comes first, so k(a, b) == k(b, a) bit for bit for single rows (larger
    blocks agree to rounding: BLAS may order a product's terms by shape).
    It is formed a block of rows at a time and subtracted from the product
    in place, so the result is the only (n, m) array. For F2 is F the
    product is numpy's symmetric rank-k update, so the result is exactly
    symmetric, and its diagonal is set to exactly 0."""
    norms = np.einsum("ij,ij->i", F, F)
    if F2 is F:
        norms2 = norms
        sq = F @ F.T
        sq *= 2.0
    else:
        norms2 = np.einsum("ij,ij->i", F2, F2)
        sq = F @ (2.0 * F2).T    # the same bits as 2 (F F2ᵀ), one pass fewer
    step = max(1, _BLOCK // max(1, len(norms2)))
    for start in range(0, len(norms), step):
        rows = sq[start:start + step]
        np.subtract(np.add.outer(norms[start:start + step], norms2), rows, out=rows)
    np.maximum(sq, 0.0, out=sq)
    if F2 is F:
        np.fill_diagonal(sq, 0.0)
    return sq


def _inner(*arrays):
    """Sum of the elementwise product of equally shaped arrays, with no temporary."""
    axes = "abcdefgh"[: arrays[0].ndim]
    return np.einsum(",".join([axes] * len(arrays)) + "->", *arrays)


class PreparedInputs:
    """A kernel tree bound to one input pair, with every leaf's base computed
    and the workspace its passes write into.

    The bases do not depend on the hyperparameters, so one instance serves
    every value the kernel's parameters take; each call reads the current
    ones. The two input matrices are kept for the input adjoint.

    Workspace contract: every node keeps its output array from one
    ``gram_and_vjp()`` call to the next, and one scratch array of K's shape
    holds the later exponent terms of a forward pass and W = K̄ ∘ K in a
    reverse pass. So the next call on the same instance overwrites the
    previous call's K and tape, and the previous vjp is void; copy K to keep
    it. Warm passes over sums and products of leaves then allocate no array
    of K's size (the factors of a product over a sum are still computed
    fresh).
    """

    def __init__(self, kernel, X, X2, paired):
        self.kernel = kernel
        self.X, self.X2, self.paired = X, X2, paired
        self.base = kernel._base(X, X2, paired)
        self._tape = None
        self._scratch = np.empty(len(X) if paired else (len(X), len(X2)))

    def gram_and_vjp(self):
        """Gram matrix K and ``vjp(Kbar, inputs=False)``, mapping an adjoint K̄
        to θ̄ = ∂ sum(K̄ ∘ K)/∂θ over the log-hyperparameters, or with
        inputs=True to ``(θ̄, X̄)``, X̄ = ∂ sum(K̄ ∘ K)/∂X for the first input,
        both from one walk over the tape. K must not be modified before."""
        tape = self._tape = self.kernel._forward(self.base, self._tape, self._scratch)

        def vjp(Kbar, inputs=False):
            if inputs and self.paired:
                raise InputError("a diagonal has no input adjoint")
            Xbar = np.zeros_like(self.X) if inputs else None
            xs = (self.X, self.X2, Xbar) if inputs else None
            grad = np.array(self.kernel._reverse(tape, Kbar, xs, self._scratch), dtype=float)
            return (grad, Xbar) if inputs else grad

        return tape[0], vjp


def _exponential(pairs, out=None, scratch=None):
    """(Π v)·exp(Σ a·B) for (leaf, base) pairs: every leaf's exponent terms
    summed in order into `out`, each after the first through `scratch`
    (fresh arrays where None), then one exp and the variances."""
    K = None
    for leaf, base in pairs:
        for a, B in leaf._exponent(base):
            if K is None:
                K = np.multiply(B, a, out=out)
            else:
                K += np.multiply(B, a, out=scratch)
    np.exp(K, out=K)
    K *= math.prod(leaf.variance for leaf, _ in pairs)
    return K


def _exponential_gram(leaves, X, X2, paired):
    """_exponential without a tape, leaf by leaf: each leaf's base is built,
    scaled in place into the sum and dropped before the next leaf's is
    built. The same operations in the same order as a prepared forward
    pass, so the same bits."""
    K = None
    for leaf in leaves:
        base = leaf._base(X, X2, paired)
        for a, B in leaf._exponent(base):
            if K is None:
                K = B * a
            else:
                K += np.multiply(B, a, out=B)    # the walk owns the base
        del base, B
    np.exp(K, out=K)
    K *= math.prod(leaf.variance for leaf in leaves)
    return K


def _exponential_reverse(pairs, K, Kbar, inputs, scratch):
    """θ̄ for the parameters of K = (Π v)·exp(Σ a·B): every dK/dθ_p is
    K ∘ c_p M_p, so W = K̄ ∘ K is formed once and each leaf's factors reduce
    against it (c·ΣW for a variance, c·⟨W, M⟩ otherwise); given
    ``inputs = (X, X2, Xbar)``, each leaf also adds its X̄ from W."""
    W = np.multiply(Kbar, K, out=scratch)
    total = None
    grads = []
    X, X2, Xbar = inputs or (None, None, None)
    for leaf, base in pairs:
        if inputs is not None:
            columns = slice(None) if leaf.dims is None else leaf.dims
            Xbar[:, columns] += leaf._input_adjoint(
                W, base, leaf._columns(X), leaf._columns(X2)
            )
        for c, M in leaf._factors(base):
            if M is None:
                total = W.sum() if total is None else total
                grads.append(c * total)
            else:
                grads.append(c * _inner(W, M))
    return grads


def _with_tangents(node, tape):
    """K and the dense dK/dθ off a node's forward tape, one per parameter:
    K ∘ c_p M_p at a leaf or a product of leaves, elsewhere each child's
    tangents times its factor from ``_weights``."""
    K, rest = tape
    if isinstance(node, _Leaf) or isinstance(node, Product) and node._fused:
        pairs = [(node, rest)] if isinstance(node, _Leaf) else zip(node.children, rest)
        return K, [K * c if M is None else K * M * c for leaf, base in pairs
                   for c, M in leaf._factors(base)]
    weights = node._weights([t[0] for t in rest])
    return K, [_times(g, w) for child, t, w in zip(node.children, rest, weights)
               for g in _with_tangents(child, t)[1]]


class Kernel:
    """Base class for kernel expression trees.

    A node implements ``_base(X, X2, paired)``, ``_forward(base, prev=None,
    scratch=None) -> (K, terms)`` (the pair is its tape; ``prev``, the node's
    tape from the last pass over the same base, lends its output array),
    ``_reverse(tape, Kbar, inputs=None, scratch=None)``, which returns one
    entry per parameter (given ``inputs = (X, X2, Xbar)``, it also adds the
    leaves' X̄ into Xbar), and ``_value``, the tape-free forward pass behind
    ``gram``.
    Leaves pick their input columns with ``dims``:
    ``SquaredExponential(dims=[0, 1]) + Periodic(period=24.0, dims=[2])``.
    """

    def prepare(self, X, X2=None):
        """The input pair's hyperparameter-free terms, for repeated evaluation."""
        return PreparedInputs(self, *_check_pair(X, X2), paired=False)

    def prepare_diag(self, X):
        """As prepare, for the diagonal k(x_i, x_i) alone."""
        X = _as_matrix(X)
        return PreparedInputs(self, X, X, paired=True)

    def gram(self, X, X2=None):
        """Covariance matrix between the rows of X and X2 (X2 defaults to X)."""
        X, X2 = _check_pair(X, X2)
        return self._value(X, X2, paired=False)

    def diag(self, X):
        """Diagonal of gram(X, X) without forming the full matrix."""
        X = _as_matrix(X)
        return self._value(X, X, paired=True)

    def gram_and_grads(self, X, X2=None):
        """Gram matrix plus one dense derivative matrix per log-hyperparameter.
        No fit calls this or diag_and_grads; the benchmark's tracer binds both."""
        X, X2 = _check_pair(X, X2)
        return _with_tangents(self, self._forward(self._base(X, X2, paired=False)))

    def diag_and_grads(self, X):
        X = _as_matrix(X)
        return _with_tangents(self, self._forward(self._base(X, X, paired=True)))

    def grad_x(self, X, X2, Kbar):
        """X̄ = ∂ sum(K̄ ∘ gram(X, X2))/∂X, the input half of gram_and_vjp's vjp.
        Fitting code calls the vjp; this name stays because the benchmark's
        tracer (perfbench/spans.py) binds it."""
        return self.prepare(X, X2).gram_and_vjp()[1](Kbar, inputs=True)[1]

    def _value(self, X, X2, paired):
        # leaves and combinations override this; a custom node that defines
        # only _base and _forward evaluates through it
        return self._forward(self._base(X, X2, paired))[0]

    # -- flat log-parameter vector ----------------------------------------

    def log_params(self):
        return np.array(self._get_params(), dtype=float)

    def set_log_params(self, values):
        values = np.asarray(values, dtype=float).ravel()
        if values.size != self.n_params:
            raise InputError(
                f"expected {self.n_params} parameters, got {values.size}"
            )
        self._set_params(list(values))

    def param_names(self, prefix=""):
        raise NotImplementedError

    @property
    def n_params(self):
        return len(self._get_params())

    def copy(self):
        return copy.deepcopy(self)

    # -- sugar -------------------------------------------------------------

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Product(self, other)


class _Leaf(Kernel):
    """A leaf v·exp(Σ a·B), whose derivatives are dK/dθ_p = K ∘ c_p M_p.

    `_exponent(base)` yields the (a, B) terms of the exponent, and
    `_factors(base)` one (c_p, M_p) per parameter, M_p None standing for all
    ones; the passes share them with a product of leaves, which is one such
    term. `_column_base` and `_input_adjoint` (X̄ from W = K̄ ∘ K) see only
    `dims`.
    """

    @property
    def variance(self):
        return float(np.exp(self.log_variance))

    def _columns(self, X):
        if self.dims is None:
            return X
        if max(self.dims) >= X.shape[1]:
            raise InputError(f"dims {self.dims} out of range for {X.shape[1]}-column input")
        return X[:, self.dims]

    def _base(self, X, X2, paired):
        # a self-Gram is exactly symmetric only if the leaf still knows it is one
        same = X2 is X
        X = self._columns(X)
        return self._column_base(X, X if same else self._columns(X2), paired)

    def param_names(self, prefix=""):
        if self.dims is not None:
            prefix += f"dims{self.dims}."
        return [prefix + name for name in self._names()]

    def _dims_repr(self):
        return "" if self.dims is None else f", dims={self.dims}"

    def _value(self, X, X2, paired):
        return _exponential_gram([self], X, X2, paired)

    def _forward(self, base, prev=None, scratch=None):
        return _exponential([(self, base)], None if prev is None else prev[0], scratch), base

    def _reverse(self, tape, Kbar, inputs=None, scratch=None):
        K, base = tape
        return _exponential_reverse([(self, base)], K, Kbar, inputs, scratch)


class SquaredExponential(_Leaf):
    """k(x, x') = variance * exp(-||x - x'||^2 / (2 lengthscale^2)).

    A scalar lengthscale is shared across the active input columns; passing an
    array of lengthscales enables per-dimension scaling (automatic relevance
    determination). The base is the squared distance, or under ARD one
    squared difference per column, stacked as (columns, n, m).
    """

    def __init__(self, variance=1.0, lengthscale=1.0, dims=None):
        self.log_variance = _log_positive("se", "variance", variance)
        self.log_lengthscale = _log_positive("se", "lengthscale", lengthscale, vector=True)
        self.ard = np.ndim(self.log_lengthscale) > 0
        self.dims = _check_dims(dims)

    @property
    def lengthscale(self):
        return np.exp(self.log_lengthscale)

    def _column_base(self, X, X2, paired):
        width = np.atleast_1d(self.log_lengthscale).size
        if self.ard and X.shape[1] != width:
            raise InputError(f"ARD kernel built for {width} dims, got {X.shape[1]}")
        if paired:    # the diagonal: every distance is zero
            return np.zeros((width, len(X)))
        if not self.ard:
            return _sqdist(X, X2)[None]
        # column-major differences, (d, n, m) in C order, squared in place:
        # ARD scales each column's block by its own lengthscale
        sq = np.subtract(X.T[:, :, None], X2.T[:, None, :], order="C")
        np.square(sq, out=sq)
        return sq

    def _exponent(self, base):
        return zip(-0.5 / np.atleast_1d(self.lengthscale) ** 2, base)

    def _factors(self, base):
        yield 1.0, None
        yield from zip(np.atleast_1d(self.lengthscale) ** -2.0, base)

    def _input_adjoint(self, W, base, X, X2):
        # Σ_j W_ij (x2_j - x_i) / ℓ², per column under ARD
        return (W @ X2 - W.sum(axis=1)[:, None] * X) / np.atleast_1d(self.lengthscale) ** 2

    def _get_params(self):
        return [self.log_variance, *np.atleast_1d(self.log_lengthscale)]

    def _set_params(self, values):
        self.log_variance = values[0]
        self.log_lengthscale = np.array(values[1:], dtype=float) if self.ard else values[1]

    def _names(self):
        if self.ard:
            return ["se.log_variance"] + [
                f"se.log_lengthscale[{j}]" for j in range(self.log_lengthscale.size)
            ]
        return ["se.log_variance", "se.log_lengthscale"]

    def __repr__(self):
        return (
            f"SquaredExponential(variance={self.variance:.4g}, "
            f"lengthscale={self.lengthscale}{self._dims_repr()})"
        )


class Periodic(_Leaf):
    """k(x, x') = variance * exp(-2 sum_k sin^2(pi (x_k - x'_k) / period) / lengthscale^2).

    The period is held fixed (daily and weekly periods are known a priori),
    and the base is the sum of sin^2 terms, the squared distance of the rows'
    cos/sin embeddings, which it keeps for the input adjoint.
    """

    def __init__(self, variance=1.0, lengthscale=1.0, period=1.0, dims=None):
        self.log_variance = _log_positive("periodic", "variance", variance)
        self.log_lengthscale = _log_positive("periodic", "lengthscale", lengthscale)
        self.log_period = _log_positive("periodic", "period", period)
        self.dims = _check_dims(dims)

    @property
    def lengthscale(self):
        return float(np.exp(self.log_lengthscale))

    @property
    def period(self):
        return float(np.exp(self.log_period))

    def _embedding(self, X):
        """½ (cos a, sin a) with a = 2πX/period: the squared distance of two
        rows' embeddings is the sum of sin^2(π (x_k - x'_k) / period). The
        remainder of X by the period is exact, so the angle's rounding error
        stays within a few ulps of 2π however many periods X spans."""
        a = (2.0 * np.pi / self.period) * np.fmod(X, self.period)
        return 0.5 * np.hstack([np.cos(a), np.sin(a)])

    def _column_base(self, X, X2, paired):
        if paired:    # the diagonal: every difference is zero
            return (np.zeros(len(X)),)
        F = self._embedding(X)
        F2 = F if X2 is X else self._embedding(X2)
        return _sqdist(F, F2), F, F2

    def _exponent(self, base):
        yield -2.0 / self.lengthscale**2, base[0]

    def _factors(self, base):
        yield 1.0, None
        yield 4.0 / self.lengthscale**2, base[0]

    def _input_adjoint(self, W, base, X, X2):
        # dK/dx = K * coeff * sin(a - b) for a = 2πx/p, b = 2πx2/p, and
        # sin(a - b) = sin a cos b - cos a sin b, with cos and sin from the
        # embeddings, which hold half of each
        coeff = -2.0 * np.pi / (self.lengthscale**2 * self.period)
        _, F, F2 = base
        d = X.shape[1]
        WF2 = W @ F2
        return (4.0 * coeff) * (F[:, d:] * WF2[:, :d] - F[:, :d] * WF2[:, d:])

    def _get_params(self):
        return [self.log_variance, self.log_lengthscale]

    def _set_params(self, values):
        self.log_variance, self.log_lengthscale = values

    def _names(self):
        return ["periodic.log_variance", "periodic.log_lengthscale"]

    def __repr__(self):
        return (
            f"Periodic(variance={self.variance:.4g}, lengthscale={self.lengthscale:.4g}, "
            f"period={self.period:.4g}{self._dims_repr()})"
        )


class _Combination(Kernel):
    """Interior node: children combined elementwise by `_op`.

    `_weights(Ks)` gives each child's factor in d(node)/d(child), None for one.
    """

    def __init__(self, *children):
        flat = []
        for child in children:
            if not isinstance(child, Kernel):
                raise InputError(f"kernel children must be kernels, got {type(child)}")
            if type(child) is type(self):
                flat.extend(child.children)
            else:
                flat.append(child)
        if len(flat) < 1:
            raise InputError("combination kernels need at least one child")
        self.children = flat

    def _base(self, X, X2, paired):
        return [child._base(X, X2, paired) for child in self.children]

    def _value(self, X, X2, paired):
        # each child's terms are freed once it is evaluated; no tape is kept
        K = self.children[0]._value(X, X2, paired)
        for child in self.children[1:]:
            self._op(K, child._value(X, X2, paired), out=K)
        return K

    def _forward(self, base, prev=None, scratch=None):
        prevs = [None] * len(self.children) if prev is None else prev[1]
        tapes = [
            child._forward(b, p, scratch)
            for child, b, p in zip(self.children, base, prevs)
        ]
        K = tapes[0][0]
        out = None if prev is None or len(tapes) == 1 else prev[0]
        for tape in tapes[1:]:
            K = out = self._op(K, tape[0], out=out)
        return K, tapes

    def _reverse(self, tape, Kbar, inputs=None, scratch=None):
        tapes = tape[1]
        weights = self._weights([t[0] for t in tapes])
        return [
            g
            for child, t, w in zip(self.children, tapes, weights)
            for g in child._reverse(t, _times(Kbar, w), inputs, scratch)
        ]

    def _get_params(self):
        out = []
        for child in self.children:
            out.extend(child._get_params())
        return out

    def _set_params(self, values):
        i = 0
        for child in self.children:
            k = child.n_params
            child._set_params(values[i : i + k])
            i += k

    def param_names(self, prefix=""):
        names = []
        for idx, child in enumerate(self.children):
            names.extend(child.param_names(prefix + f"{self._tag}{idx}."))
        return names


class Sum(_Combination):
    """Elementwise sum of child kernels."""

    _tag = "sum"
    _op = staticmethod(np.add)

    def _weights(self, Ks):
        return [None] * len(Ks)

    def __repr__(self):
        return " + ".join(repr(c) for c in self.children)


class Product(_Combination):
    """Elementwise product of child kernels.

    A product of leaves alone is one leaf-like term, (Π v)·exp(Σ a·B) over
    its children's exponent terms (Rasmussen & Williams 2006, §4.2.4), so
    its passes take one exp and reduce every factor against one W = K̄ ∘ K.
    A product with a Sum among its children multiplies the children out.
    """

    _tag = "prod"
    _op = staticmethod(np.multiply)

    @property
    def _fused(self):
        return all(isinstance(child, _Leaf) for child in self.children)

    def _value(self, X, X2, paired):
        if self._fused:
            return _exponential_gram(self.children, X, X2, paired)
        return super()._value(X, X2, paired)

    def _forward(self, base, prev=None, scratch=None):
        if not self._fused:
            return super()._forward(base, prev, scratch)
        out = None if prev is None else prev[0]
        return _exponential(list(zip(self.children, base)), out, scratch), base

    def _reverse(self, tape, Kbar, inputs=None, scratch=None):
        if not self._fused:
            return super()._reverse(tape, Kbar, inputs, scratch)
        K, base = tape
        return _exponential_reverse(list(zip(self.children, base)), K, Kbar, inputs, scratch)

    def _weights(self, Ks):
        # the product of the other factors, from prefix and suffix products
        # so no division is needed when a factor is ~0
        prefix, suffix = [None], [None]
        for m in Ks[:-1]:
            prefix.append(_times(prefix[-1], m))
        for m in Ks[:0:-1]:
            suffix.append(_times(suffix[-1], m))
        return [_times(left, right) for left, right in zip(prefix, reversed(suffix))]

    def __repr__(self):
        return " * ".join(f"({c!r})" for c in self.children)


def _leaves(kernel):
    """The leaves of a kernel tree, depth first."""
    if isinstance(kernel, _Combination):
        for child in kernel.children:
            yield from _leaves(child)
    else:
        yield kernel


def ActiveDims(dims, kernel):
    """A copy of `kernel` whose leaves read the input columns `dims`.

    A leaf that already reads columns of its own keeps them, as positions
    within `dims`: ``ActiveDims([2, 0], SquaredExponential(dims=[1]))``
    reads column 0.
    """
    dims = _check_dims(dims)
    out = copy.deepcopy(kernel)
    for leaf in _leaves(out):
        if not isinstance(leaf, _Leaf):
            raise InputError(f"cannot choose the input columns of {leaf!r}")
        own = range(len(dims)) if leaf.dims is None else leaf.dims
        if max(own) >= len(dims):
            raise InputError(f"dims {leaf.dims} out of range for the {len(dims)} columns {dims}")
        leaf.dims = [dims[i] for i in own]
    return out


# -- config-driven construction -------------------------------------------

_LEAF_KEYS = {
    "se": {"dims", "variance", "lengthscale", "ard"},
    "periodic": {"dims", "variance", "lengthscale", "period"},
}


def from_config(node, n_dims=None):
    """Build a kernel tree from its nested config form.

    A node is a one-key mapping: ``{"se": {...}}``, ``{"periodic": {...}}``,
    ``{"sum": [node, ...]}`` or ``{"product": [node, ...]}``. Leaf options
    mirror the constructor arguments plus ``dims`` (column indices) and, for
    the squared exponential, ``ard`` (per-dimension lengthscales; requires
    ``dims`` or ``n_dims`` to size the lengthscale vector).
    """
    if not isinstance(node, dict) or len(node) != 1:
        raise InputError(f"kernel config node must be a single-key mapping, got {node!r}")
    kind, body = next(iter(node.items()))
    if kind in ("sum", "product"):
        if not isinstance(body, (list, tuple)) or not body:
            raise InputError(f"'{kind}' expects a non-empty list of child nodes")
        children = [from_config(child, n_dims=n_dims) for child in body]
        return Sum(*children) if kind == "sum" else Product(*children)
    if kind not in _LEAF_KEYS:
        raise InputError(f"unknown kernel kind '{kind}'")
    if body is not None and not isinstance(body, dict):
        raise InputError(f"{kind} kernel config must be a mapping of options, got {body!r}")
    body = dict(body or {})
    unknown = set(body) - _LEAF_KEYS[kind]
    if unknown:
        raise InputError(f"unknown key '{sorted(unknown)[0]}' in '{kind}' kernel config")
    if not isinstance(body.get("ard", False), bool):
        raise InputError(f"{kind} kernel ard must be true or false, got {body['ard']!r}")
    dims = body["dims"] = _check_dims(body.get("dims"))
    if kind == "periodic":
        return Periodic(**body)
    ard = body.pop("ard", False)
    lengthscale = body.get("lengthscale", 1.0)
    if ard and np.ndim(lengthscale) == 0:
        width = len(dims) if dims is not None else n_dims
        if width is None:
            raise InputError("ard=true needs 'dims' or a known input dimensionality")
        _log_positive("se", "lengthscale", lengthscale)
        lengthscale = np.full(width, float(lengthscale))
    body["lengthscale"] = lengthscale
    return SquaredExponential(**body)


def to_config(kernel):
    """Inverse of from_config, with current hyperparameter values baked in."""
    if isinstance(kernel, Sum):
        return {"sum": [to_config(c) for c in kernel.children]}
    if isinstance(kernel, Product):
        return {"product": [to_config(c) for c in kernel.children]}
    if isinstance(kernel, SquaredExponential):
        kind, body = "se", {"variance": kernel.variance}
        if kernel.ard:
            body["lengthscale"] = [float(v) for v in np.atleast_1d(kernel.lengthscale)]
            body["ard"] = True
        else:
            body["lengthscale"] = float(kernel.lengthscale)
    elif isinstance(kernel, Periodic):
        kind, body = "periodic", {
            "variance": kernel.variance,
            "lengthscale": kernel.lengthscale,
            "period": kernel.period,
        }
    else:
        raise InputError(f"cannot serialize kernel of type {type(kernel)}")
    if kernel.dims is not None:
        body["dims"] = list(kernel.dims)
    return {kind: body}


def rescale_periods(kernel, column_scales):
    """Return a copy with each periodic leaf's period divided by its column scale.

    Periods are configured in raw input units (hours); model inputs are
    z-scored per column, so the period seen by the kernel must shrink by the
    same factor. Each periodic leaf must act on exactly one column for the
    rescaling to be well defined.
    """
    column_scales = np.asarray(column_scales, dtype=float)
    out = kernel.copy()
    for leaf in _leaves(out):
        if isinstance(leaf, Periodic):
            if leaf.dims is None or len(leaf.dims) != 1:
                raise InputError(
                    "period rescaling needs each periodic leaf on exactly one column"
                )
            leaf.log_period = float(np.log(leaf.period / column_scales[leaf.dims[0]]))
    return out
