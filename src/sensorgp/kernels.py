"""Composable covariance functions.

Kernels form an expression tree: squared-exponential and periodic leaves,
``Sum`` and ``Product`` interior nodes, and an ``ActiveDims`` wrapper that
restricts a subtree to a subset of the input columns. Every positive
hyperparameter is stored as its logarithm so optimizers can work
unconstrained; the flat parameter vector is ordered depth-first over the
tree (each leaf contributes ``log variance`` first, then its remaining
parameters).

All nodes evaluate Gram matrices and their analytic derivatives with
respect to the log-hyperparameters and, where needed for inducing-point
optimization, with respect to the first input argument.
"""

import copy

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


class Kernel:
    """Base class for kernel expression trees."""

    def gram(self, X, X2=None):
        """Covariance matrix between the rows of X and X2 (X2 defaults to X)."""
        X, X2 = _check_pair(X, X2)
        return self._gram(X, X2)

    def diag(self, X):
        """Diagonal of gram(X, X) without forming the full matrix."""
        return self._diag(_as_matrix(X))

    def gram_and_grads(self, X, X2=None):
        """Gram matrix plus one derivative matrix per log-hyperparameter."""
        X, X2 = _check_pair(X, X2)
        return self._gram_and_grads(X, X2)

    def diag_and_grads(self, X):
        X = _as_matrix(X)
        return self._diag_and_grads(X)

    def grad_x(self, X, X2):
        """d k(x_i, z_j) / d x_i as an (n, m, d) array."""
        X, X2 = _check_pair(X, X2)
        return self._grad_x(X, X2)

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

    def __call__(self, x, x2=None):
        """Evaluate a single covariance for 1-D inputs, or the Gram matrix for 2-D."""
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            x2 = x if x2 is None else np.asarray(x2, dtype=float)
            if x2.ndim > 1 or np.atleast_1d(x).shape != np.atleast_1d(x2).shape:
                raise InputError("point evaluation needs two vectors of equal length")
            return float(self.gram(np.atleast_1d(x)[None, :], np.atleast_1d(x2)[None, :])[0, 0])
        return self.gram(x, x2)

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Product(self, other)


class SquaredExponential(Kernel):
    """k(x, x') = variance * exp(-||x - x'||^2 / (2 lengthscale^2)).

    A scalar lengthscale is shared across the active input columns; passing an
    array of lengthscales enables per-dimension scaling (automatic relevance
    determination).
    """

    def __init__(self, variance=1.0, lengthscale=1.0):
        if variance <= 0:
            raise InputError("variance must be positive")
        ls = np.asarray(lengthscale, dtype=float)
        if np.any(ls <= 0):
            raise InputError("lengthscale must be positive")
        self.log_variance = float(np.log(variance))
        self.ard = ls.ndim > 0
        self.log_lengthscale = np.log(ls) if self.ard else float(np.log(ls))

    @property
    def variance(self):
        return float(np.exp(self.log_variance))

    @property
    def lengthscale(self):
        return np.exp(self.log_lengthscale)

    def _scaled_sqdist(self, X, X2):
        ls = self.lengthscale
        if self.ard and X.shape[1] != np.atleast_1d(ls).size:
            raise InputError(
                f"ARD kernel built for {np.atleast_1d(ls).size} dims, got {X.shape[1]}"
            )
        diff = X[:, None, :] - X2[None, :, :]
        diff /= ls
        return diff, np.sum(diff * diff, axis=-1)

    def _gram(self, X, X2):
        # in place: each fresh n x n temporary costs about as much as the
        # arithmetic on it
        _, K = self._scaled_sqdist(X, X2)
        K *= -0.5
        np.exp(K, out=K)
        K *= self.variance
        return K

    def _diag(self, X):
        return np.full(X.shape[0], self.variance)

    def _gram_and_grads(self, X, X2):
        diff, d2 = self._scaled_sqdist(X, X2)
        K = self.variance * np.exp(-0.5 * d2)
        grads = [K.copy()]  # d/d log variance
        if self.ard:
            for j in range(diff.shape[-1]):
                grads.append(K * diff[..., j] ** 2)
        else:
            grads.append(K * d2)
        return K, grads

    def _diag_and_grads(self, X):
        d = np.full(X.shape[0], self.variance)
        zeros = np.zeros(X.shape[0])
        n_ls = X.shape[1] if self.ard else 1
        return d, [d.copy()] + [zeros.copy() for _ in range(n_ls)]

    def _grad_x(self, X, X2):
        diff, d2 = self._scaled_sqdist(X, X2)
        K = self.variance * np.exp(-0.5 * d2)
        ls = np.atleast_1d(self.lengthscale)
        return -K[..., None] * diff / ls

    def _get_params(self):
        if self.ard:
            return [self.log_variance] + list(np.atleast_1d(self.log_lengthscale))
        return [self.log_variance, self.log_lengthscale]

    def _set_params(self, values):
        self.log_variance = values[0]
        if self.ard:
            self.log_lengthscale = np.array(values[1:], dtype=float)
        else:
            self.log_lengthscale = values[1]

    def param_names(self, prefix=""):
        names = [prefix + "se.log_variance"]
        if self.ard:
            names += [
                prefix + f"se.log_lengthscale[{j}]"
                for j in range(np.atleast_1d(self.log_lengthscale).size)
            ]
        else:
            names.append(prefix + "se.log_lengthscale")
        return names

    def __repr__(self):
        return f"SquaredExponential(variance={self.variance:.4g}, lengthscale={self.lengthscale})"


class Periodic(Kernel):
    """k(x, x') = variance * exp(-2 sum_k sin^2(pi (x_k - x'_k) / period) / lengthscale^2).

    The period is held fixed by default (daily and weekly periods are known a
    priori); pass learn_period=True to expose it to the optimizer.
    """

    def __init__(self, variance=1.0, lengthscale=1.0, period=1.0, learn_period=False):
        if min(variance, lengthscale, period) <= 0:
            raise InputError("variance, lengthscale and period must be positive")
        self.log_variance = float(np.log(variance))
        self.log_lengthscale = float(np.log(lengthscale))
        self.log_period = float(np.log(period))
        self.learn_period = bool(learn_period)

    @property
    def variance(self):
        return float(np.exp(self.log_variance))

    @property
    def lengthscale(self):
        return float(np.exp(self.log_lengthscale))

    @property
    def period(self):
        return float(np.exp(self.log_period))

    def _parts(self, X, X2):
        diff = X[:, None, :] - X2[None, :, :]
        u = np.pi * diff
        u /= self.period
        sin2 = np.sin(u)
        sin2 *= sin2
        s = np.sum(sin2, axis=-1)
        K = -2.0 * s
        K /= self.lengthscale**2
        np.exp(K, out=K)
        K *= self.variance
        return diff, u, s, K

    def _gram(self, X, X2):
        return self._parts(X, X2)[3]

    def _diag(self, X):
        return np.full(X.shape[0], self.variance)

    def _gram_and_grads(self, X, X2):
        diff, u, s, K = self._parts(X, X2)
        ell2 = self.lengthscale**2
        d_ell = K * 4.0
        d_ell *= s
        d_ell /= ell2
        grads = [K.copy(), d_ell]
        if self.learn_period:
            total = np.sum(diff * np.sin(2.0 * u), axis=-1)
            grads.append(K * (2.0 * np.pi / (ell2 * self.period)) * total)
        return K, grads

    def _diag_and_grads(self, X):
        d = np.full(X.shape[0], self.variance)
        zeros = np.zeros(X.shape[0])
        grads = [d.copy(), zeros.copy()]
        if self.learn_period:
            grads.append(zeros.copy())
        return d, grads

    def _grad_x(self, X, X2):
        diff, u, s, K = self._parts(X, X2)
        coeff = -2.0 * np.pi / (self.lengthscale**2 * self.period)
        return K[..., None] * coeff * np.sin(2.0 * u)

    def _get_params(self):
        params = [self.log_variance, self.log_lengthscale]
        if self.learn_period:
            params.append(self.log_period)
        return params

    def _set_params(self, values):
        self.log_variance = values[0]
        self.log_lengthscale = values[1]
        if self.learn_period:
            self.log_period = values[2]

    def param_names(self, prefix=""):
        names = [prefix + "periodic.log_variance", prefix + "periodic.log_lengthscale"]
        if self.learn_period:
            names.append(prefix + "periodic.log_period")
        return names

    def __repr__(self):
        return (
            f"Periodic(variance={self.variance:.4g}, lengthscale={self.lengthscale:.4g}, "
            f"period={self.period:.4g})"
        )


class _Combination(Kernel):
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

    def _gram(self, X, X2):
        return sum(child._gram(X, X2) for child in self.children)

    def _diag(self, X):
        return sum(child._diag(X) for child in self.children)

    def _gram_and_grads(self, X, X2):
        K_total, grads = None, []
        for child in self.children:
            K, g = child._gram_and_grads(X, X2)
            K_total = K if K_total is None else K_total + K
            grads.extend(g)
        return K_total, grads

    def _diag_and_grads(self, X):
        d_total, grads = None, []
        for child in self.children:
            d, g = child._diag_and_grads(X)
            d_total = d if d_total is None else d_total + d
            grads.extend(g)
        return d_total, grads

    def _grad_x(self, X, X2):
        return sum(child._grad_x(X, X2) for child in self.children)

    def __repr__(self):
        return " + ".join(repr(c) for c in self.children)


def _times(a, b):
    """a * b, where None stands for an empty product."""
    if a is None:
        return b
    if b is None:
        return a
    return a * b


class Product(_Combination):
    """Elementwise product of child kernels."""

    _tag = "prod"

    def _gram(self, X, X2):
        K = self.children[0]._gram(X, X2)
        for child in self.children[1:]:
            K = K * child._gram(X, X2)
        return K

    def _diag(self, X):
        d = self.children[0]._diag(X)
        for child in self.children[1:]:
            d = d * child._diag(X)
        return d

    def _others_product(self, mats):
        # prefix/suffix products so no division is needed when a factor is ~0;
        # None stands for an empty product, so no pass multiplies by 1.0
        prefix, suffix = [None], [None]
        for m in mats[:-1]:
            prefix.append(_times(prefix[-1], m))
        for m in mats[:0:-1]:
            suffix.append(_times(suffix[-1], m))
        others = [_times(left, right) for left, right in zip(prefix, reversed(suffix))]
        return [1.0 if other is None else other for other in others]

    def _gram_and_grads(self, X, X2):
        Ks, grads_per_child = [], []
        for child in self.children:
            K, g = child._gram_and_grads(X, X2)
            Ks.append(K)
            grads_per_child.append(g)
        others = self._others_product(Ks)
        grads = []
        for g_list, other in zip(grads_per_child, others):
            grads.extend(g * other for g in g_list)
        # multiplied in _gram's order, so K is bit-identical to gram's
        K_total = Ks[0]
        for K in Ks[1:]:
            K_total = K_total * K
        return K_total, grads

    def _diag_and_grads(self, X):
        ds, grads_per_child = [], []
        for child in self.children:
            d, g = child._diag_and_grads(X)
            ds.append(d)
            grads_per_child.append(g)
        others = self._others_product(ds)
        grads = []
        for g_list, other in zip(grads_per_child, others):
            grads.extend(g * other for g in g_list)
        return others[0] * ds[0], grads

    def _grad_x(self, X, X2):
        Ks = [child._gram(X, X2) for child in self.children]
        others = self._others_product(Ks)
        total = None
        for child, other in zip(self.children, others):
            term = child._grad_x(X, X2) * other[..., None]
            total = term if total is None else total + term
        return total

    def __repr__(self):
        return " * ".join(f"({c!r})" for c in self.children)


class ActiveDims(Kernel):
    """Restrict a child kernel to a subset of the input columns."""

    def __init__(self, dims, child):
        dims = [int(d) for d in np.atleast_1d(dims)]
        if len(set(dims)) != len(dims):
            raise InputError(f"active dims must be distinct, got {dims}")
        if any(d < 0 for d in dims):
            raise InputError(f"active dims must be non-negative, got {dims}")
        if not isinstance(child, Kernel):
            raise InputError("ActiveDims needs a kernel child")
        self.dims = dims
        self.child = child

    def _slice(self, X):
        if max(self.dims) >= X.shape[1]:
            raise InputError(
                f"active dims {self.dims} out of range for {X.shape[1]}-column input"
            )
        return X[:, self.dims]

    def _gram(self, X, X2):
        return self.child._gram(self._slice(X), self._slice(X2))

    def _diag(self, X):
        return self.child._diag(self._slice(X))

    def _gram_and_grads(self, X, X2):
        return self.child._gram_and_grads(self._slice(X), self._slice(X2))

    def _diag_and_grads(self, X):
        return self.child._diag_and_grads(self._slice(X))

    def _grad_x(self, X, X2):
        sub = self.child._grad_x(self._slice(X), self._slice(X2))
        out = np.zeros(sub.shape[:2] + (X.shape[1],))
        out[..., self.dims] = sub
        return out

    def _get_params(self):
        return self.child._get_params()

    def _set_params(self, values):
        self.child._set_params(values)

    def param_names(self, prefix=""):
        return self.child.param_names(prefix + f"dims{self.dims}.")

    def __repr__(self):
        return f"ActiveDims({self.dims}, {self.child!r})"


# -- config-driven construction -------------------------------------------

_LEAF_KEYS = {
    "se": {"dims", "variance", "lengthscale", "ard"},
    "periodic": {"dims", "variance", "lengthscale", "period", "learn_period"},
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
    body = dict(body or {})
    unknown = set(body) - _LEAF_KEYS[kind]
    if unknown:
        raise InputError(f"unknown key '{sorted(unknown)[0]}' in '{kind}' kernel config")
    dims = body.pop("dims", None)
    if kind == "se":
        ard = body.pop("ard", False)
        lengthscale = body.get("lengthscale", 1.0)
        if ard and np.ndim(lengthscale) == 0:
            width = len(dims) if dims is not None else n_dims
            if width is None:
                raise InputError("ard=true needs 'dims' or a known input dimensionality")
            lengthscale = np.full(width, float(lengthscale))
        body["lengthscale"] = lengthscale
        leaf = SquaredExponential(**body)
    else:
        leaf = Periodic(**body)
    return ActiveDims(dims, leaf) if dims is not None else leaf


def to_config(kernel):
    """Inverse of from_config, with current hyperparameter values baked in."""
    if isinstance(kernel, ActiveDims):
        # configs carry dims on leaves only; slicing distributes over
        # sum/product, so push the wrapper into each branch
        if isinstance(kernel.child, (Sum, Product)):
            branches = [
                to_config(ActiveDims(kernel.dims, c)) for c in kernel.child.children
            ]
            return {"sum" if isinstance(kernel.child, Sum) else "product": branches}
        inner = to_config(kernel.child)
        kind, body = next(iter(inner.items()))
        if "dims" in body:
            # nested wrappers compose: inner indices address the outer slice
            body["dims"] = [kernel.dims[i] for i in body["dims"]]
        else:
            body["dims"] = list(kernel.dims)
        return {kind: body}
    if isinstance(kernel, Sum):
        return {"sum": [to_config(c) for c in kernel.children]}
    if isinstance(kernel, Product):
        return {"product": [to_config(c) for c in kernel.children]}
    if isinstance(kernel, SquaredExponential):
        body = {"variance": kernel.variance}
        if kernel.ard:
            body["lengthscale"] = [float(v) for v in np.atleast_1d(kernel.lengthscale)]
            body["ard"] = True
        else:
            body["lengthscale"] = float(kernel.lengthscale)
        return {"se": body}
    if isinstance(kernel, Periodic):
        body = {
            "variance": kernel.variance,
            "lengthscale": kernel.lengthscale,
            "period": kernel.period,
        }
        if kernel.learn_period:
            body["learn_period"] = True
        return {"periodic": body}
    raise InputError(f"cannot serialize kernel of type {type(kernel)}")


def rescale_periods(kernel, column_scales):
    """Return a copy with each periodic leaf's period divided by its column scale.

    Periods are configured in raw input units (hours); model inputs are
    z-scored per column, so the period seen by the kernel must shrink by the
    same factor. Each periodic leaf must act on exactly one column for the
    rescaling to be well defined.
    """
    column_scales = np.asarray(column_scales, dtype=float)
    out = kernel.copy()

    def walk(node, dims):
        if isinstance(node, ActiveDims):
            walk(node.child, node.dims)
        elif isinstance(node, (Sum, Product)):
            for child in node.children:
                walk(child, dims)
        elif isinstance(node, Periodic):
            if dims is None or len(dims) != 1:
                raise InputError(
                    "period rescaling needs each periodic leaf on exactly one column"
                )
            node.log_period = float(np.log(node.period / column_scales[dims[0]]))

    walk(out, None)
    return out
