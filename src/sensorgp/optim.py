"""First-order optimization: the one training loop every backend shares.

Adam-style gradient ascent with per-parameter adaptive steps, a fixed
iteration budget, a relative-improvement stopping rule, and best-iterate
tracking so the returned parameters never score worse than the starting
point. Exact and state-space fits step on their full objective, SVGP on
minibatch estimates of its bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .linalg import single_threaded_blas

MIN_LEARNING_RATE = 1e-8   # rejected steps halve the rate; below this the fit stops


@dataclass
class OptimizerOptions:
    learning_rate: float = 0.05
    max_iters: int = 500
    tol: float = 1e-6          # relative-improvement stopping tolerance
    patience: int = 20         # consecutive non-improving scores before stopping
    seed: int = 0
    batch_size: int = 256      # minibatch backends only
    eval_every: int = 50       # steps between full-objective scores (with `evaluate`)


@dataclass
class FitResult:
    """Outcome of a hyperparameter fit: best iterate and bookkeeping."""

    params: dict
    objective: float
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)


class AdamState:
    """Plain Adam moment accumulator (maximization convention)."""

    def __init__(self, n, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, x, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return x + self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self):
        self.m[:] = 0.0
        self.v[:] = 0.0
        self.t = 0


@single_threaded_blas()
def maximize(value_and_grad, x0, opts, evaluate=None, value=None):
    """Gradient-ascend an objective, returning the best scored iterate.

    value_and_grad(x) -> (value, gradient) drives the steps and may be a
    minibatch estimate. Without `evaluate`, each accepted step is scored by
    its value; with it, evaluate(x) scores the start and every
    eval_every-th step. The last step takes no gradient, since no step
    follows to use it: evaluate(x) scores it, or without evaluate value(x),
    which returns value_and_grad(x)'s value alone (value_and_grad itself
    where neither is given). The trace holds the scores, and patience
    counts those that fail to beat best + tol * (1 + |best|). A step whose
    value_and_grad (or, last, its score) fails numerically or goes
    non-finite is rejected: the rate halves, the moments reset and the loop
    resumes from the best iterate, until the rate falls below
    MIN_LEARNING_RATE or the budget is spent.

    The whole fit runs inside linalg.single_threaded_blas(), so its result
    does not depend on the caller's BLAS thread count. Returns (best_x,
    best_value, iterations, converged, trace); the caller labels
    parameters and packs a FitResult.
    """
    if opts.learning_rate <= 0.0:
        raise InputError(f"learning_rate must be positive, got {opts.learning_rate}")
    if opts.max_iters < 1:
        raise InputError(f"max_iters must be at least 1, got {opts.max_iters}")
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise InputError("initial parameters contain non-finite values")
    final = evaluate or value or (lambda x: value_and_grad(x)[0])
    step_value, grad = value_and_grad(x)
    score = step_value if evaluate is None else evaluate(x)
    if not np.isfinite(score):
        raise InputError(f"objective is non-finite at the starting point ({score})")

    best_x, best_value = x.copy(), score
    trace = [score]
    adam = AdamState(x.size, opts.learning_rate)
    stall = 0
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iters + 1):
        last = iterations == opts.max_iters
        candidate = adam.step(x, grad)
        try:
            if last:
                score = final(candidate)
                ok = np.isfinite(score)
            else:
                step_value, cand_grad = value_and_grad(candidate)
                ok = np.isfinite(step_value) and np.all(np.isfinite(cand_grad))
        except NumericalError:
            ok = False
        if not ok:
            # reject, back off and restart the moments from the incumbent
            adam.lr *= 0.5
            adam.reset()
            if adam.lr < MIN_LEARNING_RATE or last:
                break
            x = best_x.copy()
            _, grad = value_and_grad(x)
            continue
        if last:
            x = candidate
        else:
            x, grad = candidate, cand_grad
            if evaluate is None:
                score = step_value
            elif iterations % opts.eval_every == 0:
                score = evaluate(x)
            else:
                continue
        trace.append(score)
        if score > best_value + opts.tol * (1.0 + abs(best_value)):
            stall = 0
        else:
            stall += 1
        if score > best_value:
            best_x, best_value = x.copy(), score
        if stall >= opts.patience:
            converged = True
            break

    return best_x, best_value, iterations, converged, trace
