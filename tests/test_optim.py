import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensorgp import optim
from sensorgp.data import build_dataset, synth_generate
from sensorgp.errors import InputError, NumericalError
from sensorgp.evaluation import ExperimentConfig, fit_model


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def value_and_grad(x):
        d = x - center
        return float(-np.sum(d * d)), -2.0 * d

    return value_and_grad


def test_maximize_concave_quadratic():
    opts = optim.OptimizerOptions(learning_rate=0.1, max_iters=2000, tol=1e-12, patience=100)
    best_x, best_v, iters, converged, trace = optim.maximize(
        quadratic([1.0, -2.0, 0.5]), np.zeros(3), opts
    )
    np.testing.assert_allclose(best_x, [1.0, -2.0, 0.5], atol=1e-3)
    assert best_v > -1e-5
    assert iters <= opts.max_iters
    assert trace[-1] == pytest.approx(best_v)


def test_best_iterate_is_returned_not_last():
    # objective with a narrow peak: overshooting after the peak must not
    # degrade the reported optimum
    calls = []

    def vag(x):
        v = float(-((x[0] - 3.0) ** 2))
        calls.append(v)
        return v, np.array([-2.0 * (x[0] - 3.0)])

    opts = optim.OptimizerOptions(learning_rate=0.5, max_iters=300, tol=0.0, patience=300)
    best_x, best_v, *_ = optim.maximize(vag, np.array([0.0]), opts)
    assert best_v == pytest.approx(max(calls), abs=1e-12)


def test_trace_best_matches_objective():
    opts = optim.OptimizerOptions(learning_rate=0.05, max_iters=200)
    _, best_v, _, _, trace = optim.maximize(quadratic([0.7]), np.array([5.0]), opts)
    assert max(trace) == pytest.approx(best_v)


def test_patience_stops_early():
    opts = optim.OptimizerOptions(learning_rate=1e-9, max_iters=5000, tol=1e-3, patience=5)
    _, _, iters, converged, _ = optim.maximize(quadratic([1.0]), np.array([0.0]), opts)
    assert converged
    assert iters < 200


def test_non_finite_start_rejected():
    with pytest.raises(InputError):
        optim.maximize(quadratic([0.0]), np.array([np.nan]), optim.OptimizerOptions())


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_non_finite_start_is_an_input_error_for_every_backend(backend):
    dataset = build_dataset(synth_generate(sites=3, days=1, seed=0).readings)
    config = ExperimentConfig(backend=backend, noise_variance=math.nan, budget=5).resolved()
    with pytest.raises(InputError, match="non-finite"):
        fit_model(dataset, config, seed=1)


def test_recovers_from_numerical_errors():
    # objective blows up beyond x=2; the optimizer should back off and still
    # converge toward the peak at 1.9
    def vag(x):
        if x[0] > 2.0:
            raise NumericalError("region not factorizable")
        return float(-((x[0] - 1.9) ** 2)), np.array([-2.0 * (x[0] - 1.9)])

    opts = optim.OptimizerOptions(learning_rate=0.3, max_iters=3000, tol=1e-10, patience=200)
    best_x, best_v, *_ = optim.maximize(vag, np.array([0.0]), opts)
    assert best_x[0] == pytest.approx(1.9, abs=1e-2)


def test_adam_state_step_direction():
    adam = optim.AdamState(2, learning_rate=0.1)
    x = np.zeros(2)
    g = np.array([1.0, -1.0])
    x2 = adam.step(x, g)
    # maximization: step moves along the gradient
    assert x2[0] > 0 and x2[1] < 0


def test_options_validation():
    with pytest.raises(InputError):
        optim.maximize(quadratic([0.0]), np.zeros(1), optim.OptimizerOptions(learning_rate=-1.0))
    with pytest.raises(InputError):
        optim.maximize(quadratic([0.0]), np.zeros(1), optim.OptimizerOptions(max_iters=0))


def test_evaluate_scores_start_every_eval_every_and_last_step():
    center = np.array([2.0, -1.0])
    steps = []
    evaluated = []      # value_and_grad calls made before each evaluate call

    def vag(x):
        steps.append(x)
        value, grad = quadratic(center)(x)
        return value - 1000.0, grad       # a step value the scores must not use

    def evaluate(x):
        evaluated.append(len(steps))
        return quadratic(center)(x)[0]

    opts = optim.OptimizerOptions(
        learning_rate=0.1, max_iters=23, tol=0.0, patience=100, eval_every=5
    )
    best_x, best_v, iters, converged, trace = optim.maximize(
        vag, np.zeros(2), opts, evaluate=evaluate
    )
    # one call at the start, then one per step: step k is call k + 1; the
    # last step is scored by evaluate alone
    assert evaluated == [1, 6, 11, 16, 21, 23]
    assert iters == 23 and not converged
    assert len(trace) == 6
    assert trace[0] == quadratic(center)(np.zeros(2))[0]
    assert best_v == max(trace)
    assert best_v == quadratic(center)(best_x)[0]


@pytest.mark.parametrize("last_score", [-0.5, math.nan], ids=["finite", "nan"])
def test_evaluate_takes_no_gradient_at_the_last_step(last_score):
    vag_calls, evaluate_calls = [], []

    def vag(x):
        vag_calls.append(x)
        return quadratic([1.0])(x)

    def evaluate(x):
        evaluate_calls.append(x)
        return last_score if len(evaluate_calls) == 3 else -float(len(evaluate_calls))

    opts = optim.OptimizerOptions(
        learning_rate=0.1, max_iters=10, tol=0.0, patience=100, eval_every=5
    )
    best_x, best_v, iters, converged, trace = optim.maximize(
        vag, np.zeros(1), opts, evaluate=evaluate
    )
    # the start and steps 1-9 take gradients; step 10 is only scored
    assert len(vag_calls) == 10 and len(evaluate_calls) == 3 and iters == 10
    assert not any(np.array_equal(evaluate_calls[2], x) for x in vag_calls)
    if math.isnan(last_score):
        # a non-finite last score is a rejected step: no trace entry, no best
        assert trace == [-1.0, -2.0] and best_v == -1.0
        np.testing.assert_array_equal(best_x, np.zeros(1))
    else:
        assert trace == [-1.0, -2.0, -0.5] and best_v == -0.5
        np.testing.assert_array_equal(best_x, evaluate_calls[2])

    # without evaluate, every other step's value scores it, and the last step
    # calls value alone: a finite value is accepted whatever the gradient
    vag_calls.clear()
    value_calls = []

    def value(x):
        value_calls.append(x)
        return last_score

    def vag_nan_at_the_end(x):
        value, grad = vag(x)
        return value, grad * math.nan if len(vag_calls) == 11 else grad

    best_x, best_v, iters, _, trace = optim.maximize(vag, np.zeros(1), opts, value=value)
    assert len(vag_calls) == 10 and len(value_calls) == 1 and iters == 10
    assert not any(np.array_equal(value_calls[0], x) for x in vag_calls)
    assert len(trace) == (10 if math.isnan(last_score) else 11)
    if not math.isnan(last_score):
        assert trace[-1] == -0.5
    # with neither, value_and_grad scores the last step, its gradient unused
    vag_calls.clear()
    trace = optim.maximize(vag_nan_at_the_end, np.zeros(1), opts)[-1]
    assert len(vag_calls) == 11 and len(trace) == 11


def test_patience_counts_scores_not_steps_or_rejections():
    # with `evaluate`, a flat score stops the fit after `patience` scores
    opts = optim.OptimizerOptions(
        learning_rate=0.1, max_iters=1000, tol=0.0, patience=3, eval_every=4
    )
    _, _, iters, converged, trace = optim.maximize(
        quadratic([5.0]), np.zeros(1), opts, evaluate=lambda x: 0.0
    )
    assert converged and iters == 12 and trace == [0.0] * 4

    # without it, every accepted step is a score and a rejection is not
    calls = []

    def flat(x):
        calls.append(x)
        if len(calls) == 2:
            raise NumericalError("first step fails")
        return 0.0, np.ones(1)

    opts = optim.OptimizerOptions(learning_rate=0.1, max_iters=1000, tol=0.0, patience=3)
    _, _, iters, converged, trace = optim.maximize(flat, np.zeros(1), opts)
    assert converged and iters == 4 and trace == [0.0] * 4


def test_objective_failing_after_the_start_stops_at_the_rate_floor():
    x0 = np.array([0.5, -0.5])

    def vag(x):
        if not np.array_equal(x, x0):
            raise NumericalError("fails everywhere but the start")
        return -1.0, np.array([1.0, 1.0])

    opts = optim.OptimizerOptions(learning_rate=0.05, max_iters=100)
    best_x, best_v, iters, converged, trace = optim.maximize(vag, x0, opts)
    # each rejection halves the rate; the first rate below the floor stops
    assert iters == math.ceil(math.log2(opts.learning_rate / optim.MIN_LEARNING_RATE))
    assert iters < opts.max_iters
    assert not converged
    np.testing.assert_array_equal(best_x, x0)
    assert best_v == -1.0 and trace == [-1.0]


@settings(max_examples=40, deadline=None)
@given(
    center=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    curvature=st.floats(0.1, 10.0),
    wall=st.floats(0.05, 2.0),
    failure=st.sampled_from(["raise", "nan"]),
    scored=st.booleans(),
    learning_rate=st.floats(0.01, 1.0),
)
def test_best_iterate_property_with_a_failing_region(
    center, curvature, wall, failure, scored, learning_rate
):
    # concave quadratic that fails beyond x[0] = wall, by raising or going NaN
    center = np.array(center)

    def objective(x):
        d = x - center
        return float(-curvature * np.sum(d * d)), -2.0 * curvature * d

    def fails_beyond_wall(x):
        if x[0] > wall and failure == "raise":
            raise NumericalError("outside the factorizable region")
        return x[0] > wall

    def vag(x):
        if fails_beyond_wall(x):
            return math.nan, np.full(x.size, math.nan)
        value, grad = objective(x)
        return value + 0.1 * math.sin(value), grad   # a noisy step estimate

    def full_objective(x):
        # fails where the step estimate does, as a full bound fails where
        # its minibatch estimate does; it alone scores the last step
        return math.nan if fails_beyond_wall(x) else objective(x)[0]

    evaluate = full_objective if scored else None
    score = evaluate or (lambda x: vag(x)[0])
    opts = optim.OptimizerOptions(
        learning_rate=learning_rate, max_iters=60, patience=10, eval_every=3
    )
    best_x, best_v, _, _, trace = optim.maximize(vag, np.zeros(center.size), opts, evaluate)
    assert best_v == max(trace) >= trace[0]
    assert best_x[0] <= wall
    assert score(best_x) == best_v
