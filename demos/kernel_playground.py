"""Tour of the kernel language: composition, gradients, serialization.

Run: python demos/kernel_playground.py
"""

import numpy as np

from sensorgp import ActiveDims, Periodic, SquaredExponential, from_config, to_config


def main():
    rng = np.random.default_rng(0)

    # each leaf reads its own input columns: space (columns 0 and 1) gets a
    # smooth SE kernel, time (column 2) gets daily * weekly periodicity
    space = SquaredExponential(variance=1.0, lengthscale=0.5, dims=[0, 1])
    time = Periodic(1.0, 1.0, 24.0, dims=[2]) * Periodic(1.0, 1.0, 168.0, dims=[2])
    kernel = space + time

    # ActiveDims pushes one column choice into every leaf of a subtree
    same = space + ActiveDims([2], Periodic(1.0, 1.0, 24.0) * Periodic(1.0, 1.0, 168.0))
    print(f"ActiveDims builds the same tree: {to_config(same) == to_config(kernel)}\n")

    print("kernel parameters (log scale, depth first):")
    for name, value in zip(kernel.param_names(), kernel.log_params()):
        print(f"  {name:45s} {value:+.3f}")

    X = np.column_stack(
        [rng.uniform(0, 1, size=(6, 2)), rng.uniform(0, 48, size=(6, 1))]
    )
    K = kernel.gram(X)
    print(f"\ngram on 6 random points: symmetric={np.array_equal(K, K.T)}, "
          f"min eigenvalue {np.linalg.eigvalsh(K).min():.2e}")

    # shifting the time column by one day leaves the time kernel unchanged
    shifted = X.copy()
    shifted[:, 2] += 24.0 * 7
    print(f"one-week time shift changes gram by "
          f"{np.abs(kernel.gram(X) - kernel.gram(shifted)).max():.2e} "
          f"(spatial part untouched, weekly period 168h)")

    # analytic gradients against a finite difference on one parameter
    K, grads = kernel.gram_and_grads(X, X)
    theta = kernel.log_params()
    j = 0
    h = 1e-6
    probe = kernel.copy()
    theta[j] += h
    probe.set_log_params(theta)
    fd = (probe.gram(X) - K) / h
    print(f"\ngradient check on {kernel.param_names()[j]}: "
          f"max |analytic - forward difference| = {np.abs(grads[j] - fd).max():.2e}")

    # kernels roundtrip through plain dict configs
    config = to_config(kernel)
    rebuilt = from_config(config)
    print(f"\nconfig roundtrip: {np.abs(rebuilt.gram(X) - kernel.gram(X)).max():.2e} "
          f"max gram difference")
    print("config:", config)


if __name__ == "__main__":
    main()
