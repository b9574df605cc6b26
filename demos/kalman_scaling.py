"""State-space GP: same posterior as the dense solver, linear cost in time.

Run: python demos/kalman_scaling.py
"""

import time

import numpy as np

from sensorgp import GPModel, Kernel, SquaredExponential, StateSpaceGP, temporal_kernel


def main():
    rng = np.random.default_rng(2)

    # small problem both solvers can handle: 3 sites, 50 shared hours, gaps
    coords = rng.uniform(0, 1, size=(3, 2))
    times = np.sort(rng.uniform(0, 20, size=50))
    rows, vals = [], []
    for t in times:
        for i in range(3):
            if rng.random() < 0.25:
                continue
            rows.append([coords[i, 0], coords[i, 1], t])
            vals.append(np.sin(t / 3.0) + 0.3 * rng.standard_normal())
    X, y = np.array(rows), np.array(vals)

    spatial = SquaredExponential(1.0, 0.5)
    temporal = temporal_kernel("matern32", variance=1.0, lengthscale=3.0)
    kalman = StateSpaceGP(spatial, temporal, X, y, noise_variance=0.1)

    # dense reference: same separable covariance, materialized; a kernel node
    # with no hyperparameters of its own can compute its whole matrix as its base
    class Separable(Kernel):
        def _base(self, A, B, paired):
            if paired:
                return spatial.diag(A[:, :2]) * temporal.variance
            return spatial.gram(A[:, :2], B[:, :2]) * temporal.covariance(A[:, 2:] - B[:, 2])

        def _forward(self, K):
            return K, None

        def _get_params(self):
            return []

    dense = GPModel(Separable(), X, y, noise_variance=0.1, mean=float(y.mean()))

    Xq = np.array([[coords[0, 0], coords[0, 1], times[-1] + 2.0],
                   [0.5, 0.5, 10.0]])
    pk, pd = kalman.predict(Xq), dense.predict(Xq)
    print(f"log marginal likelihood: kalman {kalman.log_marginal_likelihood():.6f}, "
          f"dense {dense.log_marginal_likelihood():.6f}")
    print(f"prediction gap on 2 queries: mean {np.abs(pk.mean - pd.mean).max():.2e}, "
          f"variance {np.abs(pk.latent_variance - pd.latent_variance).max():.2e}")

    # scaling: the filter walks time once, so cost grows linearly with T
    print("\nfilter sweep runtime as the series grows (4 sites):")
    coords4 = rng.uniform(0, 1, size=(4, 2))
    for T in (1000, 2000, 4000):
        tgrid = np.arange(T, dtype=float)
        Xg = np.column_stack([
            np.tile(coords4, (T, 1)),
            np.repeat(tgrid, 4),
        ])
        yg = rng.standard_normal(len(Xg))
        model = StateSpaceGP(spatial, temporal, Xg, yg, noise_variance=0.1)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            model.log_marginal_likelihood()
            best = min(best, time.perf_counter() - t0)
        print(f"  T={T:5d}: {best * 1e3:7.1f} ms")
    print("a dense solve at T=4000 with 4 sites would factor a 16000x16000 matrix")


if __name__ == "__main__":
    main()
