"""The four workloads: inputs, one measured round each, and their checks.

Each workload drives the program only through `sensorgp.cli.main`. A
`Recorder` observes the models the program fits and the predictions it
makes, so the checks can compare them with oracles computed here.
"""

import contextlib
import copy
import csv
import io
import json
import math
from datetime import datetime, timezone

import numpy as np

import checks
import inputs


class Recorder:
    """Keeps (kind, model, argument, result) for each fit and predict call."""

    def __init__(self):
        self.calls = []

    def install(self, patches, sensorgp):
        def make(kind):
            def wrap(fn):
                def recorded(model, *args, **kwargs):
                    result = fn(model, *args, **kwargs)
                    self.calls.append((kind, model, args[0] if args else None, result))
                    return result
                return recorded
            return wrap

        for cls in (sensorgp.GPModel, sensorgp.SVGPModel, sensorgp.StateSpaceGP):
            patches.method(cls, "predict", make("predict"))
        for cls in (sensorgp.SVGPModel, sensorgp.StateSpaceGP):
            patches.method(cls, "fit", make("fit"))

    def of(self, kind, cls):
        return [c for c in self.calls if c[0] == kind and isinstance(c[1], cls)]


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _cli(sensorgp, argv):
    """One CLI call with its stdout kept out of the benchmark's own output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return sensorgp.cli.main(argv)


class Held:
    """Held-out readings of a network and the figures checks compare against."""

    def __init__(self, net, test_mask):
        self.net = net
        self.mask = test_mask
        self.index = {(int(s), int(h)): i for i, (s, h) in enumerate(zip(net.site, net.hour))}
        self.floor = checks.rmse(net.observed[test_mask], net.latent[test_mask])
        self.sites = sorted({net.site_ids[s] for s in net.site[test_mask]})

    def rows_from_inputs(self, dataset, Xq):
        """Reading indices for encoded query rows, decoded with the dataset's statistics."""
        raw = Xq[:, :3] * dataset.col_scale[:3] + dataset.col_mean[:3]
        offset = (dataset.t0 - inputs.START).total_seconds() / 3600.0
        hours = np.rint(raw[:, 2] + offset).astype(int)
        coords = np.column_stack([self.net.lat, self.net.lon])
        d2 = np.sum((raw[:, None, :2] - coords[None, :, :]) ** 2, axis=-1)
        sites = np.argmin(d2, axis=1)
        matched = d2[np.arange(len(sites)), sites] <= 1e-16
        # -1 marks a row that is no held-out reading; the row checks report it
        return [self.index.get((int(s), int(h)), -1) if ok else -1
                for s, h, ok in zip(sites, hours, matched)]


def _forecast_baseline(net, test_mask):
    """Per-site mean of the training readings, scored on the final day."""
    pred = np.empty(int(test_mask.sum()))
    for k, i in enumerate(np.flatnonzero(test_mask)):
        rows = (~test_mask) & (net.site == net.site[i])
        pred[k] = net.observed[rows].mean()
    return checks.rmse(pred, net.observed[test_mask])


def _nowcast_baseline(net):
    """Mean of the other sites' readings, scored on each held-out site."""
    pred = np.empty(net.site.size)
    for s in range(len(net.site_ids)):
        pred[net.site == s] = net.observed[net.site != s].mean()
    return checks.rmse(pred, net.observed)


def _check_protocol(held, report, recorder, model_cls, n_seeds, what):
    """Checks shared by the protocol workloads; returns (pooled RMSE, failures, predicts).

    Predict calls come seed by seed (forecast) or fold by fold (nowcast, one
    seed), so each seed's share of the calls must cover every held-out row once.
    """
    failures = checks.check_sites_scored(held.sites, report["per_site"], what)
    predicts = recorder.of("predict", model_cls)
    if not predicts:
        return math.nan, failures + [f"{what}: no predictions were made"], predicts
    expected = list(np.flatnonzero(held.mask))
    per_seed = len(predicts) // n_seeds
    errors, seed_rmse = [], []
    for k in range(n_seeds):
        rows, err = [], []
        for _, model, Xq, pred in predicts[k * per_seed:(k + 1) * per_seed]:
            ds = model.dataset
            fold_rows = held.rows_from_inputs(ds, Xq)
            rows += fold_rows
            err.append(pred.mean * ds.y_scale + ds.y_mean - held.net.observed[fold_rows])
            failures += checks.check_finite_and_variances(
                pred.mean, pred.latent_variance, pred.observed_variance, what
            )
        failures += checks.check_rows_predicted(expected, rows, f"{what} seed {k + 1}")
        errors.append(np.concatenate(err))
        seed_rmse.append(np.sqrt(np.mean(errors[-1] ** 2)))
    # the program's pooled RMSE is the mean over seeds of each seed's RMSE
    own = float(np.mean(seed_rmse))
    if abs(own - report["pooled_rmse"]) > checks.REPORT_TOL * own:
        failures.append(
            f"{what}: reported pooled RMSE {report['pooled_rmse']!r} != recomputed {own!r}"
        )
    return float(np.sqrt(np.mean(np.concatenate(errors) ** 2))), failures, predicts


class ForecastExact:
    """66 sites x 30 days; `benchmark --protocol forecast` with one exact periodic row."""

    name = "forecast-exact"
    sites, days = 66, 30
    row = {
        "backend": "exact", "name": "exact-periodic-cleaned", "periodic": True,
        "clean_outliers": True, "subsample": 700, "budget": 5,
        "repetitions": 2, "seeds": [1, 2],
    }
    protocol = "forecast"
    ops = 1                  # one protocol run per round
    setup_repeats = 9        # set-up is short; its median needs many samples

    def setup(self, sensorgp, work, seed):
        net = inputs.generate(self.sites, self.days, seed)
        test = net.hour >= net.hours - 24
        inputs.write_readings(work / "readings.csv", net, np.ones(net.site.size, bool))
        _write_json(work / "run.json", {
            "data": {"sensors": str(work / "readings.csv")},
            "benchmark": {"matrix": [self.row]},
        })
        return {"work": work, "held": Held(net, test)}

    def round(self, sensorgp, state):
        work = state["work"]
        rc = _cli(sensorgp, ["benchmark", "--config", str(work / "run.json"),
                             "--protocol", self.protocol, "--out-dir", str(work / "out")])
        return self.ops, self.ops * int(rc != 0)

    def baseline(self, held):
        return _forecast_baseline(held.net, held.mask)

    def check(self, sensorgp, state, recorder):
        held = state["held"]
        report = json.loads((state["work"] / "out" / "reports.json").read_text())["reports"][0]
        failures = []
        if report["omitted_sites"]:
            failures.append(f"{self.name}: sites omitted: {report['omitted_sites']}")
        pooled, more, predicts = _check_protocol(
            held, report, recorder, sensorgp.GPModel, len(self.row["seeds"]), self.name
        )
        failures += more
        failures += checks.check_rmse_floor(
            pooled, held.floor, checks.FLOOR_FACTOR[self.row["backend"]], self.name
        )
        failures += checks.check_below_baseline(pooled, self.baseline(held), self.name)
        for _, model, Xq, pred in predicts:
            mean, var = checks.dense_posterior(
                checks.gram_of(sensorgp.to_config(model.kernel)),
                model.X, model.y, model.noise_variance, model.mean, Xq,
            )
            failures += checks.check_close(pred.mean, mean, 1.0, checks.DENSE_MEAN_TOL,
                                           f"{self.name}: exact mean")
            failures += checks.check_close(pred.latent_variance, np.maximum(var, 0.0), 1.0,
                                           checks.DENSE_MEAN_TOL, f"{self.name}: exact variance")
        return pooled, failures


class NowcastSVGP(ForecastExact):
    """10 sites x 14 days plus weather; `benchmark --protocol nowcast` with the SVGP row."""

    name = "nowcast-svgp"
    sites, days = 10, 14
    row = {
        "backend": "svgp", "name": "svgp", "periodic": True, "clean_outliers": True,
        "additional_inputs": True, "optimize_inducing": True, "budget": 40,
        "n_inducing": 40,
    }
    protocol = "nowcast"
    ops = 10                 # one fold per site

    def setup(self, sensorgp, work, seed):
        net = inputs.generate(self.sites, self.days, seed)
        inputs.write_readings(work / "readings.csv", net, np.ones(net.site.size, bool))
        inputs.write_weather(work / "weather.csv", net)
        _write_json(work / "run.json", {
            "data": {"sensors": str(work / "readings.csv"),
                     "weather": str(work / "weather.csv")},
            "benchmark": {"matrix": [self.row]},
        })
        return {"work": work, "held": Held(net, np.ones(net.site.size, bool))}

    def baseline(self, held):
        return _nowcast_baseline(held.net)

    def check(self, sensorgp, state, recorder):
        held = state["held"]
        report = json.loads((state["work"] / "out" / "reports.json").read_text())["reports"][0]
        pooled, failures, _ = _check_protocol(
            held, report, recorder, sensorgp.SVGPModel, 1, self.name
        )
        failures += checks.check_rmse_floor(
            pooled, held.floor, checks.FLOOR_FACTOR[self.row["backend"]], self.name
        )
        failures += checks.check_below_baseline(pooled, self.baseline(held), self.name)
        fits = recorder.of("fit", sensorgp.SVGPModel)
        if len(fits) != self.sites:
            failures.append(f"{self.name}: {len(fits)} SVGP fits for {self.sites} folds")
        for _, model, _, result in fits:
            optimal = copy.deepcopy(model)
            optimal.set_optimal_variational()
            failures += checks.check_elbo(
                result.objective_trace[0], result.objective, optimal.elbo(), self.name
            )
        return pooled, failures


class ForecastStateSpace(ForecastExact):
    """20 sites x 14 days; `benchmark --protocol forecast` with the state-space row."""

    name = "forecast-statespace"
    sites, days = 20, 14
    row = {
        "backend": "statespace", "name": "statespace", "clean_outliers": True,
        "temporal": "matern32", "budget": 2,
    }
    protocol = "forecast"
    window = 16              # time steps in the dense comparison

    def check(self, sensorgp, state, recorder):
        held = state["held"]
        report = json.loads((state["work"] / "out" / "reports.json").read_text())["reports"][0]
        pooled, failures, _ = _check_protocol(
            held, report, recorder, sensorgp.StateSpaceGP, 1, self.name
        )
        # the state-space row scores worse than the training mean on small networks,
        # so only the noise-floor bound applies
        failures += checks.check_rmse_floor(
            pooled, held.floor, checks.FLOOR_FACTOR[self.row["backend"]], self.name
        )
        fits = recorder.of("fit", sensorgp.StateSpaceGP)
        if len(fits) != 1:
            return pooled, failures + [f"{self.name}: {len(fits)} state-space fits, expected 1"]
        failures += self.check_dense_window(sensorgp, fits[0][1])
        return pooled, failures

    def check_dense_window(self, sensorgp, model):
        """Filter likelihood and predictions on a sub-window against a dense separable GP."""
        grid = model.grid
        k_end = self.window
        cells = [(k, s) for k in range(k_end) for s in range(grid.coords.shape[0])
                 if not math.isnan(grid.values[k, s])]
        X = np.array([[*grid.coords[s], grid.times[k]] for k, s in cells])
        y = np.array([grid.values[k, s] for k, s in cells])
        temporal = model.temporal
        sub = sensorgp.StateSpaceGP(
            model.spatial_kernel,
            sensorgp.temporal_kernel(temporal.name, temporal.variance, temporal.lengthscale),
            X, y, noise_variance=model.noise_variance, mean=model.mean,
        )
        spatial = sensorgp.to_config(model.spatial_kernel)
        params = (temporal.name, temporal.variance, temporal.lengthscale)

        def gram(A, B):
            return checks.separable_gram(spatial, params, A, B)

        failures = []
        lml_filter = sub.log_marginal_likelihood()
        lml_dense = checks.dense_lml(gram(X, X), y, model.noise_variance, model.mean)
        failures += checks.check_close(
            lml_filter, lml_dense, 1.0 + abs(lml_dense), checks.STATESPACE_LML_TOL,
            f"{self.name}: filter log-likelihood",
        )
        # two steps past the window at every site, plus an off-grid point inside it
        step = grid.times[1] - grid.times[0]
        t_next = grid.times[k_end - 1] + step * np.array([1.0, 2.0])
        Xq = np.array([[*c, t] for t in t_next for c in grid.coords]
                      + [[*grid.coords.mean(axis=0), grid.times[k_end // 2]]])
        pred = sub.predict(Xq)
        mean, var = checks.dense_posterior(gram, X, y, model.noise_variance, model.mean, Xq)
        failures += checks.check_close(pred.mean, mean, 1.0, checks.STATESPACE_MEAN_TOL,
                                       f"{self.name}: smoother mean")
        failures += checks.check_close(pred.latent_variance, np.maximum(var, 0.0), 1.0,
                                       checks.STATESPACE_VAR_TOL, f"{self.name}: smoother variance")
        return failures


class PredictServed:
    """Models fitted in set-up on 66 sites x 29 days; `predict` on the final day's rows."""

    name = "predict-served"
    sites, days = 66, 30
    models = {
        "exact": {"backend": "exact", "periodic": True, "clean_outliers": True,
                  "subsample": 700, "budget": 3},
        "svgp": {"backend": "svgp", "periodic": True, "clean_outliers": True,
                 "budget": 60, "n_inducing": 60},
    }
    ops = len(models)        # one predict call per served model
    setup_repeats = 3        # each set-up fits both served models

    def setup(self, sensorgp, work, seed):
        net = inputs.generate(self.sites, self.days, seed)
        test = net.hour >= net.hours - 24
        inputs.write_readings(work / "train.csv", net, ~test)
        inputs.write_queries(work / "queries.csv", net, test)
        state = {"work": work, "held": Held(net, test)}
        for backend, row in self.models.items():
            config = work / f"{backend}.json"
            _write_json(config, {
                "data": {"sensors": str(work / "train.csv")},
                "experiment": row, "seed": 1,
            })
            state[backend] = work / backend
            rc = _cli(sensorgp, ["fit", "--config", str(config),
                                 "--out-dir", str(work / backend)])
            if rc != 0:
                raise RuntimeError(f"fit of the served {backend} model failed ({rc})")
        return state

    def round(self, sensorgp, state):
        failed = 0
        for backend in self.models:
            rc = _cli(sensorgp, ["predict", "--model", str(state[backend] / "model.json"),
                                 "--queries", str(state["work"] / "queries.csv"),
                                 "--out-dir", str(state[backend])])
            failed += int(rc != 0)
        return self.ops, failed

    def check(self, sensorgp, state, recorder):
        held = state["held"]
        net = held.net
        failures, errors = [], []
        expected = {(net.site_ids[net.site[i]], net.timestamp(net.hour[i])): i
                    for i in np.flatnonzero(held.mask)}
        for backend in self.models:
            what = f"{self.name} {backend}"
            rows = read_predictions(state[backend] / "predictions.csv")
            keys = [(r["site_id"], r["timestamp"]) for r in rows]
            failures += checks.check_rows_predicted(list(expected), keys, what)
            failures += checks.check_sites_scored(held.sites, {k[0] for k in keys}, what)
            mean = np.array([r["mean"] for r in rows])
            # 0 <= latent std <= observed std orders the variances the same way
            latent = np.array([r["latent_std"] for r in rows])
            observed = np.array([r["observed_std"] for r in rows])
            failures += checks.check_finite_and_variances(mean, latent, observed, what)
            truth = net.observed[[expected.get(k, 0) for k in keys]]
            value = checks.rmse(mean, truth)
            errors.append(mean - truth)
            failures += checks.check_rmse_floor(
                value, held.floor, checks.FLOOR_FACTOR[backend], what
            )
            if backend == "exact":
                failures += check_served_exact(state[backend] / "model.json", rows, what)
        pooled = float(np.sqrt(np.mean(np.concatenate(errors) ** 2)))
        return pooled, failures


def read_predictions(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for r in rows:
        for key in ("latitude", "longitude", "mean", "latent_std", "observed_std"):
            r[key] = float(r[key])
    return rows


def check_served_exact(model_path, rows, what):
    """Served exact means against a dense GP on the model file's own training rows."""
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    norm = doc["normalization"]
    if list(norm["columns"]) != ["lat", "lon", "time_h"]:
        return [f"{what}: unexpected model columns {norm['columns']}"]
    t0 = datetime.fromisoformat(norm["t0"])
    raw = np.array([
        [r["latitude"], r["longitude"],
         (datetime.fromisoformat(r["timestamp"].replace("Z", "+00:00"))
          - t0.astimezone(timezone.utc)).total_seconds() / 3600.0]
        for r in rows
    ])
    Xq = (raw - np.array(norm["col_mean"])) / np.array(norm["col_scale"])
    X = np.array(doc["train"]["X"])
    y = np.array(doc["train"]["y"])
    mean, _ = checks.dense_posterior(
        checks.gram_of(doc["kernel"]),
        X, y, float(doc["noise_variance"]), float(doc["mean"]), Xq,
    )
    served = (np.array([r["mean"] for r in rows]) - norm["y_mean"]) / norm["y_scale"]
    return checks.check_close(served, mean, 1.0, checks.DENSE_MEAN_TOL, f"{what}: mean")


WORKLOADS = {w.name: w for w in (ForecastExact, NowcastSVGP, ForecastStateSpace, PredictServed)}
