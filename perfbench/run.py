"""Benchmark of sensorgp: one workload per process, end to end through the CLI.

    python3 perfbench/run.py --workload forecast-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src and
nothing else. Set-up (input generation and, for predict-served, the
served models' fits) is repeated and timed on its own; the measured phase
then runs whole rounds of the workload until --seconds have passed.
Thread variables (OPENBLAS_NUM_THREADS and the like) are left as found.

--trace 0 prints the end-to-end metrics; --trace 1 installs spans around
the program's layers and prints the per-layer metrics instead. The last
line of stdout is the result as one JSON object; the line before it is
the environment the run found. Both, with per-round figures, also go to
perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# span name -> per-layer metrics read from its summary: (metric suffix, field)
LAYER_METRICS = {
    "kernels.gram_and_grads": (("s", "self_s"), ("calls", "calls")),
    "kernels.gram": (("s", "self_s"), ("calls", "calls")),
    "kernels.grad_x": (("s", "self_s"),),
    "kernels.diag_and_grads": (("s", "self_s"),),
    "linalg.chol_with_jitter": (("s", "self_s"), ("calls", "calls"), ("jittered", "count")),
    "optim.maximize": (("s", "self_s"),),
    "exact_gp.predict": (("s", "self_s"),),
    "svgp.elbo_and_grad": (("s", "self_s"), ("calls", "calls")),
    "svgp.elbo": (("s", "self_s"), ("calls", "calls")),
    "svgp.init_inducing": (("s", "self_s"),),
    "svgp.predict": (("s", "self_s"),),
    "statespace.lml": (("s", "self_s"), ("calls", "calls")),
    "statespace.predict": (("s", "self_s"),),
    "evaluation.fold": (("s", "total_s"),),
    "model_io.load_model": (("s", "self_s"),),
    "model_io.save_model": (("s", "self_s"),),
    "model_io.predict_readings": (("s", "self_s"),),
    "data.load_sensor_csv": (("s", "self_s"), ("rows", "count")),
    "data.build_dataset": (("s", "self_s"), ("calls", "calls")),
    "data.remove_outliers": (("s", "self_s"),),
    "data.join_weather": (("s", "self_s"),),
}


def per_layer_names():
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    names = []
    for span, fields in LAYER_METRICS.items():
        for suffix, _ in fields:
            names.append((f"{span}.{suffix}", "s" if suffix == "s" else "count"))
    names += [
        ("exact_gp.lml_grad.s", "s"), ("exact_gp.lml_grad.calls", "count"),
        ("optim.iters", "count"), ("svgp.fit.iters", "count"),
        ("statespace.fit.iters", "count"), ("evaluation.fold_concurrency", "ratio"),
        ("cli.self.s", "s"), ("round.s", "s"),
    ]
    return names


def layer_metrics(setup_spans, round_spans, n_setups, n_rounds, round_walls):
    """Per-layer figures for one set-up plus one measured round."""
    setup = tracing.summarize(setup_spans)
    rounds = tracing.summarize(round_spans)

    def value(span, field):
        a = setup.get(span, {}).get(field, 0) / n_setups
        return a + rounds.get(span, {}).get(field, 0) / n_rounds

    out = {}
    for span, fields in LAYER_METRICS.items():
        for suffix, field in fields:
            out[f"{span}.{suffix}"] = value(span, field)
    out["exact_gp.lml_grad.s"] = (
        value("exact_gp.lml", "self_s") + value("exact_gp.lml_grad", "self_s")
    )
    out["exact_gp.lml_grad.calls"] = value("exact_gp.lml_grad", "calls")
    out["optim.iters"] = value("optim.maximize", "count")
    out["svgp.fit.iters"] = value("svgp.fit", "count")
    out["statespace.fit.iters"] = value("statespace.fit", "count")
    protocol = rounds.get("evaluation.protocol", {}).get("total_s", 0.0)
    folds = rounds.get("evaluation.fold", {}).get("total_s", 0.0)
    out["evaluation.fold_concurrency"] = folds / protocol if protocol else 0.0
    out["cli.self.s"] = value("cli", "self_s")
    out["round.s"] = statistics.median(round_walls)
    units = dict(per_layer_names())
    return {name: {"value": out[name], "unit": units[name]} for name, _ in per_layer_names()}


def blas_build(package):
    """The BLAS a package was built against; numpy and scipy each bundle their own."""
    try:
        deps = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # releases without the dict form
        return {"name": "unknown"}
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}


def environment(np, scipy):
    """What the run found: cores, package versions, BLAS builds, thread settings."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas_build(np), "scipy": blas_build(scipy)},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_program(root):
    """Import sensorgp from the checkout's src/ only."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import sensorgp
    import sensorgp.cli  # noqa: F401 -- loads every module the CLI uses
    if Path(sensorgp.__file__).resolve().parent != (src / "sensorgp").resolve():
        raise ImportError(f"sensorgp imported from {sensorgp.__file__}, not {src}")
    return sensorgp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        sensorgp = import_program(root)
    except ImportError as err:
        print(f"error: cannot import the program from {root / 'src'}: {err}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / tag
    results = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)

    patches = tracing.Patches()
    recorder = workloads.Recorder()
    recorder.install(patches, sensorgp)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install("sensorgp")
    try:
        try:
            setup_times = []
            for _ in range(workload.setup_repeats):
                start = time.perf_counter()
                state = workload.setup(sensorgp, work, args.seed)
                setup_times.append(time.perf_counter() - start)
            setup_end = tracer.mark() if tracer else 0

            walls, cpus = [], []
            attempted = failed = 0
            begin = time.perf_counter()
            while not walls or time.perf_counter() - begin < args.seconds:
                recorder.calls.clear()
                wall0, cpu0 = time.perf_counter(), cpu_seconds()
                try:
                    ops, bad = workload.round(sensorgp, state)
                except Exception:  # noqa: BLE001 -- a crashed round counts as failed
                    traceback.print_exc()
                    ops, bad = workload.ops, workload.ops
                walls.append(time.perf_counter() - wall0)
                cpus.append(cpu_seconds() - cpu0)
                attempted += ops
                failed += bad
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if tracer:
                tracer.uninstall()
            patches.undo()
        try:
            rmse, failures = workload.check(sensorgp, state, recorder)
        except (OSError, KeyError, ValueError) as err:   # an output missing or malformed
            rmse, failures = float("nan"), [f"{args.workload}: outputs unreadable: {err!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer:
        recorded = tracer.spans
        metrics = layer_metrics(recorded[:setup_end], recorded[setup_end:],
                                len(setup_times), len(walls), walls)
        tracer.write(results / f"{tag}.spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "rmse_ugm3": {"value": rmse, "unit": "ug/m3"},
        }
    env = environment(np, scipy)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, setup_s=setup_times, round_wall_s=walls,
                  round_cpu_s=cpus, rmse_ugm3=rmse, noise_floor_ugm3=state["held"].floor,
                  check_failures=failures)
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
