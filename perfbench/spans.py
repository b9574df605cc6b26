"""Spans around the program's layers, installed from the benchmark's side.

`Tracer.install` replaces public functions and methods of the sensorgp
modules with wrappers that record one span per call: name, start, end,
parent span and thread. A parent is the innermost open span on the same
thread, so a span's self time is its duration minus its children's.
Spans stay in memory and are written out when the run ends.

Functions imported by name into other modules (`from .linalg import
chol_with_jitter`) are replaced in every module namespace and module-level
dict that holds them, so calls through any of those names are seen.
"""

import functools
import itertools
import json
import sys
import threading
import time


def _rows_read(result):
    return result[1].rows_read


def _jittered(result):
    return int(result[1] > 0.0)


def _maximize_iters(result):
    return result[2]


def _fit_iters(result):
    return result.iterations


# (module, owner, attribute, span name, count taken from the result)
# The owner is a class name for methods, or None for a module function.
# `evaluation._fit_and_predict` is the one private function traced: it is
# the unit of work a fold (nowcast) or a seed (forecast) runs. Triangular
# solves are left untraced: the Kalman filter makes ~50k of them a round,
# and their time shows as the self time of the layer that calls them.
LAYERS = (
    ("cli", None, "main", "cli", None),
    ("data", None, "load_sensor_csv", "data.load_sensor_csv", _rows_read),
    ("data", None, "build_dataset", "data.build_dataset", None),
    ("data", None, "remove_outliers", "data.remove_outliers", None),
    ("data", None, "join_weather", "data.join_weather", None),
    ("evaluation", None, "nowcast_loo", "evaluation.protocol", None),
    ("evaluation", None, "forecast_holdout", "evaluation.protocol", None),
    ("evaluation", None, "_fit_and_predict", "evaluation.fold", None),
    ("kernels", "Kernel", "gram", "kernels.gram", None),
    ("kernels", "Kernel", "diag", "kernels.diag", None),
    ("kernels", "Kernel", "gram_and_grads", "kernels.gram_and_grads", None),
    ("kernels", "Kernel", "diag_and_grads", "kernels.diag_and_grads", None),
    ("kernels", "Kernel", "grad_x", "kernels.grad_x", None),
    ("linalg", None, "chol_with_jitter", "linalg.chol_with_jitter", _jittered),
    ("linalg", None, "chol_rev", "linalg.chol_rev", None),
    ("optim", None, "maximize", "optim.maximize", _maximize_iters),
    ("exact_gp", "GPModel", "log_marginal_likelihood", "exact_gp.lml", None),
    ("exact_gp", "GPModel", "grad_log_marginal_likelihood", "exact_gp.lml_grad", None),
    ("exact_gp", "GPModel", "fit", "exact_gp.fit", None),
    ("exact_gp", "GPModel", "predict", "exact_gp.predict", None),
    ("svgp", None, "init_inducing", "svgp.init_inducing", None),
    ("svgp", "SVGPModel", "elbo", "svgp.elbo", None),
    ("svgp", "SVGPModel", "elbo_and_grad", "svgp.elbo_and_grad", None),
    ("svgp", "SVGPModel", "fit", "svgp.fit", _fit_iters),
    ("svgp", "SVGPModel", "predict", "svgp.predict", None),
    ("statespace", "StateSpaceGP", "log_marginal_likelihood", "statespace.lml", None),
    ("statespace", "StateSpaceGP", "fit", "statespace.fit", _fit_iters),
    ("statespace", "StateSpaceGP", "predict", "statespace.predict", None),
    ("model_io", None, "save_model", "model_io.save_model", None),
    ("model_io", None, "load_model", "model_io.load_model", None),
    ("model_io", "LoadedModel", "predict_readings", "model_io.predict_readings", None),
)


class Patches:
    """Replacements of module attributes and methods, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, attribute, make_wrapper):
        original = getattr(module, attribute)
        wrapped = make_wrapper(original)
        package = module.__name__.rpartition(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set_item(value, k, wrapped)

    def method(self, cls, attribute, make_wrapper):
        self._set(cls, attribute, make_wrapper(vars(cls)[attribute]))

    def _set(self, owner, key, value):
        self._undo.append((setattr, owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            restore, owner, key, value = self._undo.pop()
            restore(owner, key, value)


class Tracer:
    """Collects spans: (id, name, start, end, parent id or 0, thread id, count)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = Patches()

    def wrapper(self, name, count):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = self._stack()
                span_id = next(self._ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                n = 0
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        n = count(result)
                    return result
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    self.spans.append(
                        (span_id, name, start, end, parent, threading.get_ident(), n)
                    )
            return traced
        return make

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, package):
        for module_name, owner, attribute, name, count in LAYERS:
            module = sys.modules[f"{package}.{module_name}"]
            make = self.wrapper(name, count)
            if owner is None:
                self._patches.function(module, attribute, make)
            else:
                self._patches.method(getattr(module, owner), attribute, make)

    def uninstall(self):
        self._patches.undo()

    def mark(self):
        """Position in the span list; spans after it belong to a later phase."""
        return len(self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: call count, summed count values, total and self seconds."""
    child_time = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for span_id, name, start, end, _, _, n in spans:
        entry = out.setdefault(name, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["count"] += n
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return out
