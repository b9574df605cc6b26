"""Command-line entry point: benchmark, fit, predict, stats, synth.

One structured config file (YAML or JSON) drives everything; a few
command-line flags override config values. All outputs are plain CSV,
text tables, or JSON, written under the configured output directory so
figures can be regenerated with any plotting tool. Runs are
reproducible: the same config and seeds give byte-identical CSVs.
"""

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from . import data as data_mod
from . import evaluation as eval_mod
from . import linalg, model_io
from .errors import ConfigError, InputError, SensorGPError

# a matrix row sets any experiment field but the outlier fences, which the
# `cleaning` section sets for every row
ROW_KEYS = tuple(
    f.name for f in dataclass_fields(eval_mod.ExperimentConfig)
    if not f.name.startswith("outlier_")
)

CONFIG_SCHEMA = {
    "data": {"sensors", "weather", "min_site_readings"},
    "cleaning": {"remove_outliers", "factor", "scope", "mode"},
    "experiment": set(ROW_KEYS),
    "benchmark": {"matrix", "protocols"},
    "synth": {f.name for f in dataclass_fields(data_mod.SynthConfig)},
    "output": {"directory"},
    "seed": None,
}


def _check_keys(node, allowed, where):
    if not isinstance(node, dict):
        raise ConfigError(f"config section {where!r} must be a mapping")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where + '.' + key!r}")


def load_config(path):
    """Parse and validate the run config; unknown keys are named and rejected."""
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith((".yaml", ".yml")):
        raw = yaml.safe_load(text)
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError:
            raw = yaml.safe_load(text)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    for key in raw:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    for section, allowed in CONFIG_SCHEMA.items():
        if allowed is not None and section in raw:
            _check_keys(raw[section], allowed, section)
    matrix = raw.get("benchmark", {}).get("matrix")
    if isinstance(matrix, list):
        for i, row in enumerate(matrix):
            _check_keys(row, set(ROW_KEYS), f"benchmark.matrix[{i}]")
    return raw


def _row_config(entries, cleaning):
    merged = dict(entries)
    if "clean_outliers" not in merged and cleaning.get("remove_outliers"):
        merged["clean_outliers"] = True
    return _with_fences(eval_mod.ExperimentConfig(**merged), cleaning)


def _config_number(value, key, kind):
    """`kind(value)`, or a ConfigError naming the config key it came from."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None


def _cleaning_choice(cleaning, key, default, choices):
    """The `cleaning` section's `key` if it is one of `choices`, else a ConfigError."""
    value = cleaning.get(key, default)
    if value not in choices:
        raise ConfigError(f"config key 'cleaning.{key}' must be one of {choices}, got {value!r}")
    return value


def _with_fences(config, cleaning):
    """The config with the outlier-fence settings of the `cleaning` section."""
    return replace(
        config,
        outlier_factor=_config_number(cleaning.get("factor", 1.5), "cleaning.factor", float),
        outlier_scope=_cleaning_choice(cleaning, "scope", "per-site", data_mod.OUTLIER_SCOPES),
        outlier_mode=_cleaning_choice(cleaning, "mode", "tukey", data_mod.OUTLIER_MODES),
    )


def _build_matrix(raw, overrides):
    """Every matrix row resolved and checked, so a bad row fails before any data loads."""
    cleaning = raw.get("cleaning", {})
    matrix = raw.get("benchmark", {}).get("matrix", "default")
    if matrix in (None, "default"):
        configs = [_with_fences(c, cleaning).resolved() for c in eval_mod.default_matrix()]
    elif isinstance(matrix, list):
        configs = [
            _row_config(row, cleaning).resolved(f"benchmark.matrix[{i}].")
            for i, row in enumerate(matrix)
        ]
    else:
        raise ConfigError("benchmark.matrix must be 'default' or a list of rows")
    if overrides.backend:
        configs = [c for c in configs if c.backend == overrides.backend]
        if not configs:
            raise ConfigError(f"no matrix rows use backend {overrides.backend!r}")
    return configs


def _load_readings(raw, need_covariates):
    section = raw.get("data", {})
    sensors = section.get("sensors")
    if not sensors:
        raise ConfigError("config key 'data.sensors' is required for this command")
    min_count = _config_number(
        section.get("min_site_readings", 100), "data.min_site_readings", int
    )
    readings, report = data_mod.load_sensor_csv(sensors)
    readings, dropped = data_mod.drop_sparse_sites(readings, min_count)
    if not len(readings):
        raise InputError(
            f"data.min_site_readings is {min_count}, and all {len(dropped)} sites "
            f"in {sensors} have fewer readings; lower the setting to keep them"
        )
    notes = {
        "rows_read": report.rows_read,
        "dropped_bad_value": report.dropped_bad_value,
        "duplicates_averaged": report.duplicates_averaged,
        "sparse_sites_dropped": dropped,
    }
    if need_covariates:
        weather = section.get("weather")
        if not weather:
            raise ConfigError(
                "additional inputs requested but config key 'data.weather' is unset"
            )
        readings, missed = data_mod.join_weather(readings, weather)
        notes["readings_without_weather"] = missed
        if not len(readings):
            raise InputError("no readings remained after joining weather data")
    return readings, notes


def _out_dir(raw, overrides):
    directory = overrides.out_dir or raw.get("output", {}).get("directory") or "out"
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")


def _format_float(value):
    return repr(float(value))


def _format_hours(hours):
    """Integer UTC hours since the epoch as ISO-8601 strings."""
    stamps = np.datetime_as_string(hours.astype("datetime64[h]"), unit="h")
    return [stamp + ":00:00Z" for stamp in stamps]


def _reading_rows(readings, *values):
    """Site, coordinates and timestamp of each reading, then the `values` columns."""
    lat, lon, *values = (map(_format_float, c) for c in (readings.lat, readings.lon, *values))
    return zip(readings.site, lat, lon, _format_hours(readings.hour), *values)


# -- commands ---------------------------------------------------------------

def cmd_benchmark(args):
    raw = load_config(args.config)
    configs = _build_matrix(raw, args)
    protocols = raw.get("benchmark", {}).get("protocols", ["nowcast", "forecast"])
    if args.protocol is not None:
        protocols = ["nowcast", "forecast"] if args.protocol == "both" else [args.protocol]
    if not isinstance(protocols, list) or not protocols:
        raise ConfigError("benchmark.protocols must be a non-empty list of protocol names")
    for name in protocols:
        if name not in tuple(eval_mod.PROTOCOLS):   # a YAML name may be unhashable
            raise ConfigError(f"unknown protocol {name!r} in benchmark.protocols "
                              "(expected nowcast/forecast)")
    need_covariates = any(c.additional_inputs for c in configs)
    readings, notes = _load_readings(raw, need_covariates)
    out = _out_dir(raw, args)

    reports = eval_mod.run_matrix(readings, configs, protocols)
    eval_mod.write_comparison_csv(reports, out / "comparison.csv")
    eval_mod.write_comparison_text(reports, out / "comparison.txt")
    payload = {"data_notes": notes, "reports": eval_mod.report_json(reports)}
    with open(out / "reports.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out / 'comparison.csv'}, {out / 'comparison.txt'}, {out / 'reports.json'}")
    return 0


def _single_config(raw, overrides):
    experiment = dict(raw.get("experiment", {}))
    if overrides.backend:
        experiment["backend"] = overrides.backend
    cleaning = raw.get("cleaning", {})
    return _row_config(experiment, cleaning).resolved("experiment.")


def cmd_fit(args):
    raw = load_config(args.config)
    config = _single_config(raw, args)
    seed = args.seed
    if seed is None:
        seed = _config_number(raw.get("seed", 0), "seed", int)
    readings, _ = _load_readings(raw, config.additional_inputs)
    readings = eval_mod._clean_training(readings, config)
    dataset = data_mod.build_dataset(
        readings, include_covariates=config.additional_inputs
    )
    model, result = eval_mod.fit_model(dataset, config, seed)

    out = _out_dir(raw, args)
    model_path = out / "model.json"
    model_io.save_model(model_path, model, result)
    print(f"wrote {model_path} (objective {result.objective:.4f}, "
          f"{result.iterations} iterations)")
    return 0


def cmd_predict(args):
    raw = load_config(args.config) if args.config else {}
    loaded = model_io.load_model(args.model)
    queries, ignored = data_mod.load_query_csv(args.queries, loaded.model.dataset.columns)
    if ignored:
        print(f"warning: ignoring extra query column(s) {ignored}", file=sys.stderr)
    mean, latent_std, observed_std = loaded.predict_readings(queries)

    out = _out_dir(raw, args)
    path = out / "predictions.csv"
    _write_csv(
        path,
        ("site_id", "latitude", "longitude", "timestamp",
         "mean", "latent_std", "observed_std"),
        _reading_rows(queries, mean, latent_std, observed_std),
    )
    print(f"wrote {path}")
    return 0


def cmd_stats(args):
    raw = load_config(args.config)
    readings, _ = _load_readings(raw, need_covariates=False)
    stats = data_mod.summary_stats(readings)
    out = _out_dir(raw, args)

    box_rows = []
    for site, boxes in stats.boxes.items():
        for b in boxes:
            box_rows.append(
                (
                    site, b.hour, b.count, _format_float(b.median),
                    _format_float(b.q1), _format_float(b.q3),
                    _format_float(b.lower_fence), _format_float(b.upper_fence),
                    ";".join(_format_float(v) for v in b.outliers),
                )
            )
    _write_csv(
        out / "boxplots.csv",
        ("site_id", "hour", "count", "median", "q1", "q3",
         "lower_fence", "upper_fence", "outliers"),
        box_rows,
    )
    mean_rows = [
        (site, hour, _format_float(value))
        for site, means in stats.site_hourly_means.items()
        for hour, value in means.items()
    ]
    _write_csv(out / "hourly_means.csv", ("site_id", "hour", "mean"), mean_rows)
    overall_rows = [
        (hour, _format_float(value))
        for hour, value in stats.overall_hourly_mean.items()
    ]
    _write_csv(out / "overall_hourly_means.csv", ("hour", "mean"), overall_rows)
    print(f"wrote {out / 'boxplots.csv'}, {out / 'hourly_means.csv'}, "
          f"{out / 'overall_hourly_means.csv'}")
    return 0


def cmd_synth(args):
    raw = load_config(args.config) if args.config else {}
    section = dict(raw.get("synth", {}))
    if "start" in section and isinstance(section["start"], str):
        section["start"] = datetime.fromisoformat(
            section["start"].replace("Z", "+00:00")
        )
    if args.seed is not None:
        section["seed"] = args.seed
    result = data_mod.synth_generate(**section)

    out = _out_dir(raw, args)
    readings = result.readings
    _write_csv(
        out / "synthetic.csv",
        ("site_id", "latitude", "longitude", "timestamp", "pm2_5"),
        _reading_rows(readings, readings.pm25),
    )
    latent_rows = zip(
        readings.site, _format_hours(readings.hour), map(_format_float, result.latents)
    )
    _write_csv(out / "latent.csv", ("site_id", "timestamp", "latent"), latent_rows)

    meta = {
        f.name: getattr(result.config, f.name)
        for f in dataclass_fields(result.config)
    }
    meta["start"] = result.config.start.isoformat()
    meta["rows_written"] = len(readings)
    with open(out / "synth_meta.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out / 'synthetic.csv'}, {out / 'latent.csv'}, {out / 'synth_meta.json'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sensorgp",
        description="GP regression toolkit for sparse air-quality sensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="YAML or JSON run config")
        p.add_argument("--out-dir", default=None, help="output directory override")

    def seed(p):
        p.add_argument("--seed", type=int, default=None, help="seed override")

    def backend(p):
        p.add_argument(
            "--backend", choices=tuple(model_io.BACKENDS), default=None,
            help="restrict or override the model backend",
        )

    p = sub.add_parser("benchmark", help="run the model-comparison matrix")
    common(p)
    backend(p)
    p.add_argument(
        "--protocol", choices=("nowcast", "forecast", "both"), default=None,
        help="protocols to run (default: benchmark.protocols, else both)",
    )
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("fit", help="train one model and save it")
    common(p)
    seed(p)
    backend(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict from a saved model")
    common(p, config_required=False)
    p.add_argument("--model", required=True, help="model file from a prior fit")
    p.add_argument("--queries", required=True, help="query CSV (latitude, longitude, timestamp)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stats", help="emit per-site box-plot and hourly-mean tables")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate synthetic data with known truth")
    common(p, config_required=False)
    seed(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with linalg.single_threaded_blas():
            return args.func(args)
    except SensorGPError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
