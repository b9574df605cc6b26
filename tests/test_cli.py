"""End-to-end runs of the command-line entry points, in process."""

import csv
import json

import numpy as np
import pytest

from sensorgp import data, model_io
from sensorgp import evaluation as eval_mod
from sensorgp.cli import main

BASE = "2021-11-01T00:00:00Z"


def hour_stamp(h):
    day, hh = divmod(h, 24)
    return f"2021-11-{1 + day:02d}T{hh:02d}:00:00Z"


def write_sensors(path, sites, n_hours=72, fn=None):
    """sites: list of (site_id, lat, lon, base_value)."""
    lines = ["site_id,latitude,longitude,timestamp,pm2_5"]
    for sid, lat, lon, base in sites:
        for h in range(n_hours):
            value = base if fn is None else fn(base, h)
            lines.append(f"{sid},{lat},{lon},{hour_stamp(h)},{value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_config(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


MEAN_PREDICTOR = {
    "backend": "exact",
    "kernel_variance": 1e-12,
    "noise_variance": 1.0,
    "budget": 1,
    "learning_rate": 1e-9,
    "repetitions": 1,
    "seeds": [1],
}


@pytest.fixture()
def sensors(tmp_path):
    return write_sensors(
        tmp_path / "sensors.csv",
        [("a", 0.30, 32.50, 10.0), ("b", 0.31, 32.52, 20.0), ("c", 0.29, 32.54, 30.0)],
    )


def test_synth_is_deterministic_and_meta_matches(tmp_path):
    config = write_config(
        tmp_path / "synth.json",
        {"synth": {"sites": 3, "days": 2, "seed": 7, "missing_rate": 0.1}},
    )
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["synth", "--config", str(config), "--out-dir", str(out1)]) == 0
    assert main(["synth", "--config", str(config), "--out-dir", str(out2)]) == 0

    data1 = (out1 / "synthetic.csv").read_bytes()
    assert data1 == (out2 / "synthetic.csv").read_bytes()
    assert (out1 / "latent.csv").read_bytes() == (out2 / "latent.csv").read_bytes()

    header, rows = read_csv_rows(out1 / "synthetic.csv")
    assert header == ["site_id", "latitude", "longitude", "timestamp", "pm2_5"]
    meta = json.loads((out1 / "synth_meta.json").read_text(encoding="utf-8"))
    assert meta["sites"] == 3
    assert meta["seed"] == 7
    assert meta["spike_rate"] == pytest.approx(0.02)
    assert meta["rows_written"] == len(rows)
    # with 10% dropout the corpus is strictly smaller than the full grid
    assert 0 < len(rows) < 3 * 48

    latent_header, latent_rows = read_csv_rows(out1 / "latent.csv")
    assert latent_header == ["site_id", "timestamp", "latent"]
    assert len(latent_rows) == len(rows)


def test_synth_seed_flag_overrides_config(tmp_path):
    config = write_config(
        tmp_path / "synth.json", {"synth": {"sites": 2, "days": 1, "seed": 7}}
    )
    out = tmp_path / "out"
    assert main(
        ["synth", "--config", str(config), "--out-dir", str(out), "--seed", "9"]
    ) == 0
    meta = json.loads((out / "synth_meta.json").read_text(encoding="utf-8"))
    assert meta["seed"] == 9


def test_synth_without_config_uses_defaults(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--out-dir", str(out), "--seed", "3"]) == 0
    meta = json.loads((out / "synth_meta.json").read_text(encoding="utf-8"))
    assert meta["sites"] == 66
    assert meta["days"] == 30
    assert meta["rows_written"] > 40000


@pytest.mark.parametrize("key,value", [
    ("sites", "ten"), ("days", 2.5), ("missing_rate", True), ("start", 5), ("start", "bogus"),
])
def test_synth_names_a_malformed_value(tmp_path, capsys, key, value):
    config = write_config(tmp_path / "synth.json", {"synth": {"sites": 2, "days": 1, key: value}})
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 1
    assert f"synth.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_accepts_an_integer_rate_and_a_yaml_datetime(tmp_path):
    config = tmp_path / "synth.yaml"
    config.write_text("synth: {sites: 2, days: 1, spike_rate: 0, start: 2021-11-02T00:00:00Z}\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(config), "--out-dir", str(out)]) == 0
    meta = json.loads((out / "synth_meta.json").read_text(encoding="utf-8"))
    assert meta["spike_rate"] == 0 and meta["start"] == "2021-11-02T00:00:00+00:00"


# an on-grid site at a training hour, and an off-grid site after the last hour
TWO_QUERIES = (
    "site_id,latitude,longitude,timestamp\n"
    "a,0.30,32.50,2021-11-01T05:00:00Z\n"
    "new,0.40,32.60,2021-11-04T00:00:00Z\n"
)


def fit(tmp_path, sensors, experiment, weather=None):
    """`sensorgp fit` on the sensor file with one experiment; returns the model path."""
    section = {"sensors": str(sensors), "min_site_readings": 10}
    if weather is not None:
        section["weather"] = str(weather)
    config = write_config(
        tmp_path / "run.json", {"data": section, "experiment": experiment}
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", str(config), "--out-dir", str(out)]) == 0
    return out / "model.json"


def predict(model_path, queries):
    """`sensorgp predict` into the model's directory; returns the exit status."""
    return main(
        ["predict", "--model", str(model_path), "--queries", str(queries),
         "--out-dir", str(model_path.parent)]
    )


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_fit_then_predict_roundtrip(tmp_path, sensors, capsys, backend):
    model_path = fit(tmp_path, sensors, {**MEAN_PREDICTOR, "backend": backend})
    assert json.loads(model_path.read_text(encoding="utf-8"))["backend"] == backend
    assert "wrote" in capsys.readouterr().out

    queries = tmp_path / "queries.csv"
    queries.write_text(TWO_QUERIES, encoding="utf-8")
    assert predict(model_path, queries) == 0
    header, rows = read_csv_rows(model_path.parent / "predictions.csv")
    assert header == [
        "site_id", "latitude", "longitude", "timestamp",
        "mean", "latent_std", "observed_std",
    ]
    assert [r[0] for r in rows] == ["a", "new"]
    # near-zero kernel with one optimizer step leaves every backend at the
    # training mean, (10 + 20 + 30) / 3, everywhere
    for row in rows:
        assert float(row[4]) == pytest.approx(20.0, abs=1e-6)
        assert float(row[6]) >= float(row[5]) >= 0.0


def write_weather(path, n_hours=72):
    lines = ["timestamp,windspeed,winddir,windgust,humidity,temp,precip"]
    for h in range(n_hours):
        lines.append(
            f"{hour_stamp(h)},{1.0 + h % 5},{(47 * h) % 360},{3.0 + h % 3},"
            f"{0.5 + 0.01 * h},{20.0 + h % 7},{0.1 * (h % 4)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_predict_with_weather_covariates_matches_training_rows(tmp_path, sensors, capsys):
    weather = write_weather(tmp_path / "weather.csv")
    model_path = fit(
        tmp_path, sensors, {**MEAN_PREDICTOR, "additional_inputs": True}, weather
    )

    # site b at hour 29, with that hour's raw weather row (and no pm2_5)
    hour = 29
    header, *weather_rows = weather.read_text(encoding="utf-8").splitlines()
    queries = tmp_path / "queries.csv"
    queries.write_text(
        f"site_id,latitude,longitude,{header}\n"
        f"b,0.31,32.52,{weather_rows[hour]}\n",
        encoding="utf-8",
    )
    loaded = model_io.load_model(model_path)
    dataset = loaded.model.dataset
    assert "winddir_sin" in dataset.columns
    readings, ignored = data.load_query_csv(queries, dataset.columns)
    assert ignored == []
    train_X = np.array(json.loads(model_path.read_text(encoding="utf-8"))["train"]["X"])
    # training rows are sorted by (hour, site) over sites a, b, c
    np.testing.assert_array_equal(dataset.encode_inputs(readings)[0], train_X[3 * hour + 1])

    capsys.readouterr()
    assert predict(model_path, queries) == 0
    assert "warning" not in capsys.readouterr().err
    _, rows = read_csv_rows(model_path.parent / "predictions.csv")
    assert [r[0] for r in rows] == ["b"]

    no_humidity = tmp_path / "no_humidity.csv"
    no_humidity.write_text(
        "latitude,longitude,timestamp,windspeed,winddir,windgust,temp,precip\n"
        "0.31,32.52,2021-11-02T05:00:00Z,1,2,3,4,5\n",
        encoding="utf-8",
    )
    assert predict(model_path, no_humidity) == 1
    assert "humidity" in capsys.readouterr().err


@pytest.mark.parametrize("latitude", ["abc", "nan"])
def test_predict_rejects_bad_query_coordinates(tmp_path, sensors, capsys, latitude):
    model_path = fit(tmp_path, sensors, MEAN_PREDICTOR)
    queries = tmp_path / "queries.csv"
    queries.write_text(
        "site_id,latitude,longitude,timestamp\n"
        f"q1,{latitude},32.6,2021-11-06T05:00:00Z\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert predict(model_path, queries) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "queries.csv: line 2: latitude" in err
    assert not (model_path.parent / "predictions.csv").exists()


@pytest.mark.parametrize("missing", ["normalization", "kernel"])
def test_predict_names_a_missing_model_file_key(tmp_path, sensors, capsys, missing):
    # an envelope block, then a key inside the exact backend's own block
    model_path = fit(tmp_path, sensors, MEAN_PREDICTOR)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    del doc[missing]
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    queries = tmp_path / "queries.csv"
    queries.write_text(TWO_QUERIES, encoding="utf-8")
    capsys.readouterr()
    assert predict(model_path, queries) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"missing key '{missing}'" in err
    assert not (model_path.parent / "predictions.csv").exists()


@pytest.mark.parametrize("dims", [[], ["a"], [0.5], [-1]])
def test_predict_names_malformed_kernel_dims(tmp_path, sensors, capsys, dims):
    model_path = fit(tmp_path, sensors, MEAN_PREDICTOR)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["kernel"]["se"]["dims"] = dims
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    queries = tmp_path / "queries.csv"
    queries.write_text(TWO_QUERIES, encoding="utf-8")
    capsys.readouterr()
    assert predict(model_path, queries) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "dims" in err
    assert not (model_path.parent / "predictions.csv").exists()


@pytest.mark.parametrize(
    "leaf", [[1], {"variance": "a"}, {"lengthscale": None}],
    ids=["body-not-mapping", "string-variance", "null-lengthscale"],
)
def test_predict_names_malformed_kernel_values(tmp_path, sensors, capsys, leaf):
    model_path = fit(tmp_path, sensors, MEAN_PREDICTOR)
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["kernel"]["se"] = leaf
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    queries = tmp_path / "queries.csv"
    queries.write_text(TWO_QUERIES, encoding="utf-8")
    capsys.readouterr()
    assert predict(model_path, queries) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "se kernel" in err
    assert not (model_path.parent / "predictions.csv").exists()


@pytest.mark.parametrize("backend", ["exact", "svgp", "statespace"])
def test_predict_names_non_finite_model_values(tmp_path, sensors, capsys, backend):
    model_path = fit(tmp_path, sensors, {**MEAN_PREDICTOR, "backend": backend})
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["mean"] = float("nan")              # json writes the NaN literal
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    queries = tmp_path / "queries.csv"
    queries.write_text(TWO_QUERIES, encoding="utf-8")
    capsys.readouterr()
    assert predict(model_path, queries) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "NaN is not a finite number" in err
    assert not (model_path.parent / "predictions.csv").exists()


def test_predict_requires_model_flag(tmp_path):
    queries = tmp_path / "queries.csv"
    queries.write_text("latitude,longitude,timestamp\n0,0,2021-11-01T00:00:00Z\n")
    with pytest.raises(SystemExit) as err:
        main(["predict", "--queries", str(queries)])
    assert err.value.code == 2


def test_predict_warns_on_extra_query_columns(tmp_path, sensors, capsys):
    model_path = fit(tmp_path, sensors, MEAN_PREDICTOR)
    queries = tmp_path / "queries.csv"
    queries.write_text(
        "latitude,longitude,timestamp,elevation\n"
        "0.30,32.50,2021-11-01T05:00:00Z,1200\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert predict(model_path, queries) == 0
    captured = capsys.readouterr()
    assert "ignoring extra query column(s)" in captured.err
    assert "elevation" in captured.err
    _, rows = read_csv_rows(model_path.parent / "predictions.csv")
    assert len(rows) == 1


def test_missing_sensor_file_reports_error(tmp_path, capsys):
    config = write_config(
        tmp_path / "run.json",
        {"data": {"sensors": str(tmp_path / "nope.csv")}},
    )
    assert main(["benchmark", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "nope.csv" in captured.err


@pytest.mark.parametrize("command", ["benchmark", "fit", "stats"])
def test_dropping_every_sparse_site_names_the_setting(tmp_path, capsys, command):
    # 5 sites x 3 days gives 72 readings a site, under the default minimum of 100
    synth = write_config(tmp_path / "synth.json", {"synth": {"sites": 5, "days": 3}})
    assert main(["synth", "--config", str(synth), "--out-dir", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    config = write_config(
        tmp_path / "run.json",
        {"data": {"sensors": str(tmp_path / "s" / "synthetic.csv")},
         "experiment": {"backend": "exact", "budget": 1}},
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "min_site_readings is 100" in err and "all 5 sites" in err
    assert not out.exists()


def test_unknown_config_keys_are_named(tmp_path, capsys):
    config = write_config(tmp_path / "bad.json", {"experimnt": {}})
    assert main(["benchmark", "--config", str(config)]) == 1
    assert "experimnt" in capsys.readouterr().err

    nested = write_config(
        tmp_path / "nested.json",
        {"cleaning": {"facto": 2.0}},
    )
    assert main(["benchmark", "--config", str(nested)]) == 1
    assert "cleaning.facto" in capsys.readouterr().err

    # a misspelt key, and `parallelism`: folds run one at a time, so no key sets how many
    for key in ("budge", "parallelism"):
        row = write_config(
            tmp_path / "row.json",
            {"benchmark": {"matrix": [{"backend": "exact", key: 3}]}},
        )
        assert main(["benchmark", "--config", str(row)]) == 1
        assert f"unknown config key 'benchmark.matrix[0].{key}'" in capsys.readouterr().err


def test_yaml_config_parses(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(
        "data:\n  sensors: missing.csv\nseed: 4\n", encoding="utf-8"
    )
    # reaches the loader (file error), so the YAML itself parsed fine
    assert main(["stats", "--config", str(config)]) == 1
    assert "missing.csv" in capsys.readouterr().err


def benchmark_config(tmp_path, sensors, matrix=None):
    return write_config(
        tmp_path / "bench.json",
        {
            "data": {"sensors": str(sensors), "min_site_readings": 10},
            "benchmark": {"matrix": matrix if matrix is not None else [MEAN_PREDICTOR]},
        },
    )


def test_benchmark_runs_matrix_and_is_deterministic(tmp_path, sensors):
    config = benchmark_config(tmp_path, sensors)
    out1 = tmp_path / "b1"
    out2 = tmp_path / "b2"
    assert main(["benchmark", "--config", str(config), "--out-dir", str(out1)]) == 0
    assert main(["benchmark", "--config", str(config), "--out-dir", str(out2)]) == 0

    for name in ("comparison.csv", "comparison.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def scrub(path):
        blob = json.loads(path.read_text(encoding="utf-8"))
        for report in blob["reports"]:
            report.pop("fold_seconds")  # wall-clock timing, run-dependent
        return blob

    assert scrub(out1 / "reports.json") == scrub(out2 / "reports.json")

    header, rows = read_csv_rows(out1 / "comparison.csv")
    assert header[:2] == ["protocol", "name"]
    assert [r[0] for r in rows] == ["nowcast", "forecast"]

    reports = json.loads((out1 / "reports.json").read_text(encoding="utf-8"))
    assert set(reports) == {"data_notes", "reports"}
    assert reports["data_notes"]["rows_read"] == 3 * 72
    assert len(reports["reports"]) == 2

    # constant sites at 10/20/30: every nowcast fold predicts the mean of the
    # other two sites, so the per-site errors are exactly 15, 0, 15
    nowcast = next(r for r in reports["reports"] if r["protocol"] == "nowcast")
    per_site = sorted(nowcast["per_site"].values())
    assert np.allclose(per_site, [0.0, 15.0, 15.0], atol=1e-6)

    text = (out1 / "comparison.txt").read_text(encoding="utf-8")
    assert "== nowcast ==" in text
    assert "== forecast ==" in text


def test_benchmark_protocol_flag_restricts_rows(tmp_path, sensors):
    config = benchmark_config(tmp_path, sensors)
    out = tmp_path / "out"
    assert main(
        ["benchmark", "--config", str(config), "--out-dir", str(out),
         "--protocol", "forecast"]
    ) == 0
    _, rows = read_csv_rows(out / "comparison.csv")
    assert [r[0] for r in rows] == ["forecast"]


def test_benchmark_runs_the_configured_protocols(tmp_path, sensors, capsys):
    config = write_config(
        tmp_path / "bench.json",
        {"data": {"sensors": str(sensors), "min_site_readings": 10},
         "benchmark": {"matrix": [MEAN_PREDICTOR], "protocols": ["forecast"]}},
    )
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(config), "--out-dir", str(out)]) == 0
    _, rows = read_csv_rows(out / "comparison.csv")
    assert [r[0] for r in rows] == ["forecast"]
    # the flag wins over the config
    assert main(["benchmark", "--config", str(config), "--out-dir", str(out),
                 "--protocol", "nowcast"]) == 0
    _, rows = read_csv_rows(out / "comparison.csv")
    assert [r[0] for r in rows] == ["nowcast"]
    capsys.readouterr()

    unknown = write_config(
        tmp_path / "unknown.json",
        {"data": {"sensors": str(sensors), "min_site_readings": 10},
         "benchmark": {"matrix": [MEAN_PREDICTOR], "protocols": ["hindcast"]}},
    )
    assert main(["benchmark", "--config", str(unknown), "--out-dir", str(out)]) == 1
    assert "unknown protocol 'hindcast'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["stats", "--config", "run.json", "--seed", "3"],
    ["benchmark", "--config", "run.json", "--seed", "3"],
    ["predict", "--model", "m.json", "--queries", "q.csv", "--seed", "3"],
    ["predict", "--model", "m.json", "--queries", "q.csv", "--backend", "exact"],
    ["stats", "--config", "run.json", "--backend", "svgp"],
    ["synth", "--backend", "exact"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, key, value", [
    ("stats", "data", "min_site_readings", "lots"),
    ("stats", "data", "min_site_readings", 2.7),
    ("benchmark", "cleaning", "factor", "big"),
    ("fit", "experiment", "budget", "ten"),
    ("fit", "experiment", "periodic", "no"),
    ("fit", None, "seed", "3"),
])
def test_malformed_config_numbers_are_named(tmp_path, sensors, capsys,
                                            command, section, key, value):
    # nothing is coerced: 2.7 is not truncated, "3" is not a number
    payload = {"data": {"sensors": str(sensors), "min_site_readings": 10},
               "experiment": dict(MEAN_PREDICTOR),
               "benchmark": {"matrix": [MEAN_PREDICTOR]}}
    (payload if section is None else payload.setdefault(section, {}))[key] = value
    config = write_config(tmp_path / "run.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("section, edit, named", [
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, budget="ten")]}, "benchmark.matrix[0].budget"),
    ("benchmark", {"matrix": [MEAN_PREDICTOR, dict(MEAN_PREDICTOR, seeds=5)]},
     "benchmark.matrix[1].seeds"),
    ("benchmark", {"protocols": ["hindcast"]}, "benchmark.protocols"),
    ("cleaning", {"remove_outliers": True, "scope": "bogus"}, "cleaning.scope"),
    ("cleaning", {"mode": "median"}, "cleaning.mode"),
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, periodic="no")]},
     "benchmark.matrix[0].periodic"),
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, clean_outliers="false")]},
     "benchmark.matrix[0].clean_outliers"),
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, additional_inputs="yes")]},
     "benchmark.matrix[0].additional_inputs"),
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, backend="svgp", optimize_inducing="no")]},
     "benchmark.matrix[0].optimize_inducing"),
    ("cleaning", {"remove_outliers": "false"}, "cleaning.remove_outliers"),
    ("benchmark", {"matrix": [dict(MEAN_PREDICTOR, backend="statespace", temporal="matern52")]},
     "benchmark.matrix[0].temporal"),
    ("benchmark", {"matrix": []}, "benchmark.matrix must be"),
], ids=["row-budget", "row-seeds", "protocol", "scope", "mode", "periodic-flag", "clean-flag",
        "inputs-flag", "inducing-flag", "remove-flag", "temporal", "empty-matrix"])
def test_benchmark_config_fails_before_loading_data(tmp_path, sensors, capsys,
                                                    section, edit, named):
    # every row and name is checked first: the error names its key, and no
    # output directory is made
    payload = {"data": {"sensors": str(sensors), "min_site_readings": 10},
               "benchmark": {"matrix": [MEAN_PREDICTOR]}}
    payload.setdefault(section, {}).update(edit)
    config = write_config(tmp_path / "run.json", payload)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", str(config), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, edit, flags, named", [
    ("benchmark", {"benchmark": {"matrix": [dict(MEAN_PREDICTOR, backend="svgp", seeds=[-1])]}},
     [], "benchmark.matrix[0].seeds"),
    ("fit", {"seed": -1}, [], "seed"),
    ("fit", {}, ["--seed", "-1"], "--seed"),
    ("synth", {"synth": {"sites": 2, "days": 1, "seed": -1}}, [], "synth.seed"),
    ("synth", {"synth": {"sites": 2, "days": 1}}, ["--seed", "-1"], "--seed"),
], ids=["row", "fit-config", "fit-flag", "synth-config", "synth-flag"])
def test_negative_seeds_are_named(tmp_path, sensors, capsys, command, edit, flags, named):
    payload = {"data": {"sensors": str(sensors), "min_site_readings": 10},
               "experiment": dict(MEAN_PREDICTOR), **edit}
    config = write_config(tmp_path / "run.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out-dir", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{named} must be" in err and "-1" in err
    assert not out.exists()


def test_benchmark_backend_filter_with_no_match_fails(tmp_path, sensors, capsys):
    config = benchmark_config(tmp_path, sensors)
    assert main(
        ["benchmark", "--config", str(config), "--out-dir", str(tmp_path / "o"),
         "--backend", "svgp"]
    ) == 1
    assert "svgp" in capsys.readouterr().err


def test_stats_tables(tmp_path, sensors):
    def bump(base, h):
        return base + (5.0 if h % 24 == 8 else 0.0)

    data = write_sensors(
        tmp_path / "shaped.csv",
        [("a", 0.30, 32.50, 10.0), ("b", 0.31, 32.52, 20.0)],
        fn=bump,
    )
    config = write_config(
        tmp_path / "stats.json",
        {"data": {"sensors": str(data), "min_site_readings": 10},
         "output": {"directory": str(tmp_path / "stats_out")}},
    )
    assert main(["stats", "--config", str(config)]) == 0
    out = tmp_path / "stats_out"

    header, rows = read_csv_rows(out / "boxplots.csv")
    assert header == [
        "site_id", "hour", "count", "median", "q1", "q3",
        "lower_fence", "upper_fence", "outliers",
    ]
    assert len(rows) == 2 * 24
    assert all(r[2] == "3" for r in rows)

    header, rows = read_csv_rows(out / "hourly_means.csv")
    assert header == ["site_id", "hour", "mean"]
    means = {(r[0], int(r[1])): float(r[2]) for r in rows}
    assert means[("a", 8)] == pytest.approx(15.0)
    assert means[("a", 9)] == pytest.approx(10.0)
    assert means[("b", 8)] == pytest.approx(25.0)

    header, rows = read_csv_rows(out / "overall_hourly_means.csv")
    assert header == ["hour", "mean"]
    overall = {int(r[0]): float(r[1]) for r in rows}
    assert len(overall) == 24
    assert overall[8] == pytest.approx(20.0)
    assert overall[0] == pytest.approx(15.0)


def test_fit_saves_periodic_models(tmp_path, sensors):
    # the periodic tree wraps a product of kernels in a column filter, which
    # must survive serialization
    model_path = fit(tmp_path, sensors, {**MEAN_PREDICTOR, "periodic": True})
    queries = tmp_path / "queries.csv"
    queries.write_text(
        "latitude,longitude,timestamp\n0.30,32.50,2021-11-02T00:00:00Z\n",
        encoding="utf-8",
    )
    assert predict(model_path, queries) == 0
    _, rows = read_csv_rows(model_path.parent / "predictions.csv")
    assert float(rows[0][4]) == pytest.approx(20.0, abs=1e-6)


def test_fit_honors_config_output_directory(tmp_path, sensors):
    out = tmp_path / "from_config"
    config = write_config(
        tmp_path / "run.json",
        {
            "data": {"sensors": str(sensors), "min_site_readings": 10},
            "experiment": MEAN_PREDICTOR,
            "output": {"directory": str(out)},
        },
    )
    assert main(["fit", "--config", str(config)]) == 0
    assert (out / "model.json").exists()


def test_benchmark_matches_library_run_at_default_blas_threads(tmp_path):
    # the CLI runs BLAS on one thread, a library caller at the default
    # thread count; OpenBLAS sums in a thread-dependent order, so the exact
    # backend's RMSEs may differ in the last bits, never in the table
    def wavy(base, h):
        return base + 6.0 * np.sin(2 * np.pi * h / 24) + ((37 * h + int(base)) % 11) / 5

    sensors = write_sensors(
        tmp_path / "wavy.csv",
        [("a", 0.30, 32.50, 10.0), ("b", 0.31, 32.52, 20.0), ("c", 0.29, 32.54, 30.0)],
        fn=wavy,
    )
    matrix = [
        {"backend": "exact", "periodic": True, "budget": 10, "repetitions": 1,
         "seeds": [1]},
        {"backend": "svgp", "budget": 60, "n_inducing": 16, "batch_size": 64},
    ]
    config = benchmark_config(tmp_path, sensors, matrix)
    out = tmp_path / "cli"
    assert main(
        ["benchmark", "--config", str(config), "--out-dir", str(out), "--protocol", "both"]
    ) == 0

    readings, _ = data.load_sensor_csv(sensors)
    reports = eval_mod.run_matrix(
        readings, [eval_mod.ExperimentConfig(**row) for row in matrix]
    )
    eval_mod.write_comparison_csv(reports, tmp_path / "library.csv")
    assert (out / "comparison.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    cli_reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))["reports"]
    assert len(cli_reports) == len(reports) == 4
    for cli_report, report in zip(cli_reports, reports):
        assert cli_report["per_site"] == pytest.approx(report.per_site, rel=1e-12, abs=0)
