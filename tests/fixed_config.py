"""Run the fixed end-to-end config through `sensorgp.cli.main` into one directory.

    PYTHONPATH=src python tests/fixed_config.py OUT_DIR
    python tests/fixed_config.py --compare OLD_DIR NEW_DIR

It generates a `synth` network (5 sites x 3 days, seed 11) plus a 96-hour
weather CSV, runs `benchmark --protocol both` over exact, exact
periodic+cleaned+inputs, SVGP and state-space rows, then `fit` and
`predict` for each backend and `stats`. Every output lands under OUT_DIR
with no timing fields (`fold_seconds` is dropped from `reports.json`) and
no absolute paths, so two checkouts can be compared with `diff -r`.
The whole run takes a few minutes on one core.

`--compare` names each file that differs between two such directories
and, where only numbers differ, the largest relative difference between
them, so a change that moves last digits can quote the size of the move.
It exits 1 if anything differs, as `diff -r` does.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

WEATHER_HEADER = "timestamp,windspeed,winddir,windgust,humidity,temp,precip"

MATRIX = [
    {"backend": "exact", "name": "exact-12", "seeds": [1, 2], "repetitions": 2},
    {"backend": "exact", "name": "exact-3", "seeds": [3], "repetitions": 1},
    {"backend": "exact", "name": "exact-pci", "periodic": True, "clean_outliers": True,
     "additional_inputs": True, "budget": 40, "subsample": 150},
    {"backend": "svgp", "name": "svgp-pi", "periodic": True, "additional_inputs": True,
     "n_inducing": 15},
    {"backend": "svgp", "name": "svgp-b64", "batch_size": 64,
     "optimize_inducing": False, "budget": 700},
    {"backend": "statespace", "name": "ss-c", "clean_outliers": True, "budget": 40},
]

FITS = {
    "exact": {"backend": "exact", "periodic": True, "additional_inputs": True,
              "budget": 40, "subsample": 150},
    "svgp": {"backend": "svgp", "periodic": True, "n_inducing": 12, "budget": 300},
    "statespace": {"backend": "statespace", "budget": 30},
}

QUERIES = (
    "site_id,latitude,longitude,timestamp,windspeed,winddir,windgust,humidity,"
    "temp,precip,note\n"
    "site001,0.31,32.61,2021-11-03T05:00:00Z,2.5,200.0,4.0,0.8,22.5,0.0,a\n"
    "q2,0.33,32.55,2021-11-03T12:30:00Z,1.0,10.0,2.0,0.6,25.0,0.1,b\n"
    "site004,0.29,32.64,2021-11-04T00:00:00+03:00,3.0,350.0,5.5,0.9,21.0,0.0,c\n"
)


def write_weather(path, hours=96):
    import numpy as np    # here and in run: --compare needs only the stdlib

    rng = np.random.default_rng(5)
    lines = [WEATHER_HEADER]
    for h in range(hours):
        stamp = f"2021-11-{1 + h // 24:02d}T{h % 24:02d}:00:00Z"
        row = (
            3.0 + rng.random(), 360.0 * rng.random(), 5.0 + rng.random(),
            0.5 + 0.4 * rng.random(), 20.0 + 6.0 * rng.random(), 0.2 * rng.random(),
        )
        lines.append(stamp + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def run(argv, log):
    from sensorgp import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    log.write(f"{argv[0]} exit {code}\n{err.getvalue()}")
    if code != 0:
        raise SystemExit(f"{argv[0]} failed: {err.getvalue()}")


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    log = io.StringIO()

    run(["synth", "--config", _config(out, "synth.json",
                                      {"synth": {"sites": 5, "days": 3}}),
         "--seed", 11, "--out-dir", out / "synth"], log)
    write_weather(out / "weather.csv")
    data = {"sensors": str(out / "synth" / "synthetic.csv"),
            "weather": str(out / "weather.csv"), "min_site_readings": 10}

    config = _config(out, "benchmark.json",
                     {"data": data, "benchmark": {"matrix": MATRIX}})
    run(["benchmark", "--config", config, "--protocol", "both",
         "--out-dir", out / "benchmark"], log)
    reports = out / "benchmark" / "reports.json"
    doc = json.loads(reports.read_text())
    for report in doc["reports"]:
        report.pop("fold_seconds")
    write_json(reports, doc)

    (out / "queries.csv").write_text(QUERIES)
    for backend, experiment in FITS.items():
        target = out / f"fit-{backend}"
        config = _config(out, f"fit-{backend}.json",
                         {"data": data, "experiment": experiment, "seed": 4})
        run(["fit", "--config", config, "--out-dir", target], log)
        run(["predict", "--model", target / "model.json", "--queries", out / "queries.csv",
             "--out-dir", target], log)

    config = _config(out, "stats.json", {"data": data})
    run(["stats", "--config", config, "--out-dir", out / "stats"], log)
    (out / "log.txt").write_text(log.getvalue().replace(str(out), "OUT"))
    # the configs hold absolute paths; they are inputs, not outputs
    for path in out.glob("*.json"):
        path.unlink()


def _config(out, name, doc):
    path = out / name
    write_json(path, doc)
    return path


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_moves(old_text, new_text):
    """How two texts that differ only in their numbers differ, or None when
    they differ elsewhere too."""
    if NUMBER.sub("#", old_text) != NUMBER.sub("#", new_text):
        return None
    pairs = [(a, b) for a, b in zip(NUMBER.findall(old_text), NUMBER.findall(new_text))
             if float(a) != float(b)]
    if not pairs:
        return "numbers differ only in how they are written"
    worst = max(pairs, key=lambda p: abs(float(p[0]) - float(p[1]))
                / max(abs(float(p[0])), abs(float(p[1]))))
    a, b = float(worst[0]), float(worst[1])
    relative = abs(a - b) / max(abs(a), abs(b))
    return (f"{len(pairs)} numbers differ, largest relative difference {relative:.3g} "
            f"({worst[0]} -> {worst[1]})")


def compare(old, new):
    """Print one line per file that differs between two output trees; True if any does."""
    old, new = Path(old), Path(new)
    names = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    differ = False
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {a.parent if a.is_file() else b.parent}")
        elif a.read_bytes() != b.read_bytes():
            moves = number_moves(a.read_text(), b.read_text())
            print(f"{name}: {moves or 'differs beyond its numbers'}")
        else:
            continue
        differ = True
    return differ


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(int(compare(sys.argv[2], sys.argv[3])))
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
