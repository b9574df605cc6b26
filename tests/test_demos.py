"""The README's kernel example lives in a demo; running it keeps it working."""

import importlib.util
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_playground_runs(capsys):
    load_demo("kernel_playground").main()
    out = capsys.readouterr().out
    assert "ActiveDims builds the same tree: True" in out
    assert "sum1.prod0.dims[2].periodic.log_lengthscale" in out
    assert "symmetric=True" in out
    assert "config roundtrip: 0.00e+00 max gram difference" in out
