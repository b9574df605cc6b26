"""The benchmark's tracer binds program layers by name; a rename here must
fail this test rather than the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_and_is_restored():
    spans = load_spans()
    modules = {
        name: importlib.import_module(f"sensorgp.{name}")
        for name in {layer[0] for layer in spans.LAYERS}
    }

    def owner_of(module_name, owner):
        module = modules[module_name]
        return module if owner is None else getattr(module, owner)

    originals = [
        getattr(owner_of(module, owner), attribute)
        for module, owner, attribute, _, _ in spans.LAYERS
    ]
    tracer = spans.Tracer()
    try:
        tracer.install("sensorgp")
        for (module, owner, attribute, name, _), original in zip(spans.LAYERS, originals):
            wrapped = getattr(owner_of(module, owner), attribute)
            assert wrapped is not original, name
            assert wrapped.__wrapped__ is original, name
    finally:
        tracer.uninstall()
    for (module, owner, attribute, name, _), original in zip(spans.LAYERS, originals):
        assert getattr(owner_of(module, owner), attribute) is original, name
