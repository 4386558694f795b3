"""perfbench/tracer.py binds cpnkit functions by name, with no default.
Renaming or deleting one of them must fail here, not in a traced
benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = load_tracer().LAYER_FUNCTIONS
    missing = [f"{layer}.{fn}" for layer, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"cpnkit.{layer}"), fn, None))]
    assert layers and missing == []
