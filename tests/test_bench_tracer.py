"""The benchmark's tracer wraps package functions by (module, name); each must exist."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for name in tracer.MODULES:
        importlib.import_module(f"verisynth.{name}")
    for home, name in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(f"verisynth.{home}"), name))
