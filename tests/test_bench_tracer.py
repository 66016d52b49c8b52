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


def test_install_wraps_each_layer_that_a_module_imports(monkeypatch):
    # install() wraps a function only under a name another package module bound;
    # a layer without such a caller is silently untraced, so the set is pinned
    tracer = load_tracer()
    modules = [importlib.import_module(f"verisynth.{name}") for name in tracer.MODULES]
    names = {name for _, name in tracer.LAYERS}
    before = {(module, name): getattr(module, name, None) for module in modules for name in names}
    for (module, name), value in before.items():
        if value is not None:
            monkeypatch.setattr(module, name, value)  # undone after the test
    tracer.install(tracer.Tracer())
    wrapped = {name for (module, name), value in before.items()
               if getattr(module, name, None) is not value}
    assert wrapped == {"derive_stream", "retrain_round", "run_iterative", "run_landscape",
                       "write_csv", "write_json", "load_config"}
