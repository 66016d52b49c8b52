"""Commands that run no simulation import neither numpy nor scipy.

numpy and ``scipy.special`` are most of the CLI's import time. Reading and
checking a config needs neither: ``verisynth`` serves its exports on first
use, the CLI loads its runners from ``experiments`` on first use, and
``verisynth.truncnorm`` loads ``scipy.special`` on its first moment or
truncation call. Each command runs in a fresh interpreter, which then reports
the numpy and scipy modules it holds.

The process entry freezes the collector's heap once the command is done, so
that interpreter shutdown skips its collections; ``main`` itself does not.
"""
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import verisynth

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIG = ROOT / "configs" / "landscape.yaml"

PROBE = """
import json, sys
from verisynth.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = {top: sorted(name for name in sys.modules if name.split(".")[0] == top)
          for top in ("numpy", "scipy")}
print(json.dumps({"code": code, **loaded}))
"""


ENTRY_PROBE = """
import gc, json, sys
from verisynth.cli import entry
before = gc.get_freeze_count()
try:
    code = entry()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > before}))
"""


def run_python(*argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def probe_report(probe, *argv):
    return json.loads(run_python("-c", probe, *argv).stdout.splitlines()[-1])


def run_probe(*argv):
    report = probe_report(PROBE, *argv)
    return report["code"], report["numpy"], report["scipy"]


@pytest.mark.parametrize("argv,code", [
    (["validate", "--config", str(SHIPPED_CONFIG)], 0),
    (["--version"], 0),
    (["--help"], 0),
], ids=["validate", "version", "help"])
def test_commands_without_special_functions_leave_scipy_unloaded(argv, code):
    # numpy too: nothing on the config path needs it
    assert run_probe(*argv) == (code, [], [])


def test_config_error_leaves_scipy_unloaded(tmp_path):
    # numpy too, as for the commands above
    path = tmp_path / "bad.yaml"
    path.write_text(SHIPPED_CONFIG.read_text().replace("n1: ", "n1: -"))
    assert run_probe("validate", "--config", str(path)) == (2, [], [])


def test_validate_imports_no_numpy_or_scipy_line():
    # the command the benchmark's setup_s times
    result = run_python("-X", "importtime", "-m", "verisynth.cli",
                        "validate", "--config", str(SHIPPED_CONFIG))
    assert result.stdout.startswith("config OK: landscape")
    imported = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "verisynth.config" in imported
    assert [name for name in imported if name.split(".")[0] in ("numpy", "scipy")] == []


def test_theory_loads_scipy_special():
    code, numpy, scipy = run_probe("theory", "--config", str(SHIPPED_CONFIG))
    assert code == 0
    assert "numpy" in numpy and "scipy.special" in scipy


def test_run_loads_numpy_and_scipy_special(tmp_path):
    code, numpy, scipy = run_probe("landscape", "--config", str(SHIPPED_CONFIG),
                                   "--reps", "2", "--out", str(tmp_path))
    assert code == 0
    assert "numpy" in numpy and "scipy.special" in scipy
    assert (tmp_path / "landscape.csv").exists()


@pytest.mark.parametrize("argv,code", [
    (["validate", "--config", str(SHIPPED_CONFIG)], 0),
    (["--version"], 0),
], ids=["validate", "version"])
def test_entry_freezes_the_heap_after_the_command(argv, code):
    assert probe_report(ENTRY_PROBE, *argv) == {"code": code, "frozen": True}


def test_main_in_process_leaves_the_collector_alone():
    from verisynth.cli import main

    before = gc.get_freeze_count()
    assert main(["validate", "--config", str(SHIPPED_CONFIG)]) == 0
    assert gc.get_freeze_count() == before


class TestLazyExports:
    def test_every_export_resolves(self):
        for name in verisynth.__all__:
            assert getattr(verisynth, name) is not None

    def test_dir_lists_the_exports(self):
        assert set(verisynth.__all__) <= set(dir(verisynth))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            verisynth.no_such_name
        assert not hasattr(verisynth, "no_such_name")

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from verisynth import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(verisynth.__all__)
