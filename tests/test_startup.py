"""Commands that evaluate no special function never import scipy.

``scipy.special`` is most of the CLI's import time; ``verisynth.truncnorm``
loads it on its first moment or truncation call. Each command runs in a fresh
interpreter, which then reports the scipy modules it holds.

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

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIG = ROOT / "configs" / "landscape.yaml"

PROBE = """
import json, sys
from verisynth.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": loaded}))
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


def probe_report(probe, *argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def run_probe(*argv):
    report = probe_report(PROBE, *argv)
    return report["code"], report["scipy"]


@pytest.mark.parametrize("argv,code", [
    (["validate", "--config", str(SHIPPED_CONFIG)], 0),
    (["--version"], 0),
    (["--help"], 0),
], ids=["validate", "version", "help"])
def test_commands_without_special_functions_leave_scipy_unloaded(argv, code):
    assert run_probe(*argv) == (code, [])


def test_config_error_leaves_scipy_unloaded(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(SHIPPED_CONFIG.read_text().replace("n1: ", "n1: -"))
    assert run_probe("validate", "--config", str(path)) == (2, [])


def test_theory_loads_scipy_special():
    code, loaded = run_probe("theory", "--config", str(SHIPPED_CONFIG))
    assert code == 0
    assert "scipy.special" in loaded


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
