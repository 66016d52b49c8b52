"""Commands that evaluate no special function never import scipy.

``scipy.special`` is most of the CLI's import time; ``verisynth.truncnorm``
loads it on its first moment or truncation call. Each command runs in a fresh
interpreter, which then reports the scipy modules it holds.
"""
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


def run_probe(*argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
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
