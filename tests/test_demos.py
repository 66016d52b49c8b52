"""Every demo script runs to completion against the package in src/ and prints
exactly its pinned output, and the README's library quick start runs."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout at its default seed
STDOUT_SHA256 = {
    "collapse_vs_filtering": "abbdbae6bd7ce35776446fc0572b0e1cb8f9c2b7de6cf0869a7fd565ab1ba122",
    "iterative_convergence": "816bd081f8f04a0b3b34239e81c443f872877d5a49208efbc7c3e2d86a74570c",
    "one_dimensional_dynamics":
        "88a8cc35f6872159e9b5d339bc4e49ea9feaafc6a6f9caa1de4e8ff5c1d99560",
    "one_step_tradeoff": "e498dcabf55cec3fc3a9034a1e15b8e49f6fe5fc9e0f66ed4862616c77ec6fa7",
    "truncated_moments_tour": "50013a894b080514f78df8badd6564c68618ebab600cda35a4ec828375a69cea",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # a numpy warning in the subprocess fails the demo, as it fails a config run
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p),
           "PYTHONWARNINGS": "error::RuntimeWarning,error::UserWarning"}
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.stem], f"{demo.stem} printed:\n{result.stdout}"


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, str(ROOT / "README.md"), "exec"), names)
    assert names["rho"] == pytest.approx(0.9554457874958769, rel=1e-12)
    # 61 rounds (0..60) for each of the two arms
    assert len(names["rows"]) == 122
