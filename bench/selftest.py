"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json declares, with
its unit, in both modes (at tiny --reps); that each workload's output check
passes on a genuine result and fails on a deliberately corrupted one; that a
result differing between two runs is counted as a failure; and that the
benchmark refuses to run, without printing a result, where the package
source is missing. Takes about a minute on two cores.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

#: workload -> (arm or None, round, column, corrupted value)
CORRUPTIONS = {
    "iterate_linreg": ("none", -1, "dist_theta_star_mean", "0.0"),
    "landscape": (None, 0, "status", "degenerate"),
    "gaussian1d_long": (None, -1, "mean_estimate_mean", "10.0"),
    "selective_reject": ("reject", 5, "dist_center_mean", "1.0"),
}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(args: list[str], cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def test_metric_names() -> None:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(["--workload", "all", "--reps", "2", "--seconds", "0",
                          "--trace", str(trace)])
        require(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"},
                f"result keys {sorted(result)}")
        for workload in bench.WORKLOADS:
            for metric in declared[section]:
                key = f"{workload}.{metric['name']}"
                require(result["metrics"].get(key, {}).get("unit") == metric["unit"],
                        f"{key} missing or with a unit other than {metric['unit']}")
                require(metric["name"] in proc.stdout, f"table lacks {metric['name']}")
        if not trace:
            require("error_rate" in proc.stdout, "table lacks error_rate")


def corrupt(data: bytes, arm: str | None, index: int, column: str, value: str) -> bytes:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    block = [r for r in rows if arm is None or r["arm"] == arm]
    block[index][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def test_checks_catch_corruption(scratch: Path) -> None:
    for name, (arm, index, column, value) in CORRUPTIONS.items():
        (scratch / name).mkdir()
        session = bench.Session(name, None, None, scratch / name)
        child, data, _ = session.run(1)
        require(child.code == 0 and data is not None, f"{name} run failed")
        problems = bench.check_output(name, data, session.config, session.reps)
        require(not problems, f"{name} genuine output fails its check: {problems}")
        bad = corrupt(data, arm, index, column, value)
        require(bench.check_output(name, bad, session.config, session.reps),
                f"{name} check passes a corrupted output")
        session.judge([("first", child, data), ("second", child, bad)])
        require(len(session.failures) == 1 and "differs" in session.failures[0],
                f"{name}: differing outputs not counted as a failure")


def test_refuses_without_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(bench.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = run_bench(["--workload", "landscape", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
    require(proc.returncode != 0, "ran without a source tree")
    require('"correct"' not in proc.stdout, "printed a result without a source tree")


def main() -> int:
    bench.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT_DIR))
    try:
        test_refuses_without_source(scratch)
        test_checks_catch_corruption(scratch)
        test_metric_names()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
