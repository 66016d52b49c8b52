"""verisynth benchmark: end-to-end CLI runs on fixed workloads, with output checks.

Usage::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all --record bench/results/BENCH_x.json

Each workload is a config under ``bench/workloads/`` run through the CLI
(``python -m verisynth.cli``) from the ``src/`` tree next to this directory.
The loop is closed: one client, one CLI child at a time, each child writing
into a fresh output directory that is removed afterwards.

``--trace 0`` (end-to-end): ``verisynth validate`` is timed a few times in
fresh processes (``setup_s``); then, for ``--seconds``, the workload runs in
pairs, once at ``--threads 1`` (``wall_s``) and once at ``--threads nproc``
(``wall_s_par``), reading each child's peak RSS with ``os.wait4``. Timings are
medians over the pairs.

``--trace 1`` (per layer): untraced and traced runs at ``--threads 1``
alternate; the traced runs go through ``bench/traced_cli.py``, which wraps
the package's functions from outside. Each per-layer value is the median over
the traced runs; the tracing overhead is traced minus untraced wall time.

A pair (or an untraced/traced couple) fails on a non-zero exit, on result
files that differ between its two runs or from earlier runs of the same seed,
or on a failed output check of the workload. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH_DIR / "workloads"
OUT_DIR = ROOT / ".bench_out"

#: fresh-process ``validate`` runs per benchmark run; setup_s is their median
SETUP_REPEATS = 3
#: a benchmark run for one workload must end within this many seconds
RUN_LIMIT_S = 170.0
#: the CLI accepts seeds up to this value
MAX_SEED = 2 ** 63 - 1
#: at least this share of landscape cells must agree in sign with theory
LANDSCAPE_SIGN_AGREEMENT = 0.95

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_par": "s",
    "peak_rss_mb": "MB",
}

#: span layers recorded by traced_cli.py; each yields .calls, .self_s, .share
SPAN_LAYERS = (
    "seeding.derive_stream",
    "verifier.bounds",
    "truncnorm.inverse_cdf",
    "truncnorm.rejection",
    "truncnorm.moments",
    "linreg.retrain_round.direct",
    "linreg.retrain_round.reject",
    "linreg.retrain_round.none",
    "gaussian1d.retrain_step",
    "experiments.run",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "truncnorm.inverse_cdf.samples": "count",
        "truncnorm.rejection.samples": "count",
        "linreg.reject.words_per_accepted": "words/sample",
        "experiments.run.s": "s",
        "output.write.s": "s",
        "output.write.bytes": "B",
        "config.load.s": "s",
        "import.s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def _arms(rows: list[dict], config: dict, reps: int) -> tuple[dict, list[str]]:
    blocks: dict[str, list[dict]] = {}
    for row in rows:
        blocks.setdefault(row["arm"], []).append(row)
    problems = []
    if sorted(blocks) != sorted(config["arms"]):
        problems.append(f"arms {sorted(blocks)} != config arms {sorted(config['arms'])}")
    rounds = list(range(config["schedule"]["rounds"] + 1))
    for arm, block in blocks.items():
        if [int(r["round"]) for r in block] != rounds:
            problems.append(f"{arm} arm does not list rounds 0..{rounds[-1]} in order")
        if any(int(r["n_reps"]) != reps for r in block):
            problems.append(f"{arm} arm n_reps differs from {reps}")
    return blocks, problems


def _within_bound(arm: str, block: list[dict], z: float) -> list[str]:
    bad = [
        int(r["round"]) for r in block
        if not float(r["dist_center_mean"])
        <= float(r["theory_bound"]) + z * float(r["dist_center_se"])
    ]
    return [f"{arm} arm exceeds theory_bound + {z:g} se at rounds {bad[:10]}"] if bad else []


def check_iterate_linreg(rows: list[dict], config: dict, reps: int) -> list[str]:
    blocks, problems = _arms(rows, config, reps)
    if problems:
        return problems
    problems += _within_bound("direct", blocks["direct"], 3.0)
    none = blocks["none"]
    start, end = float(none[0]["dist_theta_star_mean"]), float(none[-1]["dist_theta_star_mean"])
    if not end > start:
        problems.append(f"none arm dist_theta_star_mean does not grow ({start} -> {end})")
    return problems


def check_selective_reject(rows: list[dict], config: dict, reps: int) -> list[str]:
    blocks, problems = _arms(rows, config, reps)
    if problems:
        return problems
    # Here rho is about 3e-7, so from round 1 on the bound holds with equality
    # and each round's mean exceeds bound + 3 se with the normal tail's 0.13%:
    # at 3 se the direct arm alone failed on 3 of 150 seeds of this config.
    # 6 se makes a spurious failure negligible; a broken filter misses the
    # bound by orders of magnitude.
    for arm in ("direct", "reject"):
        problems += _within_bound(arm, blocks[arm], 6.0)
    return problems


def check_landscape(rows: list[dict], config: dict, reps: int) -> list[str]:
    grid = config["landscape"]
    cells = len(grid["delta_values"]) * len(grid["r_values"])
    if len(rows) != cells:
        return [f"{len(rows)} landscape rows, expected {cells}"]
    problems = []
    if any(int(r["n_reps"]) != reps for r in rows):
        problems.append(f"n_reps differs from {reps}")
    not_ok = [(r["delta"], r["r"]) for r in rows if r["status"] != "ok"]
    if not_ok:
        problems.append(f"cells not ok: {not_ok[:10]}")
    agree = sum(
        (float(r["log_ratio_mean"]) > 0.0) == (float(r["theory_log_ratio"]) > 0.0) for r in rows
    )
    if agree < LANDSCAPE_SIGN_AGREEMENT * cells:
        problems.append(f"empirical and theory signs agree in {agree}/{cells} cells")
    return problems


def check_gaussian1d_long(rows: list[dict], config: dict, reps: int) -> list[str]:
    rounds = list(range(config["schedule"]["rounds"] + 1))
    if [int(r["round"]) for r in rows] != rounds:
        return [f"rows do not list rounds 0..{rounds[-1]} in order"]
    problems = []
    if any(int(r["n_reps"]) != reps for r in rows):
        problems.append(f"n_reps differs from {reps}")
    start, end = float(rows[0]["mean_estimate_mean"]), float(rows[-1]["mean_estimate_mean"])
    if not end < start:
        problems.append(f"mean estimate does not slide downward ({start} -> {end})")
    return problems


@dataclass(frozen=True)
class Workload:
    command: str  # verisynth subcommand
    output: str   # file the subcommand writes into --out
    check: Callable[[list[dict], dict, int], list[str]]


WORKLOADS = {
    "iterate_linreg": Workload("iterate", "trajectory.csv", check_iterate_linreg),
    "landscape": Workload("landscape", "landscape.csv", check_landscape),
    "gaussian1d_long": Workload("gaussian1d", "gaussian1d.csv", check_gaussian1d_long),
    "selective_reject": Workload("iterate", "trajectory.csv", check_selective_reject),
}


def check_output(name: str, data: bytes, config: dict, reps: int) -> list[str]:
    """Problems with one workload result file; an unreadable file is a problem too."""
    try:
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        if not rows:
            return ["result file has no rows"]
        return WORKLOADS[name].check(rows, config, reps)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed result file: {exc!r}"]


# ---------------------------------------------------------------------------
# child processes


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    log: Path


def run_child(args: list[str], log: Path, timeout: float) -> Child:
    """Run ``python <args>`` against ./src, timing it from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


class Session:
    """One benchmark run of one workload: its settings, scratch space and failures."""

    def __init__(self, name: str, seed: int | None, reps: int | None, scratch: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.config_file = WORKLOAD_DIR / f"{name}.yaml"
        with open(self.config_file, encoding="utf-8") as handle:
            self.config = yaml.safe_load(handle)
        self.seed = self.config["master_seed"] if seed is None else seed % (MAX_SEED + 1)
        self.reps = self.config["replications"] if reps is None else reps
        self.reps_arg = [] if reps is None else ["--reps", str(reps)]
        self.scratch = scratch
        self.started = time.perf_counter()
        self.children = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _fresh(self, label: str) -> tuple[Path, Path]:
        self.children += 1
        out = self.scratch / f"{self.children:03d}-{label}"
        out.mkdir()
        return out, self.scratch / f"{self.children:03d}-{label}.log"

    def cli_args(self, command: str) -> list[str]:
        return [command, "--config", str(self.config_file), "--seed", str(self.seed),
                *self.reps_arg]

    def validate(self) -> Child:
        _, log = self._fresh("validate")
        return run_child(["-m", "verisynth.cli", *self.cli_args("validate")], log,
                         self.remaining())

    def run(self, threads: int, traced: bool = False) -> tuple[Child, bytes | None, dict | None]:
        """One workload run; returns the child, its result file and its trace stats."""
        out, log = self._fresh(f"t{threads}{'-traced' if traced else ''}")
        args = [*self.cli_args(self.workload.command), "--threads", str(threads),
                "--out", str(out)]
        stats_file = out.with_suffix(".trace.json")
        if traced:
            args = [str(BENCH_DIR / "traced_cli.py"), str(stats_file), *args]
        else:
            args = ["-m", "verisynth.cli", *args]
        child = run_child(args, log, self.remaining())
        result = out / self.workload.output
        data = result.read_bytes() if child.code == 0 and result.is_file() else None
        stats = None
        if traced and child.code == 0 and stats_file.is_file():
            stats = json.loads(stats_file.read_text(encoding="utf-8"))
        return child, data, stats

    def judge(self, runs: list[tuple[str, Child, bytes | None]]) -> None:
        """Count one attempt made of ``runs``; record why it failed, if it did."""
        self.attempted += 1
        problems = []
        for label, child, data in runs:
            if child.code != 0:
                tail = child.log.read_text(encoding="utf-8", errors="replace")[-400:]
                problems.append(f"{label} run exited {child.code}: {tail.strip()}")
            elif data is None:
                problems.append(f"{label} run wrote no {self.workload.output}")
        outputs = [data for _, child, data in runs if data is not None]
        if not problems:
            if any(data != outputs[0] for data in outputs):
                problems.append(f"{self.workload.output} differs between "
                                + " and ".join(label for label, _, _ in runs))
            self.digests.add(hashlib.sha256(outputs[0]).hexdigest())
            if len(self.digests) > 1:
                problems.append(f"{self.workload.output} differs from an earlier run "
                                "of the same seed")
            problems += check_output(self.name, outputs[0], self.config, self.reps)
        if problems:
            self.failures.append(f"attempt {self.attempted}: " + "; ".join(problems))


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _keep_going(session: Session, loop_start: float, seconds: float) -> bool:
    """Start another attempt only if one more of average length fits in ``seconds``."""
    elapsed = time.perf_counter() - loop_start
    per_attempt = elapsed / session.attempted
    return elapsed + per_attempt <= seconds and per_attempt < session.remaining()


def measure_end_to_end(session: Session, seconds: float, threads: int) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        child = session.validate()
        if child.code != 0:
            raise SystemExit(f"error: validate failed for {session.name}: "
                             + child.log.read_text(encoding="utf-8", errors="replace"))
        setup.append(child.wall_s)
    serial, parallel = [], []
    loop_start = time.perf_counter()
    while True:
        one, one_data, _ = session.run(1)
        par, par_data, _ = session.run(threads)
        session.judge([("--threads 1", one, one_data),
                       (f"--threads {threads}", par, par_data)])
        serial.append(one)
        parallel.append(par)
        if not _keep_going(session, loop_start, seconds):
            break
    return {
        "metrics": {
            "setup_s": _median(setup),
            "wall_s": _median([c.wall_s for c in serial]),
            "wall_s_par": _median([c.wall_s for c in parallel]),
            "peak_rss_mb": _median([c.peak_rss_mb for c in serial]),
        },
        "samples": {
            "setup_s": setup,
            "wall_s": [c.wall_s for c in serial],
            "wall_s_par": [c.wall_s for c in parallel],
            "peak_rss_mb": [c.peak_rss_mb for c in serial],
            "peak_rss_mb_par": [c.peak_rss_mb for c in parallel],
        },
    }


def layer_metrics(stats: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced run, from traced_cli.py's span aggregates."""
    calls, self_ns, total_ns, counts = (stats[k] for k in ("calls", "self_ns", "total_ns",
                                                             "counts"))
    out: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        self_s = self_ns.get(layer, 0) / 1e9
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / traced_wall
    accepted = counts.get("linreg.reject.accepted", 0)
    out.update({
        "truncnorm.inverse_cdf.samples": counts.get("truncnorm.inverse_cdf.samples", 0),
        "truncnorm.rejection.samples": counts.get("truncnorm.rejection.samples", 0),
        "linreg.reject.words_per_accepted":
            counts.get("linreg.reject.words", 0) / accepted if accepted else 0,
        "experiments.run.s": total_ns.get("experiments.run", 0) / 1e9,
        "output.write.s": total_ns.get("output.write", 0) / 1e9,
        "output.write.bytes": counts.get("output.write.bytes", 0),
        "config.load.s": total_ns.get("config.load", 0) / 1e9,
        "import.s": stats["import_ns"] / 1e9,
        "trace.wall_s": traced_wall,
    })
    return out


def measure_per_layer(session: Session, seconds: float) -> dict:
    untraced, traced = [], []
    loop_start = time.perf_counter()
    while True:
        plain, plain_data, _ = session.run(1)
        child, data, stats = session.run(1, traced=True)
        session.judge([("untraced", plain, plain_data), ("traced", child, data)])
        untraced.append(plain.wall_s)
        if stats is not None:
            traced.append(layer_metrics(stats, child.wall_s))
        if not _keep_going(session, loop_start, seconds):
            break
    if not traced:
        raise SystemExit(f"error: no traced run of {session.name} finished: "
                         + "; ".join(session.failures))
    metrics = {key: _median([t[key] for t in traced]) for key in PER_LAYER
               if key != "trace.overhead_s"}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(untraced)
    return {"metrics": metrics,
            "samples": {"untraced_wall_s": untraced,
                        "trace.wall_s": [t["trace.wall_s"] for t in traced]}}


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "absent"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    return info


def print_block(session: Session, result: dict, units: dict[str, str], threads: int,
                trace: int) -> None:
    mode = ("per-layer, traced and untraced runs alternating at --threads 1" if trace
            else f"end-to-end, pairs of --threads 1 and --threads {threads}")
    print(f"== {session.name}  seed {session.seed}  reps {session.reps}  "
          f"config {session.config_file.relative_to(ROOT)}")
    print(f"   {mode}: {session.attempted} attempted, {len(session.failures)} failed")
    rows = dict(result["metrics"])
    if not trace:
        rows["error_rate"] = len(session.failures) / session.attempted
        units = dict(units, error_rate="ratio")
    width = max(len(k) for k in rows)
    for key, value in rows.items():
        print(f"   {key:<{width}}  {value:>14.6g}  {units[key]}")
    for digest in sorted(session.digests):
        print(f"   sha256 {session.workload.output}  {digest}")
    for failure in session.failures:
        print(f"   FAILED {failure}")


def benchmark(name: str, args, threads: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        session = Session(name, args.seed, args.reps, scratch)
        if args.trace:
            result = measure_per_layer(session, args.seconds)
        else:
            result = measure_end_to_end(session, args.seconds, threads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_block(session, result, PER_LAYER if args.trace else END_TO_END, threads, args.trace)
    return {
        "seed": session.seed,
        "replications": session.reps,
        "config": str(session.config_file.relative_to(ROOT)),
        "csv_sha256": sorted(session.digests),
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures,
        **result,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's master_seed)")
    parser.add_argument("--seconds", type=float, default=27.0,
                        help="measuring time per workload (default 27)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics of traced runs")
    parser.add_argument("--reps", type=int, default=None,
                        help="override the workload's replications (self-test only)")
    parser.add_argument("--record", default=None,
                        help="also write the full result set as JSON to this file")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "verisynth" / "cli.py").is_file():
        print(f"error: no verisynth source tree at {SRC}", file=sys.stderr)
        return 2
    if args.reps is not None and args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine()
    print("   machine " + "  ".join(f"{k} {v}" for k, v in info.items()))
    results = {name: benchmark(name, args, threads) for name in names}
    units = PER_LAYER if args.trace else END_TO_END
    if args.record:
        record = {"machine": info, "trace": args.trace, "seconds": args.seconds,
                  "units": units, "workloads": results}
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": units[key]}
        for name, result in results.items() for key, value in result["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
