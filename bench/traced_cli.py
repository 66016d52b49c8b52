"""Run the verisynth CLI with per-layer tracing installed from outside.

Usage::

    python3 bench/traced_cli.py STATS.json <verisynth CLI arguments...>

The package is imported unchanged; this script then replaces each traced
function under the name its *caller* imported (the package uses
``from .x import f``, so a wrapper placed only on the defining module would
never run). Every wrapper records a span: its duration, and the part of that
duration covered by nested traced spans, so a layer's self time is its span
time minus its children's. Spans are aggregated in memory per layer and
written to STATS.json when the CLI returns. The exit code is the CLI's.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

_T_START = time.perf_counter_ns()

import verisynth.cli  # noqa: E402  (timed: the import is a layer of its own)
from verisynth.errors import VerisynthError  # noqa: E402
from verisynth.truncnorm import INVERSE_CDF_MIN_PROB, acceptance_probability  # noqa: E402

_T_IMPORTED = time.perf_counter_ns()

#: (defining module, function) -> layer name; sample_truncated and
#: retrain_round get their layer name per call (sampler branch, filter mode)
LAYERS = {
    ("seeding", "derive_stream"): "seeding.derive_stream",
    ("verifier", "direction_bounds"): "verifier.bounds",
    ("verifier", "interval_bounds_1d"): "verifier.bounds",
    ("truncnorm", "std_moments"): "truncnorm.moments",
    ("truncnorm", "acceptance_probability"): "truncnorm.moments",
    ("truncnorm", "sample_truncated"): None,
    ("linreg", "retrain_round"): None,
    ("gaussian1d", "retrain_step"): "gaussian1d.retrain_step",
    ("experiments", "run_iterative"): "experiments.run",
    ("experiments", "run_landscape"): "experiments.run",
    ("output", "write_csv"): "output.write",
    ("output", "write_json"): "output.write",
    ("config", "load_config"): "config.load",
}

MODULES = ("cli", "config", "experiments", "gaussian1d", "linreg", "output",
           "schedules", "seeding", "truncnorm", "verifier")


class Tracer:
    """Per-layer span aggregates: calls, total and self nanoseconds, counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # nanoseconds covered by child spans, per open span

    def span(self, layer, fn, args, kwargs):
        self._open.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            children = self._open.pop()
            self.calls[layer] += 1
            self.total_ns[layer] += elapsed
            self.self_ns[layer] += elapsed - children
            if self._open:
                self._open[-1] += elapsed

    def untimed(self, start_ns: int) -> None:
        """Hide tracer bookkeeping since ``start_ns`` from the enclosing span's self time."""
        if self._open:
            self._open[-1] += time.perf_counter_ns() - start_ns

    def wrap(self, original, fixed_layer, name):
        if name == "sample_truncated":
            return self._wrap_sampler(original)
        if name == "retrain_round":
            return self._wrap_retrain_round(original)
        if fixed_layer == "output.write":
            return self._wrap_writer(original)

        def traced(*args, **kwargs):
            return self.span(fixed_layer, original, args, kwargs)
        return traced

    def _wrap_sampler(self, original):
        def traced(bounds, count, rng):
            start = time.perf_counter_ns()
            try:
                healthy = acceptance_probability(bounds) >= INVERSE_CDF_MIN_PROB
            except VerisynthError:
                return original(bounds, count, rng)  # raises the same error untraced
            branch = "inverse_cdf" if healthy else "rejection"
            self.counts[f"truncnorm.{branch}.samples"] += count
            self.untimed(start)
            return self.span(f"truncnorm.{branch}", original, (bounds, count, rng), {})
        return traced

    def _wrap_retrain_round(self, original):
        def traced(state, design, config, n_k, rngs, *rest):
            mode = config.filter_mode
            layer = f"linreg.retrain_round.{mode}"
            if mode != "reject":
                return self.span(layer, original, (state, design, config, n_k, rngs) + rest, {})
            start = time.perf_counter_ns()
            streams = list({id(s): s for s in rngs}.values())  # one entry per distinct stream
            before = sum(_philox_words(s) for s in streams)
            self.untimed(start)
            result = self.span(layer, original, (state, design, config, n_k, rngs) + rest, {})
            start = time.perf_counter_ns()
            self.counts["linreg.reject.words"] += sum(_philox_words(s) for s in streams) - before
            self.counts["linreg.reject.accepted"] += n_k * design.dimension
            self.untimed(start)
            return result
        return traced

    def _wrap_writer(self, original):
        def traced(path, *args, **kwargs):
            result = self.span("output.write", original, (path,) + args, kwargs)
            start = time.perf_counter_ns()
            self.counts["output.write.bytes"] += os.path.getsize(path)
            self.untimed(start)
            return result
        return traced

    def report(self) -> dict:
        return {
            "import_ns": _T_IMPORTED - _T_START,
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }


def _philox_words(rng) -> int:
    """64-bit words a Philox stream has handed out so far (0 for other generators).

    Philox fills a buffer of four words per counter step and tracks the next
    unread word in ``buffer_pos``, so words = 4 * counter + buffer_pos up to a
    constant that cancels in a difference.
    """
    state = rng.bit_generator.state
    if state.get("bit_generator") != "Philox":
        return 0
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


def install(tracer: Tracer) -> None:
    """Wrap every traced function under each name a package module imported it as."""
    modules = {name: importlib.import_module(f"verisynth.{name}") for name in MODULES}
    for (home, name), layer in LAYERS.items():
        original = getattr(modules[home], name)
        wrapped = tracer.wrap(original, layer, name)
        callers = [m for key, m in modules.items()
                   if key != home and getattr(m, name, None) is original]
        if not callers:
            print(f"traced_cli: no module imports verisynth.{home}.{name}; "
                  "its calls from inside its own module are not traced", file=sys.stderr)
        for module in callers:
            setattr(module, name, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = verisynth.cli.main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
