"""Command-line entry point.

Subcommands::

    verisynth landscape  --config cfg.yaml [--out DIR] ...   one-step grid
    verisynth iterate    --config cfg.yaml [--out DIR] ...   regression retraining
    verisynth gaussian1d --config cfg.yaml [--out DIR] ...   1-D mean retraining
    verisynth theory     --config cfg.yaml                   closed forms only
    verisynth validate   --config cfg.yaml                   config check only

Global flags: ``--config <path>`` (required), ``--seed <u64>`` and
``--reps <n>`` (override the config), ``--out <dir>`` (default '.'),
``--threads <n>`` (an upper bound on worker threads, default 1; results are
identical for any value),
``--format csv|json`` (default csv).

Exit codes: 0 success, 1 runtime failure (e.g. a degenerate experiment),
2 usage or config errors, an ``--out`` that cannot hold the result included,
and a ``--seed`` below 0 or a ``--reps`` or ``--threads`` below 1 in every
subcommand.

The runners, and with them numpy, are imported from ``experiments`` only
when a run or ``theory`` first asks for one (scipy follows at the first
truncated-normal call), so ``validate``, ``--help``, ``--version`` and a
config error load neither numpy nor scipy.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from ._version import __version__
from .config import (
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    MIN_BLOCK_NOISE,
    ExperimentConfig,
    load_config,
)
from .errors import ConfigError, VerisynthError
from .output import columns_for, output_basename, write_csv, write_json

#: the runners, served by :func:`__getattr__`: importing ``experiments`` loads
#: numpy, which reading and checking a config does not need
_RUNNERS = ("run_iterative", "run_landscape", "theory_summary")

_KIND_BY_COMMAND = {
    "landscape": KIND_LANDSCAPE,
    "iterate": KIND_ITERATE_LINREG,
    "gaussian1d": KIND_ITERATE_1D,
}


def __getattr__(name: str):
    if name in _RUNNERS:
        from . import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verisynth",
        description="Verified synthetic retraining experiments for Gaussian mean "
                    "estimation and linear regression.",
    )
    parser.add_argument("--version", action="version", version=f"verisynth {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("landscape", "run the one-step (delta, r) error-reduction grid"),
        ("iterate", "run iterative linear-regression retraining"),
        ("gaussian1d", "run iterative 1-D Gaussian mean retraining"),
        ("theory", "print closed-form predictions for a config (no simulation)"),
        ("validate", "check a config file and exit"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="experiment config file (YAML)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config's master_seed")
        sub.add_argument("--reps", type=int, default=None,
                         help="override the config's replication count")
        sub.add_argument("--out", default=".", help="output directory (default: .)")
        sub.add_argument("--threads", type=int, default=1,
                         help="most worker threads to use (default 1; output is identical); "
                              f"a run below {MIN_BLOCK_NOISE} noise values per round "
                              "uses one worker")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.reps is not None and args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    return config.with_overrides(master_seed=args.seed, replications=args.reps)


def _output_path(config: ExperimentConfig, args: argparse.Namespace) -> str:
    """The result file's path, checked before the run for a place to write it."""
    path = os.path.join(args.out, f"{output_basename(config.kind)}.{args.format}")
    ancestor = os.path.abspath(args.out)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"--out {args.out!r}: {ancestor!r} is not a directory")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it is a directory")
    return path


def _print_theory(summary: dict) -> None:
    for key, value in summary.items():
        if key == "cells":
            print("cells:")
            for cell in value:
                parts = " ".join(f"{k}={v!r}" for k, v in cell.items())
                print(f"  {parts}")
        else:
            print(f"{key}: {value!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the runners are looked up on this module, where a caller may replace them
    runners = sys.modules[__name__]
    try:
        config = _load(args)
        if args.command == "validate":
            print(f"config OK: {config.kind}, {config.replications} replications, "
                  f"master_seed {config.master_seed}")
            return 0
        if args.command == "theory":
            _print_theory(runners.theory_summary(config))
            return 0
        wanted = _KIND_BY_COMMAND[args.command]
        if config.kind != wanted:
            raise ConfigError(
                f"subcommand {args.command!r} needs an experiment of kind "
                f"{wanted!r}, got {config.kind!r}"
            )
        path = _output_path(config, args)
        if config.kind == KIND_LANDSCAPE:
            rows = runners.run_landscape(config, threads=args.threads)
        else:
            rows = runners.run_iterative(config, threads=args.threads)
        os.makedirs(args.out, exist_ok=True)
        if args.format == "csv":
            write_csv(path, rows, columns_for(config.kind))
        else:
            write_json(path, rows, columns_for(config.kind), config)
        print(f"wrote {path} ({len(rows)} records, {config.replications} replications)")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerisynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry, ``verisynth`` and ``python -m verisynth.cli``: :func:`main`,
    then ``gc.freeze()``, so that interpreter shutdown does not collect the
    objects of the numpy and scipy imports once more. ``main`` itself leaves
    the collector alone, as an in-process caller keeps running after it.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
