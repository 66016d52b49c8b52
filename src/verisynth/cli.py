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
2 usage or config errors.
"""
from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .config import (
    KIND_ITERATE_1D,
    KIND_ITERATE_LINREG,
    KIND_LANDSCAPE,
    ExperimentConfig,
    load_config,
)
from .errors import ConfigError, VerisynthError
from .experiments import run_iterative, run_landscape, theory_summary
from .output import columns_for, output_basename, write_csv, write_json

_KIND_BY_COMMAND = {
    "landscape": KIND_LANDSCAPE,
    "iterate": KIND_ITERATE_LINREG,
    "gaussian1d": KIND_ITERATE_1D,
}


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
                         help="most worker threads to use (default 1; output is identical)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.reps is not None and args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    return config.with_overrides(master_seed=args.seed, replications=args.reps)


def _write(rows: list[dict], config: ExperimentConfig, args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    stem = output_basename(config.kind)
    columns = columns_for(config.kind)
    path = os.path.join(args.out, f"{stem}.{args.format}")
    if args.format == "csv":
        write_csv(path, rows, columns)
    else:
        write_json(path, rows, columns, config)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.command == "validate":
            print(f"config OK: {config.kind}, {config.replications} replications, "
                  f"master_seed {config.master_seed}")
            return 0
        if args.command == "theory":
            _print_theory(theory_summary(config))
            return 0
        wanted = _KIND_BY_COMMAND[args.command]
        if config.kind != wanted:
            raise ConfigError(
                f"subcommand {args.command!r} needs an experiment of kind "
                f"{wanted!r}, got {config.kind!r}"
            )
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if config.kind == KIND_LANDSCAPE:
            rows = run_landscape(config, threads=args.threads)
        else:
            rows = run_iterative(config, threads=args.threads)
        path = _write(rows, config, args)
        print(f"wrote {path} ({len(rows)} records, {config.replications} replications)")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerisynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
