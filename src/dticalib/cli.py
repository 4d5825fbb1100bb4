"""Command-line entry point.

Subcommands: simulate | fit | bootstrap | train | predict | calibrate |
evaluate | curves. Each takes --config plus a few targeted overrides.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .mlp import DivergenceError
from . import pipeline

USAGE_ERROR, DATA_ERROR = 1, 2

COMMANDS = {
    "simulate": pipeline.run_simulate,
    "fit": pipeline.run_fit,
    "bootstrap": pipeline.run_bootstrap,
    "train": pipeline.run_train,
    "predict": pipeline.run_predict,
    "calibrate": pipeline.run_calibrate,
    "evaluate": pipeline.run_evaluate,
    "curves": pipeline.run_curves,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dticalib", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--iterations", type=int, default=None, help="bootstrap iterations"
        )
        p.add_argument("--samples", type=int, default=None, help="dropout samples")
        p.add_argument("--snr-db", type=float, default=None, help="phantom SNR (dB)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    overrides = {
        "seed": args.seed,
        "out_dir": args.out,
        "bootstrap.iterations": args.iterations,
        "predict.samples": args.samples,
        "phantom.snr_db": args.snr_db,
    }
    try:
        cfg = ExperimentConfig.load(args.config, overrides)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DivergenceError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, ValueError, RuntimeError) as exc:  # DataFormatError is a ValueError too
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
