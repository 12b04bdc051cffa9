"""Command-line front end.

Subcommands map one-to-one onto run modes; every config-file field has a
mirroring flag, and flags win over file values. Exit codes: 0 success,
1 configuration error, 2 validation failure, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from typing import Optional, Sequence

from . import runner
from .config import MODES, RunConfig, load_config

# argparse takes an argument starting with "-" for an option unless it matches
# its negative-number pattern, which before Python 3.13 has no exponent form
# ("--gamma2 -1e-3": "expected one argument") and never takes -inf or -nan.
# This one has both, so the config check rejects them in either spelling.
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


def build_parser() -> argparse.ArgumentParser:
    # The flags are built once and shared by every mode: each add_argument
    # call builds a help formatter, which queries the terminal size.
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", metavar="PATH", help="INI config file")
    for f in fields(RunConfig):
        if f.name == "mode":  # set by the subcommand
            continue
        flags.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=f.metadata["type"],
            metavar=f.metadata["metavar"],
            help=f.metadata["help"],
        )
    parser = argparse.ArgumentParser(
        prog="zenoion",
        description=(
            "Exact sideband dynamics of a driven three-level trapped ion and "
            "the survival-probability indicators of its hindered evolution."
        ),
    )
    subparsers = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    for mode, spec in MODES.items():
        sub = subparsers.add_parser(mode, help=spec.help, parents=[flags])
        sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _print_result(result) -> int:
    """Print what a runner returned: a validation report, the indicator text
    and CSV path, or the written paths. Returns the exit code."""
    if isinstance(result, runner.ValidationReport):
        print(result.format_text())
        return 0 if result.ok else 2
    if isinstance(result, tuple):
        text, result = result
        print(text)
    for path in result if isinstance(result, list) else [result]:
        print(f"wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    namespace = build_parser().parse_args(argv)
    overrides = {f.name: getattr(namespace, f.name) for f in fields(RunConfig)}
    try:
        config = load_config(namespace.config, overrides)
        # Looked up at call time, so a rebound runner.run_<mode> is the one run.
        run = getattr(runner, f"run_{config.mode}")
        return _print_result(run(config))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
