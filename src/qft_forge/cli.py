"""Command-line front end: stage commands and exit codes.

``qft-forge <command> --config <path> --out <dir>`` runs one pipeline stage
(with its prerequisites) and writes that stage's artifacts.  Exit codes: 0
on success, 2 when the design search is infeasible, 3 when verification
fails, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import load_config
from .errors import NegativeMappedGain, NoFeasiblePoint, QftError
from .pipeline import COMMANDS, run_command

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qft-forge",
        description=(
            "Robust loop-shaping pipeline: uncertainty templates, Nichols-chart "
            "bounds, minimal-derivative-gain controller search, and design "
            "verification."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force gain-box cross-check (slow; design/verify/all only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = load_config(args.config)
    except QftError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        artifacts = run_command(config, args.command, args.out, with_oracle=args.oracle)
    except (NegativeMappedGain, NoFeasiblePoint) as exc:
        print(f"design infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except QftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write to --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE

    for name in artifacts.written:
        print(f"wrote {name}")

    if artifacts.design is not None:
        if not artifacts.design.feasible:
            print(f"design infeasible: {artifacts.design.reason}", file=sys.stderr)
            return EXIT_INFEASIBLE
        gains = artifacts.design.gains
        print(
            f"gains: kp={gains.kp:.6f} ki={gains.ki:.6f} kd={gains.kd:.6f}"
            + (
                f" (physical: kp={artifacts.physical_gains.kp:.6f} "
                f"ki={artifacts.physical_gains.ki:.6f} kd={artifacts.physical_gains.kd:.6f})"
                if artifacts.physical_gains is not None
                else ""
            )
        )
    if artifacts.oracle is not None:
        best = artifacts.oracle.best_gains
        print(f"oracle best: kp={best.kp:.6f} ki={best.ki:.6f} kd={best.kd:.6f}")

    if artifacts.verification is not None:
        verdict = "PASS" if artifacts.verification.passed else "FAIL"
        print(f"verification: {verdict}")
        if not artifacts.verification.passed:
            for reason in artifacts.verification.reasons:
                print(f"  - {reason}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
