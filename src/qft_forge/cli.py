"""Command-line front end: stage commands, config overrides, exit codes.

``qft-forge <command> --config <path> --out <dir>`` runs one pipeline stage
(with its prerequisites) and writes that stage's artifacts.  Exit codes: 0
on success, 2 when the design search is infeasible, 3 when verification
fails, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .config import DesignConfig, load_config
from .errors import ConfigError, NegativeMappedGain, NoFeasiblePoint, QftError
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
        "--phase-grid",
        type=int,
        metavar="N",
        help="override the phase grid density (points across -360..0 deg)",
    )
    parser.add_argument(
        "--pair",
        metavar="K,L",
        help="override the anchor frequency pair (two 1-based positions, comma separated)",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the brute-force gain-box cross-check (slow; design/verify/all only)",
    )
    return parser


def _apply_overrides(config: DesignConfig, args: argparse.Namespace) -> DesignConfig:
    if args.phase_grid is not None:
        if args.phase_grid < 10:
            raise ConfigError(f"--phase-grid: must be at least 10, got {args.phase_grid}")
        config = dataclasses.replace(config, phase_grid_count=args.phase_grid)
    if args.pair is not None:
        pieces = args.pair.split(",")
        if len(pieces) != 2:
            raise ConfigError("--pair: expected two comma-separated positions, e.g. 2,7")
        try:
            pair = (int(pieces[0]), int(pieces[1]))
        except ValueError as exc:
            raise ConfigError(f"--pair: positions must be integers ({args.pair!r})") from exc
        design = dataclasses.replace(config.design, pair=pair)
        config = dataclasses.replace(config, design=design)
    # resolve eagerly so a bad override fails before any work happens
    config.pair_indices()
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _apply_overrides(load_config(args.config), args)
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
