"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical or resolution
failure, 4 verification check failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalError, ResolutionError
from .harness import load_config, run_experiment


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesbesov",
        description="Disk Stokes eigenbasis experiments: build, verify, solve, embed.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="INI config file (all sections optional)")
        p.add_argument("--out", default=None, help="artifact directory")

    basis = sub.add_parser("basis", help="basis cache operations")
    basis_sub = basis.add_subparsers(dest="basis_command", required=True)
    build = basis_sub.add_parser("build", help="build and cache the eigenbasis")
    common(build)

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument("target", help="'all' or a single check id")
    verify.add_argument("--doubled", action="store_true",
                        help="also run the cross-truncation drift checks")
    common(verify)

    solve = sub.add_parser("solve", help="run the fixed-point solver")
    common(solve)

    embed = sub.add_parser("embed", help="run the embedding sharpness probe")
    common(embed)
    return parser


_WRITTEN = {"basis": "basis cache", "solve": "trajectory", "embed": "embedding report"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    over = {"experiment": args.command}
    if args.out is not None:
        over["out_dir"] = args.out
    if args.command == "verify":
        if args.doubled:
            over["doubled"] = True
        if args.target != "all":
            over["checks"] = (args.target,)
    try:
        config = load_config(args.config, over)
        code = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.command == "verify":
        _print_check_summary(config)
    else:
        print(f"{_WRITTEN[args.command]} written to {config.out_dir}")
    return code


def _print_check_summary(config) -> None:
    import csv
    from pathlib import Path
    path = Path(config.out_dir) / "checks.csv"
    failed = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            status = row["passed"]
            print(f"{row['check_id']}: {status} "
                  f"(value {row['value']}, threshold {row['threshold']})")
            if status != "pass":
                failed.append(row["check_id"])
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
    else:
        print("all checks passed")


if __name__ == "__main__":
    raise SystemExit(main())
