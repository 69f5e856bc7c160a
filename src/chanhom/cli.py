"""Command-line entry points.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.
"""

import argparse
import sys
from pathlib import Path

from . import harness
from .errors import AlignmentError, ConfigError, GeometryError, SolverError, StabilityError


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    numerical failures and use 1 for anything configuration-shaped."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="chanhom",
        description="Thin-channel transport simulator and scale-convergence studies",
    )
    sub = p.add_subparsers(dest="command")

    run = sub.add_parser("run", help="full study: micro sweep, limit model, error report")
    run.add_argument("config", help="config file path")
    run.add_argument("--out", default=None, help="output directory (default from config)")

    ver = sub.add_parser("verify-operators",
                         help="unfolding identities checked entry by entry on every rung")
    ver.add_argument("config", help="config file path")
    ver.add_argument("--seed", type=int, default=None,
                     help="overrides the config's seed; the check draws nothing from it")

    rep = sub.add_parser("report", help="re-derive report.csv from a stored study")
    rep.add_argument("study_dir")

    exp = sub.add_parser("export", help="write a stored study's snapshots as CSV files")
    exp.add_argument("study_dir")
    exp.add_argument("--out", required=True, help="directory to write fields/*.csv into")
    return p


def _load(args):
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError("--seed: must be >= 0")
    cfg = harness.load_config(args.config)
    if seed is not None:
        cfg.seed = seed
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except (ConfigError, GeometryError, AlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, StabilityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = _load(args)
        rep, manifest = harness.run_study(cfg, out_dir=args.out)
        out = Path(args.out if args.out is not None else cfg.output_dir)
        print(harness.report_csv_text(rep), end="")
        print(f"study written to {out} ({len(manifest['files'])} files + manifest.json)")
        return 0

    if args.command == "verify-operators":
        cfg = _load(args)
        worst, flat_max, ok = harness.verify_operators(cfg)
        for eps, res in worst.items():
            for name, val in res.items():
                print(f"eps={eps} {name}: {val:.3e}")
        print(f"max identity residual {flat_max:.3e}")
        return 0 if ok else 2

    if args.command == "report":
        rep = harness.rederive_report(args.study_dir)
        print(harness.report_csv_text(rep), end="")
        return 0

    if args.command == "export":
        files = harness.export_study(args.study_dir, args.out)
        print(f"{len(files)} CSV files written to {Path(args.out) / 'fields'}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
