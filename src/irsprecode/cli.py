"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    ExperimentConfig,
    channel_realization,
    run_experiment,
    timing_report,
    write_csv,
)


def _parse_schemes(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsprecode",
        description="One-bit precoding with reflecting-surface phase design: "
                    "Monte-Carlo error-rate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True,
                       help="path to a JSON experiment config")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--schemes", type=str, default=None,
                       help="comma-separated scheme list override")
    run_p.add_argument("--threads", type=int, default=1,
                       help="worker processes (output does not depend on this)")

    fix_p = sub.add_parser("fixtures", help="fixture utilities")
    fix_sub = fix_p.add_subparsers(dest="fixtures_command", required=True)
    dump_p = fix_sub.add_parser(
        "dump", help="emit one channel realization as JSON")
    dump_p.add_argument("--out", required=True, help="output JSON path")
    dump_p.add_argument("--seed", type=_int_at_least(0), default=0)
    dump_p.add_argument("--index", type=_int_at_least(0), default=0,
                        help="channel index within the experiment")
    dump_p.add_argument("--m", type=_int_at_least(1), default=128,
                        help="transmit antennas")
    dump_p.add_argument("--n", type=_int_at_least(1), default=32,
                        help="surface elements")
    dump_p.add_argument("--k", type=_int_at_least(1), default=14, help="users")
    return parser


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.schemes is not None:
        cfg = dataclasses.replace(cfg, schemes=_parse_schemes(args.schemes))
    records = run_experiment(cfg, threads=args.threads)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records ({len(cfg.schemes)} schemes x "
          f"{len(cfg.noise_grid_db)} noise points) to {args.out}")
    print(timing_report(records))
    if not cfg.record_runtime:
        print("(wall-time measurement disabled by config; times read 0)")
    return 0


def _cmd_fixtures_dump(args) -> int:
    ch = channel_realization(args.seed, args.index, args.m, args.n, args.k)
    with open(args.out, "w") as fh:
        json.dump(ch.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"wrote channel realization (seed={args.seed}, index={args.index}, "
          f"M={args.m}, N={args.n}, K={args.k}) to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fixtures":
        return _cmd_fixtures_dump(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
