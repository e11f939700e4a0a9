"""Command-line front end for the experiment harness."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    ExperimentConfig,
    channel_realization,
    check_count,
    check_schemes,
    check_seed,
    run_experiment,
    timing_report,
    write_csv,
)


def _scheme_list(text: str) -> list:
    """The nonblank entries of a comma-separated list."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _checked(check, convert=int):
    """argparse type: convert(text), which check must accept; a ValueError
    of either is the argument error."""
    def parse(text: str):
        try:
            check(value := convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
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
    run_p.add_argument("--seed", type=_checked(check_seed), default=None,
                       help="override the config seed")
    run_p.add_argument("--schemes", type=_checked(check_schemes, _scheme_list), default=None,
                       help="comma-separated scheme list override")
    run_p.add_argument("--threads", type=_checked(lambda v: check_count("threads", v, 1)),
                       default=1, help="worker processes (output does not depend on this)")
    run_p.set_defaults(handler=_cmd_run)

    fix_p = sub.add_parser("fixtures", help="fixture utilities")
    fix_sub = fix_p.add_subparsers(dest="fixtures_command", required=True)
    dump_p = fix_sub.add_parser(
        "dump", help="emit one channel realization as JSON")
    dump_p.add_argument("--out", required=True, help="output JSON path")
    dump_p.add_argument("--seed", type=_checked(check_seed), default=0)
    dump_p.add_argument("--index", type=_checked(lambda v: check_count("index", v, 0)),
                        default=0, help="channel index within the experiment")
    dump_p.add_argument("--m", type=_checked(lambda v: check_count("m", v, 1)),
                        default=128, help="transmit antennas")
    dump_p.add_argument("--n", type=_checked(lambda v: check_count("n", v, 1)),
                        default=32, help="surface elements")
    dump_p.add_argument("--k", type=_checked(lambda v: check_count("k", v, 1)),
                        default=14, help="users")
    dump_p.set_defaults(handler=_cmd_fixtures_dump)
    return parser


def _check_out(path: str, parser: argparse.ArgumentParser) -> None:
    """Fail on an unwritable --out path before any work; "a" keeps a file."""
    try:
        open(path, "a").close()
    except OSError as exc:
        parser.error(f"argument --out: {exc}")


def _cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        parser.error(f"argument --config: {exc}")
    _check_out(args.out, parser)
    overrides = {"seed": args.seed, "schemes": args.schemes}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    records = run_experiment(cfg, threads=args.threads)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records ({len(cfg.schemes)} schemes x "
          f"{len(cfg.noise_grid_db)} noise points) to {args.out}")
    print(timing_report(records))
    if not cfg.record_runtime:
        print("(wall-time measurement disabled by config; times read 0)")
    return 0


def _cmd_fixtures_dump(args, parser: argparse.ArgumentParser) -> int:
    _check_out(args.out, parser)
    ch = channel_realization(args.seed, args.index, args.m, args.n, args.k)
    with open(args.out, "w") as fh:
        json.dump(ch.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"wrote channel realization (seed={args.seed}, index={args.index}, "
          f"M={args.m}, N={args.n}, K={args.k}) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
