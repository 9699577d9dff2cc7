"""holoconf command line: verify, table, grid."""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .algebra import (
    COORDINATE_NAMES,
    GENERATOR_TABLE_STRINGS,
    GENERATORS,
    REALIZATIONS,
    realization_key,
)
from .grids import GRID_KINDS, emit_grid
from .report import SUITE_NAMES, SuiteConfig
from .suites import run_suite

REALIZATION_NAMES = tuple(realization_key(r) for r in REALIZATIONS)

# verify's defaults are SuiteConfig's: the seed without --seed or HOLOCONF_SEED, --samples and --tol
_DEFAULTS = SuiteConfig()


def _default_seed() -> int:
    env = os.environ.get("HOLOCONF_SEED")
    try:
        return int(env) if env is not None else _DEFAULTS.seed
    except ValueError:
        raise ValueError(f"HOLOCONF_SEED must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoconf",
        description="verify the conformal-algebra / bicomplex identity suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity suites and report")
    verify.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES + ("all",),
        help="suite to run (repeatable; default all)",
    )
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--samples", type=int, default=_DEFAULTS.samples)
    verify.add_argument("--tol", type=float, default=_DEFAULTS.tol)
    verify.add_argument("--format", choices=("json", "text"), default="json")

    table = sub.add_parser("table", help="print a generator coefficient table")
    table.add_argument("--realization", choices=REALIZATION_NAMES, required=True)

    grid = sub.add_parser("grid", help="emit a CSV sample grid")
    grid.add_argument("--kind", choices=GRID_KINDS, required=True)
    grid.add_argument("--res", type=int, required=True)
    grid.add_argument("--out", required=True)
    return parser


def cmd_verify(args, parser) -> int:
    suites = args.suite or ["all"]
    if "all" in suites:
        suites = list(SUITE_NAMES)
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = SuiteConfig(seed=seed, samples=args.samples, tol=args.tol, suites=suites)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_suite(cfg)
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.overall_pass else 1


def cmd_table(args, parser) -> int:
    table = GENERATOR_TABLE_STRINGS[args.realization]
    names = COORDINATE_NAMES[args.realization]
    headers = ("generator",) + tuple(f"coefficient of d/d{n}" for n in names)
    rows = [headers] + [(g.value,) + table[g] for g in GENERATORS]
    widths = [max(len(str(r[k])) for r in rows) for k in range(len(headers))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def cmd_grid(args, parser) -> int:
    try:
        n = emit_grid(args.kind, args.res, args.out)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    except MemoryError as exc:  # no file is left: emit_grid builds the rows first
        parser.error(f"--res {args.res} is too large to allocate ({str(exc) or 'MemoryError'})")
    print(f"wrote {n} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    """Run the command; bad input exits with status 2, like argparse's own
    errors, and a failed check returns 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"verify": cmd_verify, "table": cmd_table, "grid": cmd_grid}[args.command]
    return handler(args, parser)


def entry() -> int:
    """Process entry of ``holoconf`` and ``python -m holoconf``: run main,
    flush its output, and freeze the heap before the interpreter exits.

    A stdout that cannot be written is reported in one line, with status 2.
    gc.freeze() keeps the shutdown collections from walking every object of
    numpy and holoconf; it lives here, not in main, which tests and the
    benchmark call in-process, where a frozen heap would never be freed."""
    try:
        try:
            status = main()
        finally:  # also after argparse's own output and exit
            sys.stdout.flush()
    except OSError as exc:  # main's one other file, grid's --out, fails inside it
        # fd 1 now discards, so the shutdown flush cannot fail a second time
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        print(f"holoconf: error: cannot write to stdout: {exc}", file=sys.stderr)
        status = 2
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
