"""Command line interface: solve, improve, verify, render, and bench.

Exit codes follow sysexits conventions where they apply: 0 success
(solve/improve found a feasible layout, verify passed), 1 verification
failure, 2 no feasible layout within the budget, 64 usage error, 65
malformed or unreadable input file.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from .geometry import Rng
from .layout_io import (
    DEFAULT_VERIFY_TOLERANCE,
    LayoutFormatError,
    TableValidationError,
    format_decimal,
    load_best_known,
    read_best_known,
    read_layout,
    verify_layout,
    write_layout,
)
from .rendering import render_svg
from .search import (
    DEFAULT_ATTEMPT_SECONDS,
    DEFAULT_TOTAL_SECONDS,
    SolveStatus,
    global_search,
    minimize_radius,
)
from . import bench as bench_mod

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NO_SOLUTION = 2
EXIT_USAGE = 64
EXIT_BAD_FILE = 65


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _producer() -> str:
    from . import __version__

    return f"circlepack {__version__}"


def _load_table(path: str | None):
    if path is None:
        return load_best_known()
    return read_best_known(path)


def _resolve_radius(args, n: int, bundled: bool = False) -> float:
    """``--radius``, else the entry for ``n`` in the ``--best-known`` table,
    else, when ``bundled``, in the bundled table."""
    if args.radius is not None:
        return args.radius
    if args.best_known is None and not bundled:
        raise UsageError("need --radius or --best-known")
    try:
        return _load_table(args.best_known).radius_for(n)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _refuse_same_file(*paths: str | None) -> None:
    """Exit 64 when two of the given paths resolve to one file, so that no
    write replaces an input or another output."""
    given = [path for path in paths if path is not None]
    for first, second in itertools.combinations(given, 2):
        if Path(first).resolve() == Path(second).resolve():
            raise UsageError(f"{first} and {second} are the same file")


def _refuse_unwritable_output(*outputs: str | None) -> None:
    """Exit 64 when an output's directory does not exist or the output is a
    directory. The commands check this before any search runs, so that a
    long run does not end in a write that fails and loses its layout."""
    for path in outputs:
        if path is None:
            continue
        if Path(path).is_dir():
            raise UsageError(f"cannot write {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise UsageError(f"cannot write {path}: no directory {Path(path).parent}")


def _report_lines(report) -> list[str]:
    return [
        f"status={report.status.value}",
        f"n={report.layout.n}",
        f"radius={format_decimal(report.radius)}",
        f"elapsed_s={report.elapsed:.2f}",
        f"restarts={report.restarts}",
        f"hops={report.hops}",
        f"seed={report.seed}",
    ]


def _write_outputs(report, args) -> None:
    if args.out is not None:
        doc = write_layout(report.layout, report, args.out, producer=_producer())
        print(f"layout written to {args.out} (energy={doc.energy})")
    if args.svg is not None:
        text = render_svg(report.layout)
        Path(args.svg).write_text(text, encoding="utf-8", newline="\n")
        print(f"svg written to {args.svg}")


def cmd_solve(args) -> int:
    _refuse_same_file(args.best_known, args.out, args.svg)
    _refuse_unwritable_output(args.out, args.svg)
    radius = _resolve_radius(args, args.n)
    report = global_search(
        args.n,
        radius,
        args.t0,
        rng=Rng(args.seed),
        max_restarts=args.max_restarts,
    )
    for line in _report_lines(report):
        print(line)
    _write_outputs(report, args)
    return EXIT_OK if report.status is SolveStatus.FEASIBLE else EXIT_NO_SOLUTION


def cmd_improve(args) -> int:
    _refuse_same_file(args.best_known, args.out, args.svg)
    _refuse_unwritable_output(args.out, args.svg)
    start_radius = _resolve_radius(args, args.n)
    report = minimize_radius(
        args.n,
        start_radius,
        t0=args.t0,
        t1=args.t1,
        rng=Rng(args.seed),
        max_restarts=args.max_restarts,
    )
    print(f"start_radius={format_decimal(start_radius)}")
    for line in _report_lines(report):
        print(line)
    # the start radius came from the --best-known table unless --radius was given
    if args.radius is None and report.status is SolveStatus.FEASIBLE:
        print(f"improvement={format_decimal(start_radius - report.radius)}")
    _write_outputs(report, args)
    return EXIT_OK if report.status is SolveStatus.FEASIBLE else EXIT_NO_SOLUTION


def cmd_verify(args) -> int:
    doc = read_layout(args.path)
    result = verify_layout(doc, tolerance=args.tolerance)
    if result.passed:
        print(f"PASS: n={doc.n} radius={doc.radius} max_depth={result.max_depth:.3e}")
        return EXIT_OK
    print(f"FAIL: n={doc.n} radius={doc.radius} ({len(result.violations)} violations)")
    for violation in result.violations:
        print(f"  {violation}")
    return EXIT_VERIFY_FAIL


def cmd_render(args) -> int:
    out = args.svg
    if out is None:
        out = str(Path(args.path).with_suffix(".svg"))
    _refuse_same_file(args.path, out)
    _refuse_unwritable_output(out)
    doc = read_layout(args.path)
    layout = doc.layout()
    text = render_svg(layout, show_indices=args.indices, tolerance=args.tolerance)
    Path(out).write_text(text, encoding="utf-8", newline="\n")
    print(f"svg written to {out}")
    return EXIT_OK


def _parse_ns(text: str) -> list[int]:
    """Parse '7', '2-10', or '2,5,9' into a list of circle counts."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo_text, _, hi_text = chunk.partition("-")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad n range {chunk!r}") from None
            if lo > hi:
                raise UsageError(f"bad n range {chunk!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(chunk))
            except ValueError:
                raise UsageError(f"bad n value {chunk!r}") from None
    if not values or any(v < 1 for v in values):
        raise UsageError(f"bad n specification {text!r}")
    return values


def cmd_bench(args) -> int:
    _refuse_same_file(args.best_known, args.out)
    _refuse_unwritable_output(args.out)
    ns = _parse_ns(args.n)
    if args.experiment == "hits":
        if args.radius is not None:
            raise UsageError("--radius applies to --experiment modes only")
        table = _load_table(args.best_known)
        # every radius is looked up before the first search starts
        try:
            for n in ns:
                table.radius_for(n)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        records = bench_mod.run_hits(
            ns,
            table,
            reps=args.reps,
            time_limit=DEFAULT_ATTEMPT_SECONDS if args.t0 is None else args.t0,
            seed_base=args.seed,
            max_restarts=args.max_restarts,
            progress=lambda record: print(bench_mod.format_hits_line(record)),
        )
        if args.out is not None:
            rows = [record.csv_row() for record in records]
            bench_mod.write_csv(args.out, bench_mod.HITS_CSV_COLUMNS, rows)
            print(f"csv written to {args.out}")
        return EXIT_OK

    # a timed descent's only budget is bfgs_minimize's iteration cap
    if args.t0 is not None or args.max_restarts is not None:
        raise UsageError("--t0 and --max-restarts apply to --experiment hits only")
    if len(ns) != 1:
        raise UsageError(f"--experiment {args.experiment} needs a single --n")
    n = ns[0]
    radius = _resolve_radius(args, n, bundled=True)

    records = bench_mod.run_mode_timing(n, radius, args.reps, args.seed)
    for record in records:
        print(
            f"mode={record.mode:<5} n={record.n} mean_time={record.mean_time_s:.4f}s "
            f"mean_iterations={record.mean_iterations:.1f}"
        )
    if args.out is not None:
        rows = [record.csv_row() for record in records]
        bench_mod.write_csv(args.out, bench_mod.TIMING_CSV_COLUMNS, rows)
        print(f"csv written to {args.out}")
    return EXIT_OK


def _at_least(convert, low, strict=False, finite=False):
    """argparse ``type`` that converts the text and requires a value >= ``low``,
    or > ``low`` when ``strict``, and below infinity when ``finite``; written
    so that NaN fails too."""

    def parse(text):
        value = convert(text)
        if not (value > low if strict else value >= low) or (finite and value == math.inf):
            bound = f"{'>' if strict else '>='} {low}{' and finite' if finite else ''}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_COUNT = _at_least(int, 1)
_SEED = _at_least(int, 0)
_RADIUS = _at_least(float, 1.0, finite=True)
_SECONDS = _at_least(float, 0.0, strict=True)
_TOLERANCE = _at_least(float, 0.0)


def _add_solver_flags(parser, include_t1: bool = False) -> None:
    parser.add_argument("--seed", type=_SEED, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--t0", type=_SECONDS, default=DEFAULT_ATTEMPT_SECONDS,
        help=f"time budget per search attempt in seconds (default {DEFAULT_ATTEMPT_SECONDS:g})",
    )
    if include_t1:
        parser.add_argument(
            "--t1", type=_SECONDS, default=DEFAULT_TOTAL_SECONDS,
            help="total time budget in seconds (default %(default)g)",
        )
    parser.add_argument(
        "--max-restarts", type=_COUNT, default=None, dest="max_restarts",
        help="deterministic restart budget instead of relying on the clock",
    )


def _add_search_flags(parser, include_t1: bool) -> None:
    """The flags of ``solve`` and, with ``--t1``, of ``improve``."""
    parser.add_argument("--n", type=_COUNT, required=True, help="number of circles")
    parser.add_argument(
        "--radius", type=_RADIUS, default=None,
        help="starting radius" if include_t1 else "container radius",
    )
    parser.add_argument(
        "--best-known", default=None, dest="best_known",
        help="CSV of best-known radii to look the radius up in",
    )
    _add_solver_flags(parser, include_t1)
    parser.add_argument("--out", default=None, help="write the layout document here")
    parser.add_argument("--svg", default=None, help="also render the layout here")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="circlepack",
        description="Pack n unit circles in the smallest enclosing circle.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="search for a feasible packing at a fixed container radius"
    )
    _add_search_flags(solve, include_t1=False)
    solve.set_defaults(func=cmd_solve)

    improve = commands.add_parser(
        "improve", help="minimize the container radius starting from a given one"
    )
    _add_search_flags(improve, include_t1=True)
    improve.set_defaults(func=cmd_improve)

    verify = commands.add_parser("verify", help="re-check a layout document")
    verify.add_argument("path", help="layout document to verify")
    verify.add_argument(
        "--tolerance", type=_TOLERANCE, default=DEFAULT_VERIFY_TOLERANCE,
        help="maximum tolerated overlap depth (default %(default)g)",
    )
    verify.set_defaults(func=cmd_verify)

    render = commands.add_parser("render", help="draw a layout document as SVG")
    render.add_argument("path", help="layout document to draw")
    render.add_argument(
        "--svg", default=None, help="output path (default: input with .svg suffix)"
    )
    render.add_argument(
        "--indices", action="store_true", help="label each circle with its index"
    )
    render.add_argument(
        "--tolerance", type=_TOLERANCE, default=DEFAULT_VERIFY_TOLERANCE,
        help="overlap depth beyond which circles are tinted (default %(default)g)",
    )
    render.set_defaults(func=cmd_render)

    bench = commands.add_parser("bench", help="run repeated-search experiments")
    bench.add_argument(
        "--n", required=True,
        help="circle counts: single value, range '2-10', or comma list",
    )
    bench.add_argument("--radius", type=_RADIUS, default=None, help="container radius, modes only")
    bench.add_argument(
        "--best-known", default=None, dest="best_known",
        help="CSV of target radii (default: the bundled table)",
    )
    _add_solver_flags(bench)
    # unset unless given, so that modes can reject it; hits resolves it
    bench.set_defaults(t0=None)
    bench.add_argument("--reps", type=_COUNT, default=10, help="runs per cell (default 10)")
    bench.add_argument(
        "--experiment", choices=("hits", "modes"), default="hits",
        help="hits: hit counts at target radii; modes: full vs local timing",
    )
    bench.add_argument("--out", default=None, help="write the results CSV here")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LayoutFormatError, TableValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE


if __name__ == "__main__":
    sys.exit(main())
