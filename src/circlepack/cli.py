"""Command line interface: solve, improve, verify, render, and bench.

Exit codes follow sysexits conventions where they apply: 0 success
(solve/improve found a feasible layout, verify passed), 1 verification
failure, 2 no feasible layout within the budget, 64 usage error, 65
malformed or unreadable input file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .geometry import Rng
from .layout_io import (
    LayoutFormatError,
    TableValidationError,
    format_decimal,
    load_best_known,
    read_best_known,
    read_layout,
    verify_layout,
    write_layout,
)
from .optimizer import SolverConfig
from .rendering import render_svg
from .search import SolveStatus, global_search, minimize_radius
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


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by the solver-driving commands."""

    n: int | None = None
    radius: float | None = None
    best_known: str | None = None
    seed: int = 0
    t0: float = 600.0
    t1: float = 3600.0
    max_restarts: int | None = None
    solver: SolverConfig = SolverConfig()
    reps: int = 10

    def validate(self) -> "RunConfig":
        if self.n is not None and self.n < 1:
            raise UsageError(f"--n must be >= 1, got {self.n}")
        if self.radius is not None and self.radius < 1.0:
            raise UsageError(f"--radius must be >= 1, got {self.radius}")
        if self.t0 <= 0.0 or self.t1 <= 0.0:
            raise UsageError("time limits must be positive")
        if self.max_restarts is not None and self.max_restarts < 1:
            raise UsageError("--max-restarts must be >= 1")
        if self.reps < 1:
            raise UsageError("--reps must be >= 1")
        return self

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        try:
            solver = SolverConfig(args.mode, args.l, args.d1, args.d2)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        values = {
            name: getattr(args, name)
            for name in ("n", "radius", "best_known", "seed", "t0", "t1", "max_restarts", "reps")
            if getattr(args, name, None) is not None
        }
        if isinstance(values.get("n"), str):
            del values["n"]  # bench takes a range spec, parsed separately
        return cls(solver=solver, **values).validate()


def _producer() -> str:
    from . import __version__

    return f"circlepack {__version__}"


def _load_table(path: str | None):
    if path is None:
        return load_best_known()
    return read_best_known(path)


def _resolve_radius(config: RunConfig) -> float:
    if config.n is None:
        raise UsageError("--n is required")
    if config.radius is not None:
        return config.radius
    if config.best_known is not None:
        table = read_best_known(config.best_known)
        try:
            return table.radius_for(config.n)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("need --radius or --best-known")


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
    out = getattr(args, "out", None)
    svg = getattr(args, "svg", None)
    if out is not None:
        doc = write_layout(report.layout, report, out, producer=_producer())
        print(f"layout written to {out} (energy={doc.energy})")
    if svg is not None:
        text = render_svg(report.layout)
        Path(svg).write_text(text, encoding="utf-8", newline="\n")
        print(f"svg written to {svg}")


def cmd_solve(args) -> int:
    config = RunConfig.from_args(args)
    radius = _resolve_radius(config)
    report = global_search(
        config.n,
        radius,
        config.t0,
        rng=Rng(config.seed),
        max_restarts=config.max_restarts,
        config=config.solver,
    )
    for line in _report_lines(report):
        print(line)
    _write_outputs(report, args)
    return EXIT_OK if report.status is SolveStatus.FEASIBLE else EXIT_NO_SOLUTION


def cmd_improve(args) -> int:
    config = RunConfig.from_args(args)
    start_radius = _resolve_radius(config)
    report = minimize_radius(
        config.n,
        start_radius,
        t0=config.t0,
        t1=config.t1,
        rng=Rng(config.seed),
        max_restarts=config.max_restarts,
        config=config.solver,
    )
    print(f"start_radius={format_decimal(start_radius)}")
    for line in _report_lines(report):
        print(line)
    if config.best_known is not None and report.status is SolveStatus.FEASIBLE:
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
    doc = read_layout(args.path)
    layout = doc.layout()
    text = render_svg(layout, show_indices=args.indices, tolerance=args.tolerance)
    out = args.svg
    if out is None:
        out = str(Path(args.path).with_suffix(".svg"))
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
    config = RunConfig.from_args(args)
    ns = _parse_ns(args.n)
    if args.experiment == "hits":
        table = _load_table(config.best_known)
        records = bench_mod.run_hits(
            ns,
            table,
            reps=config.reps,
            time_limit=config.t0,
            seed_base=config.seed,
            max_restarts=config.max_restarts,
            config=config.solver,
            progress=lambda record: print(bench_mod.format_hits_line(record)),
        )
        if args.out is not None:
            rows = [record.csv_row() for record in records]
            bench_mod.write_csv(args.out, bench_mod.HITS_CSV_COLUMNS, rows)
            print(f"csv written to {args.out}")
        return EXIT_OK

    if len(ns) != 1:
        raise UsageError(f"--experiment {args.experiment} needs a single --n")
    n = ns[0]
    if config.radius is not None:
        radius = config.radius
    else:
        table = _load_table(config.best_known)
        try:
            radius = table.radius_for(n)
        except KeyError as exc:
            raise UsageError(str(exc)) from None

    if args.experiment == "modes":
        setting = "mode"
        records = bench_mod.run_mode_timing(n, radius, config.reps, config.seed, config.solver)
    else:
        setting = "refresh_period"
        configs = [
            replace(config.solver, mode="local", refresh_period=period)
            for period in _parse_ns(args.periods)
        ]
        records = bench_mod.run_timing(n, radius, configs, config.reps, config.seed)
    for record in records:
        if setting == "mode":
            lead = f"mode={record.mode:<5} n={record.n}"
        else:
            lead = f"l={record.config.refresh_period:<4d}"
        print(
            f"{lead} mean_time={record.mean_time_s:.4f}s "
            f"mean_iterations={record.mean_iterations:.1f}"
        )
    if args.out is not None:
        rows = [record.csv_row(setting) for record in records]
        bench_mod.write_csv(args.out, (setting, *bench_mod.TIMING_CSV_COLUMNS), rows)
        print(f"csv written to {args.out}")
    return EXIT_OK


def _add_solver_flags(parser, include_t1: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument(
        "--t0", type=float, default=600.0,
        help="time budget per search attempt in seconds (default 600)",
    )
    if include_t1:
        parser.add_argument(
            "--t1", type=float, default=3600.0,
            help="total time budget in seconds (default 3600)",
        )
    parser.add_argument(
        "--max-restarts", type=int, default=None, dest="max_restarts",
        help="deterministic restart budget instead of relying on the clock",
    )
    parser.add_argument(
        "--mode", choices=("full", "local"), default="local",
        help="energy evaluation mode (default local)",
    )
    parser.add_argument(
        "--l", type=int, default=10, dest="l",
        help="neighbor list refresh period in accepted steps (default 10)",
    )
    parser.add_argument(
        "--d1", type=float, default=1.0, dest="d1",
        help="container adjacency margin (default 1)",
    )
    parser.add_argument(
        "--d2", type=float, default=1.0, dest="d2",
        help="pair adjacency margin (default 1)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="circlepack",
        description="Pack n unit circles in the smallest enclosing circle.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="search for a feasible packing at a fixed container radius"
    )
    solve.add_argument("--n", type=int, required=True, help="number of circles")
    solve.add_argument("--radius", type=float, default=None, help="container radius")
    solve.add_argument(
        "--best-known", default=None, dest="best_known",
        help="CSV of best-known radii to look the target radius up in",
    )
    _add_solver_flags(solve)
    solve.add_argument("--out", default=None, help="write the layout document here")
    solve.add_argument("--svg", default=None, help="also render the layout here")
    solve.set_defaults(func=cmd_solve)

    improve = commands.add_parser(
        "improve", help="minimize the container radius starting from a given one"
    )
    improve.add_argument("--n", type=int, required=True, help="number of circles")
    improve.add_argument("--radius", type=float, default=None, help="starting radius")
    improve.add_argument(
        "--best-known", default=None, dest="best_known",
        help="CSV of best-known radii; the starting radius and improvement baseline",
    )
    _add_solver_flags(improve, include_t1=True)
    improve.add_argument("--out", default=None, help="write the best layout here")
    improve.add_argument("--svg", default=None, help="also render the layout here")
    improve.set_defaults(func=cmd_improve)

    verify = commands.add_parser("verify", help="re-check a layout document")
    verify.add_argument("path", help="layout document to verify")
    verify.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="maximum tolerated overlap depth (default 1e-9)",
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
        "--tolerance", type=float, default=1e-9,
        help="overlap depth beyond which circles are tinted (default 1e-9)",
    )
    render.set_defaults(func=cmd_render)

    bench = commands.add_parser("bench", help="run repeated-search experiments")
    bench.add_argument(
        "--n", required=True,
        help="circle counts: single value, range '2-10', or comma list",
    )
    bench.add_argument("--radius", type=float, default=None, help="target radius")
    bench.add_argument(
        "--best-known", default=None, dest="best_known",
        help="CSV of target radii (default: the bundled table)",
    )
    _add_solver_flags(bench)
    bench.add_argument("--reps", type=int, default=10, help="runs per cell (default 10)")
    bench.add_argument(
        "--experiment", choices=("hits", "modes", "refresh"), default="hits",
        help="hits: hit counts at target radii; modes: full vs local timing; "
        "refresh: sweep of the neighbor refresh period",
    )
    bench.add_argument(
        "--periods", default="1,2,5,10,20,50",
        help="refresh periods for --experiment refresh (default 1,2,5,10,20,50)",
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
