"""The three workloads: fixed operation sets, each result checked here.

Every operation's input is fixed, so every count the program reports
repeats exactly from run to run and only the timings carry noise. The
amount of work is set by restart budgets and iteration caps, never by the
clock. The package is reached through module attributes (``search.global_search``
rather than an imported name) so that the traced run can wrap each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from circlepack import geometry, layout_io, neighbors, optimizer, search

import check

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# hit-bestknown: (n, solver seed) cells run with global_search at the
# bundled best-known radius. Each cell reaches FEASIBLE well inside the
# restart budget; the time limit is far beyond any cell's run time, so it
# never decides an outcome.
HIT_CELLS = {
    "full": (
        (20, 1), (22, 1), (26, 1), (28, 3), (30, 1), (36, 2), (38, 1), (40, 2), (44, 0),
    ),
    "small": ((8, 0), (10, 1), (12, 2)),
}
HIT_RESTART_BUDGET = 8
HIT_TIME_LIMIT = 3600.0

# descent-large: local-mode descents from random starts at density 0.72.
DESCENT_N = {"full": 400, "small": 60}
DESCENT_STARTS = tuple(range(8))

# adjust-near: stored layouts, made by make_inputs.py.
ADJUST_DIRS = {"full": INPUTS / "adjust", "small": INPUTS / "adjust-small"}


@dataclass
class Outcome:
    """What one operation delivered, as judged by the benchmark's check.

    ``failed`` means the program did not deliver a feasible result; it says
    so itself and the check agrees. ``errors`` lists claims the check
    contradicts, which make the whole run incorrect. ``counts`` carries the
    program's own deterministic work counters for this operation.
    """

    failed: bool = False
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    cause: str = ""


@dataclass
class Workload:
    name: str
    labels: list[str]
    run: Callable[[int], Outcome]


def descent_radius(n: int) -> float:
    return 1.0 + math.sqrt(n / 0.72)


def persist(result: Outcome, layout, path: Path, report=None) -> None:
    """Write, read back and verify a result, noting bytes and problems."""
    layout_io.write_layout(layout, report, path)
    result.counts["bytes"] = path.stat().st_size
    doc = layout_io.read_layout(path)
    result.errors += check.roundtrip_errors(layout, doc)
    verdict = layout_io.verify_layout(doc)
    if verdict.passed != check.is_feasible(layout.centers, layout.radius):
        result.errors.append(f"{path.name}: verify_layout says passed={verdict.passed}, the check disagrees")


def hit_bestknown(size: str, out: Path) -> Workload:
    table = layout_io.load_best_known()
    cells = HIT_CELLS[size]

    def run(k: int) -> Outcome:
        n, seed = cells[k]
        radius = table.radius_for(n)
        report = search.global_search(
            n, radius, HIT_TIME_LIMIT, geometry.Rng(seed), max_restarts=HIT_RESTART_BUDGET
        )
        result = Outcome(counts={"restarts": report.restarts, "hops": report.hops})
        if report.elapsed >= HIT_TIME_LIMIT:
            result.errors.append(f"n={n} seed={seed}: the time limit decided the outcome")
        if report.status is not search.SolveStatus.FEASIBLE:
            result.failed, result.cause = True, report.status.value
            return result
        layout = report.layout
        if not check.same_bits(layout.radius, radius):
            result.errors.append(f"n={n} seed={seed}: layout radius {layout.radius!r} is not {radius!r}")
        if not check.is_feasible(layout.centers, radius):
            result.errors.append(f"n={n} seed={seed}: reported FEASIBLE, check finds overlap")
        persist(result, layout, out / f"hit-{k}.txt", report)
        return result

    return Workload("hit-bestknown", [f"n={n} seed={s}" for n, s in cells], run)


def descent_large(size: str, out: Path) -> Workload:
    n = DESCENT_N[size]
    radius = descent_radius(n)
    starts = [geometry.random_layout(n, radius, geometry.Rng(s)) for s in DESCENT_STARTS]

    def run(k: int) -> Outcome:
        outcome = optimizer.bfgs_minimize(starts[k], mode="local", rng=geometry.Rng(k))
        layout = outcome.layout
        result = Outcome(counts={"steps": outcome.iterations, "evals": outcome.evaluations})
        if outcome.status is optimizer.OptimizeStatus.FEASIBLE:
            if not check.is_feasible(layout.centers, layout.radius):
                result.errors.append(f"start {k}: reported FEASIBLE, check finds overlap")
        else:
            result.failed = True
            wall = check.wall_depth(layout.centers, layout.radius)
            if wall > neighbors.DEFAULT_CONTAINER_MARGIN:
                result.cause = f"escaped: a circle ends {wall:.3g} outside the wall"
            else:
                result.cause = f"{outcome.status.value} after {outcome.iterations} steps"
        persist(result, layout, out / f"descent-{k}.txt")
        return result

    return Workload("descent-large", [f"start seed={s} n={n}" for s in DESCENT_STARTS], run)


def adjust_near(size: str, out: Path) -> Workload:
    paths = sorted(ADJUST_DIRS[size].glob("*.txt"))
    if not paths:
        raise FileNotFoundError(f"no input layouts in {ADJUST_DIRS[size]}")
    inputs = [layout_io.read_layout(p).layout() for p in paths]

    def run(k: int) -> Outcome:
        source = inputs[k]
        adjusted = search.container_adjust(source, rng=geometry.Rng(k))
        shrink = source.radius - adjusted.radius
        result = Outcome(counts={"probes": adjusted.probes, "shrink": shrink})
        label = paths[k].name
        if not source.radius >= adjusted.radius >= math.sqrt(source.n):
            result.errors.append(
                f"{label}: adjusted radius {adjusted.radius!r} outside [sqrt(n), {source.radius!r}]"
            )
        if not adjusted.bracket_width <= search.RADIUS_RESOLUTION:
            result.errors.append(f"{label}: bracket {adjusted.bracket_width!r} above 1e-10")
        layout = adjusted.layout
        if not check.same_bits(layout.radius, adjusted.radius):
            result.errors.append(f"{label}: layout radius differs from the reported radius")
        if not check.is_feasible(layout.centers, layout.radius):
            result.errors.append(f"{label}: adjusted layout fails the check")
        persist(result, layout, out / f"adjust-{k}.txt")
        return result

    return Workload("adjust-near", [p.name for p in paths], run)


WORKLOADS = {
    "hit-bestknown": hit_bestknown,
    "descent-large": descent_large,
    "adjust-near": adjust_near,
}


def make(name: str, size: str, out: Path) -> Workload:
    return WORKLOADS[name](size, out)
