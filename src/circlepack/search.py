"""Search strategies built on the local optimizer.

Three layers: a container-shrinking hop that perturbs a stuck layout into
twenty restart candidates, a time-boxed global search that alternates random
restarts with hop batches, and a radius-minimizing driver that alternates
the global search with a bisection-based container adjustment until the
radius stops improving.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace

from .geometry import Layout, Rng, is_feasible, random_layout
from .optimizer import OptimizeStatus, SolverConfig, bfgs_minimize, run_bounded

SHRINK_FACTOR_BASE = 0.3
SHRINK_FACTOR_STEP = 0.035
SHRINK_FACTOR_COUNT = 20
HOP_ITERATION_RANGE = (50, 100)

# container_adjust stops once the feasible/infeasible bracket is this tight,
# and the driver stops once a round shrinks the radius by no more than this
RADIUS_RESOLUTION = 1e-10

DEFAULT_ATTEMPT_SECONDS = 600.0
DEFAULT_TOTAL_SECONDS = 3600.0


def shrink_factors() -> tuple[float, ...]:
    """The twenty hop shrink factors 0.3, 0.335, ..., 0.3 + 0.035*19."""
    return tuple(SHRINK_FACTOR_BASE + SHRINK_FACTOR_STEP * m for m in range(SHRINK_FACTOR_COUNT))


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    STUCK = "stuck"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class HopBatch:
    """Twenty perturbed layouts derived from one stuck source layout.

    Each member keeps the source coordinates as its optimization start and
    carries the shrunken radius it settled at; callers restore the search
    radius when they reoptimize the members.
    """

    layouts: tuple[Layout, ...]
    betas: tuple[float, ...]
    source_radius: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a search run.

    ``status`` FEASIBLE guarantees ``layout`` passes the feasibility test at
    ``radius``. ``restarts`` counts random initializations, ``hops`` counts
    hop batches, both summed over the whole run. ``seed`` echoes the random
    source for reproduction.
    """

    status: SolveStatus
    layout: Layout
    radius: float
    elapsed: float
    restarts: int
    hops: int
    seed: int


def basin_hop(
    layout: Layout,
    radius: float | None = None,
    rng: Rng | None = None,
    config: SolverConfig = SolverConfig(),
) -> HopBatch:
    """Perturb a stuck layout by briefly optimizing in shrunken containers.

    For each shrink factor the container radius is scaled down, the source
    coordinates are kept, and the local optimizer runs for a random number
    of iterations drawn from HOP_ITERATION_RANGE (inclusive). All twenty
    members start from the same source layout; crowding everything toward
    the center and letting it re-expand is what kicks the search out of the
    current basin.
    """
    if rng is None:
        rng = Rng(0)
    source_radius = layout.radius if radius is None else float(radius)
    lo, hi = HOP_ITERATION_RANGE
    betas = shrink_factors()
    members = []
    for beta in betas:
        shrunken = beta * source_radius
        h = int(rng.integers(lo, hi + 1))
        members.append(run_bounded(layout, shrunken, h, rng=rng, config=config))
    return HopBatch(layouts=tuple(members), betas=betas, source_radius=source_radius)


def global_search(
    n: int,
    radius: float,
    time_limit: float,
    rng: Rng,
    max_restarts: int | None = None,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Search for a feasible packing of ``n`` unit circles at ``radius``.

    Random restarts, each optimized to a local minimum; stuck minima get one
    hop batch whose members are reoptimized at the original radius in shrink
    order, first feasible wins. The clock is checked between optimizer
    calls, so the run can overshoot ``time_limit`` by at most one call.
    Returns the feasible layout, or the lowest-energy layout seen with
    status TIMEOUT (clock expired) or STUCK (restart budget exhausted).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if radius < 1.0:
        raise ValueError(f"search radius must be >= 1, got {radius}")
    if time_limit <= 0.0:
        raise ValueError(f"time limit must be positive, got {time_limit}")
    start = time.monotonic()
    deadline = start + float(time_limit)

    best_layout = None
    best_total = math.inf
    restarts = 0
    hops = 0
    status = SolveStatus.TIMEOUT

    def report(status_, layout_):
        return SolveReport(
            status=status_,
            layout=layout_,
            radius=float(radius),
            elapsed=time.monotonic() - start,
            restarts=restarts,
            hops=hops,
            seed=rng.seed,
        )

    def optimize(lay, at_radius=None):
        return bfgs_minimize(lay, radius=at_radius, rng=rng, **vars(config))

    while time.monotonic() < deadline:
        if max_restarts is not None and restarts >= max_restarts:
            status = SolveStatus.STUCK
            break
        restarts += 1
        outcome = optimize(random_layout(n, radius, rng))
        if outcome.energy.total < best_total:
            best_layout, best_total = outcome.layout, outcome.energy.total
        if outcome.status is OptimizeStatus.FEASIBLE:
            return report(SolveStatus.FEASIBLE, outcome.layout)
        if time.monotonic() >= deadline:
            break
        batch = basin_hop(outcome.layout, rng=rng, config=config)
        hops += 1
        expired = False
        for member in batch.layouts:
            if time.monotonic() >= deadline:
                expired = True
                break
            hopped = optimize(member, at_radius=radius)
            if hopped.energy.total < best_total:
                best_layout, best_total = hopped.layout, hopped.energy.total
            if hopped.status is OptimizeStatus.FEASIBLE:
                return report(SolveStatus.FEASIBLE, hopped.layout)
        if expired:
            break
    if best_layout is None:
        best_layout = random_layout(n, radius, rng)
    return report(status, best_layout)


@dataclass(frozen=True)
class AdjustResult:
    """Outcome of a container adjustment.

    ``layout`` is feasible at ``radius``; ``bracket_width`` is the final gap
    between the returned radius and the largest radius proven infeasible by
    reoptimization (0.0 when probing bottomed out at the unit-circle floor).
    """

    layout: Layout
    radius: float
    bracket_width: float
    probes: int


def container_adjust(
    layout: Layout,
    radius: float | None = None,
    rng: Rng | None = None,
    config: SolverConfig = SolverConfig(),
) -> AdjustResult:
    """Shrink a feasible layout's container to the smallest feasible radius.

    Probes radii below the current upper bound with geometrically growing
    decrements (1e-10, 1e-9, ...), reoptimizing from the ORIGINAL coordinates
    at every probe, until a probe comes out infeasible; then bisects the
    bracket down to RADIUS_RESOLUTION. The returned radius never exceeds the
    input radius and never goes below 1 (a single unit circle needs that
    much container). Probes descend in local mode whatever ``config.mode``
    says.
    """
    r_input = layout.radius if radius is None else float(radius)
    source = layout.with_radius(r_input)
    if not is_feasible(source):
        raise ValueError("container_adjust requires a feasible starting layout")

    probes = 0
    settings = vars(replace(config, mode="local"))

    def reoptimize(at_radius):
        nonlocal probes
        probes += 1
        return bfgs_minimize(source, radius=at_radius, rng=rng, **settings)

    r_upper = r_input
    best = source
    r_lower = None
    i = 0
    while True:
        decrement = 1e-10 * 10.0**i
        probe = max(r_upper - decrement, 1.0)
        if probe >= r_upper:
            # bottomed out at the unit-circle floor with no infeasible probe
            return AdjustResult(layout=best, radius=r_upper, bracket_width=0.0, probes=probes)
        outcome = reoptimize(probe)
        if outcome.status is OptimizeStatus.FEASIBLE:
            r_upper = probe
            best = outcome.layout
            i += 1
            continue
        r_lower = probe
        break

    while r_upper - r_lower > RADIUS_RESOLUTION:
        mid = 0.5 * (r_upper + r_lower)
        if not (r_lower < mid < r_upper):
            break
        outcome = reoptimize(mid)
        if outcome.status is OptimizeStatus.FEASIBLE:
            r_upper = mid
            best = outcome.layout
        else:
            r_lower = mid
    return AdjustResult(
        layout=best, radius=r_upper, bracket_width=r_upper - r_lower, probes=probes
    )


def minimize_radius(
    n: int,
    start_radius: float,
    t0: float = DEFAULT_ATTEMPT_SECONDS,
    t1: float = DEFAULT_TOTAL_SECONDS,
    rng: Rng | None = None,
    max_restarts: int | None = None,
    config: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Drive the search toward the smallest radius reachable before ``t1``.

    Each round runs the global search at the current radius with per-attempt
    budget ``t0``; a feasible find is tightened by container adjustment. A
    round that fails to shrink the radius by more than RADIUS_RESOLUTION
    ends the run (the layout is as compact as this search can make it);
    otherwise the reduced radius becomes the next search target. With no
    feasible find at all the best stuck layout is reported as TIMEOUT, or
    STUCK when the restart budget ran out first.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if start_radius < 1.0:
        raise ValueError(f"start radius must be >= 1, got {start_radius}")
    if t0 <= 0.0 or t1 <= 0.0:
        raise ValueError(f"time limits must be positive, got t0={t0}, t1={t1}")
    if rng is None:
        rng = Rng(0)

    start = time.monotonic()
    deadline = start + float(t1)
    r_current = float(start_radius)
    best_layout = None
    best_radius = None
    fallback = None
    restarts = 0
    hops = 0
    ran_out_of_restarts = False

    def report(status_, layout_, radius_):
        return SolveReport(
            status=status_,
            layout=layout_,
            radius=radius_,
            elapsed=time.monotonic() - start,
            restarts=restarts,
            hops=hops,
            seed=rng.seed,
        )

    while True:
        budget = min(float(t0), deadline - time.monotonic())
        if budget <= 0.0:
            break
        attempt = global_search(n, r_current, budget, rng, max_restarts=max_restarts, config=config)
        restarts += attempt.restarts
        hops += attempt.hops
        if attempt.status is not SolveStatus.FEASIBLE:
            fallback = attempt.layout
            if attempt.status is SolveStatus.STUCK:
                ran_out_of_restarts = True
                break
            continue
        adjusted = container_adjust(attempt.layout, rng=rng, config=config)
        if best_radius is None or adjusted.radius < best_radius:
            best_layout, best_radius = adjusted.layout, adjusted.radius
        if r_current - adjusted.radius <= RADIUS_RESOLUTION:
            return report(SolveStatus.FEASIBLE, adjusted.layout, adjusted.radius)
        r_current = adjusted.radius

    if best_radius is not None:
        return report(SolveStatus.FEASIBLE, best_layout, best_radius)
    if fallback is None:
        fallback = random_layout(n, r_current, rng)
    status = SolveStatus.STUCK if ran_out_of_restarts else SolveStatus.TIMEOUT
    return report(status, fallback, float(start_radius))
