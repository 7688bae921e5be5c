"""Search strategies built on the local optimizer.

Three layers: a container-shrinking hop that perturbs a stuck layout into
twenty restart candidates, a time-boxed global search that alternates random
restarts with hop batches, and a radius-minimizing driver that alternates
the global search with a container adjustment, which closes its bracket on
the smallest feasible radius by safeguarded secant steps, until the radius
stops improving. The adjustment's probes descend from the input coordinates
until one inside the bracket comes out feasible, and from that layout,
scaled to the probe radius, after it. The global search settles each hop
member only when it reaches that member; ``basin_hop`` settles all twenty
at once.
"""

from __future__ import annotations

import enum
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

from .geometry import Layout, Rng, is_feasible, random_layout
from .optimizer import OptimizeStatus, bfgs_minimize, run_bounded

SHRINK_FACTOR_BASE = 0.3
SHRINK_FACTOR_STEP = 0.035
SHRINK_FACTOR_COUNT = 20
HOP_ITERATION_RANGE = (50, 100)

# container_adjust stops once the feasible/infeasible bracket is this tight,
# and the driver stops once a round shrinks the radius by no more than this
RADIUS_RESOLUTION = 1e-10
# a secant probe lands at least this far from its predicted radius, just
# under half the resolution, so one probe each side of an exact prediction
# closes the bracket
SECANT_MIN_STEP = 0.49 * RADIUS_RESOLUTION

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
class SolveReport:
    """Outcome of a search run.

    ``status`` FEASIBLE guarantees ``layout`` passes the feasibility test at
    ``radius``, the layout's own. ``restarts`` counts random
    initializations, ``hops`` counts hop batches started, both summed over
    the whole run. ``seed`` echoes the random source for reproduction.
    """

    status: SolveStatus
    layout: Layout
    elapsed: float
    restarts: int
    hops: int
    seed: int

    @property
    def radius(self) -> float:
        return self.layout.radius


def _report(status, layout, start, restarts, hops, rng) -> SolveReport:
    """A search's report, its time elapsed since ``start`` taken now."""
    return SolveReport(status, layout, time.monotonic() - start, restarts, hops, rng.seed)


def _hop_members(layout: Layout, rng: Rng) -> Iterator[Layout]:
    """Yield the hop members of ``layout`` in shrink order, each settled on demand.

    Only when asked for, a member draws its settle length h from
    HOP_ITERATION_RANGE (inclusive) and runs at most h local steps at beta *
    ``layout.radius``.
    """
    lo, hi = HOP_ITERATION_RANGE
    for beta in shrink_factors():
        h = int(rng.integers(lo, hi + 1))
        yield run_bounded(layout, beta * layout.radius, h, rng=rng)


def basin_hop(layout: Layout, *, rng: Rng) -> tuple[Layout, ...]:
    """Perturb a stuck layout by briefly optimizing in shrunken containers.

    For each shrink factor the container radius is scaled down, the source
    coordinates are kept, and the local optimizer runs for a random number
    of iterations drawn from HOP_ITERATION_RANGE (inclusive). All twenty
    members start from the same source layout; crowding everything toward
    the center and letting it re-expand is what kicks the search out of the
    current basin. This is the eager form: all twenty are settled, in
    shrink order, before it returns. Member m settled at, and carries, the
    radius ``shrink_factors()[m]`` times the source's; callers restore the
    search radius when they reoptimize the members.
    """
    return tuple(_hop_members(layout, rng))


def global_search(
    n: int,
    radius: float,
    time_limit: float,
    rng: Rng,
    max_restarts: int | None = None,
) -> SolveReport:
    """Search for a feasible packing of ``n`` unit circles at ``radius``.

    Random restarts, each optimized to a local minimum; stuck minima get one
    hop batch whose members are reoptimized at the original radius in shrink
    order, first feasible wins. A member is settled only when the search
    reaches it; the report is that of ``basin_hop`` followed by the
    reoptimizations, bit for bit, unless a reoptimization nudges coincident
    centers (its ``rng`` draw then comes before the next settle's). A
    member whose settled centers are bit-identical to those of an earlier
    member of its batch is settled but not reoptimized when that earlier
    reoptimization drew nothing from ``rng``: it would repeat that
    infeasible result bit for bit. The clock is checked before each
    restart and each hop member, so the run can overshoot ``time_limit``
    by at most one settle plus one descent.
    Returns the feasible layout, or the lowest-energy layout seen with
    status TIMEOUT (clock expired) or STUCK (restart budget exhausted).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # each check is written so that NaN fails too
    if not 1.0 <= radius < math.inf:
        raise ValueError(f"search radius must be finite and >= 1, got {radius}")
    if not time_limit > 0.0:
        raise ValueError(f"time limit must be positive, got {time_limit}")
    if max_restarts is not None and not (max_restarts >= 1 and max_restarts % 1 == 0):
        raise ValueError(f"max_restarts must be None or an integer >= 1, got {max_restarts}")
    start = time.monotonic()
    deadline = start + float(time_limit)

    best_layout = None
    best_total = math.inf
    restarts = 0
    hops = 0
    status = SolveStatus.TIMEOUT

    while time.monotonic() < deadline:
        if max_restarts is not None and restarts >= max_restarts:
            status = SolveStatus.STUCK
            break
        restarts += 1
        outcome = bfgs_minimize(random_layout(n, radius, rng), radius=None, rng=rng)
        if outcome.energy.total < best_total:
            best_layout, best_total = outcome.layout, outcome.energy.total
        if outcome.status is OptimizeStatus.FEASIBLE:
            return _report(SolveStatus.FEASIBLE, outcome.layout, start, restarts, hops, rng)
        if time.monotonic() >= deadline:
            break
        hops += 1
        members = _hop_members(outcome.layout, rng)
        # the centers of the members whose reoptimization drew nothing
        # from rng: it depends on nothing else, and it was not feasible
        repeats = set()
        while time.monotonic() < deadline:
            member = next(members, None)
            if member is None:
                break
            centers = member.centers.tobytes()
            if centers in repeats:
                continue
            state = rng.bit_generator.state
            hopped = bfgs_minimize(member, radius=radius, rng=rng)
            if rng.bit_generator.state == state:
                repeats.add(centers)
            if hopped.energy.total < best_total:
                best_layout, best_total = hopped.layout, hopped.energy.total
            if hopped.status is OptimizeStatus.FEASIBLE:
                return _report(SolveStatus.FEASIBLE, hopped.layout, start, restarts, hops, rng)
    if best_layout is None:
        best_layout = random_layout(n, radius, rng)
    return _report(status, best_layout, start, restarts, hops, rng)


@dataclass(frozen=True)
class AdjustResult:
    """Outcome of a container adjustment.

    ``layout`` is feasible at ``radius``, the layout's own;
    ``bracket_width`` is the final gap between that radius and the largest
    radius proven infeasible by reoptimization (0.0 when every probe down
    to the unit-circle floor was feasible).
    """

    layout: Layout
    bracket_width: float
    probes: int

    @property
    def radius(self) -> float:
        return self.layout.radius


def container_adjust(layout: Layout, *, rng: Rng | None = None) -> AdjustResult:
    """Shrink a feasible layout's container to the smallest feasible radius.

    Probes radii below the current upper bound with geometrically growing
    decrements (1e-10, 1e-9, ...; the next float down where a decrement
    would round back to the bound), until a probe comes out infeasible;
    then closes the bracket down to RADIUS_RESOLUTION by a safeguarded
    secant on the square root of the relaxed energy, which near the jamming
    radius falls linearly to zero. The line through the two largest
    infeasible probes predicts that radius; a probe lands past the
    prediction by how far it moved from the previous prediction (at least
    SECANT_MIN_STEP), on the longer side of the bracket. A probe bisects
    instead when the energy did not fall between those two probes, when
    the secant probe would leave the open bracket, or when two secant
    probes in a row have not halved it. The returned radius never exceeds
    the input radius and never goes below 1 (a single unit circle needs
    that much container).

    Probes descend in local mode with the default margins, from the input
    coordinates until a probe inside the bracket comes out feasible, and
    from the latest such layout, its centres scaled by (probe - 1) /
    (upper bound - 1), after it. Warm starts wait for the bracket: from far
    above the edge, a start crowded toward the centre settles in a worse
    basin.
    """
    if not is_feasible(layout):
        raise ValueError("container_adjust requires a feasible starting layout")

    probes = 0
    r_upper = layout.radius
    best = layout
    r_lower = None
    # (radius, sqrt of the relaxed energy) of the largest infeasible probe
    last = None
    # the root the line through the two largest infeasible probes predicts
    # and its distance from the previous prediction, when the energy fell
    prediction = previous_root = None
    # the bracket's width before each of the last two probes, while both
    # were secant probes
    secant_widths = (math.inf, math.inf)
    # set once a probe inside the bracket comes out feasible
    warm = False
    while r_lower is None or r_upper - r_lower > RADIUS_RESOLUTION:
        if r_lower is None:
            if r_upper <= 1.0:
                # bottomed out at the unit-circle floor with no infeasible probe
                return AdjustResult(layout=best, bracket_width=0.0, probes=probes)
            # every probe so far was feasible, so ``probes`` counts them; the
            # float below r_upper stands in for a decrement too small to
            # change it, as 1e-10 is from 2**20 up
            stepped = r_upper - 1e-10 * 10.0**probes
            probe = max(min(stepped, math.nextafter(r_upper, 0.0)), 1.0)
        else:
            width = r_upper - r_lower
            # NaN fails the bracket test below, so without a secant it bisects
            secant = math.nan
            if prediction is not None and width <= 0.5 * secant_widths[0]:
                root, err = prediction
                step = max(err, SECANT_MIN_STEP)
                # toward the bracket's longer side, so that a root good to
                # within the step leaves a bracket of about twice the step
                secant = root + step if r_upper - root > root - r_lower else root - step
            if r_lower < secant < r_upper:
                probe, secant_widths = secant, (secant_widths[1], width)
            else:
                probe, secant_widths = 0.5 * (r_upper + r_lower), (math.inf, math.inf)
                if not (r_lower < probe < r_upper):
                    break
        probes += 1
        start = layout
        if warm:
            # every circle inside the wall at the probe radius, and pairs
            # overlapping by at most 2 * (1 - scale)
            scale = (probe - 1.0) / (r_upper - 1.0)
            start = Layout(best.centers * scale, probe)
        outcome = bfgs_minimize(start, radius=probe, rng=rng)
        if outcome.status is OptimizeStatus.FEASIBLE:
            r_upper, best, warm = probe, outcome.layout, r_lower is not None
        else:
            r_lower, height = probe, math.sqrt(outcome.energy.total)
            prediction = None
            if last is not None and height < last[1]:
                root = probe + height * (probe - last[0]) / (last[1] - height)
                err = abs(root - (probe if previous_root is None else previous_root))
                prediction, previous_root = (root, err), root
            last = (probe, height)
    return AdjustResult(layout=best, bracket_width=r_upper - r_lower, probes=probes)


def minimize_radius(
    n: int,
    start_radius: float,
    t0: float = DEFAULT_ATTEMPT_SECONDS,
    t1: float = DEFAULT_TOTAL_SECONDS,
    *,
    rng: Rng,
    max_restarts: int | None = None,
) -> SolveReport:
    """Drive the search toward the smallest radius reachable before ``t1``.

    Each round runs the global search at the current radius with per-attempt
    budget ``t0``; a feasible find is tightened by container adjustment. A
    round that fails to shrink the radius by more than RADIUS_RESOLUTION
    ends the run (the layout is as compact as this search can make it);
    otherwise the reduced radius becomes the next search target. With no
    feasible find at all the last attempt's layout is reported at the start
    radius, as TIMEOUT, or STUCK when the restart budget ran out first.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # each check is written so that NaN fails too
    if not 1.0 <= start_radius < math.inf:
        raise ValueError(f"start radius must be finite and >= 1, got {start_radius}")
    if not (t0 > 0.0 and t1 > 0.0):
        raise ValueError(f"time limits must be positive, got t0={t0}, t1={t1}")

    start = time.monotonic()
    deadline = start + float(t1)
    r_current = float(start_radius)
    attempt = None
    adjusted = None
    restarts = 0
    hops = 0

    while True:
        budget = min(float(t0), deadline - time.monotonic())
        if budget <= 0.0:
            break
        attempt = global_search(n, r_current, budget, rng, max_restarts=max_restarts)
        restarts += attempt.restarts
        hops += attempt.hops
        if attempt.status is SolveStatus.STUCK:
            break
        if attempt.status is SolveStatus.FEASIBLE:
            adjusted = container_adjust(attempt.layout, rng=rng)
            if r_current - adjusted.radius <= RADIUS_RESOLUTION:
                break
            r_current = adjusted.radius

    # each round searches at the radius the previous adjustment reached and
    # an adjustment never grows it, so the last adjustment is the best find;
    # without one every attempt failed and the last says how and with what
    if adjusted is not None:
        return _report(SolveStatus.FEASIBLE, adjusted.layout, start, restarts, hops, rng)
    if attempt is None:
        layout = random_layout(n, r_current, rng)
        return _report(SolveStatus.TIMEOUT, layout, start, restarts, hops, rng)
    return _report(attempt.status, attempt.layout, start, restarts, hops, rng)
