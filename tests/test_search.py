import math
from types import SimpleNamespace

import numpy as np
import pytest

from circlepack import search
from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Layout,
    Rng,
    is_feasible,
    random_layout,
    total_energy,
)
from circlepack.layout_io import load_best_known
from circlepack.optimizer import OptimizeStatus, bfgs_minimize
from circlepack.search import (
    HOP_ITERATION_RANGE,
    RADIUS_RESOLUTION,
    SolveStatus,
    basin_hop,
    container_adjust,
    global_search,
    minimize_radius,
    shrink_factors,
)


def test_shrink_factors_schedule():
    factors = shrink_factors()
    assert len(factors) == 20
    assert factors == tuple(0.3 + 0.035 * m for m in range(20))
    assert factors[0] == 0.3
    # the last factor is the float sum, not a decimal literal
    assert factors[-1] == 0.3 + 0.035 * 19


def test_basin_hop_batch_shape():
    source = random_layout(10, 4.0, Rng(3))
    batch = basin_hop(source, rng=Rng(5))
    assert len(batch.layouts) == 20
    assert [m.radius for m in batch.layouts] == [beta * 4.0 for beta in shrink_factors()]
    for member in batch.layouts:
        # members are optimized inside the shrunken container but keep
        # that shrunken radius so callers can rescale as they wish
        assert member.n == 10


def test_basin_hop_seed_reproducible():
    source = random_layout(8, 3.5, Rng(1))
    a = basin_hop(source, rng=Rng(7))
    b = basin_hop(source, rng=Rng(7))
    for la, lb in zip(a.layouts, b.layouts):
        assert np.array_equal(la.centers, lb.centers)
        assert la.radius == lb.radius


def test_basin_hop_settles_through_run_bounded(monkeypatch):
    # perfbench counts every search.bfgs_minimize call with a radius as a
    # hop re-optimisation, so the settles must not go through that name
    def forbidden(*args, **kwargs):
        raise AssertionError("basin_hop called search.bfgs_minimize")

    monkeypatch.setattr(search, "bfgs_minimize", forbidden)
    batch = basin_hop(random_layout(8, 2.6, Rng(5)), rng=Rng(41))
    assert len(batch.layouts) == 20


@pytest.mark.parametrize(
    "call",
    [
        lambda layout: basin_hop(layout, Rng(1)),
        lambda layout: container_adjust(layout, 3.0),
        lambda layout: minimize_radius(2, 3.0, 1.0, 1.0, Rng(0)),
    ],
    ids=["basin_hop", "container_adjust", "minimize_radius"],
)
def test_search_entry_points_take_rng_by_keyword(call):
    # the radius comes from the layout and the rng only by keyword, so an
    # old positional call fails instead of passing a radius as the rng
    layout = Layout(np.array([[0.0, 0.0]]), 3.5)
    with pytest.raises(TypeError):
        call(layout)


def test_basin_hop_hop_lengths_in_range():
    lo, hi = HOP_ITERATION_RANGE
    assert (lo, hi) == (50, 100)
    rng = Rng(2)
    draws = [int(rng.integers(lo, hi + 1)) for _ in range(1000)]
    assert min(draws) >= 50
    assert max(draws) <= 100


def test_global_search_finds_easy_instance():
    report = global_search(4, 2.9, 30.0, rng=Rng(11))
    assert report.status is SolveStatus.FEASIBLE
    assert is_feasible(report.layout)
    assert report.radius == 2.9
    assert report.seed == 11


def test_global_search_deterministic_with_restart_budget():
    a = global_search(7, 3.2, 1e9, rng=Rng(21), max_restarts=5)
    b = global_search(7, 3.2, 1e9, rng=Rng(21), max_restarts=5)
    assert a.status == b.status
    assert np.array_equal(a.layout.centers, b.layout.centers)
    assert a.restarts == b.restarts
    assert a.hops == b.hops


def test_global_search_stuck_on_impossible_radius():
    # two unit circles need R >= 2; at 1.9 every restart ends stuck
    report = global_search(2, 1.9, 60.0, rng=Rng(1), max_restarts=2)
    assert report.status is SolveStatus.STUCK
    assert not is_feasible(report.layout)
    assert report.restarts == 2


def test_global_search_timeout():
    report = global_search(40, 6.0, 1e-6, rng=Rng(1))
    assert report.status is SolveStatus.TIMEOUT


def test_global_search_timeout_inside_hop_batch(monkeypatch):
    # a fake clock that passes the deadline once the first hop member has
    # been reoptimized: the batch stops there and so does the search
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    real = search.bfgs_minimize
    radii = []

    def descend(layout, **kwargs):
        radii.append(kwargs["radius"])
        outcome = real(layout, **kwargs)
        if kwargs["radius"] is not None:
            now[0] = 11.0
        return outcome

    monkeypatch.setattr(search, "bfgs_minimize", descend)
    # two unit circles cannot fit at R = 1.9, so no descent ends feasible
    report = global_search(2, 1.9, 10.0, rng=Rng(1))
    assert report.status is SolveStatus.TIMEOUT
    assert (report.restarts, report.hops) == (1, 1)
    assert radii == [None, 1.9]
    assert not is_feasible(report.layout)


def test_global_search_settles_only_the_members_it_reoptimizes(monkeypatch):
    # at n = 10 the first hop batch hits at its second member, so the
    # eighteen members after it are never settled
    radius = load_best_known().radius_for(10)
    *_, hops, position = eager_global_search(10, radius, Rng(1), 8)
    assert (hops, position) == (1, 2)
    real = search.run_bounded
    settles = []

    def counted(*args, **kwargs):
        settles.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "run_bounded", counted)
    report = global_search(10, radius, 600.0, Rng(1))
    assert report.status is SolveStatus.FEASIBLE
    assert report.hops == 1
    assert settles == [beta * radius for beta in shrink_factors()[:position]]


def eager_global_search(n, radius, rng, max_restarts, batches=None):
    """The search with each hop batch settled in full before any member is
    reoptimized: ``basin_hop``, then the members in shrink order. Also
    returns the 1-based position of the member that hit, if one did. Given
    a list as ``batches``, appends the centre bytes of each batch's
    reoptimized members to it, one list per batch."""
    best_layout, best_total = None, math.inf
    restarts = hops = 0
    while restarts < max_restarts:
        restarts += 1
        outcome = bfgs_minimize(random_layout(n, radius, rng), rng=rng)
        if outcome.energy.total < best_total:
            best_layout, best_total = outcome.layout, outcome.energy.total
        if outcome.status is OptimizeStatus.FEASIBLE:
            return SolveStatus.FEASIBLE, outcome.layout, restarts, hops, None
        batch = basin_hop(outcome.layout, rng=rng)
        hops += 1
        reoptimized = [] if batches is None else batches
        reoptimized.append([])
        for position, member in enumerate(batch.layouts, start=1):
            reoptimized[-1].append(member.centers.tobytes())
            hopped = bfgs_minimize(member, radius=radius, rng=rng)
            if hopped.energy.total < best_total:
                best_layout, best_total = hopped.layout, hopped.energy.total
            if hopped.status is OptimizeStatus.FEASIBLE:
                return SolveStatus.FEASIBLE, hopped.layout, restarts, hops, position
    return SolveStatus.STUCK, best_layout, restarts, hops, None


@pytest.mark.parametrize(
    "n, radius, seed, max_restarts, status, hit_member, repeats",
    [
        (12, None, 0, 8, SolveStatus.FEASIBLE, 15, 1),
        # seven unit circles need R >= 3, so both restarts and all forty
        # hop members fail; 18 of the members repeat an earlier one
        (7, 2.99, 1, 2, SolveStatus.STUCK, None, 18),
        # cells of perfbench's hit-bestknown whose one hop batch settles
        # five members bit-identical to an earlier member of the batch: at
        # n = 26 the batch fails and the second restart hits
        (26, None, 1, 8, SolveStatus.FEASIBLE, None, 5),
        (30, None, 1, 8, SolveStatus.FEASIBLE, 17, 5),
    ],
    ids=["hit-at-member-15", "stuck", "repeats-n26", "repeats-n30"],
)
def test_global_search_matches_eager_hop_batches(
    n, radius, seed, max_restarts, status, hit_member, repeats, monkeypatch
):
    if radius is None:
        radius = load_best_known().radius_for(n)
    batches = []
    want_status, want_layout, want_restarts, want_hops, want_member = eager_global_search(
        n, radius, Rng(seed), max_restarts, batches
    )
    assert (want_status, want_member) == (status, hit_member)
    # no descent of these runs draws from rng, so every member bit-identical
    # to an earlier one of its batch is one reoptimization fewer
    assert sum(len(batch) - len(set(batch)) for batch in batches) == repeats
    real = search.bfgs_minimize
    reoptimized = []

    def descend(layout, **kwargs):
        if kwargs["radius"] is not None:
            reoptimized.append(layout.centers.tobytes())
        return real(layout, **kwargs)

    monkeypatch.setattr(search, "bfgs_minimize", descend)
    got = global_search(n, radius, 600.0, Rng(seed), max_restarts=max_restarts)
    assert reoptimized == [c for batch in batches for c in dict.fromkeys(batch)]
    assert got.status is want_status
    assert (got.restarts, got.hops, got.seed) == (want_restarts, want_hops, seed)
    assert got.radius == radius
    assert got.layout.radius == want_layout.radius
    assert got.layout.centers.tobytes() == want_layout.centers.tobytes()


@pytest.mark.parametrize("draws", [False, True], ids=["first-draws-nothing", "first-draws"])
def test_global_search_skips_a_twin_only_when_the_first_drew_nothing(monkeypatch, draws):
    # members 1 and 2 of the one hop batch settle to twin layouts and every
    # other member to a layout of its own; two unit circles cannot fit at
    # R = 1.9, so no reoptimization ends feasible. The twin is skipped only
    # when the first twin's reoptimization left rng where it was
    settled = []

    def settle(layout, radius, steps, rng=None):
        settled.append(radius)
        gap = 0.5 + 0.01 * max(len(settled), 2)
        return Layout(np.array([[-gap, 0.0], [gap, 0.0]]), radius)

    real = search.bfgs_minimize
    reoptimized = []

    def descend(layout, **kwargs):
        if kwargs["radius"] is not None:
            reoptimized.append(len(settled))
            if draws:
                kwargs["rng"].random()
        return real(layout, **kwargs)

    monkeypatch.setattr(search, "run_bounded", settle)
    monkeypatch.setattr(search, "bfgs_minimize", descend)
    report = global_search(2, 1.9, 600.0, Rng(1), max_restarts=1)
    assert report.status is SolveStatus.STUCK
    assert (report.restarts, report.hops) == (1, 1)
    # every member is settled, the twin too
    assert len(settled) == 20
    assert reoptimized == [1, *range(2 if draws else 3, 21)]


@pytest.mark.parametrize(
    "radius, time_limit",
    [(0.5, 10.0), (math.nan, 10.0), (math.inf, 10.0), (3.0, 0.0), (3.0, math.nan)],
    ids=["small-radius", "nan-radius", "inf-radius", "zero-time", "nan-time"],
)
def test_global_search_rejects_bad_arguments(radius, time_limit):
    # the check names the argument: a NaN or infinite radius used to fail
    # later, inside random_layout, and a NaN time limit never expired
    with pytest.raises(ValueError, match="radius must|time limit must"):
        global_search(2, radius, time_limit, rng=Rng(0))


def test_container_adjust_requires_feasible_input():
    layout = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]), 10.0)
    with pytest.raises(ValueError):
        container_adjust(layout)


def test_container_adjust_reaches_three_circle_optimum():
    # equilateral triangle with lots of slack; adjustment should close in
    # on 1 + 2/sqrt(3)
    target = 1.0 + 2.0 / math.sqrt(3.0)
    ring = 2.0 / math.sqrt(3.0)
    angles = np.array([0.5, 0.5 + 2.0 * math.pi / 3.0, 0.5 + 4.0 * math.pi / 3.0])
    centers = np.column_stack([ring * np.cos(angles), ring * np.sin(angles)])
    layout = Layout(centers, 3.0)
    result = container_adjust(layout, rng=Rng(3))
    assert result.radius <= 3.0
    assert result.bracket_width <= RADIUS_RESOLUTION
    assert is_feasible(result.layout)
    assert result.radius == pytest.approx(target, abs=1e-6)


def test_container_adjust_never_grows_radius():
    for seed in range(5):
        report = global_search(6, 3.4, 30.0, rng=Rng(seed))
        assert report.status is SolveStatus.FEASIBLE
        result = container_adjust(report.layout, rng=Rng(seed + 100))
        assert result.radius <= report.layout.radius
        assert is_feasible(result.layout)
        assert result.layout.radius == result.radius


def test_container_adjust_floor_at_unit_radius():
    layout = Layout(np.array([[0.0, 0.0]]), 1.0)
    result = container_adjust(layout)
    assert result.radius == 1.0
    assert result.bracket_width == 0.0


@pytest.mark.parametrize("radius", [3e6, 1e7])
def test_container_adjust_probes_below_large_radii(radius):
    # from 2**20 up, radius - 1e-10 rounds back to the radius; the first
    # probes must still land below it instead of reporting the unit floor
    layout = Layout(np.array([[0.0, 0.0], [3.0, 0.0]]), radius)
    result = container_adjust(layout, rng=Rng(0))
    assert result.probes > 0
    assert result.radius == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < result.bracket_width <= RADIUS_RESOLUTION
    assert is_feasible(result.layout)


def test_minimize_radius_single_circle():
    report = minimize_radius(1, 5.0, t0=10.0, t1=30.0, rng=Rng(4))
    assert report.status is SolveStatus.FEASIBLE
    assert report.radius == pytest.approx(1.0, abs=1e-9)


def test_minimize_radius_two_circles():
    report = minimize_radius(2, 3.0, t0=20.0, t1=60.0, rng=Rng(9))
    assert report.status is SolveStatus.FEASIBLE
    assert report.radius == pytest.approx(2.0, abs=1e-9)
    assert is_feasible(report.layout)
    assert report.layout.radius == report.radius


def test_minimize_radius_timeout_keeps_start_radius():
    report = minimize_radius(30, 7.0, t0=1e-6, t1=1e-6, rng=Rng(2))
    assert report.status is SolveStatus.TIMEOUT
    assert report.radius == 7.0


def test_minimize_radius_stuck_reports_the_attempt():
    # two unit circles cannot fit at R = 1.9: the one restart and its hop
    # batch fail and the run reports that attempt's layout as STUCK
    report = minimize_radius(2, 1.9, t0=1e6, t1=1e6, rng=Rng(2), max_restarts=1)
    attempt = global_search(2, 1.9, 1e6, rng=Rng(2), max_restarts=1)
    assert report.status is SolveStatus.STUCK
    assert report.radius == 1.9
    assert (report.restarts, report.hops) == (1, 1)
    assert np.array_equal(report.layout.centers, attempt.layout.centers)
    assert not is_feasible(report.layout)


@pytest.mark.parametrize("n, start_radius", [(5, 3.0), (9, 3.7)])
def test_minimize_radius_feasible_under_restart_budget(n, start_radius):
    # a feasible find is adjusted; the run then stops, by a round that no
    # longer shrinks the radius or by a later attempt that runs out of
    # restarts, and reports the adjusted layout
    report = minimize_radius(n, start_radius, t0=1e6, t1=1e6, rng=Rng(n), max_restarts=1)
    assert report.status is SolveStatus.FEASIBLE
    assert report.layout.radius == report.radius <= start_radius
    assert is_feasible(report.layout)


@pytest.mark.parametrize(
    "start_radius, t0, t1",
    [
        (0.5, 1.0, 1.0),
        (math.nan, 1.0, 1.0),
        (math.inf, 1.0, 1.0),
        (3.0, math.nan, 1.0),
        (3.0, 1.0, math.nan),
    ],
    ids=["small-radius", "nan-radius", "inf-radius", "nan-t0", "nan-t1"],
)
def test_minimize_radius_rejects_bad_arguments(start_radius, t0, t1):
    with pytest.raises(ValueError, match="radius must|time limits must"):
        minimize_radius(2, start_radius, t0=t0, t1=t1, rng=Rng(0))


def record_probes(monkeypatch, descend):
    """Route container_adjust's probes through ``descend``; the returned
    list gets one (radius, feasible, sqrt of the energy) entry per probe,
    in probe order."""
    probes = []

    def recorded(layout, *, radius, rng=None):
        outcome = descend(layout, radius=radius, rng=rng)
        feasible = outcome.status is OptimizeStatus.FEASIBLE
        probes.append((radius, feasible, math.sqrt(outcome.energy.total)))
        return outcome

    monkeypatch.setattr(search, "bfgs_minimize", recorded)
    return probes


def check_probe_record(probes, result):
    """Every probe lies strictly inside the bracket of the probes before it,
    and the result is the smallest feasible probe over the largest
    infeasible one, closed to RADIUS_RESOLUTION. Returns each probe's kind,
    "geometric" before the first infeasible probe, then "bisect" for the
    midpoint of its bracket and "secant" otherwise, with the bracket's
    width before it."""
    upper, lower, kinds = math.inf, None, []
    for radius, feasible, _ in probes:
        if lower is None:
            assert radius < upper
            kinds.append(("geometric", math.inf))
        else:
            assert lower < radius < upper
            kind = "bisect" if radius == 0.5 * (upper + lower) else "secant"
            kinds.append((kind, upper - lower))
        if feasible:
            upper = radius
        else:
            lower = radius
    assert result.probes == len(probes)
    assert result.radius == upper
    assert result.bracket_width == upper - lower <= RADIUS_RESOLUTION
    return kinds


# the stand-in descents' edge of feasibility: from 3.0 the geometric phase's
# ten feasible probes end at 3 - 0.111111111, and 3 - 1.111111111 is the
# first infeasible one
JAMMED = 2.345678912345


# most_probes counts the probes after the first infeasible one, where
# bisection takes 34; a model the secant cannot follow may cost up to two
# secant probes per halving on top of them
@pytest.mark.parametrize(
    "sqrt_energy, most_probes",
    [
        (lambda gap: 2.2 * gap, 6),
        (lambda gap: 2.2 * gap + 3.0 * gap * gap, 34),
        # non-monotone: sqrt(E) jumps up within 1e-4 of the edge
        (lambda gap: 2.2 * gap + (0.5 if gap < 1e-4 else 0.0), 3 * 34),
        (lambda gap: 0.3, 3 * 34),
        # flattens toward the edge, so secant probes creep up on it
        (lambda gap: gap**6, 3 * 34),
        # the floor a real descent ends on within about 1e-10 of the edge
        (lambda gap: 2.2 * gap + 1e-10, 6),
    ],
    ids=["linear", "quadratic", "jump", "flat", "sixth-power", "floor"],
)
def test_container_adjust_probe_rule(monkeypatch, sqrt_energy, most_probes):
    def descend(layout, *, radius, rng=None):
        root = sqrt_energy(JAMMED - radius) if radius < JAMMED else 0.0
        return SimpleNamespace(
            status=OptimizeStatus.FEASIBLE if root == 0.0 else OptimizeStatus.ITERATION_LIMIT,
            energy=SimpleNamespace(total=root * root),
            layout=Layout(layout.centers, radius),
        )

    probes = record_probes(monkeypatch, descend)
    result = container_adjust(Layout(np.array([[0.0, 0.0]]), 3.0))
    kinds = check_probe_record(probes, result)
    assert JAMMED <= result.radius <= JAMMED + RADIUS_RESOLUTION
    expected = [3.0]
    for k in range(11):
        expected.append(expected[-1] - 1e-10 * 10.0**k)
    assert [radius for radius, _, _ in probes[:11]] == expected[1:]
    assert [kind for kind, _ in kinds[:11]] == ["geometric"] * 11
    assert len(probes) - 11 <= most_probes
    # two secant probes in a row that did not halve the bracket are
    # followed by a bisection
    for k in range(13, len(kinds)):
        (kind_a, width_a), (kind_b, _), (kind_c, width_c) = kinds[k - 2 : k + 1]
        if kind_a == kind_b == "secant" and width_c > 0.5 * width_a:
            assert kind_c == "bisect"
    # no secant probe follows two infeasible probes whose sqrt(E) did not
    # fall, until a further probe comes out infeasible
    infeasible = []
    for (_, feasible, root_energy), (kind, _) in zip(probes, kinds):
        if len(infeasible) >= 2 and infeasible[-1] >= infeasible[-2]:
            assert kind == "bisect"
        if not feasible:
            infeasible.append(root_energy)


@pytest.fixture(scope="module")
def found_n12():
    """A global_search hit at n = 12 with 4% slack over the best known radius."""
    n = 12
    found = global_search(n, 1.04 * load_best_known().radius_for(n), 30.0, rng=Rng(n))
    assert found.status is SolveStatus.FEASIBLE
    return found


def test_container_adjust_probes_a_real_layout_inside_its_bracket(monkeypatch, found_n12):
    probes = record_probes(monkeypatch, bfgs_minimize)
    result = container_adjust(found_n12.layout, rng=Rng(1))
    kinds = check_probe_record(probes, result)
    assert is_feasible(result.layout)
    assert result.radius < found_n12.layout.radius
    assert "secant" in {kind for kind, _ in kinds}


def test_container_adjust_probe_starts(monkeypatch, found_n12):
    # each probe's start: the input centres, bit for bit, until a probe
    # inside the bracket comes out feasible; then the latest such layout
    # scaled by (probe - 1) / (upper bound - 1), inside the wall
    layout = found_n12.layout
    calls = []

    def recorded(start, *, radius, rng=None):
        outcome = bfgs_minimize(start, radius=radius, rng=rng)
        calls.append((start, radius, outcome))
        return outcome

    monkeypatch.setattr(search, "bfgs_minimize", recorded)
    result = container_adjust(layout, rng=Rng(1))
    upper, lower, warm = layout.radius, None, None
    cold = warmed = 0
    for start, radius, outcome in calls:
        if warm is None:
            assert start.centers.tobytes() == layout.centers.tobytes()
            cold += 1
        else:
            scale = (radius - 1.0) / (upper - 1.0)
            assert start.centers.tobytes() == (warm.centers * scale).tobytes()
            walls = total_energy(Layout(start.centers, radius)).max_container_depth
            assert walls * walls < FEASIBLE_ENERGY
            warmed += 1
        if outcome.status is OptimizeStatus.FEASIBLE:
            upper = radius
            if lower is not None:
                warm = outcome.layout
        else:
            lower = radius
    assert cold > 0 and warmed > 0
    assert result.layout.centers.tobytes() == warm.centers.tobytes()

    again = container_adjust(layout, rng=Rng(1))
    assert (again.radius, again.probes) == (result.radius, result.probes)
    assert again.layout.centers.tobytes() == result.layout.centers.tobytes()
