import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circlepack as cp
from circlepack import neighbors, optimizer, search
from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Layout,
    Rng,
    evaluate_pairs,
    is_feasible,
    random_layout,
    total_energy,
)
from circlepack.optimizer import (
    OptimizeStatus,
    bfgs_minimize,
    line_search,
    run_bounded,
    update_inverse_hessian,
)


def quadratic(x):
    return float(np.dot(x, x))


def kernel_of(fn, evaluated=None):
    """Trial kernel with the contract of ``neighbors.index_energy`` over a
    function of one point, evaluating one step at a time: walks the steps
    in order and stops at the first value at most its limit. Appends one
    entry to ``evaluated`` per point evaluated."""

    def kernel(x, d, steps, limits):
        for k, (lam, limit) in enumerate(zip(steps, limits)):
            value = fn(x + lam * d)
            if evaluated is not None:
                evaluated.append(lam)
            if value <= limit:
                return k, value
        return len(steps), value

    return kernel


def listed_energy(radius, index):
    """The index's energy at one flat point, as ``evaluate_pairs`` gives it."""

    def energy(point):
        return evaluate_pairs(
            point.reshape(-1, 2), radius, index.pair_i, index.pair_j, index.container_ids
        )[0]

    return energy


def reference_index_energy(x, d, steps, limits, radius, index):
    """Reference: the trial kernel as one ``evaluate_pairs`` call per step,
    which is what the optimizer ran for every trial before the chunks."""
    return kernel_of(listed_energy(radius, index))(x, d, steps, limits)


def reference_line_search(eval_fn, x, d, u0, slope):
    """Reference: the one-step-at-a-time backtracking search and its
    quadratic polish, each trial its own one-step kernel call."""

    def trial(lam):
        return eval_fn(x, d, np.array([lam]), (math.inf,))[1]

    if slope >= 0.0:
        return 0.0, u0
    lam = 1.0
    for _ in range(optimizer.MAX_HALVINGS + 1):
        value = trial(lam)
        if value <= u0 + optimizer.ARMIJO_SLOPE * lam * slope:
            break
        lam *= 0.5
    else:
        return 0.0, u0
    for _ in range(optimizer.REFINE_ROUNDS):
        denom = value - u0 - slope * lam
        if denom <= 0.0:
            break
        star = -slope * lam * lam / (2.0 * denom)
        if not (0.0 < star <= optimizer.REFINE_CAP * lam) or star == lam:
            break
        candidate = trial(star)
        if candidate >= value:
            break
        lam, value = star, candidate
    return lam, value


def test_line_search_full_step_on_easy_descent():
    x = np.array([1.0, 1.0])
    d = np.array([-1.0, -1.0])
    lam, value = line_search(kernel_of(quadratic), x, d, quadratic(x), float(np.dot(2.0 * x, d)))
    assert 0.0 < lam <= 4.0
    assert value == quadratic(x + lam * d)
    assert quadratic(x + lam * d) < quadratic(x)


def test_line_search_rejects_ascent_direction():
    x = np.array([1.0, 0.0])
    d = np.array([1.0, 0.0])  # uphill
    u0 = quadratic(x)
    assert line_search(kernel_of(quadratic), x, d, u0, float(np.dot(2.0 * x, d))) == (0.0, u0)


def test_line_search_backtracks_on_overshoot():
    # steep narrow valley: unit step overshoots badly, halving recovers
    def steep(x):
        return float(100.0 * x[0] ** 2)

    x = np.array([1.0])
    d = np.array([-50.0])
    g = np.array([200.0])
    lam, _ = line_search(kernel_of(steep), x, d, steep(x), float(np.dot(g, d)))
    assert lam > 0.0
    assert steep(x + lam * d) <= steep(x) + 1e-4 * lam * float(np.dot(g, d))


def chunked_and_sequential(x, d, u0, slope, radius, index):
    """(lam, value, trials) of the chunked search with the kernel and of the
    reference search with the reference kernel. The chunked side counts
    trials as the optimizer does; the reference side counts the points it
    actually evaluates."""
    counts = []

    def kernel(origin, direction, steps, limits):
        k, value = neighbors.index_energy(origin, direction, steps, limits, radius, index)
        counts.append(min(k + 1, len(steps)))
        return k, value

    got = line_search(kernel, x, d, u0, slope)
    evaluated = []
    want = reference_line_search(
        kernel_of(listed_energy(radius, index), evaluated), x, d, u0, slope
    )
    return (*got, sum(counts)), (*want, len(evaluated))


def same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == np.array(b, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    density=st.floats(0.3, 0.95),
    margin=st.sampled_from([0.0, 0.5, 1.0, math.inf]),
    log_scale=st.floats(-12.0, 18.0),
    noise=st.floats(0.0, 2.0),
    lowered=st.sampled_from([0.0, 1e-13, 1e-6]),
)
@example(n=1, seed=0, density=0.5, margin=1.0, log_scale=1.0, noise=0.0, lowered=0.0)
@example(n=30, seed=1, density=0.9, margin=1.0, log_scale=0.0, noise=3.0, lowered=0.0)
def test_line_search_matches_sequential_search(
    n, seed, density, margin, log_scale, noise, lowered
):
    # a perturbed steepest-descent direction scaled over 30 orders of
    # magnitude makes the search accept anywhere from the unit step to the
    # last halving, fail, or start uphill; lowering u0 by a relative 1e-13
    # (how close stall-tail values sit to the Armijo limit) or 1e-6 makes
    # late acceptances and failures common. n = 1 lists no pair
    radius = 1.0 + math.sqrt(n / density)
    layout = random_layout(n, radius, Rng(seed))
    index = neighbors._build_index_raw(layout.centers, radius, margin, margin)
    u0, _, _, grad, centers = neighbors.gradient_eval(layout.centers, radius, index, Rng(seed))
    x = centers.reshape(-1)
    g = grad.reshape(-1)
    rng = np.random.default_rng(seed)
    d = -(g + noise * float(np.linalg.norm(g)) * rng.normal(size=x.size))
    norm = float(np.linalg.norm(d))
    if norm > 0.0:
        d *= 10.0**log_scale / norm
    u0 *= 1.0 - lowered
    got, want = chunked_and_sequential(x, d, u0, float(np.dot(g, d)), radius, index)
    assert same_bits(got, want)


def trap(n, accept_row):
    """Line whose sufficient-decrease test first passes at ``accept_row``.

    Circle 0 starts 1 inside the wall and moves straight out by
    2**accept_row: steps 2**-j with j < accept_row push it 2**(accept_row -
    j) - 1 >= 1 past the wall (energy >= 1 against limits just under u0 =
    0.5), steps from 2**-accept_row on keep it inside (energy 0). The other
    circles sit 3 apart on a grid and drift without touching anything.
    """
    side = math.ceil(math.sqrt(n))
    radius = 10.0 * side
    grid = 3.0 * np.array([(i % side, i // side + 1) for i in range(n)], dtype=float)
    grid[0] = (radius - 2.0, 0.0)
    d = 0.3 * np.random.default_rng(accept_row).uniform(-1.0, 1.0, size=(n, 2))
    d[0] = (2.0**accept_row, 0.0)
    return grid.reshape(-1), d.reshape(-1), radius, neighbors.full_index(n)


@pytest.mark.parametrize("n", [2, 40], ids=["two-circles", "cap-binds"])
@pytest.mark.parametrize("accept_row", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31, 50, None])
def test_line_search_chunk_boundaries(n, accept_row):
    # rows 0, 1-2, 3-6, 7-14, 15-30 and 31-50 are the chunks; None never
    # passes (u0 = 0 puts every limit below zero) and costs all 51 trials.
    # At n = 40 every pair is listed: 820 terms make four-row blocks, so
    # the chunks of 8, 16 and 20 steps are split
    x, d, radius, index = trap(n, 0 if accept_row is None else accept_row)
    if n == 40:
        assert neighbors._TRIAL_ELEMENTS // (index.pair_i.size + index.container_ids.size) < 8
    u0 = 0.0 if accept_row is None else 0.5
    got, want = chunked_and_sequential(x, d, u0, -1.0, radius, index)
    assert same_bits(got, want)
    if accept_row is None:
        assert got == (0.0, 0.0, optimizer.MAX_HALVINGS + 1)
    else:
        assert got == (2.0**-accept_row, 0.0, accept_row + 1)


def test_update_inverse_hessian_matches_dense_formula():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        h = m @ m.T + 6.0 * np.eye(6)  # symmetric positive definite
        s = rng.normal(size=6)
        y = rng.normal(size=6)
        if np.dot(y, s) <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            continue
        rho = 1.0 / np.dot(y, s)
        left = np.eye(6) - rho * np.outer(s, y)
        expected = left @ h @ left.T + rho * np.outer(s, s)
        got = update_inverse_hessian(h, s, y)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got, got.T)


def test_update_inverse_hessian_skips_flat_curvature():
    h = np.eye(4)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.zeros(4)  # no curvature information
    assert np.array_equal(update_inverse_hessian(h, s, y), h)


def update_by_allocating_formula(h, s, y):
    """Reference: the inverse-Hessian update as one allocating expression
    followed by (M + M^T)/2 averaging. Returns a new array."""
    ys = float(np.dot(y, s))
    floor = 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y))
    if ys <= floor:
        return h
    rho = 1.0 / ys
    hy = h @ y
    scale = rho * rho * float(np.dot(y, hy)) + rho
    out = h - rho * (np.outer(s, hy) + np.outer(hy, s)) + scale * np.outer(s, s)
    return (out + out.T) / 2.0


@pytest.mark.parametrize("size", [6, 40, 88, 406, 800])
def test_update_inverse_hessian_chain_matches_allocating_formula(size):
    # 406 rows do not split into equal blocks, 800 do; every tenth pair
    # has negative curvature and must leave the matrix untouched. In the
    # second chain a third of the circles do not move in a step: their
    # entries of s and y are exact zeros of either sign, so the outer
    # products hold -0.0, which the update must not let into h
    rng = np.random.default_rng(size)
    for still in (False, True):
        h = np.eye(size)
        expected = np.eye(size)
        for k in range(30):
            s = rng.normal(size=size)
            y = s * rng.uniform(0.5, 2.0, size=size) + 0.1 * rng.normal(size=size)
            if still:
                circles = rng.choice(size // 2, size=max(1, size // 6), replace=False)
                for vec in (s, y):
                    vec.reshape(-1, 2)[circles] = rng.choice([0.0, -0.0], size=(circles.size, 2))
            if k % 10 == 9:
                y = -y
            expected = update_by_allocating_formula(expected, s, y)
            got = update_inverse_hessian(h, s, y)
            assert got is h
            assert got.tobytes() == expected.tobytes()
            assert np.array_equal(got, got.T)


def test_bfgs_trajectory_matches_allocating_update(monkeypatch):
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))

    def descend():
        steps = []
        outcome = bfgs_minimize(
            layout, mode="local", rng=Rng(0),
            callback=lambda state, rec: steps.append(state.iterate.tobytes()),
        )
        return outcome, steps

    got, got_steps = descend()
    monkeypatch.setattr(optimizer, "update_inverse_hessian", update_by_allocating_formula)
    want, want_steps = descend()
    assert got_steps == want_steps
    assert got.status is want.status
    assert got.energy == want.energy
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def reset_by_copying_identity(h):
    h[...] = np.eye(h.shape[0])


def test_search_with_restarts_matches_allocating_update(monkeypatch):
    # hop settles at n = 16 take accepted steepest-descent restarts, so the
    # in-place reset to the identity shapes the steps after them
    descend = optimizer.bfgs_minimize

    def run():
        steps = []

        def recorded(*args, **kwargs):
            kwargs["callback"] = lambda state, rec: steps.append(
                (rec.restarted, state.iterate.tobytes())
            )
            return descend(*args, **kwargs)

        monkeypatch.setattr(optimizer, "bfgs_minimize", recorded)
        monkeypatch.setattr(search, "bfgs_minimize", recorded)
        report = cp.global_search(16, cp.load_best_known().radius_for(16), 600.0, Rng(0), max_restarts=8)
        return report, steps

    got, got_steps = run()
    assert any(restarted for restarted, _ in got_steps)
    monkeypatch.setattr(optimizer, "update_inverse_hessian", update_by_allocating_formula)
    monkeypatch.setattr(optimizer, "_reset_to_identity", reset_by_copying_identity)
    want, want_steps = run()
    assert got_steps == want_steps
    assert got.status is want.status
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def descend_recorded(layout, **options):
    steps = []

    def record(state, rec):
        steps.append((state.iterate.tobytes(), rec.energy_after, rec.step_length, rec.restarted))

    outcome = bfgs_minimize(layout, callback=record, **options)
    return outcome, steps


def use_sequential_line_search(monkeypatch):
    monkeypatch.setattr(optimizer, "line_search", reference_line_search)
    monkeypatch.setattr(optimizer, "index_energy", reference_index_energy)


def test_bfgs_trajectory_matches_sequential_line_search(monkeypatch):
    n = 60
    layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(0))
    got, got_steps = descend_recorded(layout, mode="local", rng=Rng(0))
    use_sequential_line_search(monkeypatch)
    want, want_steps = descend_recorded(layout, mode="local", rng=Rng(0))
    assert got_steps == want_steps
    assert (got.status, got.iterations, got.evaluations) == (
        want.status, want.iterations, want.evaluations
    )
    assert got.energy == want.energy
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def test_search_matches_sequential_line_search(monkeypatch):
    # n = 16 takes hop batches, whose settles run 50-100 step descents in
    # a shrunken container and stall in long backtracking tails
    descend = optimizer.bfgs_minimize

    def run():
        descents = []

        def recorded(*args, **kwargs):
            outcome, steps = descend_recorded(*args, **kwargs)
            descents.append((outcome.status, outcome.iterations, outcome.evaluations, steps))
            return outcome

        monkeypatch.setattr(optimizer, "bfgs_minimize", recorded)
        monkeypatch.setattr(search, "bfgs_minimize", recorded)
        report = cp.global_search(16, cp.load_best_known().radius_for(16), 600.0, Rng(0), max_restarts=8)
        return report, descents

    got, got_descents = run()
    assert got.hops >= 1
    use_sequential_line_search(monkeypatch)
    want, want_descents = run()
    assert got_descents == want_descents
    assert (got.status, got.restarts, got.hops) == (want.status, want.restarts, want.hops)
    assert got.layout.centers.tobytes() == want.layout.centers.tobytes()


def test_bfgs_separates_two_overlapping_circles():
    layout = Layout(np.array([[-0.5, 0.0], [0.5, 0.0]]), 4.0)
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.FEASIBLE
    assert outcome.energy.total < FEASIBLE_ENERGY
    gap = np.linalg.norm(outcome.layout.centers[0] - outcome.layout.centers[1])
    assert gap >= 2.0 - 1e-9
    assert is_feasible(outcome.layout)


def test_bfgs_energy_field_is_exact_total():
    layout = random_layout(15, 4.0, Rng(3))
    outcome = bfgs_minimize(layout)
    assert outcome.energy == total_energy(outcome.layout)


def test_bfgs_never_claims_feasibility_when_stuck():
    # 8 circles cannot fit at R=3 (only 7 can); the optimizer must settle
    # at a positive-energy local minimum instead of claiming feasibility
    layout = random_layout(8, 3.0, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is not OptimizeStatus.FEASIBLE
    assert outcome.energy.total > FEASIBLE_ENERGY


def test_bfgs_stall_exit_cuts_off_jammed_run():
    # a jammed layout only drifts by cancellation noise; the stall window
    # must end the run long before the 5000-iteration default budget
    layout = random_layout(8, 3.0, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.ITERATION_LIMIT
    assert outcome.iterations < 2000
    assert outcome.energy.total > FEASIBLE_ENERGY


def test_bfgs_gradient_convergence_on_shallow_jam():
    # two circles squeezed at R=1.9: the quadratic line-search refinement
    # lands on the force-balance point, so the gradient gate fires
    layout = random_layout(2, 1.9, Rng(12))
    outcome = bfgs_minimize(layout)
    assert outcome.status is OptimizeStatus.GRADIENT_CONVERGED
    assert outcome.energy.total > FEASIBLE_ENERGY


@pytest.mark.parametrize(
    "make, options, status, iterations",
    [
        # the circle sits beyond the wall margin, so the fresh index lists
        # nothing and reads energy 0
        (lambda: Layout(np.array([[5.0, 0.0]]), 3.0), {},
         OptimizeStatus.GRADIENT_CONVERGED, 0),
        # a stale index reads feasible at step 111 and the exact energy does
        # not; the rebuilt index still lists nothing left to descend on
        (lambda: random_layout(60, 1.0 + math.sqrt(60 / 0.84), Rng(9)), {"rng": Rng(9)},
         OptimizeStatus.GRADIENT_CONVERGED, 111),
        # a stale index reads feasible at step 7; after the rebuild one more
        # step is taken, so the exact energy from step 7 must not be reported
        (lambda: random_layout(12, 1.0 + math.sqrt(12 / 0.72), Rng(7)),
         {"rng": Rng(7), "max_iterations": 8}, OptimizeStatus.ITERATION_LIMIT, 8),
        (lambda: random_layout(8, 3.0, Rng(12)), {}, OptimizeStatus.ITERATION_LIMIT, 125),
    ],
    ids=["escaped-fresh-index", "stale-index-converged", "limit-after-rebuild", "stall"],
)
def test_bfgs_exit_reports_exact_energy(make, options, status, iterations):
    outcome = bfgs_minimize(make(), **options)
    assert (outcome.status, outcome.iterations) == (status, iterations)
    assert outcome.energy == total_energy(outcome.layout)
    assert (outcome.status is OptimizeStatus.FEASIBLE) == (
        outcome.energy.total < FEASIBLE_ENERGY
    )


def test_bfgs_iteration_limit():
    layout = random_layout(20, 5.0, Rng(5))
    outcome = bfgs_minimize(layout, max_iterations=2)
    assert outcome.iterations <= 2
    if outcome.status is OptimizeStatus.ITERATION_LIMIT:
        assert outcome.iterations == 2


def test_bfgs_monotone_energy_per_step():
    layout = random_layout(18, 4.5, Rng(9))
    records = []
    bfgs_minimize(layout, callback=lambda state, rec: records.append(rec))
    assert records, "expected at least one iteration"
    for rec in records:
        # each accepted step cannot increase the energy under its own index
        assert rec.energy_after <= rec.energy_before
        assert rec.step_length >= 0.0


def test_bfgs_deterministic():
    layout = random_layout(12, 4.0, Rng(8))
    a = bfgs_minimize(layout)
    b = bfgs_minimize(layout)
    assert a.status == b.status
    assert a.energy == b.energy
    assert np.array_equal(a.layout.centers, b.layout.centers)


def test_full_and_local_agree_with_infinite_margins():
    # small copy of the bit-exactness contract checked at scale by the
    # acceptance suite
    layout = random_layout(25, 5.0, Rng(4))
    full_states = []
    local_states = []
    bfgs_minimize(
        layout, mode="full", max_iterations=30,
        callback=lambda st, rec: full_states.append(st.iterate.tobytes()),
    )
    bfgs_minimize(
        layout, mode="local", max_iterations=30,
        container_margin=math.inf, pair_margin=math.inf,
        callback=lambda st, rec: local_states.append(st.iterate.tobytes()),
    )
    assert full_states == local_states


def test_local_mode_finds_same_quality_as_full():
    layout = random_layout(30, 6.5, Rng(6))
    full = bfgs_minimize(layout, mode="full")
    local = bfgs_minimize(layout, mode="local")
    assert full.status is OptimizeStatus.FEASIBLE
    assert local.status is OptimizeStatus.FEASIBLE


def test_bfgs_rejects_unknown_mode():
    layout = random_layout(3, 3.0, Rng(0))
    with pytest.raises(ValueError):
        bfgs_minimize(layout, mode="turbo")


@pytest.mark.parametrize(
    "setting",
    [
        {"container_margin": -3.0},
        {"pair_margin": -1.5},
        {"container_margin": math.nan},
        {"pair_margin": math.nan},
        {"refresh_period": math.nan},
        {"refresh_period": 1.5},
        {"max_iterations": math.nan},
    ],
    ids=[
        "negative-container", "negative-pair", "nan-container", "nan-pair",
        "nan-refresh", "fractional-refresh", "nan-iterations",
    ],
)
def test_bfgs_rejects_bad_margins(setting):
    # a negative or NaN margin lists too few terms (NaN lists none), so the
    # descent would stop early and report a false GRADIENT_CONVERGED; a NaN
    # refresh period never refreshes the index
    layout = random_layout(20, 4.5, Rng(1))
    with pytest.raises(ValueError):
        bfgs_minimize(layout, **setting)


def test_run_bounded_zero_iterations_only_swaps_radius():
    layout = random_layout(5, 3.0, Rng(2))
    result = run_bounded(layout, 2.5, 0)
    assert result.radius == 2.5
    assert np.array_equal(result.centers, layout.centers)


def test_run_bounded_respects_iteration_cap():
    layout = random_layout(10, 3.5, Rng(1))
    result = run_bounded(layout, 3.0, 7)
    assert result.radius == 3.0
    # a brief bounded run must still make progress on the shrunken container
    before = total_energy(layout.with_radius(3.0)).total
    after = total_energy(result).total
    assert after <= before
