import math

import numpy as np
import pytest

import circlepack as cp
from circlepack import optimizer, search
from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Layout,
    Rng,
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


def test_line_search_full_step_on_easy_descent():
    x = np.array([1.0, 1.0])
    d = np.array([-1.0, -1.0])
    lam, value = line_search(quadratic, x, d, quadratic(x), float(np.dot(2.0 * x, d)))
    assert 0.0 < lam <= 4.0
    assert value == quadratic(x + lam * d)
    assert quadratic(x + lam * d) < quadratic(x)


def test_line_search_rejects_ascent_direction():
    x = np.array([1.0, 0.0])
    d = np.array([1.0, 0.0])  # uphill
    u0 = quadratic(x)
    assert line_search(quadratic, x, d, u0, float(np.dot(2.0 * x, d))) == (0.0, u0)


def test_line_search_backtracks_on_overshoot():
    # steep narrow valley: unit step overshoots badly, halving recovers
    def steep(x):
        return float(100.0 * x[0] ** 2)

    x = np.array([1.0])
    d = np.array([-50.0])
    g = np.array([200.0])
    lam, _ = line_search(steep, x, d, steep(x), float(np.dot(g, d)))
    assert lam > 0.0
    assert steep(x + lam * d) <= steep(x) + 1e-4 * lam * float(np.dot(g, d))


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


@pytest.mark.parametrize("size", [6, 88, 406, 800])
def test_update_inverse_hessian_chain_matches_allocating_formula(size):
    # 406 rows do not split into equal blocks, 800 do; every tenth pair
    # has negative curvature and must leave the matrix untouched
    rng = np.random.default_rng(size)
    h = np.eye(size)
    expected = np.eye(size)
    for k in range(30):
        s = rng.normal(size=size)
        y = s * rng.uniform(0.5, 2.0, size=size) + 0.1 * rng.normal(size=size)
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
