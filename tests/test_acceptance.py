"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test here checks an end-to-end promise of the package at its stated
tolerance and prints a single ``ACCEPTANCE <k> ...: PASS/FAIL`` line (the
conftest repeats them in the run summary). Long-running sweeps carry the
``nightly`` marker and are excluded from the default run; ``pytest -m
nightly`` picks them up.
"""

import math
import time

import numpy as np
import pytest

import circlepack as cp

RNG_STREAM = 20260814


def _dense_radius(n: int, crowding: float) -> float:
    # crowding < 1 packs tighter than unit circles can go, > 1 leaves room
    return 1.0 + crowding * math.sqrt(n)


# 1. Analytic gradients match central finite differences on random layouts.


def test_acceptance_1_gradient_matches_finite_differences(acceptance):
    step = 1e-7
    started = time.monotonic()
    gen = np.random.default_rng(RNG_STREAM)
    worst_rel = 0.0
    checked = 0
    zero_asserted = 0
    for _ in range(100):
        n = int(gen.integers(5, 61))
        layout = cp.random_layout(
            n,
            _dense_radius(n, float(gen.uniform(0.62, 1.30))),
            cp.Rng(int(gen.integers(2**63))),
        )
        _, grad = cp.energy_gradient_full(layout)
        centers = layout.centers
        radius = layout.radius

        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        rads = np.sqrt((centers**2).sum(axis=1))
        # Circles with a term sitting within the finite-difference window of
        # its kink get skipped outright: the two-sided difference straddles
        # the max() corner there and measures neither branch.
        near_kink = (np.abs(dists - 2.0) <= 3.0 * step).any(axis=1)
        near_kink |= np.abs(rads + 1.0 - radius) <= 3.0 * step
        # Circles with no active term at all sit in a locally flat region:
        # their gradient components must be exactly zero, bit for bit.
        active = (dists < 2.0).any(axis=1) | (rads + 1.0 > radius)

        scale = float(np.max(np.abs(grad)))
        flat = centers.reshape(-1).copy()
        for i in range(n):
            if near_kink[i]:
                continue
            for k in (2 * i, 2 * i + 1):
                if not active[i]:
                    assert grad[k] == 0.0
                    zero_asserted += 1
                    continue
                saved = flat[k]
                flat[k] = saved + step
                up = cp.total_energy(cp.Layout(flat.reshape(n, 2), radius)).total
                flat[k] = saved - step
                down = cp.total_energy(cp.Layout(flat.reshape(n, 2), radius)).total
                flat[k] = saved
                fd = (up - down) / (2.0 * step)
                worst_rel = max(worst_rel, abs(fd - grad[k]) / max(scale, 1e-12))
                checked += 1
    elapsed = time.monotonic() - started
    acceptance(
        1,
        "gradient vs central differences",
        worst_rel < 1e-5 and elapsed < 60.0,
        f"max rel err {worst_rel:.3e} over {checked} components, "
        f"{zero_asserted} inactive components exactly zero, {elapsed:.1f}s",
    )


# 2. With infinite margins the neighbor-list mode retraces the all-pairs
#    mode bit for bit.


def test_acceptance_2_local_mode_reproduces_full_mode(acceptance):
    started = time.monotonic()
    gen = np.random.default_rng(RNG_STREAM + 1)
    instances = 0
    steps_compared = 0
    for _ in range(20):
        n = int(gen.integers(10, 101))
        layout = cp.random_layout(
            n,
            _dense_radius(n, float(gen.uniform(0.85, 1.10))),
            cp.Rng(int(gen.integers(2**63))),
        )

        def run(mode, **margins):
            trail = []

            def capture(record):
                trail.append(
                    (
                        record.iteration,
                        record.iterate.tobytes(),
                        record.energy_after,
                        record.step_length,
                    )
                )

            outcome = cp.bfgs_minimize(
                layout, max_iterations=50, mode=mode, callback=capture, **margins
            )
            return trail, outcome

        full_trail, full_out = run("full")
        local_trail, local_out = run(
            "local", container_margin=math.inf, pair_margin=math.inf
        )
        assert local_trail == full_trail
        assert local_out.layout.centers.tobytes() == full_out.layout.centers.tobytes()
        assert local_out.status is full_out.status
        assert local_out.energy == full_out.energy
        instances += 1
        steps_compared += len(full_trail)
    elapsed = time.monotonic() - started
    acceptance(
        2,
        "local mode bit-exact vs full mode",
        instances == 20 and elapsed < 120.0,
        f"{instances} instances, {steps_compared} steps identical, {elapsed:.1f}s",
    )


# 3. The radius-minimizing driver recovers small-n optima from every seed.


def test_acceptance_3_small_n_optima(acceptance):
    cases = [
        (1, 3.0, 1.0, 1e-9),
        (2, 3.0, 2.0, 1e-9),
        (3, 3.0, 1.0 + 2.0 / math.sqrt(3.0), 1e-6),
        (7, 4.0, 3.0, 1e-6),
    ]
    summaries = []
    ok = True
    slowest = 0.0
    for n, start_radius, target, tol in cases:
        worst = 0.0
        for seed in range(10):
            t0 = time.monotonic()
            report = cp.minimize_radius(
                n, start_radius, t0=12.0, t1=40.0, rng=cp.Rng(seed)
            )
            elapsed = time.monotonic() - t0
            slowest = max(slowest, elapsed)
            err = abs(report.radius - target)
            worst = max(worst, err)
            if report.status is not cp.SolveStatus.FEASIBLE or err > tol or elapsed >= 60.0:
                ok = False
        summaries.append(f"n={n} err {worst:.1e}")
    acceptance(
        3,
        "small-n optimal radii, 10/10 seeds",
        ok and slowest < 60.0,
        ", ".join(summaries) + f", slowest run {slowest:.1f}s",
    )


# 4. Feasible layouts at the vendored best-known radii, 10 seeds per n.
#    The full 2..49 sweep at the 720 s budget runs nightly; the default
#    tier covers 2..20 with a 60 s cap.


def _hit_sweep(acceptance, ns, time_limit, label):
    started = time.monotonic()
    table = cp.load_best_known()
    records = cp.run_hits(ns, table, reps=10, time_limit=time_limit, seed_base=0)
    misses = [f"n={r.n}:{r.hits}/10" for r in records if r.hits < 9]
    worst = min(records, key=lambda r: r.hits)
    elapsed = time.monotonic() - started
    acceptance(
        4,
        label,
        not misses,
        (
            f"{len(records)} instances, worst n={worst.n} with {worst.hits}/10 hits, "
            f"{elapsed:.0f}s"
            + (f"; below 9/10: {', '.join(misses)}" if misses else "")
        ),
    )


def test_acceptance_4_best_known_hits_ci_tier(acceptance):
    _hit_sweep(acceptance, range(2, 21), 60.0, "best-known hits n=2..20, 60s cap")


@pytest.mark.nightly
def test_acceptance_4_best_known_hits_full_sweep(acceptance):
    _hit_sweep(acceptance, range(2, 50), 720.0, "best-known hits n=2..49, 720s cap")


# 5. Neighbor lists at n=200: mean time to a local minimum at most half the
#    all-pairs mean over 100 identical random starts.


@pytest.mark.nightly
def test_acceptance_5_local_mode_speedup_n200(acceptance):
    started = time.monotonic()
    seek = cp.minimize_radius(200, 1.0 + math.sqrt(200.0 / 0.72), t0=120.0, t1=600.0, rng=cp.Rng(7))
    assert seek.status is cp.SolveStatus.FEASIBLE
    records = cp.run_mode_timing(200, seek.radius, runs=100, seed_base=11)
    by_mode = {r.mode: r for r in records}
    full = by_mode["full"]
    local = by_mode["local"]
    ratio = local.mean_time_s / full.mean_time_s
    elapsed = time.monotonic() - started
    acceptance(
        5,
        "n=200 local-mode speedup",
        ratio <= 0.5 and elapsed < 1800.0,
        f"radius {seek.radius:.6f}, local {local.mean_time_s:.4f}s vs "
        f"full {full.mean_time_s:.4f}s per start, ratio {ratio:.3f}, {elapsed:.0f}s",
    )


# 6. Container adjustment: feasible output, never grows the radius, bracket
#    closed below 1e-10; the deliberately slack triangle reaches its optimum.


def test_acceptance_6_container_adjust_contract(acceptance):
    started = time.monotonic()
    table = cp.load_best_known()
    adjusted = 0
    worst_bracket = 0.0
    ok = True
    for n in range(4, 29):
        for rep in range(2):
            slack_radius = 1.04 * table.radius_for(n)
            found = cp.global_search(
                n, slack_radius, time_limit=30.0, rng=cp.Rng(cp.derive_seed(606, n, rep))
            )
            assert found.status is cp.SolveStatus.FEASIBLE
            result = cp.container_adjust(found.layout)
            worst_bracket = max(worst_bracket, result.bracket_width)
            if (
                result.radius > slack_radius
                or result.bracket_width > 1e-10
                or cp.total_energy(result.layout).total >= cp.FEASIBLE_ENERGY
            ):
                ok = False
            adjusted += 1

    angles = np.array([0.5, 2.0 * math.pi / 3.0 + 0.5, 4.0 * math.pi / 3.0 + 0.5])
    triangle = (2.0 / math.sqrt(3.0)) * np.column_stack([np.cos(angles), np.sin(angles)])
    slack = cp.container_adjust(cp.Layout(triangle, 3.0))
    triangle_err = abs(slack.radius - (1.0 + 2.0 / math.sqrt(3.0)))
    elapsed = time.monotonic() - started
    acceptance(
        6,
        "container adjustment contract",
        ok and adjusted == 50 and triangle_err <= 1e-6,
        f"{adjusted} layouts, max bracket {worst_bracket:.2e}, "
        f"slack triangle err {triangle_err:.2e}, {elapsed:.0f}s",
    )


@pytest.mark.nightly
def test_acceptance_6_n130_adjustment_demo(acceptance):
    # Documented demo, not a gate: the n=130 radius improvement depends on
    # landing in the right basin, which no time budget can promise.
    record = next(r for r in cp.load_improvements() if r.n == 130)
    found = cp.global_search(130, record.old_radius, time_limit=600.0, rng=cp.Rng(130))
    if found.status is cp.SolveStatus.FEASIBLE:
        result = cp.container_adjust(found.layout)
        detail = (
            f"search hit at {record.old_radius:.10f}; adjusted to {result.radius:.10f} "
            f"(recorded improvement reaches {record.new_radius:.10f})"
        )
    else:
        detail = (
            f"search missed within 600s (status {found.status.value}); "
            "demo is informational only"
        )
    acceptance(6, "n=130 adjustment demo (non-gating)", True, detail)


# 7. The hop schedule: bit-exact shrink factors, settle lengths in range,
#    reproducible batches.


class _SpyRng:
    """Duck-typed stand-in that records the settle-length draws."""

    def __init__(self, seed):
        self.inner = cp.Rng(seed)
        self.seed = self.inner.seed
        self.h_draws = []

    def integers(self, lo, hi):
        value = self.inner.integers(lo, hi)
        if (lo, hi) == (50, 101):
            self.h_draws.append(int(value))
        return value

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_acceptance_7_hop_schedule(acceptance):
    started = time.monotonic()
    betas = cp.shrink_factors()
    expected = tuple(0.3 + 0.035 * m for m in range(20))
    schedule_exact = betas == expected

    source = cp.random_layout(8, 2.6, cp.Rng(5))
    spy = _SpyRng(41)
    batch = cp.basin_hop(source, rng=spy)
    draws_in_range = len(spy.h_draws) == 20 and all(50 <= h <= 100 for h in spy.h_draws)

    again = cp.basin_hop(source, rng=_SpyRng(41))
    reproducible = all(
        a.centers.tobytes() == b.centers.tobytes() and a.radius == b.radius
        for a, b in zip(batch, again)
    )
    elapsed = time.monotonic() - started
    acceptance(
        7,
        "basin-hop schedule",
        schedule_exact and draws_in_range and reproducible and elapsed < 1.0,
        f"betas bit-exact {schedule_exact}, h range "
        f"[{min(spy.h_draws)},{max(spy.h_draws)}], reproducible {reproducible}, "
        f"{elapsed:.2f}s",
    )


# 8. Energy invariants under randomized inputs: nonnegativity,
#    zero-iff-feasible, pair symmetry, rotation invariance, and agreement
#    with brute-force double-counted enumeration.


def _brute_force_energy(centers, radius):
    n = len(centers)
    total = 0.0
    for i in range(n):
        xi, yi = centers[i]
        for j in range(n):
            if i == j:
                continue
            depth = max(2.0 - math.hypot(xi - centers[j][0], yi - centers[j][1]), 0.0)
            total += depth * depth
        wall = max(math.hypot(xi, yi) + 1.0 - radius, 0.0)
        total += wall * wall
    return total


def test_acceptance_8_energy_invariants(acceptance):
    started = time.monotonic()
    gen = np.random.default_rng(RNG_STREAM + 8)
    layouts = 25_000
    cases = 0
    zero_branch = positive_branch = 0
    worst_rot = 0.0
    worst_scaled_rot = 0.0
    worst_brute = 0.0
    for k in range(layouts):
        n = int(gen.integers(1, 21))
        radius = _dense_radius(n, float(gen.uniform(0.55, 2.8)))
        layout = cp.random_layout(n, radius, cp.Rng(int(gen.integers(2**63))))
        energy = cp.total_energy(layout)

        assert energy.total >= 0.0
        assert energy.max_pair_depth >= 0.0 and energy.max_container_depth >= 0.0
        cases += 1

        feasible = energy.max_pair_depth == 0.0 and energy.max_container_depth == 0.0
        assert (energy.total == 0.0) == feasible == cp.is_feasible(layout)
        if feasible:
            zero_branch += 1
        else:
            positive_branch += 1
        cases += 1

        theta = float(gen.uniform(0.0, 2.0 * math.pi))
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        rotated = cp.total_energy(cp.Layout(layout.centers @ rot.T, radius))
        if energy.total == 0.0:
            assert rotated.total == 0.0
        else:
            # Depth terms lose precision at the max() kink: a grazing pair
            # contributes a depth known only to ~eps*radius, so the relative
            # gate gets a Cauchy-Schwarz noise floor for those terms.
            diff = abs(rotated.total - energy.total)
            floor = (
                8.0
                * math.sqrt((n * n + n) * energy.total)
                * (4e-16 * (radius + 2.0))
            )
            assert diff <= 1e-12 * energy.total + floor
            worst_scaled_rot = max(
                worst_scaled_rot, diff / (1e-12 * energy.total + floor)
            )
            if energy.total > 1e-3:
                worst_rot = max(worst_rot, diff / energy.total)
        cases += 1

        p = gen.uniform(-4.0, 4.0, size=2)
        q = gen.uniform(-4.0, 4.0, size=2)
        assert cp.pair_depth(p, q) == cp.pair_depth(q, p)
        cases += 1

        if k % 25 == 0:
            brute = _brute_force_energy(layout.centers, radius)
            diff = abs(brute - energy.total)
            floor = (
                8.0
                * math.sqrt((n * n + n) * max(energy.total, 0.0))
                * (4e-16 * (radius + 2.0))
            )
            assert diff <= 1e-12 * energy.total + floor
            if energy.total > 1e-3:
                worst_brute = max(worst_brute, diff / energy.total)
            cases += 1
    elapsed = time.monotonic() - started
    acceptance(
        8,
        "energy invariant suite",
        cases >= 100_000
        and zero_branch > 0
        and positive_branch > 0
        and worst_rot < 1e-12
        and worst_brute < 1e-12
        and elapsed < 120.0,
        f"{cases} cases ({zero_branch} feasible, {positive_branch} infeasible), "
        f"rotation rel {worst_rot:.1e}, brute-force rel {worst_brute:.1e}, "
        f"{elapsed:.0f}s",
    )


# 9. Vendored radius improvements: strictly positive, each matching its
#    printed magnitude, with the verifier exercised both ways. Producing
#    the underlying layouts needs multi-day searches and is not gated.


def test_acceptance_9_improved_radii_records(acceptance):
    started = time.monotonic()
    records = cp.load_improvements()
    ok = len(records) > 0
    magnitudes = []
    for record in records:
        diff = record.old_radius - record.new_radius
        magnitudes.append(record.magnitude)
        if not (
            diff > 0.0
            and 1e-7 <= record.magnitude <= 1e-2
            and abs(math.log10(diff / record.magnitude)) < 1.0
        ):
            ok = False

    # The verifier must reject a random layout at an improved radius ...
    tight = next(r for r in records if r.n == 130)
    crowded = cp.random_layout(tight.n, tight.new_radius, cp.Rng(3))
    rejected = cp.verify_layout(crowded)
    ok = ok and not rejected.passed and len(rejected.violations) > 0

    # ... and accept a solver-produced layout at its own radius.
    table = cp.load_best_known()
    found = cp.global_search(12, table.radius_for(12), time_limit=120.0, rng=cp.Rng(9))
    accepted = found.status is cp.SolveStatus.FEASIBLE and cp.verify_layout(found.layout).passed
    ok = ok and accepted

    elapsed = time.monotonic() - started
    acceptance(
        9,
        "vendored radius improvements",
        ok,
        f"{len(records)} records, magnitudes {min(magnitudes):.0e}..{max(magnitudes):.0e}, "
        f"verifier rejects crowded layout and accepts solver layout, {elapsed:.0f}s",
    )
