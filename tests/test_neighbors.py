import math

import numpy as np
import pytest

from circlepack.geometry import Layout, Rng, random_layout, total_energy
from circlepack.neighbors import (
    build_index,
    energy_gradient_full,
    energy_gradient_local,
    full_index,
    gradient_eval,
    index_energy,
)


def dense_layout(n, seed, slack=0.75):
    rng = Rng(seed)
    return random_layout(n, 1.0 + slack * math.sqrt(n), rng)


def test_build_index_matches_bruteforce_predicates():
    layout = dense_layout(25, 9)
    index = build_index(layout, container_margin=1.0, pair_margin=1.0)
    c = layout.centers
    expected_pairs = set()
    for i in range(layout.n):
        for j in range(i + 1, layout.n):
            dist = math.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1])
            if dist - 2.0 <= 1.0:
                expected_pairs.add((i, j))
    got_pairs = set(zip(index.pair_i.tolist(), index.pair_j.tolist()))
    assert got_pairs == expected_pairs

    # the wall predicate is one-sided: everything is listed except circles
    # already violating the wall by more than the margin
    expected_wall = {
        i
        for i in range(layout.n)
        if math.hypot(c[i, 0], c[i, 1]) + 1.0 - layout.radius <= 1.0
    }
    assert set(index.container_ids.tolist()) == expected_wall


def test_margin_validation():
    layout = dense_layout(5, 1)
    with pytest.raises(ValueError):
        build_index(layout, container_margin=-0.5)
    with pytest.raises(ValueError):
        build_index(layout, pair_margin=-1.0)
    with pytest.raises(ValueError):
        build_index(layout, container_margin=math.nan)
    with pytest.raises(ValueError):
        build_index(layout, pair_margin=math.nan)


def test_full_index_lists_everything():
    index = full_index(12)
    assert index.pair_i.size == 12 * 11 // 2
    assert set(index.container_ids.tolist()) == set(range(12))
    assert math.isinf(index.container_margin)
    assert math.isinf(index.pair_margin)


def test_adjacency_lists_are_symmetric():
    layout = dense_layout(18, 4)
    index = build_index(layout)
    pairs = list(zip(index.pair_i.tolist(), index.pair_j.tolist()))
    # each unordered pair is listed once, as (i, j) with i < j
    assert all(i < j for i, j in pairs)
    assert len(set(pairs)) == len(pairs)


def test_index_energy_bitwise_equal_to_total_energy():
    # a freshly built index must reproduce the all-pairs energy exactly:
    # terms it omits have zero depth and the active summation order matches
    for seed in range(20):
        layout = dense_layout(int(Rng(seed).integers(2, 40)), seed)
        full = total_energy(layout).total
        fresh = index_energy(layout.centers, layout.radius, build_index(layout))
        everything = index_energy(layout.centers, layout.radius, full_index(layout.n))
        assert fresh == full
        assert everything == full


def test_gradient_eval_energy_consistency():
    layout = dense_layout(30, 2)
    index = build_index(layout)
    total, max_pair, max_cont, grad, centers = gradient_eval(
        layout.centers, layout.radius, index
    )
    assert total == index_energy(layout.centers, layout.radius, index)
    assert grad.shape == (30, 2)
    assert np.array_equal(centers, layout.centers)


def test_gradient_matches_finite_differences():
    layout = dense_layout(12, 21)
    energy, grad = energy_gradient_full(layout)
    assert energy.total > 0.0
    step = 1e-7
    coords = layout.coords()
    for k in range(coords.size):
        plus = coords.copy()
        minus = coords.copy()
        plus[k] += step
        minus[k] -= step
        up = total_energy(Layout(plus.reshape(-1, 2), layout.radius)).total
        dn = total_energy(Layout(minus.reshape(-1, 2), layout.radius)).total
        fd = (up - dn) / (2.0 * step)
        assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-8)


def test_gradient_oracle_two_circles():
    # depth 1 pair along x: each center is pushed apart with slope 4
    layout = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]), 10.0)
    energy, grad = energy_gradient_full(layout)
    assert energy.total == 2.0
    assert np.allclose(grad, [4.0, 0.0, -4.0, 0.0], atol=1e-14)


def test_gradient_oracle_wall():
    layout = Layout(np.array([[9.5, 0.0]]), 10.0)
    energy, grad = energy_gradient_full(layout)
    assert energy.total == pytest.approx(0.25, rel=1e-15)
    assert grad[0] == pytest.approx(1.0, rel=1e-14)
    assert grad[1] == 0.0


def test_local_gradient_with_full_coverage_matches_full():
    layout = dense_layout(35, 8)
    e_full, g_full = energy_gradient_full(layout)
    e_local, g_local = energy_gradient_local(layout, full_index(layout.n))
    assert e_local.total == e_full.total
    assert np.array_equal(g_full, g_local)


def test_coincident_centers_get_nudged():
    centers = np.array([[0.5, 0.5], [0.5, 0.5], [-1.0, 0.0]])
    layout = Layout(centers, 5.0)
    energy, grad = energy_gradient_full(layout, rng=Rng(0))
    # the overlapping pair cannot stay exactly coincident or the push
    # direction is undefined; the gradient must be finite and nonzero
    assert np.all(np.isfinite(grad))
    assert np.linalg.norm(grad) > 0.0


def test_index_age_starts_at_zero():
    layout = dense_layout(6, 3)
    assert build_index(layout).age == 0
