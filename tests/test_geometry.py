import math

import numpy as np
import pytest

from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Energy,
    Layout,
    Rng,
    all_pair_indices,
    container_depth,
    evaluate_pairs,
    is_feasible,
    pair_depth,
    random_layout,
    total_energy,
)


def test_pair_depth_basic():
    assert pair_depth((0.0, 0.0), (2.0, 0.0)) == 0.0
    assert pair_depth((0.0, 0.0), (1.0, 0.0)) == 1.0
    assert pair_depth((0.0, 0.0), (5.0, 0.0)) == 0.0
    # symmetric in its arguments
    a, b = (0.3, -1.2), (-0.4, 0.8)
    assert pair_depth(a, b) == pair_depth(b, a)


def test_container_depth_basic():
    assert container_depth((0.0, 0.0), 1.0) == 0.0
    assert container_depth((9.5, 0.0), 10.0) == pytest.approx(0.5, abs=1e-15)
    assert container_depth((0.0, 0.0), 5.0) == 0.0


def test_total_energy_two_overlapping_circles():
    # centers 1 apart: depth 1, stored once per circle, so the pair
    # contributes 2 * 1^2 = 2 with no container terms
    layout = Layout(np.array([[0.0, 0.0], [1.0, 0.0]]), 10.0)
    e = total_energy(layout)
    assert e.total == 2.0
    assert e.max_pair_depth == 1.0
    assert e.max_container_depth == 0.0


def test_total_energy_wall_violation():
    layout = Layout(np.array([[9.5, 0.0]]), 10.0)
    e = total_energy(layout)
    assert e.total == pytest.approx(0.25, rel=1e-15)
    assert e.max_pair_depth == 0.0
    assert e.max_container_depth == pytest.approx(0.5, rel=1e-15)


def test_total_energy_feasible_is_exact_zero():
    layout = Layout(np.array([[-1.0, 0.0], [1.0, 0.0]]), 2.0)
    e = total_energy(layout)
    assert e.total == 0.0
    assert is_feasible(layout)


def test_energy_nonnegative_on_random_layouts():
    rng = Rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        layout = random_layout(n, 1.0 + math.sqrt(n), rng)
        assert total_energy(layout).total >= 0.0


def test_energy_rotation_invariance():
    rng = Rng(11)
    layout = random_layout(12, 3.0, rng)
    base = total_energy(layout).total
    assert base > 0.0
    for angle in (0.3, 1.2, -2.5):
        c, s = math.cos(angle), math.sin(angle)
        rot = layout.centers @ np.array([[c, s], [-s, c]])
        rotated = total_energy(Layout(rot, layout.radius)).total
        assert rotated == pytest.approx(base, rel=1e-12)


def test_energy_matches_bruteforce_double_count():
    # the vectorized energy must agree with naive per-circle bookkeeping
    # where both members of a pair record the same deformation
    rng = Rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        layout = random_layout(n, 1.0 + 0.7 * math.sqrt(n), rng)
        c = layout.centers
        brute = 0.0
        for i in range(n):
            brute += container_depth(c[i], layout.radius) ** 2
            for j in range(n):
                if i != j:
                    brute += pair_depth(c[i], c[j]) ** 2
        assert total_energy(layout).total == pytest.approx(brute, rel=1e-12)


def test_all_pair_indices():
    i, j = all_pair_indices(4)
    pairs = set(zip(i.tolist(), j.tolist()))
    assert pairs == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_all_pair_indices_cached_and_read_only():
    for n in (1, 2, 7, 30):
        i, j = all_pair_indices(n)
        want_i, want_j = np.triu_indices(n, k=1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        assert all_pair_indices(n)[0] is i
        for arr in (i, j):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(np.zeros((0, 2)), 2.0)
    with pytest.raises(ValueError):
        Layout(np.zeros((3, 3)), 2.0)
    with pytest.raises(ValueError):
        Layout(np.array([[0.0, np.nan]]), 2.0)
    with pytest.raises(ValueError):
        Layout(np.array([[0.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        Layout(np.array([[0.0, 0.0]]), math.inf)


def test_layout_centers_are_immutable():
    layout = Layout(np.array([[0.0, 0.0]]), 2.0)
    with pytest.raises(ValueError):
        layout.centers[0, 0] = 1.0


def test_random_layout_inside_container():
    rng = Rng(42)
    layout = random_layout(40, 8.0, rng)
    assert layout.n == 40
    radii = np.hypot(layout.centers[:, 0], layout.centers[:, 1])
    assert np.all(radii <= 7.0 + 1e-12)


def test_random_layout_seed_reproducible():
    a = random_layout(10, 4.0, Rng(5))
    b = random_layout(10, 4.0, Rng(5))
    assert np.array_equal(a.centers, b.centers)
    c = random_layout(10, 4.0, Rng(6))
    assert not np.array_equal(a.centers, c.centers)


def test_feasible_energy_threshold_constant():
    assert FEASIBLE_ENERGY == 1e-20


NO_TERMS = np.array([], dtype=np.intp)


@pytest.mark.parametrize(
    "centers, radius, listed_pairs, listed_walls",
    [
        # two overlapping circles inside the wall, no pair listed
        ([[0.0, 0.0], [1.0, 0.0]], 5.0, False, True),
        # two separate circles across the wall, no wall term listed
        ([[-4.0, 0.0], [4.0, 0.0]], 2.0, True, False),
        # one circle across the wall, neither listed
        ([[5.0, 0.0]], 2.0, False, False),
    ],
    ids=["no-pairs", "no-walls", "n=1-neither"],
)
def test_evaluate_pairs_empty_term_lists_are_positive_zero(
    centers, radius, listed_pairs, listed_walls
):
    # every unlisted term would be active; the listed ones are not, so the
    # result is made of empty sums and empty maxima only
    centers = np.array(centers)
    n = centers.shape[0]
    pair_i, pair_j = all_pair_indices(n) if listed_pairs else (NO_TERMS, NO_TERMS)
    walls = np.arange(n) if listed_walls else NO_TERMS
    energy = evaluate_pairs(centers, radius, pair_i, pair_j, walls)
    with_grad, grad = evaluate_pairs(centers, radius, pair_i, pair_j, walls, with_gradient=True)
    assert energy == with_grad == Energy(0.0, 0.0, 0.0)
    for value in (energy.total, energy.max_pair_depth, energy.max_container_depth):
        assert math.copysign(1.0, value) == 1.0
    assert grad.shape == (n, 2)
    assert np.all(grad == 0.0) and not np.any(np.signbit(grad))
