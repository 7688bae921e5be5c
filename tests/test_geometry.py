import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlepack.geometry import (
    FEASIBLE_ENERGY,
    Energy,
    Layout,
    Rng,
    all_pair_indices,
    container_depth,
    is_feasible,
    listed_depths,
    pair_depth,
    random_layout,
    scatter_gradient,
    total_energy,
)
from circlepack.neighbors import NeighborIndex, gradient_eval


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
def test_listed_depths_empty_term_lists_are_positive_zero(
    centers, radius, listed_pairs, listed_walls
):
    # every unlisted term would be active; the listed ones are not, so the
    # result is made of empty sums and empty maxima only
    centers = np.array(centers)
    n = centers.shape[0]
    pair_i, pair_j = all_pair_indices(n) if listed_pairs else (NO_TERMS, NO_TERMS)
    walls = np.arange(n) if listed_walls else NO_TERMS
    energy = listed_depths(centers, radius, pair_i, pair_j, walls).energy()
    depths, grad, _ = gradient_eval(centers, radius, NeighborIndex(pair_i, pair_j, walls, n))
    assert energy == depths.energy() == Energy(0.0, 0.0, 0.0)
    for value in (energy.total, energy.max_pair_depth, energy.max_container_depth):
        assert math.copysign(1.0, value) == 1.0
    assert grad.shape == (n, 2)
    assert np.all(grad == 0.0) and not np.any(np.signbit(grad))


def reference_gradient(centers, radius, pair_i, pair_j, container_ids):
    """Reference: the listed-term gradient as one ``np.bincount`` per axis
    and pair side over the compacted active pairs, then the active wall
    terms added by fancy indexing; None for a coincident overlapping pair."""
    n = centers.shape[0]
    delta = centers[pair_i] - centers[pair_j]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    pair_active = np.maximum(2.0 - dist, 0.0) > 0.0
    d = 2.0 - dist[pair_active]
    if np.any(dist[pair_active] == 0.0):
        return None
    pts = centers[container_ids]
    rad = np.hypot(pts[:, 0], pts[:, 1])
    wall_active = np.maximum(rad + 1.0 - radius, 0.0) > 0.0
    c = rad[wall_active] + 1.0 - radius
    grad = np.zeros((n, 2))
    if d.size:
        ii = pair_i[pair_active]
        jj = pair_j[pair_active]
        push = (4.0 * d / dist[pair_active])[:, None] * delta[pair_active]
        for axis in (0, 1):
            grad[:, axis] = np.bincount(jj, push[:, axis], minlength=n) - np.bincount(
                ii, push[:, axis], minlength=n
            )
    if c.size:
        ids = container_ids[wall_active]
        grad[ids] += (2.0 * c / rad[wall_active])[:, None] * pts[wall_active]
    return grad


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    density=st.floats(0.05, 1.5),
    pair_share=st.sampled_from([0.0, 0.3, 1.0]),
    wall_share=st.sampled_from([0.0, 0.5, 1.0]),
    wall_slack=st.floats(-0.5, 3.0),
    coincide=st.booleans(),
    touch=st.sampled_from(["none", "pair", "wall", "origin"]),
)
# empty active sets: circles far apart, deep inside the wall
@example(
    n=5, seed=0, density=0.05, pair_share=1.0, wall_share=1.0, wall_slack=3.0, coincide=False,
    touch="none",
)
# wall terms alone: no pair listed
@example(
    n=12, seed=1, density=0.9, pair_share=0.0, wall_share=1.0, wall_slack=-0.5, coincide=False,
    touch="none",
)
# n = 1 lists no pair; a coincident pair gives no gradient
@example(
    n=1, seed=2, density=0.5, pair_share=1.0, wall_share=1.0, wall_slack=-0.5, coincide=False,
    touch="none",
)
@example(
    n=6, seed=3, density=0.9, pair_share=1.0, wall_share=1.0, wall_slack=0.0, coincide=True,
    touch="none",
)
# depth exactly 0: a listed pair exactly 2.0 apart, a circle exactly
# touching the wall; neither term is active
@example(
    n=6, seed=4, density=0.5, pair_share=1.0, wall_share=1.0, wall_slack=-0.5, coincide=False,
    touch="pair",
)
@example(
    n=6, seed=5, density=0.5, pair_share=1.0, wall_share=1.0, wall_slack=-0.5, coincide=False,
    touch="wall",
)
# a listed wall circle exactly at the origin, deep inside the wall: its
# push is 0 over a distance of 0, which must scatter as 0, not 0/0
@example(
    n=6, seed=6, density=0.5, pair_share=1.0, wall_share=1.0, wall_slack=-0.5, coincide=False,
    touch="origin",
)
# every pair and wall term listed, as by full_index, at n = 80: most pairs
# are far apart and inactive, so their zero pushes outnumber the active ones
@example(
    n=80, seed=7, density=0.7, pair_share=1.0, wall_share=1.0, wall_slack=0.0, coincide=False,
    touch="none",
)
# no term listed at all, though the circles overlap and cross the wall
@example(
    n=8, seed=8, density=1.5, pair_share=0.0, wall_share=0.0, wall_slack=3.0, coincide=False,
    touch="none",
)
def test_scatter_gradient_matches_four_bincount_reference(
    n, seed, density, pair_share, wall_share, wall_slack, coincide, touch
):
    # the listed pairs are a subset of all pairs in lexicographic order, so
    # a circle repeats across many of them; the wall slack moves the
    # circles drawn near the rim across it
    rng = np.random.default_rng(seed)
    spread = math.sqrt(n / density)
    r = spread * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    centers = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    if coincide and n >= 2:
        centers[1] = centers[0]
    radius = spread + 1.0 - wall_slack
    # both placements are exact: (radius - 1) + 1 rounds to radius
    if touch == "pair" and n >= 2:
        centers[:2] = ((-1.0, 0.0), (1.0, 0.0))
    if touch == "wall" and radius >= 1.0:
        centers[0] = (0.0, radius - 1.0)
    if touch == "origin" and radius >= 1.0:
        centers[0] = (0.0, 0.0)
    pair_i, pair_j = all_pair_indices(n)
    keep = rng.random(pair_i.size) < pair_share
    pair_i, pair_j = pair_i[keep], pair_j[keep]
    container_ids = np.flatnonzero(rng.random(n) < wall_share)
    want = reference_gradient(centers, radius, pair_i, pair_j, container_ids)
    depths = listed_depths(centers, radius, pair_i, pair_j, container_ids)
    if touch == "pair" and n >= 2:
        assert np.all(depths.pair_depth[(pair_i == 0) & (pair_j == 1)] == 0.0)
    if touch in ("wall", "origin") and radius >= 1.0:
        assert np.all(depths.wall_depth[container_ids == 0] == 0.0)
    if touch == "origin" and radius >= 1.0:
        assert np.all(depths.rad[container_ids == 0] == 0.0)
    index = NeighborIndex(pair_i, pair_j, container_ids, n)
    got = scatter_gradient(depths, index.bins, n)
    if want is None:
        assert got is None
    else:
        _, with_grad, _ = gradient_eval(centers, radius, index)
        assert got.shape == (n, 2)
        assert got.tobytes() == want.tobytes()
        assert with_grad.tobytes() == want.tobytes()
