"""The cell-grid candidate pairs against all-pairs scans, bit for bit.

``geometry.candidate_pairs`` feeds the neighbour-index rebuild, the exact
energy and the verdict of ``verify_layout``. Each must give exactly what
the all-pairs scan it replaced gives: the same index arrays, the same
``Energy`` bits and the same verdict with the same depths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlepack as cp
from circlepack import geometry
from circlepack.geometry import (
    Depths,
    Layout,
    all_pair_indices,
    candidate_pairs,
    depth_stage,
    total_energy,
)
from circlepack.neighbors import NeighborIndex, _build_index_raw

SIZES = (1, 2, 59, 60, 61, 99, 100, 101, 128, 400)
MARGINS = (0.0, 0.1, 1.0, 5.0, 1e6, math.inf)
ESCAPES = (5.0, 1e3, 1e8, 1e17)


def build_index_by_all_pairs(centers, radius, container_margin, pair_margin):
    """Reference: the neighbour-index predicates over every pair."""
    pair_i, pair_j = all_pair_indices(centers.shape[0])
    delta = centers[pair_i] - centers[pair_j]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    keep = dist - 2.0 <= pair_margin
    rad = np.hypot(centers[:, 0], centers[:, 1])
    near_wall = rad + 1.0 - radius <= container_margin
    return NeighborIndex(pair_i[keep], pair_j[keep], np.flatnonzero(near_wall), centers.shape[0])


def total_energy_by_all_pairs(layout):
    """Reference: the exact energy over every pair and wall term, each sum
    the dot product of the positive depths in listing order."""
    pair_i, pair_j = all_pair_indices(layout.n)
    stage = depth_stage(layout.centers, layout.radius, pair_i, pair_j, np.arange(layout.n))
    pair = stage[2][stage[2] > 0.0]
    wall = stage[5][stage[5] > 0.0]
    total = 2.0 * float(pair.dot(pair)) + float(wall.dot(wall))
    return Depths(*stage, total).energy()


def energy_bits(energy):
    return (energy.total.hex(), energy.max_pair_depth.hex(), energy.max_container_depth.hex())


def near_reach_pairs(centers, rng, reach, count):
    """Move ``count`` pairs to within a few ulps of distance ``reach``, the
    first member a few ulps from a cell boundary of a grid with that reach,
    so that the pair straddles the boundary."""
    side = reach * (1.0 + geometry._CELL_PADDING)
    n = centers.shape[0]
    for k in range(min(count, n // 2)):
        a, b = 2 * k, 2 * k + 1
        corner = side * rng.integers(-4, 5, size=2).astype(float)
        anchor = corner + rng.integers(-3, 4, size=2) * np.spacing(np.abs(corner) + side)
        angle = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 2.0)]) * math.pi
        dist = reach + int(rng.integers(-4, 5)) * np.spacing(reach)
        centers[a] = anchor
        centers[b] = anchor + dist * np.array([math.cos(angle), math.sin(angle)])


def make_centers(n, seed, density, scenario, escape, margin):
    radius = 1.0 + math.sqrt(n / density)
    rng = np.random.default_rng(seed)
    centers = cp.random_layout(n, radius, cp.Rng(seed)).centers.copy()
    if scenario == "coincident":
        picks = rng.integers(n, size=(max(1, n // 10), 2))
        centers[picks[:, 0]] = centers[picks[:, 1]]
    elif scenario == "escaped":
        picks = rng.integers(n, size=max(1, n // 50))
        centers[picks] *= escape / max(radius, 1.0)
        centers[picks] += rng.choice([-1.0, 1.0], size=(picks.size, 2)) * escape
    elif scenario == "one cell":
        centers = rng.uniform(0.0, 0.5, size=(n, 2))
    elif scenario == "near reach":
        # the energy and the verdict cut at 2, the index at 2 + margin
        near_reach_pairs(centers, rng, 2.0, n // 4)
        if math.isfinite(margin):
            tail = centers[n // 2 :]
            near_reach_pairs(tail, rng, 2.0 + margin, n // 4)
    return centers, radius


@given(
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.3, 0.85),
    scenario=st.sampled_from(["random", "coincident", "escaped", "one cell", "near reach"]),
    escape=st.sampled_from(ESCAPES),
    margin=st.sampled_from(MARGINS),
    tolerance=st.sampled_from([0.0, 1e-9]),
)
@settings(max_examples=120, deadline=None)
def test_grid_scans_match_all_pairs_scans(
    verdict_matches_full_scan, n, seed, density, scenario, escape, margin, tolerance
):
    centers, radius = make_centers(n, seed, density, scenario, escape, margin)

    got = _build_index_raw(centers, radius, margin, margin)
    want = build_index_by_all_pairs(centers, radius, margin, margin)
    for name in ("pair_i", "pair_j", "container_ids"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    layout = Layout(centers, radius)
    assert energy_bits(total_energy(layout)) == energy_bits(total_energy_by_all_pairs(layout))
    verdict_matches_full_scan(layout, tolerance)


@given(
    n=st.integers(geometry._GRID_MIN_CIRCLES, 300),
    seed=st.integers(0, 2**32 - 1),
    reach=st.sampled_from([2.0, 2.0 + 1e-9, 2.1, 3.0, 7.0, 1e6]),
    scenario=st.sampled_from(["random", "near reach", "one cell"]),
)
@settings(max_examples=100, deadline=None)
def test_candidate_pairs_are_a_lexicographic_superset(n, seed, reach, scenario):
    centers, _ = make_centers(n, seed, 0.7, scenario, 5.0, reach - 2.0)
    pair_i, pair_j = candidate_pairs(centers, reach)
    assert pair_i.dtype == pair_j.dtype == all_pair_indices(n)[0].dtype
    assert np.all(pair_i < pair_j)
    assert np.all(np.diff(pair_i * n + pair_j) > 0)
    all_i, all_j = all_pair_indices(n)
    delta = centers[all_i] - centers[all_j]
    close = np.hypot(delta[:, 0], delta[:, 1]) <= reach
    listed = set(zip(pair_i.tolist(), pair_j.tolist()))
    assert set(zip(all_i[close].tolist(), all_j[close].tolist())) <= listed


def test_candidate_pairs_fall_back_to_all_pairs():
    small = cp.random_layout(geometry._GRID_MIN_CIRCLES - 1, 8.0, cp.Rng(0)).centers
    assert candidate_pairs(small, 3.0)[0] is all_pair_indices(small.shape[0])[0]
    centers = cp.random_layout(200, 18.0, cp.Rng(1)).centers.copy()
    full = all_pair_indices(200)
    for reach in (math.inf, math.nan, 0.0, -1.0):
        assert candidate_pairs(centers, reach)[0] is full[0]
    # a cell coordinate beyond 2**22 cells from the origin
    centers[7] = (3.0 * 2.0**23, 0.0)
    assert candidate_pairs(centers, 3.0)[0] is full[0]
    centers[7] = (0.0, math.nan)
    assert candidate_pairs(centers, 3.0)[0] is full[0]


@pytest.mark.parametrize("n", [128, 400, 1000])
def test_grid_lists_far_fewer_pairs_than_all_pairs(n):
    centers = cp.random_layout(n, 1.0 + math.sqrt(n / 0.72), cp.Rng(n)).centers
    pair_i, _ = candidate_pairs(centers, 3.0)
    assert pair_i.size < all_pair_indices(n)[0].size // 4
