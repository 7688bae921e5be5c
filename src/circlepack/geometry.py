"""Packing instances, overlap depths, elastic energy, and random layouts.

A packing instance places ``n`` unit circles inside a circular container of
radius ``R`` centered at the origin. Constraint violations are measured as
overlap depths, and the elastic energy is the sum of squared depths; it is
zero exactly on feasible layouts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# A layout is feasible when its total elastic energy falls below this.
FEASIBLE_ENERGY = 1e-20


class Rng(np.random.Generator):
    """Seeded random source. Identical seeds yield identical draw sequences.

    The :class:`numpy.random.Generator` that ``np.random.default_rng(seed)``
    builds, on a PCG64 stream, which also keeps its seed so solver reports
    can record it. A negative seed raises ValueError. One instance per
    solver run; never share across runs.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


@dataclass(frozen=True)
class Layout:
    """Immutable configuration: circle centers plus the container radius.

    ``centers`` is an (n, 2) float array in units of one circle radius. The
    container radius must be positive and finite; packing entry points
    (random initialization, search) additionally require R >= 1 since a
    single unit circle already needs that much room.
    """

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        arr = np.array(self.centers, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"centers must have shape (n, 2) with n >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all center coordinates must be finite")
        r = float(self.radius)
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"container radius must be positive and finite, got {r}")
        arr.setflags(write=False)
        object.__setattr__(self, "centers", arr)
        object.__setattr__(self, "radius", r)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def coords(self) -> np.ndarray:
        """Writable copy of the centers flattened to (x1, y1, ..., xn, yn)."""
        return self.centers.reshape(-1).copy()


@dataclass(frozen=True)
class Energy:
    """Total elastic energy together with the worst individual violations."""

    total: float
    max_pair_depth: float
    max_container_depth: float


def container_depth(center, radius: float) -> float:
    """Overlap depth of the circle at ``center`` against the container wall."""
    x, y = float(center[0]), float(center[1])
    return max(math.hypot(x, y) + 1.0 - radius, 0.0)


def pair_depth(a, b) -> float:
    """Mutual overlap depth of two unit circles; 0 once they are 2 apart."""
    d = math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))
    return max(2.0 - d, 0.0)


@functools.lru_cache(maxsize=16)
def all_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) for every unordered pair, i < j lexicographic.

    Cached for the 16 most recently used n and shared by every caller, so
    both arrays are read-only.
    """
    pair_i, pair_j = np.triu_indices(n, k=1)
    pair_i.setflags(write=False)
    pair_j.setflags(write=False)
    return pair_i, pair_j


# below this many circles listing all pairs is cheaper than sorting a grid.
# The measured crossover of the neighbour-index rebuild on a 2-vCPU virtual
# machine, mean over 8 random layouts at density 0.72 ("crossover" in
# BENCH_pr8_cell_grid.json): all pairs 34 us against grid 101 us at n = 20,
# 70 against 106 at n = 44, 110 against 113 at n = 56, then 114 against 110
# at n = 60 and 140 against 129 at n = 64. Replaying the rebuilds that
# container_adjust makes on a stored n = 60 layout, the grid is no slower
# (median of three runs 130 against 144 us per call).
_GRID_MIN_CIRCLES = 60
# relative padding of the cell side over the reach, and the largest cell
# coordinate the grid accepts; the docstring of candidate_pairs shows why
# these two together make the grid list a superset
_CELL_PADDING = 1e-9
_MAX_CELL = 2.0**22


def candidate_pairs(centers: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j lexicographic, of a superset of the pairs
    of ``centers`` (shape (n, 2)) closer than ``reach``.

    Every pair that a caller's predicate keeps must lie at most about
    ``reach`` apart, up to a few rounding steps: the pair scan of
    ``neighbors._build_index_raw`` (reach 2 + pair margin), the active
    pairs of ``total_energy`` (reach 2) and the prefilter of
    ``layout_io.verify_layout`` (reach 2 + its slack). Callers apply their
    own predicate to the candidates. The candidates come in the order of
    ``all_pair_indices``, so the pairs a predicate keeps come out in the
    same order as from all pairs, and every sum over them (``np.dot``, the
    verdict's scan) sees the same vector and keeps its bits.

    The circles are sorted into square cells of side s = reach * (1 +
    1e-9), keyed by (floor(x/s), floor(y/s)); each circle is paired with
    the later circles of its own cell and every circle of the four forward
    cells (a half stencil), found by ``searchsorted`` on the sorted keys.
    No dense grid is allocated. Each pair is listed once, and one sort of
    the keys i * 2**32 + j puts the candidates in lexicographic order.

    Why a superset, rounding included: the roundings of the subtraction,
    the hypot and the predicate leave the exact coordinate differences of
    a kept pair at most reach * (1 + 10u), u = 2**-53, which is less than
    s * (1 - 9.9e-10). Division by s and rounding are monotone and every
    integer up to 2**53 is a double, so a computed cell coordinate
    fl(x/s) reaches the integer k only when
    x/s is at least k minus half the spacing of the doubles at k. Two
    cells two apart would need x/s values more than 1 - 2**-31 apart when
    every |fl(x/s)| is at most 2**22, which the padding rules out: the
    two circles share a cell or sit in neighbouring ones.

    Falls back to the cached ``all_pair_indices(n)`` when n is below
    _GRID_MIN_CIRCLES, when ``reach`` is not positive and finite or a
    coordinate is not finite, and when a cell coordinate exceeds 2**22 in
    magnitude (circles far outside the container), where the argument
    above no longer holds. The choice depends only on the input.
    """
    n = centers.shape[0]
    if n < _GRID_MIN_CIRCLES or not (0.0 < reach < math.inf):
        return all_pair_indices(n)
    scaled = centers / (reach * (1.0 + _CELL_PADDING))
    # written so that NaN falls back too
    if not np.abs(scaled).max() <= _MAX_CELL:
        return all_pair_indices(n)
    cx = np.floor(scaled[:, 0])
    cy = np.floor(scaled[:, 1])
    cx -= cx.min()
    cy -= cy.min()
    # one spare row keeps cell (x + 1, y - 1) of the bottom row and cell
    # (x, y + 1) of the top row empty instead of wrapping into the next
    # column; every key is an integer below 2**48, exact in a double
    width = int(cy.max()) + 2
    keys = (cx * width + cy).astype(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    # the half stencil is two runs of keys: the own cell (circles after
    # this one) with the cell above it, and the three cells of the next
    # column, (x + 1, y - 1) to (x + 1, y + 1)
    targets = np.concatenate((keys + 2, keys + (width - 1), keys + (width + 2)))
    bounds = np.searchsorted(keys, targets)
    starts = np.concatenate((np.arange(1, n + 1), bounds[n : 2 * n]))
    counts = np.concatenate((bounds[:n], bounds[2 * n :])) - starts
    # expand the runs [start, start + count) of the sorted order
    first = np.repeat(np.concatenate((order, order)), counts)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    second = order[np.arange(shift.size) + shift]
    # each pair appears once, so sorting i * 2**32 + j gives the order of
    # all_pair_indices
    pair_keys = np.sort((np.minimum(first, second) << 32) | np.maximum(first, second))
    return pair_keys >> 32, pair_keys & 0xFFFFFFFF


class Depths(NamedTuple):
    """The depths of one point over listed terms: the six arrays of
    ``depth_stage`` and the energy ``total`` they make."""

    delta: np.ndarray
    dist: np.ndarray
    pair_depth: np.ndarray
    walls: np.ndarray
    rad: np.ndarray
    wall_depth: np.ndarray
    total: float

    def energy(self) -> Energy:
        """The ``Energy`` of these terms; empty lists give +0.0 throughout."""
        # depths are >= 0, so initial=0.0 changes no maximum of a non-empty list
        pair_max, wall_max = self.pair_depth.max(initial=0.0), self.wall_depth.max(initial=0.0)
        return Energy(self.total, float(pair_max), float(wall_max))


# Only the elementwise stage is shared. Measured on a 2-vCPU virtual
# machine (numpy 2.4.6, one BLAS thread) over points sampled from
# perfbench's hit-bestknown cells at n = 30, about 100 listed terms: a
# one-point trial run as a one-row block costs 17.8 us against 9.7 us for
# ``listed_depths``, and one-point calls are 28,220 of a round's 39,589
# kernel calls. ``scatter_gradient`` scatters every listed term, which
# gives the bits of scattering the active ones alone: on 3,971 points
# recorded from three hit-bestknown cells it takes about 19 us against 30
# us for compacting first, and 49 against 52 us on local lists at n = 400
# (about 1,070 pairs, 180 active), while in full mode at n = 200 (5 of
# 19,900 pairs active) it takes about 300 against 80 us, 3.1 against 2.8
# ms per full-mode step.
def depth_stage(
    centers: np.ndarray,
    radius: float,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Elementwise depths of the given pairs and wall terms of ``centers``,
    one point (n, 2) or a block of points (rows, n, 2).

    Returns ``(delta, dist, pair_depth, walls, rad, wall_depth)`` with the
    leading axes of ``centers``: per listed pair the centre difference
    i - j (..., P, 2), its length and the overlap depth; per listed wall
    circle the centre (..., W, 2), its distance from the origin and the
    wall depth. Each point of a block gets the bits it gets alone. For
    finite centres every depth is ``np.maximum`` of 0.0 and a finite or
    infinite value, never NaN, so it is nonzero exactly when positive.
    """
    # take gathers along the circle axis faster than fancy indexing
    delta = centers.take(pair_i, axis=-2) - centers.take(pair_j, axis=-2)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    pair_depth = np.maximum(2.0 - dist, 0.0)
    walls = centers.take(container_ids, axis=-2)
    rad = np.hypot(walls[..., 0], walls[..., 1])
    wall_depth = np.maximum(rad + 1.0 - radius, 0.0)
    return delta, dist, pair_depth, walls, rad, wall_depth


def listed_depths(
    centers: np.ndarray,
    radius: float,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
) -> Depths:
    """``depth_stage`` of one point, shape (n, 2), and its energy.

    Every listed pair contributes twice its squared depth to ``total``
    (each member of the pair stores the same deformation); each listed
    wall term contributes its squared depth once. Each sum is the dot
    product of the listed depths with themselves, zeros included, in
    listing order, so it is the sum a row of the trial kernel's block
    gets. An empty list contributes +0.0.
    """
    stage = depth_stage(centers, radius, pair_i, pair_j, container_ids)
    pair_depth, wall_depth = stage[2], stage[5]
    total = 2.0 * float(pair_depth.dot(pair_depth)) + float(wall_depth.dot(wall_depth))
    return Depths(*stage, total)


def term_bins(
    pair_i: np.ndarray, pair_j: np.ndarray, container_ids: np.ndarray, n: int
) -> np.ndarray:
    """The ``scatter_gradient`` bin of each listed term's x and y push.

    Three contiguous sections of bins over n circles, (3, n, 2) once
    reshaped: the pair pushes by their j side, the same pushes by their
    i side, then the wall pushes. The terms follow in the same order,
    each as its x push then its y push.
    """
    circles = np.concatenate((pair_j, pair_i + n, container_ids + 2 * n))
    return (2 * circles[:, None] + np.arange(2)).reshape(-1)


def scatter_gradient(depths: Depths, bins: np.ndarray, n: int) -> np.ndarray | None:
    """Analytic gradient of ``depths.total`` over n circles, shape (n, 2),
    from the depths of the listed terms at one point (``listed_depths`` or
    the trial kernel's accepted row), binned by ``term_bins``; None when
    two centres of an overlapping listed pair coincide, since the push
    direction between them is undefined.

    Every listed term is scattered, zeros included, in one ``np.bincount``
    over the three sections, and the gradient is (j side - i side) +
    wall. Every bin receives its terms in listing order. A bin starts at
    +0.0 and a sum from there is never -0.0, so the ±0.0 that an inactive
    term adds changes no bin: the result has the bits of scattering the
    active terms alone. That holds while every pair's centre difference
    is finite, as it is for centres below 1e307 in magnitude.
    """
    # a coincident pair has depth 2, so the total is at least 8
    if depths.total >= 8.0 and not depths.dist.all():
        return None
    if not bins.size:
        # bincount of no terms comes back as integers
        return np.zeros((n, 2))
    # each pair appears twice in the energy, hence the factor 4
    pair = (4.0 * depths.pair_depth / depths.dist)[:, None] * depths.delta
    # a positive rad is its own floor at the smallest double, so only an
    # inactive wall circle at the origin changes: it pushes 0, never 0/0
    floor = np.maximum(depths.rad, math.ulp(0.0))
    wall = (2.0 * depths.wall_depth / floor)[:, None] * depths.walls
    terms = np.concatenate((pair, pair, wall)).reshape(-1)
    sums = np.bincount(bins, terms, minlength=6 * n).reshape(3, n, 2)
    return (sums[0] - sums[1]) + sums[2]


def total_energy(layout: Layout) -> Energy:
    """Total elastic energy of a layout over all pairs and container terms.

    Only pairs closer than 2 overlap, so the pairs come from
    ``candidate_pairs`` with reach 2; the pairs it leaves out have depth
    zero and change neither the sum nor the maxima. Unlike
    ``listed_depths``, each sum is the dot product of the positive depths
    alone, compacted in listing order, so its bits do not depend on how
    many zero-depth candidates the grid returns: every n gets the bits of
    a scan of all pairs.
    """
    pair_i, pair_j = candidate_pairs(layout.centers, 2.0)
    stage = depth_stage(layout.centers, layout.radius, pair_i, pair_j, np.arange(layout.n))
    pair = stage[2][stage[2] > 0.0]
    wall = stage[5][stage[5] > 0.0]
    total = 2.0 * float(pair.dot(pair)) + float(wall.dot(wall))
    return Depths(*stage, total).energy()


def is_feasible(layout: Layout) -> bool:
    """True when the layout's total elastic energy is below FEASIBLE_ENERGY."""
    return total_energy(layout).total < FEASIBLE_ENERGY


def random_layout(n: int, radius: float, rng: Rng) -> Layout:
    """Layout with centers drawn uniformly over the disk of radius R - 1.

    Every circle starts fully inside the container; overlaps between circles
    are allowed and expected. Deterministic for a given rng state.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if radius < 1.0:
        raise ValueError(f"container radius must be >= 1 for initialization, got {radius}")
    reach = max(radius - 1.0, 0.0)
    # sqrt of the uniform draw makes the density uniform over the disk area
    r = reach * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    centers = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return Layout(centers, radius)
