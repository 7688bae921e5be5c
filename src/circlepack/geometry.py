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


class Rng:
    """Seeded random source. Identical seeds yield identical draw sequences.

    Thin wrapper around :class:`numpy.random.Generator` that remembers its
    seed so solver reports can record it. One instance per solver run; never
    share across runs.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)

    def __getattr__(self, name):
        return getattr(self._generator, name)

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
    """The depth stage of one point over listed terms (``listed_depths``).

    Per listed pair: the centre difference i - j (shape (P, 2)), its
    length, the overlap depth and whether that depth is positive; per
    listed wall circle: the centre (shape (W, 2)), its distance from the
    origin, the wall depth and whether it is positive. ``pair`` and
    ``wall`` are the positive depths alone, in listing order, and
    ``total`` is the energy they make.
    """

    delta: np.ndarray
    dist: np.ndarray
    pair_depth: np.ndarray
    pair_active: np.ndarray
    pair: np.ndarray
    walls: np.ndarray
    rad: np.ndarray
    wall_depth: np.ndarray
    wall_active: np.ndarray
    wall: np.ndarray
    total: float


def listed_depths(
    centers: np.ndarray,
    radius: float,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
) -> Depths:
    """Depths of the given pairs and wall terms of ``centers``, shape (n, 2).

    Every listed pair contributes twice its squared depth to ``total``
    (each member of the pair stores the same deformation); each listed
    wall term contributes its squared depth once. An empty list
    contributes +0.0.
    """
    # take gathers along the circle axis faster than fancy indexing
    delta = centers.take(pair_i, axis=0) - centers.take(pair_j, axis=0)
    dist = np.hypot(delta[:, 0], delta[:, 1])
    pair_depth = np.maximum(2.0 - dist, 0.0)
    # summing only the active depths keeps the accumulation order
    # independent of how many zero-depth terms the listing carries
    pair_active = pair_depth > 0.0
    pair = pair_depth[pair_active]
    walls = centers.take(container_ids, axis=0)
    rad = np.hypot(walls[:, 0], walls[:, 1])
    wall_depth = np.maximum(rad + 1.0 - radius, 0.0)
    wall_active = wall_depth > 0.0
    wall = wall_depth[wall_active]
    total = 2.0 * float(pair.dot(pair)) + float(wall.dot(wall))
    return Depths(
        delta, dist, pair_depth, pair_active, pair,
        walls, rad, wall_depth, wall_active, wall, total,
    )


def scatter_gradient(
    depths: Depths,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
    n: int,
) -> np.ndarray | None:
    """Analytic gradient of ``depths.total`` over n circles, shape (n, 2),
    where ``depths`` is what ``listed_depths`` gave for these terms; None
    when two centres of an overlapping listed pair coincide, since the push
    direction between them is undefined.

    Each axis of the gradient is one ``np.bincount`` per pair side, their
    difference, and then one ``np.bincount`` of the wall terms added to
    it. Every bin receives its terms in listing order.
    """
    grad = np.zeros((n, 2))
    # the size guards skip several numpy calls on an empty active list,
    # which is the common case for the wall terms (and bincount of no
    # terms comes back as integers)
    if depths.pair.size:
        active = depths.pair_active.nonzero()[0]
        dist = depths.dist.take(active)
        # a coincident pair has depth 2, so the total is at least 8
        if depths.total >= 8.0 and not dist.all():
            return None
        ii = pair_i.take(active)
        jj = pair_j.take(active)
        delta = depths.delta.take(active, axis=0)
        # each pair appears twice in the energy, hence the factor 4
        push = 4.0 * depths.pair / dist
        for axis in (0, 1):
            terms = push * delta[:, axis]
            grad[:, axis] = np.bincount(jj, terms, minlength=n) - np.bincount(
                ii, terms, minlength=n
            )
    if depths.wall.size:
        active = depths.wall_active.nonzero()[0]
        ids = container_ids.take(active)
        walls = depths.walls.take(active, axis=0)
        # rad > 0 whenever the wall term is active, since radius > 0
        push = 2.0 * depths.wall / depths.rad.take(active)
        # a wall circle is listed once, so its bin holds 0.0 + its term; no
        # entry of grad is -0.0 (bins start at +0.0 and x - x is +0.0), so
        # adding that bin, or the +0.0 of a bin no wall term reaches, gives
        # the bits of adding the term alone
        for axis in (0, 1):
            grad[:, axis] += np.bincount(ids, push * walls[:, axis], minlength=n)
    return grad


def evaluate_pairs(
    centers: np.ndarray,
    radius: float,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
    with_gradient: bool = False,
):
    """Energy restricted to the given circle pairs and container candidates.

    Returns the ``Energy`` over the listed terms only (``listed_depths``
    gives their total); an empty list contributes +0.0 to the total and to
    its maximum. With ``with_gradient`` it returns ``(energy, grad)``,
    where ``grad`` is the analytic gradient of that total, shape (n, 2), or
    None when two centers of an overlapping listed pair coincide (see
    ``scatter_gradient``).
    """
    depths = listed_depths(centers, radius, pair_i, pair_j, container_ids)
    # depths are >= 0, so initial=0.0 changes no maximum of a non-empty list
    energy = Energy(
        total=depths.total,
        max_pair_depth=float(depths.pair_depth.max(initial=0.0)),
        max_container_depth=float(depths.wall_depth.max(initial=0.0)),
    )
    if not with_gradient:
        return energy
    return energy, scatter_gradient(depths, pair_i, pair_j, container_ids, centers.shape[0])


def total_energy(layout: Layout) -> Energy:
    """Total elastic energy of a layout over all pairs and container terms.

    Only pairs closer than 2 overlap, so the pairs come from
    ``candidate_pairs`` with reach 2; the pairs it leaves out have depth
    zero and change neither the sum nor the maxima.
    """
    pair_i, pair_j = candidate_pairs(layout.centers, 2.0)
    return evaluate_pairs(layout.centers, layout.radius, pair_i, pair_j, np.arange(layout.n))


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
