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

    def with_radius(self, radius: float) -> "Layout":
        return Layout(self.centers, radius)


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


def evaluate_pairs(
    centers: np.ndarray,
    radius: float,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    container_ids: np.ndarray,
    with_gradient: bool = False,
):
    """Energy restricted to the given circle pairs and container candidates.

    Every listed pair contributes twice its squared depth (each member of the
    pair stores the same deformation); each listed container term contributes
    its squared depth once. Returns (total, max pair depth, max container
    depth) over the listed terms only. With ``with_gradient`` the analytic
    gradient of that total, shape (n, 2), comes back as a fourth item; it is
    None when two centers of an overlapping listed pair coincide, since the
    push direction between them is undefined.
    """
    n = centers.shape[0]
    grad = np.zeros((n, 2)) if with_gradient else None
    if pair_i.size:
        delta = centers[pair_i] - centers[pair_j]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        pdepth = np.maximum(2.0 - dist, 0.0)
        # summing only the active depths keeps the accumulation order
        # independent of how many zero-depth terms the listing carries
        active = pdepth > 0.0
        d = pdepth[active]
        pair_term = 2.0 * float(np.dot(d, d))
        max_pair = float(pdepth.max())
        if with_gradient and d.size:
            if max_pair >= 2.0 and np.any(dist[active] == 0.0):
                grad = None
            else:
                ii = pair_i[active]
                jj = pair_j[active]
                # each pair appears twice in the energy, hence the factor 4
                coef = 4.0 * d / dist[active]
                push = coef[:, None] * delta[active]
                for axis in (0, 1):
                    grad[:, axis] = np.bincount(jj, push[:, axis], minlength=n) - np.bincount(
                        ii, push[:, axis], minlength=n
                    )
    else:
        pair_term, max_pair = 0.0, 0.0
    if container_ids.size:
        pts = centers[container_ids]
        rad = np.hypot(pts[:, 0], pts[:, 1])
        cdepth = np.maximum(rad + 1.0 - radius, 0.0)
        active = cdepth > 0.0
        c = cdepth[active]
        cont_term = float(np.dot(c, c))
        max_cont = float(cdepth.max())
        if grad is not None and c.size:
            ids = container_ids[active]
            # rad > 0 whenever the wall term is active, since radius > 0
            coef = 2.0 * c / rad[active]
            grad[ids] += coef[:, None] * centers[ids]
    else:
        cont_term, max_cont = 0.0, 0.0
    if with_gradient:
        return pair_term + cont_term, max_pair, max_cont, grad
    return pair_term + cont_term, max_pair, max_cont


def total_energy(layout: Layout) -> Energy:
    """Total elastic energy of a layout over all pairs and container terms."""
    pair_i, pair_j = all_pair_indices(layout.n)
    total, max_pair, max_cont = evaluate_pairs(
        layout.centers, layout.radius, pair_i, pair_j, np.arange(layout.n)
    )
    return Energy(total=total, max_pair_depth=max_pair, max_container_depth=max_cont)


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
