"""Per-circle adjacency lists and energy/gradient evaluation.

Each circle keeps a list of the circles (and optionally the container wall)
close enough to overlap soon. Evaluating energy and gradient over the listed
terms only makes the cost linear in the total list length instead of
quadratic in n; the lists are rebuilt periodically by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Depths,
    Energy,
    Layout,
    Rng,
    all_pair_indices,
    candidate_pairs,
    depth_stage,
    listed_depths,
    scatter_gradient,
    term_bins,
)

# Boundary-to-boundary distances at or below these count as adjacent.
DEFAULT_CONTAINER_MARGIN = 1.0
DEFAULT_PAIR_MARGIN = 1.0

_COINCIDENT_JITTER = 1e-8

# a block of line-search trials holds at most this many row-by-term depths
# (32 KiB per array): a 1,500-term index at n = 400 gets two-row blocks,
# while the hundred-odd terms a local index lists at n <= 60 split only
# chunks of more than 20 rows
_TRIAL_ELEMENTS = 4096


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Adjacency snapshot of a layout of ``n`` circles.

    ``pair_i``/``pair_j`` enumerate the listed unordered pairs (i < j,
    lexicographic); ``container_ids`` lists the circles with a wall term.
    The pair relation is symmetric and self-free by construction.
    ``bins`` holds the ``geometry.term_bins`` of the listed terms, so
    every gradient on this index scatters without recomputing them. A
    rebuild produces a new index; the optimizer counts the steps since
    then.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    container_ids: np.ndarray
    n: int
    bins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        bins = term_bins(self.pair_i, self.pair_j, self.container_ids, self.n)
        object.__setattr__(self, "bins", bins)


def _build_index_raw(centers, radius, container_margin, pair_margin) -> NeighborIndex:
    """List the close pairs and the wall terms of ``centers``, shape (n, 2).

    A pair is listed when its boundary-to-boundary distance is at most
    ``pair_margin``. The predicate runs on the candidates of
    ``geometry.candidate_pairs`` with reach 2 + ``pair_margin`` (all pairs
    below its size crossover or with an infinite margin), so the listed
    pairs are those of a scan of all pairs, in the same order. A wall term
    is listed when the circle's boundary lies no more than
    ``container_margin`` outside the wall of ``radius``: every circle
    inside is listed, and a circle farther outside is not. The margins are
    not validated here; ``optimizer.bfgs_minimize`` does that, and it is
    the only caller in the package.
    """
    pair_i, pair_j = candidate_pairs(centers, 2.0 + pair_margin)
    delta = centers.take(pair_i, axis=0) - centers.take(pair_j, axis=0)
    dist = np.hypot(delta[:, 0], delta[:, 1])
    keep = dist - 2.0 <= pair_margin
    rad = np.hypot(centers[:, 0], centers[:, 1])
    near_wall = rad + 1.0 - radius <= container_margin
    return NeighborIndex(pair_i[keep], pair_j[keep], np.flatnonzero(near_wall), centers.shape[0])


def full_index(n: int) -> NeighborIndex:
    """Index listing every pair and every container term (no restriction)."""
    pair_i, pair_j = all_pair_indices(n)
    return NeighborIndex(pair_i, pair_j, np.arange(n), n)


def index_energy(
    x: np.ndarray,
    d: np.ndarray,
    steps: np.ndarray | float,
    limits: np.ndarray | float,
    radius: float,
    index: NeighborIndex,
) -> tuple[int, float, Depths | None]:
    """Energy over the index's listed terms at ``x + step*d``, step by step.

    ``x`` and ``d`` are flat 2n vectors (x1, y1, ..., xn, yn); ``steps``
    and ``limits`` are equally long, non-empty arrays, or two floats for a
    one-step call. Row k is the point ``x + steps[k]*d``. The rows are
    walked in order up to the first one whose energy is at most
    ``limits[k]``; returns ``(k, energy of row k, depths of row k)``, or
    ``(len(steps), energy of the last row, None)`` when no row qualifies,
    where len(steps) is 1 for a one-step call. ``gradient_eval`` takes the
    accepted point's gradient from its depths.

    Every row's energy and depths have the bits ``geometry.listed_depths``
    gives at that one point. A one-step call runs it. Otherwise a block of
    rows, shape (rows, n, 2), goes through ``geometry.depth_stage`` in one
    pass, and one stacked matmul (``_row_dots``) sums each row of its
    C-contiguous pair and wall depths, zeros included, through the dot
    product ``listed_depths`` takes. A block holds at most
    _TRIAL_ELEMENTS row-by-term depths, so a wide index (about 1,500
    terms at n = 400) is evaluated a few rows at a time and memory stays
    flat. The first row in order whose energy is at most its limit is the
    one returned.
    """
    n = x.size // 2
    if isinstance(steps, float):
        depths = listed_depths(
            (x + steps * d).reshape(n, 2), radius, index.pair_i, index.pair_j, index.container_ids
        )
        if depths.total <= limits:
            return 0, depths.total, depths
        return 1, depths.total, None
    terms = index.pair_i.size + index.container_ids.size
    block = max(1, _TRIAL_ELEMENTS // max(terms, 1))
    for start in range(0, steps.size, block):
        lam = steps[start : start + block]
        stage = depth_stage(
            (x + lam[:, None] * d).reshape(lam.size, n, 2),
            radius, index.pair_i, index.pair_j, index.container_ids,
        )
        values = 2.0 * _row_dots(stage[2]) + _row_dots(stage[5])
        passed = values <= limits[start : start + lam.size]
        k = int(passed.argmax())
        if passed[k]:
            value = float(values[k])
            return start + k, value, Depths(*[a[k] for a in stage], value)
    return steps.size, float(values[-1]), None


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """r.dot(r) of each row of the C-contiguous 2-D ``rows``, bit for bit:
    a stacked matmul of (1, L) by (L, 1) takes each row through the dot
    product ``ndarray.dot`` uses for one contiguous vector."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1)


def gradient_eval(
    centers: np.ndarray,
    radius: float,
    index: NeighborIndex,
    rng: Rng | None = None,
    depths: Depths | None = None,
):
    """Depths and analytic gradient over the index's listed terms.

    Returns ``(depths, grad, centers)``: the ``Depths`` of the listed terms
    at ``centers`` and ``grad`` of shape (n, 2), which
    ``geometry.scatter_gradient`` takes from them. ``depths`` are those the
    caller already holds for ``centers`` on this index (the trial kernel's
    accepted row); ``geometry.listed_depths`` measures the point only when
    none are given. Coincident centers make the pair gradient direction
    undefined; in that case one member is nudged by 1e-8 in a random
    direction and the nudged copy is measured and returned, so callers can
    adopt it.
    """
    while True:
        if depths is None:
            depths = listed_depths(
                centers, radius, index.pair_i, index.pair_j, index.container_ids
            )
        grad = scatter_gradient(depths, index.bins, index.n)
        if grad is not None:
            return depths, grad, centers
        centers = _nudge_coincident(centers, depths.dist, index.pair_j, rng)
        depths = None


def _nudge_coincident(centers, dist, pair_j, rng: Rng | None):
    if rng is None:
        rng = Rng(0)
    out = centers.copy()
    for k in np.flatnonzero(dist == 0.0):
        angle = 2.0 * np.pi * rng.random()
        out[pair_j[k]] = out[pair_j[k]] + _COINCIDENT_JITTER * np.array(
            [np.cos(angle), np.sin(angle)]
        )
    return out


def energy_gradient_full(layout: Layout, rng: Rng | None = None) -> tuple[Energy, np.ndarray]:
    """Exact energy and analytic gradient over all pairs and wall terms.

    The gradient comes back flattened as (dU/dx1, dU/dy1, ..., dU/dxn,
    dU/dyn). Terms with zero depth contribute exactly zero.
    """
    depths, grad, _ = gradient_eval(layout.centers, layout.radius, full_index(layout.n), rng)
    return depths.energy(), grad.reshape(-1)
