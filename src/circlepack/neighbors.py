"""Per-circle adjacency lists and energy/gradient evaluation.

Each circle keeps a list of the circles (and optionally the container wall)
close enough to overlap soon. Evaluating energy and gradient over the listed
terms only makes the cost linear in the total list length instead of
quadratic in n; the lists are rebuilt periodically by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Depths,
    Energy,
    Layout,
    Rng,
    all_pair_indices,
    candidate_pairs,
    evaluate_pairs,
    listed_depths,
)

# Boundary-to-boundary distances at or below these count as adjacent.
DEFAULT_CONTAINER_MARGIN = 1.0
DEFAULT_PAIR_MARGIN = 1.0

_COINCIDENT_JITTER = 1e-8

# a block of line-search trials holds at most this many row-by-term depths
# (32 KiB per array): a 1,500-term index at n = 400 gets two-row blocks,
# while the hundred-odd terms a local index lists at n <= 60 never split a
# chunk
_TRIAL_ELEMENTS = 4096
# blocks of at least this many rows settle their leading run of rows that
# share row 0's active sets in one pass. At n = 30 that pass costs a fixed
# 12 us or so, the row-by-row walk about 2 us per row it settles, so fewer
# rows (a chunk of 2 or 4 steps, or the two-row blocks of n = 400) gain
# nothing
_SHARED_MIN_ROWS = 8


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Adjacency snapshot of a layout.

    ``pair_i``/``pair_j`` enumerate the listed unordered pairs (i < j,
    lexicographic); ``container_ids`` lists the circles with a wall term.
    The pair relation is symmetric and self-free by construction. A rebuild
    produces a new index; the optimizer counts the steps since then.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    container_ids: np.ndarray


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
    return NeighborIndex(pair_i[keep], pair_j[keep], np.flatnonzero(near_wall))


def full_index(n: int) -> NeighborIndex:
    """Index listing every pair and every container term (no restriction)."""
    pair_i, pair_j = all_pair_indices(n)
    return NeighborIndex(pair_i, pair_j, np.arange(n))


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
    where len(steps) is 1 for a one-step call. The depths are those
    ``geometry.listed_depths`` gives at the accepted point, so
    ``geometry.scatter_gradient`` takes the gradient there without
    gathering again.

    Every row's energy has the bits ``geometry.evaluate_pairs`` gives at
    that one point. A one-step call runs ``listed_depths`` on that point.
    Otherwise trial points, gathers, ``hypot`` and ``maximum``, all
    elementwise, are computed for a block of rows in one pass, and the
    accepted row's depths are row slices of the block. The sums are not
    elementwise: BLAS sums a vector in an order set by its length, so each
    row's active depths are compacted and go through the same dot product
    that ``listed_depths`` takes; summing a row with its zero depths left
    in would change the last bits. A block holds at most _TRIAL_ELEMENTS
    row-by-term depths, so a wide index (about 1,500 terms at n = 400) is
    evaluated a few rows at a time and memory stays flat.

    The rows of a stalled search's block move so little that they mostly
    share their active sets. A block of at least _SHARED_MIN_ROWS rows
    therefore first takes the leading run of rows whose pair and wall
    active sets equal row 0's and compacts them once, with ``compress``
    along the term axis, into C-contiguous 2-D arrays; a masked index
    would give F order, whose strided rows a dot sums in another order.
    One stacked matmul then sums every row of the run through the dot
    product ``ndarray.dot`` takes (``_row_dots``). The rows after the run,
    and every row of a smaller block, are compacted and summed one at a
    time. Either way the first row in order whose energy is at most its
    limit is the one returned.
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
        centers = (x + lam[:, None] * d).reshape(lam.size, n, 2)
        # take gathers along the circle axis faster than fancy indexing
        delta = centers.take(index.pair_i, axis=1) - centers.take(index.pair_j, axis=1)
        dist = np.hypot(delta[..., 0], delta[..., 1])
        pair_depth = np.maximum(2.0 - dist, 0.0)
        walls = centers.take(index.container_ids, axis=1)
        rad = np.hypot(walls[..., 0], walls[..., 1])
        wall_depth = np.maximum(rad + 1.0 - radius, 0.0)
        pair_active = pair_depth > 0.0
        wall_active = wall_depth > 0.0
        run = _shared_run(pair_active, wall_active) if lam.size >= _SHARED_MIN_ROWS else 0
        if run:
            p = pair_depth[:run].compress(pair_active[0], axis=1)
            c = wall_depth[:run].compress(wall_active[0], axis=1)
            values = 2.0 * _row_dots(p) + _row_dots(c)
            passed = values <= limits[start : start + run]
            k = int(passed.argmax())
            if passed[k]:
                value = float(values[k])
                depths = Depths(
                    delta[k], dist[k], pair_depth[k], pair_active[k], p[k],
                    walls[k], rad[k], wall_depth[k], wall_active[k], c[k], value,
                )
                return start + k, value, depths
            value = float(values[-1])
        for k in range(run, lam.size):
            p = pair_depth[k][pair_active[k]]
            c = wall_depth[k][wall_active[k]]
            value = 2.0 * float(p.dot(p)) + float(c.dot(c))
            if value <= limits[start + k]:
                depths = Depths(
                    delta[k], dist[k], pair_depth[k], pair_active[k], p,
                    walls[k], rad[k], wall_depth[k], wall_active[k], c, value,
                )
                return start + k, value, depths
    return steps.size, value, None


def _shared_run(pair_active: np.ndarray, wall_active: np.ndarray) -> int:
    """Length of the leading run of rows whose active sets equal row 0's."""
    same = (pair_active == pair_active[0]).all(axis=1)
    same &= (wall_active == wall_active[0]).all(axis=1)
    # row 0 matches itself, so argmin is 0 only when every row matches
    return int(same.argmin()) or same.size


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
):
    """Energy and analytic gradient over the index's listed terms.

    Returns ``(energy, grad, centers)``: the ``Energy`` of the listed terms
    and ``grad`` of shape (n, 2). Coincident centers make the pair gradient
    direction undefined; in that case one member is nudged by 1e-8 in a
    random direction and the evaluation reruns on the nudged copy, which is
    returned so callers can adopt it.
    """
    while True:
        energy, grad = evaluate_pairs(
            centers, radius, index.pair_i, index.pair_j, index.container_ids, with_gradient=True
        )
        if grad is not None:
            return energy, grad, centers
        centers = _nudge_coincident(centers, index.pair_i, index.pair_j, rng)


def _nudge_coincident(centers, pair_i, pair_j, rng: Rng | None):
    if rng is None:
        rng = Rng(0)
    delta = centers.take(pair_i, axis=0) - centers.take(pair_j, axis=0)
    dist = np.hypot(delta[:, 0], delta[:, 1])
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
    energy, grad, _ = gradient_eval(layout.centers, layout.radius, full_index(layout.n), rng)
    return energy, grad.reshape(-1)
