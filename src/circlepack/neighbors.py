"""Per-circle adjacency lists and energy/gradient evaluation.

Each circle keeps a list of the circles (and optionally the container wall)
close enough to overlap soon. Evaluating energy and gradient over the listed
terms only makes the cost linear in the total list length instead of
quadratic in n; the lists are rebuilt periodically by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Energy, Layout, Rng, all_pair_indices, evaluate_pairs

# Boundary-to-boundary distances at or below these count as adjacent.
DEFAULT_CONTAINER_MARGIN = 1.0
DEFAULT_PAIR_MARGIN = 1.0

_COINCIDENT_JITTER = 1e-8


@dataclass(eq=False)
class NeighborIndex:
    """Adjacency snapshot of a layout.

    ``pair_i``/``pair_j`` enumerate the listed unordered pairs (i < j,
    lexicographic); ``container_ids`` lists the circles with a wall term.
    The pair relation is symmetric and self-free by construction. ``age``
    counts accepted optimizer steps since the snapshot was taken; a rebuild
    produces a new index rather than mutating the arrays in place.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    container_ids: np.ndarray
    age: int = 0


def _build_index_raw(centers, radius, container_margin, pair_margin) -> NeighborIndex:
    """Scan all pairs and wall distances of ``centers``, shape (n, 2).

    A pair is listed when its boundary-to-boundary distance is at most
    ``pair_margin``. A wall term is listed when the circle's boundary lies
    no more than ``container_margin`` outside the wall of ``radius``: every
    circle inside is listed, and a circle farther outside is not. The
    margins are not validated here; ``optimizer.SolverConfig`` does that,
    and the optimizer is its only caller in the package.
    """
    n = centers.shape[0]
    pair_i, pair_j = all_pair_indices(n)
    delta = centers[pair_i] - centers[pair_j]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    keep = dist - 2.0 <= pair_margin
    rad = np.hypot(centers[:, 0], centers[:, 1])
    near_wall = rad + 1.0 - radius <= container_margin
    return NeighborIndex(pair_i[keep], pair_j[keep], np.flatnonzero(near_wall))


def full_index(n: int) -> NeighborIndex:
    """Index listing every pair and every container term (no restriction)."""
    pair_i, pair_j = all_pair_indices(n)
    return NeighborIndex(pair_i, pair_j, np.arange(n))


def index_energy(centers: np.ndarray, radius: float, index: NeighborIndex) -> float:
    """Energy over the index's listed terms only (no gradient)."""
    total, _, _ = evaluate_pairs(centers, radius, index.pair_i, index.pair_j, index.container_ids)
    return total


def gradient_eval(
    centers: np.ndarray,
    radius: float,
    index: NeighborIndex,
    rng: Rng | None = None,
):
    """Energy and analytic gradient over the index's listed terms.

    Returns ``(total, max_pair_depth, max_container_depth, grad, centers)``
    with ``grad`` of shape (n, 2). Coincident centers make the pair gradient
    direction undefined; in that case one member is nudged by 1e-8 in a
    random direction and the evaluation reruns on the nudged copy, which is
    returned so callers can adopt it.
    """
    while True:
        total, max_pair, max_cont, grad = evaluate_pairs(
            centers, radius, index.pair_i, index.pair_j, index.container_ids, with_gradient=True
        )
        if grad is not None:
            return total, max_pair, max_cont, grad, centers
        centers = _nudge_coincident(centers, index.pair_i, index.pair_j, rng)


def _nudge_coincident(centers, pair_i, pair_j, rng: Rng | None):
    if rng is None:
        rng = Rng(0)
    delta = centers[pair_i] - centers[pair_j]
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
    total, max_pair, max_cont, grad, _ = gradient_eval(
        layout.centers, layout.radius, full_index(layout.n), rng
    )
    energy = Energy(total=total, max_pair_depth=max_pair, max_container_depth=max_cont)
    return energy, grad.reshape(-1)
