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

    ``pair_i``/``pair_j`` enumerate the adjacent unordered pairs (i < j,
    lexicographic); ``container_ids`` lists circles close to the wall. The
    pair relation is symmetric and self-free by construction. ``age`` counts
    optimizer iterations since the snapshot was taken; rebuilds produce a new
    index rather than mutating the arrays in place.
    """

    n: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    container_ids: np.ndarray
    container_margin: float
    pair_margin: float
    age: int = 0


def build_index(
    layout: Layout,
    container_margin: float = DEFAULT_CONTAINER_MARGIN,
    pair_margin: float = DEFAULT_PAIR_MARGIN,
) -> NeighborIndex:
    """Scan all pairs and wall distances, listing those within the margins."""
    from .optimizer import SolverConfig  # the optimizer imports this module

    SolverConfig(container_margin=container_margin, pair_margin=pair_margin)
    return _build_index_raw(layout.centers, layout.radius, container_margin, pair_margin)


def _build_index_raw(centers, radius, container_margin, pair_margin) -> NeighborIndex:
    n = centers.shape[0]
    pair_i, pair_j = all_pair_indices(n)
    delta = centers[pair_i] - centers[pair_j]
    dist = np.hypot(delta[:, 0], delta[:, 1])
    keep = dist - 2.0 <= pair_margin
    rad = np.hypot(centers[:, 0], centers[:, 1])
    near_wall = rad + 1.0 - radius <= container_margin
    return NeighborIndex(
        n=n,
        pair_i=pair_i[keep],
        pair_j=pair_j[keep],
        container_ids=np.flatnonzero(near_wall),
        container_margin=container_margin,
        pair_margin=pair_margin,
    )


def full_index(n: int) -> NeighborIndex:
    """Index listing every pair and every container term (no restriction)."""
    pair_i, pair_j = all_pair_indices(n)
    return NeighborIndex(
        n=n,
        pair_i=pair_i,
        pair_j=pair_j,
        container_ids=np.arange(n),
        container_margin=np.inf,
        pair_margin=np.inf,
    )


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
    return energy_gradient_local(layout, full_index(layout.n), rng)


def energy_gradient_local(
    layout: Layout, index: NeighborIndex, rng: Rng | None = None
) -> tuple[Energy, np.ndarray]:
    """Like :func:`energy_gradient_full` but restricted to the index's lists.

    Sound immediately after a rebuild with the default margins: any
    overlapping term has boundary distance below zero and is therefore
    listed. Staleness beyond the optimizer's refresh period is the caller's
    contract violation.
    """
    total, max_pair, max_cont, grad, _ = gradient_eval(
        layout.centers, layout.radius, index, rng
    )
    energy = Energy(total=total, max_pair_depth=max_pair, max_container_depth=max_cont)
    return energy, grad.reshape(-1)
