"""Output checks written independently of the package under test.

Nothing here calls ``verify_layout`` or ``total_energy``: every pair and
wall distance is recomputed with numpy from the centres, and a written
layout file must read back to the very same float bits.
"""

from __future__ import annotations

import numpy as np

# The solver calls a layout feasible when its energy is below 1e-20, which
# still admits pair overlaps up to about 7e-11, so an exact zero-overlap
# test would reject correct output. 1e-9 is the package's verify tolerance.
TOLERANCE = 1e-9


def depths(centers: np.ndarray, radius: float) -> tuple[float, float]:
    """Deepest pair overlap and deepest wall crossing, 0.0 when none."""
    centers = np.asarray(centers, dtype=float)
    gap = np.hypot(
        centers[:, None, 0] - centers[None, :, 0],
        centers[:, None, 1] - centers[None, :, 1],
    )
    upper = np.triu_indices(len(centers), k=1)
    pair = float(np.max(2.0 - gap[upper], initial=0.0))
    return max(pair, 0.0), wall_depth(centers, radius)


def wall_depth(centers: np.ndarray, radius: float) -> float:
    """Deepest wall crossing, 0.0 when every circle is inside."""
    centers = np.asarray(centers, dtype=float)
    return max(float(np.max(np.hypot(centers[:, 0], centers[:, 1]) + 1.0 - radius)), 0.0)


def is_feasible(centers: np.ndarray, radius: float) -> bool:
    pair, wall = depths(centers, radius)
    return pair <= TOLERANCE and wall <= TOLERANCE


def same_bits(a, b) -> bool:
    """True when two float arrays (or floats) agree bit for bit."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def roundtrip_errors(layout, doc) -> list[str]:
    """Differences between a layout and the document read back from its file."""
    errors = []
    if doc.n != layout.n:
        errors.append(f"read back n={doc.n}, wrote n={layout.n}")
        return errors
    back = doc.layout()
    if not same_bits(back.centers, layout.centers):
        errors.append("read-back centres differ from the written floats")
    if not same_bits(back.radius, layout.radius):
        errors.append(f"read-back radius {back.radius!r} differs from {layout.radius!r}")
    return errors
