"""Equal circle packing: pack n unit circles into the smallest enclosing circle.

The solver minimizes an elastic overlap energy with a quasi-Newton
optimizer, escapes stuck layouts by briefly optimizing in a shrunken
container, and squeezes feasible layouts with a radius adjustment that
closes its bracket by safeguarded secant steps. See the README for the
command line interface.
"""

from .geometry import (
    FEASIBLE_ENERGY,
    Layout,
    Rng,
    is_feasible,
    pair_depth,
    random_layout,
    total_energy,
)
from .neighbors import energy_gradient_full
from .optimizer import bfgs_minimize
from .search import (
    SolveStatus,
    basin_hop,
    container_adjust,
    global_search,
    minimize_radius,
    shrink_factors,
)
from .layout_io import (
    BestKnownTable,
    LayoutDocument,
    load_best_known,
    load_improvements,
    read_best_known,
    read_layout,
    verify_layout,
    write_layout,
)
from .rendering import render_svg
from .bench import derive_seed, run_hits, run_mode_timing

__version__ = "0.1.0"

__all__ = [
    "FEASIBLE_ENERGY",
    "Layout",
    "Rng",
    "is_feasible",
    "pair_depth",
    "random_layout",
    "total_energy",
    "energy_gradient_full",
    "bfgs_minimize",
    "SolveStatus",
    "basin_hop",
    "container_adjust",
    "global_search",
    "minimize_radius",
    "shrink_factors",
    "BestKnownTable",
    "LayoutDocument",
    "load_best_known",
    "load_improvements",
    "read_best_known",
    "read_layout",
    "verify_layout",
    "write_layout",
    "render_svg",
    "derive_seed",
    "run_hits",
    "run_mode_timing",
]
