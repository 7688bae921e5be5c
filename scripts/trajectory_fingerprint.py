"""Print sha256 hashes over the trajectories of a fixed set of solver runs.

Two checkouts that print the same hash took the same steps, bit for bit:
every iterate, step length, line-search value and evaluation count of a
fixed set of descents, and the reports of a few restart-budgeted
``minimize_radius`` runs. Two local-mode descents at n = 150 and 400 cover
the cell-grid neighbour scan, the large dense inverse-Hessian update (n =
150) and limited-memory BFGS (n = 400). Use it to show that a refactor or
a speed-up left every trajectory unchanged.

The first hash covers every run. The second covers the runs with n <= 320,
the paper's largest instance, which is every run but the n = 400 descent:
a change confined to the solver's path above that size leaves it equal.
The third covers the 114 descents and none of the ``minimize_radius``
runs: a change confined to the searches above ``bfgs_minimize``, such as
the container adjustment, leaves it equal. None of those descents jams, so
the fourth hash covers descents that do: from random starts at the
best-known radius of n = 8..16, in full and local mode, and their
``run_bounded`` settles of at most 120 steps. It takes only each run's
status, exact energy and final centres, so a change to how a jammed descent
ends that keeps its result leaves it equal, and the line with it counts the
descents whose last step left the iterate where it was. One line per
``minimize_radius`` run follows the hashes, with its n, status, radius
(``repr``), restarts and hops, so that two outputs that differ show which
radii moved and by how much. Run from the root of a source checkout:

    python scripts/trajectory_fingerprint.py

The package is imported from this checkout's ``src`` directory. The bits
depend on the numpy and BLAS build, so compare hashes taken on one machine
only; like ``perfbench/run.py`` the script runs BLAS on one thread. Takes
about 10 s on a 2-vCPU virtual machine.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
# the thread count must be set before numpy loads BLAS
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from circlepack import load_best_known, minimize_radius  # noqa: E402
from circlepack.geometry import Layout, Rng, random_layout, total_energy  # noqa: E402
from circlepack.optimizer import bfgs_minimize, run_bounded  # noqa: E402

DESCENT_SIZES = (1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 40, 50, 60)
# local mode with the default margins only, at the density of perfbench's
# descent-large workload
LARGE_SIZES = (150, 400)
# (mode, container_margin, pair_margin); infinite margins list every term
SETTINGS = (
    ("full", 1.0, 1.0),
    ("local", 1.0, 1.0),
    ("local", 0.1, 0.1),
    ("local", math.inf, math.inf),
)
# the runs with at most this many circles enter the second hash
PAPER_MAX_CIRCLES = 320
# (n, start radius, restart budget)
RADIUS_RUNS = ((2, 1.9, 1), (3, 3.0, 3), (5, 3.0, 1), (7, 3.2, 2), (9, 3.7, 1), (12, 4.3, 2))
# random starts at the best-known radius jam; (sizes, start seeds, settle cap)
JAMMED_SIZES = range(8, 17)
JAMMED_SEEDS = (0, 1)
SETTLE_STEPS = 120


def descent_starts():
    """Fixed starts: random layouts at two densities, plus escaped circles."""
    for n in DESCENT_SIZES:
        for density in (0.72, 0.84):
            yield f"n={n} density={density}", random_layout(
                n, 1.0 + math.sqrt(n / density), Rng(n)
            )
    # one circle far outside the wall, alone and among others
    yield "escaped alone", Layout(np.array([[5.0, 0.0]]), 3.0)
    crowd = random_layout(12, 1.0 + math.sqrt(12 / 0.72), Rng(3)).centers.copy()
    crowd[0] = (9.0, -2.0)
    yield "escaped in a crowd", Layout(crowd, 1.0 + math.sqrt(12 / 0.72))


def feed(digests, *items) -> None:
    for item in items:
        if isinstance(item, np.ndarray):
            data = np.ascontiguousarray(item, dtype=float).tobytes()
        elif isinstance(item, float):
            data = struct.pack("<d", item)
        else:
            data = repr(item).encode()
        for digest in digests:
            digest.update(data)


def descend(digests, label, layout, mode, container_margin, pair_margin) -> None:
    def record(rec):
        feed(digests, rec.iterate, rec.energy_before, rec.energy_after,
             rec.step_length, rec.restarted, rec.index_age)

    outcome = bfgs_minimize(
        layout, mode=mode, rng=Rng(0), container_margin=container_margin,
        pair_margin=pair_margin, callback=record,
    )
    feed(digests, label, mode, outcome.status.value, outcome.iterations,
         outcome.evaluations, outcome.energy.total, outcome.energy.max_pair_depth,
         outcome.energy.max_container_depth, outcome.layout.centers)


def jammed_outcomes(digest) -> tuple[int, int]:
    """Feed the outcomes of the jammed descents and settles to ``digest``;
    return the number of descents and of those whose last step stayed put."""
    table = load_best_known()
    descents = frozen = 0
    for n in JAMMED_SIZES:
        for seed in JAMMED_SEEDS:
            start = random_layout(n, table.radius_for(n), Rng(seed))
            for mode in ("full", "local"):
                iterates = []
                outcome = bfgs_minimize(
                    start, mode=mode, rng=Rng(0),
                    callback=lambda rec: iterates.append(rec.iterate.tobytes()),
                )
                feed((digest,), outcome.status.value, outcome.energy.total, outcome.layout.centers)
                descents += 1
                frozen += len(iterates) >= 2 and iterates[-1] == iterates[-2]
            settled = run_bounded(start, start.radius, SETTLE_STEPS, Rng(0))
            feed((digest,), total_energy(settled).total, settled.centers)
    return descents, frozen


def main() -> int:
    every_run, paper_sizes, descents_only = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    both = (every_run, paper_sizes)
    descents = 0
    for label, layout in descent_starts():
        for settings in SETTINGS:
            descend((*both, descents_only), label, layout, *settings)
            descents += 1
    for n in LARGE_SIZES:
        layout = random_layout(n, 1.0 + math.sqrt(n / 0.72), Rng(n))
        digests = both if n <= PAPER_MAX_CIRCLES else (every_run,)
        descend((*digests, descents_only), f"n={n}", layout, "local", 1.0, 1.0)
        descents += 1
    reports = []
    for n, radius, budget in RADIUS_RUNS:
        report = minimize_radius(n, radius, t0=1e6, t1=1e6, rng=Rng(n), max_restarts=budget)
        feed(both, n, report.status.value, report.radius, report.restarts, report.hops,
             report.layout.radius, report.layout.centers)
        reports.append(f"minimize_radius n={n} status={report.status.value} "
                       f"radius={report.radius!r} restarts={report.restarts} hops={report.hops}")
    outcomes = hashlib.sha256()
    jammed, frozen = jammed_outcomes(outcomes)
    print(f"descents={descents} radius_runs={len(RADIUS_RUNS)}")
    print(f"sha256 {every_run.hexdigest()}")
    print(f"sha256 n<={PAPER_MAX_CIRCLES} {paper_sizes.hexdigest()}")
    print(f"sha256 descents {descents_only.hexdigest()}")
    print(f"sha256 outcomes {outcomes.hexdigest()} descents={jammed} frozen={frozen} "
          f"settles={len(JAMMED_SIZES) * len(JAMMED_SEEDS)}")
    print("\n".join(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
