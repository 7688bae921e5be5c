"""Make the stored adjust-near input layouts again from fixed seeds.

    python3 perfbench/make_inputs.py

Each input is the first feasible layout ``global_search`` finds for n
circles at 1.04 times the bundled best-known radius, from the solver seed
listed below: the kind of layout ``minimize_radius`` hands to
``container_adjust``. The files are committed, so a change to the search
cannot change the benchmark's input; run this only to replace them on
purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SLACK = 1.04
RESTART_BUDGET = 20
TIME_LIMIT = 3600.0
# directory under inputs/ -> (n, solver seed) per layout
INPUTS = {
    "adjust": ((20, 0), (30, 0), (40, 0), (60, 1)),
    "adjust-small": ((8, 0), (12, 0)),
}


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import circlepack as cp

    table = cp.load_best_known()
    for folder, cells in INPUTS.items():
        target = HERE / "inputs" / folder
        target.mkdir(parents=True, exist_ok=True)
        for n, seed in cells:
            radius = SLACK * table.radius_for(n)
            report = cp.global_search(n, radius, TIME_LIMIT, cp.Rng(seed),
                                      max_restarts=RESTART_BUDGET)
            if report.status is not cp.SolveStatus.FEASIBLE:
                print(f"n={n} seed={seed}: {report.status.value}", file=sys.stderr)
                return 1
            path = target / f"n{n:03d}.txt"
            cp.write_layout(report.layout, report, path, producer="perfbench/make_inputs.py")
            print(f"{path.relative_to(HERE)}: n={n} R={radius!r} restarts={report.restarts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
