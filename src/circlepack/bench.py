"""Benchmark harness: hit-count sweeps and full-versus-local timing.

Per-cell seeds derive from a base seed mixed with (n, repetition) so any
cell can be rerun in isolation and reproduce exactly.  Mean times follow
the hit-table convention: averaged over successful runs only.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .geometry import Rng, random_layout
from .layout_io import BestKnownTable, format_decimal
from .optimizer import bfgs_minimize
from .search import DEFAULT_ATTEMPT_SECONDS, SolveStatus, global_search

_MASK64 = (1 << 64) - 1

HITS_CSV_COLUMNS = ("n", "target_radius", "hits", "attempts", "mean_time_s")
TIMING_CSV_COLUMNS = ("mode", "n", "radius", "runs", "mean_time_s", "mean_iterations")


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed_base: int, n: int, rep: int) -> int:
    """Stable per-cell seed: ``seed_base`` xor a mix of (n, rep)."""
    return (int(seed_base) ^ _mix64((int(n) << 32) ^ int(rep))) & _MASK64


@dataclass(frozen=True)
class BenchRecord:
    """Hit statistics for one instance size at one target radius."""

    n: int
    target_radius: float
    hits: int
    attempts: int
    mean_time_s: float | None
    per_run_seeds: tuple[int, ...]

    def csv_row(self) -> tuple:
        mean = "" if self.mean_time_s is None else f"{self.mean_time_s:.6f}"
        return (self.n, format_decimal(self.target_radius), self.hits, self.attempts, mean)


@dataclass(frozen=True)
class TimingRecord:
    """Mean time to a local minimum in one evaluation mode."""

    mode: str
    n: int
    radius: float
    runs: int
    mean_time_s: float
    mean_iterations: float

    def csv_row(self) -> tuple:
        return (
            self.mode,
            self.n,
            format_decimal(self.radius),
            self.runs,
            f"{self.mean_time_s:.6f}",
            f"{self.mean_iterations:.2f}",
        )


def run_hits(
    ns: Sequence[int],
    table: BestKnownTable,
    reps: int = 10,
    time_limit: float = DEFAULT_ATTEMPT_SECONDS,
    seed_base: int = 0,
    max_restarts: int | None = None,
    progress=None,
) -> list[BenchRecord]:
    """Repeat global_search at the target radius for each n.

    ``progress`` may be a callable taking each finished BenchRecord.
    """
    records = []
    for n in ns:
        radius = table.radius_for(n)
        seeds = tuple(derive_seed(seed_base, n, rep) for rep in range(reps))
        hits = 0
        times = []
        for seed in seeds:
            report = global_search(n, radius, time_limit, rng=Rng(seed), max_restarts=max_restarts)
            if report.status is SolveStatus.FEASIBLE:
                hits += 1
                times.append(report.elapsed)
        record = BenchRecord(
            n=n,
            target_radius=radius,
            hits=hits,
            attempts=reps,
            mean_time_s=sum(times) / len(times) if times else None,
            per_run_seeds=seeds,
        )
        records.append(record)
        if progress is not None:
            progress(record)
    return records


def run_mode_timing(
    n: int, radius: float, runs: int = 10, seed_base: int = 0
) -> list[TimingRecord]:
    """Time full-mode and local-mode optimization from the same ``runs``
    random starts, local mode with the default margins."""
    starts = [
        random_layout(n, radius, Rng(derive_seed(seed_base, n, rep)))
        for rep in range(runs)
    ]
    records = []
    for mode in ("full", "local"):
        total = 0.0
        iterations = 0
        for layout in starts:
            tick = time.monotonic()
            outcome = bfgs_minimize(layout, mode=mode)
            total += time.monotonic() - tick
            iterations += outcome.iterations
        records.append(
            TimingRecord(
                mode=mode,
                n=n,
                radius=radius,
                runs=runs,
                mean_time_s=total / runs,
                mean_iterations=iterations / runs,
            )
        )
    return records


def write_csv(destination, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV to a path or an open text stream."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)

    if hasattr(destination, "write"):
        emit(destination)
    else:
        with Path(destination).open("w", encoding="utf-8", newline="") as fh:
            emit(fh)


def format_hits_line(record: BenchRecord) -> str:
    mean = "-" if record.mean_time_s is None else f"{record.mean_time_s:.2f}s"
    return (
        f"n={record.n:<4d} R={record.target_radius:<14.10f} "
        f"hits={record.hits}/{record.attempts} mean={mean}"
    )
