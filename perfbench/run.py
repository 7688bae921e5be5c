"""Benchmark of the circlepack solver, one workload per invocation.

    python3 perfbench/run.py --workload hit-bestknown --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. A run repeats whole rounds
of the workload's fixed operations for about ``--seconds`` seconds (at least
one round) and checks every result. ``--seed`` sets the order of the
operations within a round; the operations themselves are fixed, so every
count repeats exactly whatever the seed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layer boundaries are wrapped and
the per-layer metrics are reported instead, and the spans are written to
``perfbench/out/``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("hit-bestknown", "descent-large", "adjust-near")
SIZES = ("full", "small")

# One BLAS thread: on the 2-vCPU reference machine a second thread made the
# eight 400-circle descents of descent-large 5% slower for twice the CPU.
BLAS_THREADS = "1"
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'small' runs tiny inputs, for the smoke check")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took and exit")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def set_up(name: str, size: str):
    """Import the package from the checkout and build the workload."""
    if not (SRC / "circlepack" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'circlepack'}")
    sys.path.insert(0, str(SRC))
    import circlepack

    if Path(circlepack.__file__).resolve().parent != (SRC / "circlepack").resolve():
        raise SystemExit(f"error: imported circlepack from {circlepack.__file__}, not {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    return workloads.make(name, size, OUT)


def setup_seconds(args, first: float) -> float:
    """Median set-up time over fresh processes, the current one included."""
    samples = [first]
    command = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--size", args.size]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_rounds(workload, order, seconds, sampler, tracer=None):
    """Whole rounds until the next one would end past ``seconds``.

    Returns the outcomes of each round, and each round's wall time both as
    measured and divided by the machine's slowdown during that round.
    """

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, args, {})

    rounds, raw, normalised = [], [], []
    started = time.perf_counter()
    while True:
        mark = sampler.mark()
        t0 = time.perf_counter()
        outcomes = call("bench.round", lambda: [call("bench.op", workload.run, k) for k in order])
        t1 = time.perf_counter()
        rounds.append(outcomes)
        raw.append(t1 - t0)
        normalised.append((t1 - t0) / sampler.slowdown(mark))
        if (t1 - started) + (t1 - t0) > seconds:
            return rounds, raw, normalised


def round_counts(outcomes) -> dict[str, float]:
    totals: dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            workload = set_up(args.workload, args.size)
        except FileNotFoundError as exc:
            raise SystemExit(f"error: {exc}") from None
        first_setup = (time.perf_counter() - t0) / sampler.slowdown()
        if args.setup_only:
            print(repr(first_setup))
            return 0

        order = list(range(len(workload.labels)))
        random.Random(args.seed).shuffle(order)
        start = sampler.mark()
        if args.trace:
            import spans

            tracer = spans.Tracer()
            with spans.installed(tracer):
                rounds, raw, times = run_rounds(workload, order, args.seconds, sampler, tracer)
        else:
            rounds, raw, times = run_rounds(workload, order, args.seconds, sampler)
        slowdown = sampler.slowdown(start)
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = setup_seconds(args, first_setup)

    errors = [e for outcomes in rounds for outcome in outcomes for e in outcome.errors]
    counts = round_counts(rounds[0])
    for number, outcomes in enumerate(rounds[1:], start=2):
        if round_counts(outcomes) != counts:
            errors.append(f"round {number} counts {round_counts(outcomes)} differ from round 1 {counts}")
    attempted = sum(len(outcomes) for outcomes in rounds)
    failed = sum(outcome.failed for outcomes in rounds for outcome in outcomes)
    wall_s = statistics.median(times)

    if args.trace:
        metrics = spans.layer_metrics(tracer, len(rounds), slowdown, {
            "shrink": counts.get("shrink", 0.0),
            "bytes": counts.get("bytes", 0),
            "wall_s": wall_s,
        })
        units = spans.UNITS
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END

    print(f"workload {args.workload} size={args.size} seed={args.seed} "
          f"blas_threads={BLAS_THREADS} trace={args.trace}")
    print(f"rounds={len(rounds)} operations_per_round={len(order)} "
          f"attempted={attempted} failed={failed}")
    print(f"raw round seconds: {' '.join(f'{t:.3f}' for t in raw)}; "
          f"machine slowdown {slowdown:.3f}")
    print("per round: " + " ".join(f"{k}={v:.12g}" for k, v in sorted(counts.items())))
    for k, outcome in zip(order, rounds[0]):
        if outcome.failed:
            print(f"failed: {workload.labels[k]}: {outcome.cause}")
    for error in errors:
        print(f"error: {error}")
    if args.trace:
        print(f"spans: {len(tracer.span_name)} written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
