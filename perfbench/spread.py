"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload descent-large --seeds 1-10

For every metric: the median over the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the bound BENCHMARK.json fixes. Also checks that the
share of failed operations is the same in every run. Runs one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        command = [*SPEC["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900,
                              check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name}: median={median:.6g} spread={spread:.4f}{verdict}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)} {'same' if len(shares) == 1 else 'DIFFERS'}")
    print(f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
