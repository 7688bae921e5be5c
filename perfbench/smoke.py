"""Smoke run of the benchmark on tiny inputs; checks its output schema.

    python3 perfbench/smoke.py

Runs every workload at ``--size small`` with tracing off and on, and
checks that the last line of each run is the JSON object BENCHMARK.json
describes: exactly the keys correct, attempted, failed and metrics, every
end-to-end (or per-layer) metric with its declared unit and a finite
value, and a correct result. Then copies only BENCHMARK.json and the
benchmark's directory into an empty directory and checks that the
benchmark refuses to run there. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / SPEC["command"][1]), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def schema_problems(stdout: str, expected: dict[str, str]) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and 0 <= failed <= attempted
            and attempted >= 1):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry.get("unit") != expected.get(name):
            problems.append(f"{name}: {entry}")
        elif not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{name}: value {entry['value']!r}")
    return problems


def main() -> int:
    ok = True
    units = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for traced in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(traced), "--size", "small"]
            done = run(args, ROOT)
            problems = [f"exit code {done.returncode}"] if done.returncode else []
            if not problems:
                problems = schema_problems(done.stdout, units[traced])
            ok &= not problems
            print(f"{workload} trace={traced}: {'ok' if not problems else problems}")
            if problems:
                print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    refused = done.returncode != 0 and '"metrics"' not in done.stdout
    ok &= refused
    print(f"without the package source: exit code {done.returncode}, "
          f"{'refused' if refused else 'NOT refused'}")
    shutil.rmtree(bare)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
