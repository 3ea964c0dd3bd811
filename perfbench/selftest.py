#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --trace 1`` twice, at seed ``SEED`` for
``SECONDS`` seconds, and requires that both runs pass their checks (which
include traced results equal to untraced ones) and that every computed count
(per-layer metrics in units of count, bytes or flops) repeats exactly across
the two runs.  Exits non-zero on any mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "B", "flop")
SEED = 0
SECONDS = 1


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, result


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in COUNT_UNITS]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [traced_run(workload) for _ in range(2)]
        for code, result in runs:
            if code != 0 or not result["correct"]:
                problems.append(f"{workload}: run failed its checks")
        for name in counts:
            values = [result["metrics"][name]["value"] for _, result in runs]
            if values[0] != values[1]:
                problems.append(f"{workload}: {name} differs: {values}")
        print(f"{workload}: " + ", ".join(
            f"{name}={runs[0][1]['metrics'][name]['value']}"
            for name in counts), flush=True)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
