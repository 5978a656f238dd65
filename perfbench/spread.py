#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: runs one workload over
several seeds and prints, per metric, the median and the interquartile
range as a share of the median (statistics.quantiles, n=4), next to the
metric's bound from BENCHMARK.json.

Run from the repository root:
    python3 perfbench/spread.py <workload> [first_seed] [runs]
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload = sys.argv[1]
    first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:>16}: median {med:.6g}  spread {spread:.3f}  bound {m['bound']}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
