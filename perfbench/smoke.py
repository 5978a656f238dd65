#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, must print a correct result line that carries every metric
BENCHMARK.json names, each with its declared unit.

Run from the repository root:  python3 perfbench/smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "2",
                "--trace", "1" if trace else "0", "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{workload} trace={int(trace)}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={result.get('correct')} failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            for name, unit in units[trace].items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{tag}: missing {name}")
                elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: {name} = {got}, want unit {unit}")
            extra = set(metrics) - set(units[trace])
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"ok  {tag}: {len(metrics)} metrics, {result.get('attempted')} actions")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
