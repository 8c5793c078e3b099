#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json with --tiny in both modes and checks
that each run exits 0, that its last line is a correct result, and that it
prints exactly the end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1) that BENCHMARK.json names, with their units. Exits 1 on any
mismatch.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "7",
                                      "--seconds", "1", "--trace", trace, "--tiny"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            where = f"{w['name']} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: incorrect result {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {sorted(got)} != {sorted(expected[trace])}")
            for k, v in result["metrics"].items():
                if f"  {k} " not in run.stdout:
                    problems.append(f"{where}: {k} missing from the report")
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{where}: {k} is not a number")
            print(f"ok {where}: {len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
