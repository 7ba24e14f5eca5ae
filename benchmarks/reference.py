#!/usr/bin/env python3
"""Regenerate the reference figures in benchmarks/README.md.

    python3 benchmarks/reference.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs ``run.py`` once per seed and workload, one run at a time, with the
run length from BENCHMARK.json, and prints for every metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, that
is the distance between the quartiles as a share of the median.  Set
``FOCKFORGE_THREADS=1`` for the single-thread baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        values, failed, attempted, raised = {}, 0, 0, 0.0
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True)
            *_, record, result = proc.stdout.strip().splitlines()
            result = json.loads(result)
            raised = max(raised, json.loads(record)["provenance"]["checks_raised_peak_mb"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs not correct", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                if args.trace == "0"), file=sys.stderr)
        print(f"{workload}: {len(args.seeds)} runs, {attempted} operations, {failed} failed, "
              f"checks raised the memory peak by at most {raised:.3g} MB")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {name}: {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name}: median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}  "
                  f"spread {spread:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
