"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload stats-ring --seeds 5 --seconds 25

For each metric: the median of the runs and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the bound BENCHMARK.json gives it.  Runs are sequential,
each in a fresh process, seeds 0, 1, ... (or from ``--first-seed``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:<28} median {med:<14.6g} spread {share:7.2%}"
              + (f"  bound {bound:.0%}" if bound is not None else "")
              + f"  values {' '.join(f'{v:.6g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
