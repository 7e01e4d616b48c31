"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads shard-read-leased pdes-2w \\
        --seeds 1 2 3 4 5 --seconds 20

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json`` — the steadiness test a benchmark change must pass.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        verdicts = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            verdicts.append((seed, result["correct"], result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: runs (seed, correct, attempted, failed) {verdicts}")
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median if median else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "FAIL")
            print(f"  {name:26s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound}  {flag}")
            print(f"  {'':26s} values {[round(v, 4) for v in series]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
