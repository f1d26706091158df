"""Run one workload over several seeds and report each metric's quartile spread.

    python3 decodebench/spread.py --workload toy-long --seeds 1-10 --seconds 20

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of that median,
the figure the bounds in BENCHMARK.json were set against.  Runs are made
one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {values}",
              flush=True)

    print(f"{args.workload}: {len(runs)} runs")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share: {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = stats.median(values)
        spread = stats.quartile_spread(values).value if mid.value and len(values) > 1 else 0.0
        print(f"  {name:<24} median {mid.value:14.6f}  quartile spread {spread * 100:6.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
