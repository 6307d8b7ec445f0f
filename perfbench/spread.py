"""Run one workload under several seeds and report each end-to-end metric's
median, quartiles and spread ((Q3 - Q1) / median) against its bound.

    python3 perfbench/spread.py --workload sweep --seeds 1-10

A benchmark is steady when every spread except that of setup_s stays below
a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--out", help="also write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    first, last = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        result = json.loads(done.stdout.splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(f"seed {seed}: FAILED ({result['failed']} of "
                  f"{result['attempted']})\n{done.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    status, summary = 0, {}
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        q1, q2, q3 = statistics.quantiles(runs, n=4)
        spread = quartile_spread(runs)
        steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
        status |= not steady
        summary[metric["name"]] = {"median": q2, "q1": q1, "q3": q3,
                                   "spread": spread, "unit": metric["unit"],
                                   "runs": runs}
        print(f"{metric['name']:12s} median {q2:.6g} {metric['unit']}  "
              f"quartiles {q1:.6g}..{q3:.6g}  spread {spread:.4f}  "
              f"bound {metric['bound']}  {'ok' if steady else 'NOT STEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "metrics": summary}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
