"""Run every workload and record one point of the benchmark trajectory.

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25 \\
        --out perfbench/BENCH_<commit>.json

For each workload this runs ``run.py`` once per seed (timed) and once traced
(first seed), one run at a time, and prints every end-to-end metric by name
with its unit: the median over the seeds, the spread (distance between the
first and third quartile as a share of the median) and ``fail_ratio``.  The
JSON file keeps every run's metrics and the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[0].removeprefix("host: "))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads.NAMES:
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        traced = run(workload, args.seeds[0], args.seconds, 1)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {"fail_ratio": {"value": failed / attempted, "unit": "ratio",
                                  "failed": failed, "attempted": attempted}}
        print(f"{workload}: {len(runs)} runs")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"value": median, "unit": first["unit"],
                             "spread": (q3 - q1) / median, "runs": values}
            print(f"  {name:12s} {median:.4f} {first['unit']:3s} "
                  f"(spread {(q3 - q1) / median:.3f}, min {min(values):.4f}, "
                  f"max {max(values):.4f})")
        print(f"  fail_ratio   {failed / attempted:.4f}     ({failed}/{attempted})")
        record["workloads"][workload] = {
            "end_to_end": summary, "per_layer": traced["metrics"],
            "traced_correct": traced["correct"], "host": runs[0]["host"]}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
