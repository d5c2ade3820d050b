"""Run-to-run spread of the end-to-end metrics, over seeds 1 to 10.

    python3 perfbench/spread.py [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed and workload for BENCHMARK.json's
``run_seconds``, with the seeds in the outer loop, so each workload's ten
runs are spread over the whole set rather than taken in one window of it.
Prints for each metric the median of the runs, its first and third
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median, which is what a
metric's bound in BENCHMARK.json is held against. Also prints the share of
failed operations of each run, and keeps every run's result object in
``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or list(run.WORKLOADS)
    results: dict[str, list] = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            results[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    run.OUT.mkdir(exist_ok=True)
    for name, runs in results.items():
        (run.OUT / f"spread-{name}.json").write_text(json.dumps(runs, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"  {metric:14s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.1%}  bound {bounds.get(metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
