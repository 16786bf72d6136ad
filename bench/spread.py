"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 bench/spread.py --seeds 1-10 --seconds 30 [--workload trap_fit] [--out FILE]

Each (workload, seed) runs ``bench/run.py`` in its own process, one after
another. For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median,
which ``BENCHMARK.json`` compares against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
                if k in bounds), flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            if name in bounds:
                print(f"  {name:14s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                      f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound {bounds[name]}")
    with open(os.path.join(ROOT, ".bench_out", workload, "result.json")) as fh:
        report["environment"] = json.load(fh)["environment"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
