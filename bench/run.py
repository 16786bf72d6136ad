"""ptembed benchmark: one workload per process, passes over a fixed item list.

Usage (from the repository root)::

    python3 bench/run.py --workload fewmode_control --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

After set-up and a short warm-up, ``--trace 0`` runs untraced passes for
``--seconds`` (at least one; a pass starts only if a pass as long as the
last one still ends in time) and reports the end-to-end metrics as medians
over them. ``--trace 1`` runs one untraced pass, then at least two traced
passes, more while they fit in ``--seconds``, and reports the per-layer
metrics. Every pass is checked: each item's outputs must
pass its correctness checks and hash-equal the first pass's, and in traced
passes each item's exact work counters must equal the first traced pass's.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit. The full record (environment,
inputs, per-pass values) is written to ``.bench_out/<workload>/result.json``.

See ``bench/README.md`` for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fewmode_control", "trap_fit", "variational_ramp")
SETUP_SAMPLES = 5
# A run must end within 180 s. A traced run skips its second traced pass
# (and with it the repeat check of the exact counters) if that pass would
# end later than this many seconds after start.
RUN_LIMIT_S = 165.0
STARTED = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OPENBLAS_THREAD_TIMEOUT")

# OpenBLAS keeps its default thread count, so the fits take the same
# floating-point path (and the same number of energy evaluations) as for a
# user. Its helper thread sleeps between calls instead of spinning for its
# default timeout: a spinning helper held the second core of a 2-core
# machine through every fit (cpu_s was twice wall_s), so a run competed for
# both cores with anything else on the machine. Set before numpy is first
# imported; the set-up probes inherit it.
os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"


def _setup(workload, seed):
    """Import ptembed from this checkout and build the workload's items."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import ptembed
    import workloads

    if os.path.dirname(os.path.abspath(ptembed.__file__)) != os.path.join(SRC, "ptembed"):
        raise ImportError(f"ptembed imported from {ptembed.__file__}, not from {SRC}")
    return workloads.build(workload, seed)


def _measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its items being built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    records: list          # per item: digest, failed checks, exact counters
    layer: dict | None = None  # per-layer metrics of a traced pass


def _run_pass(items, out_dir, tracer=None):
    """Run every item once. Its checks and output hash, a few milliseconds,
    are inside the timed region."""
    records = []
    wall = cpu = 0.0
    for item in items:
        item_dir = os.path.join(out_dir, item.name)
        before = tracer.exact_counters() if tracer else None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            digest, problems = item.run(item_dir)
        except Exception:
            digest, problems = None, ["raised: " + traceback.format_exc(limit=3)]
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        counters = None
        if tracer:
            after = tracer.exact_counters()
            counters = {k: v - before.get(k, 0) for k, v in after.items()
                        if v != before.get(k, 0)}
        records.append({"item": item.name, "digest": digest,
                        "problems": problems, "counters": counters})
    return Pass(wall, cpu, records)


def _check_repeats(passes):
    """Flag items whose digest or exact counters differ from the first pass's."""
    first_digest = {r["item"]: r["digest"] for r in passes[0]}
    first_counters = {}
    for records in passes:
        for r in records:
            if r["digest"] != first_digest[r["item"]]:
                r["problems"].append("output hash differs from the first pass")
            if r["counters"] is None:
                continue
            ref = first_counters.setdefault(r["item"], r["counters"])
            if r["counters"] != ref:
                r["problems"].append("exact work counters differ from the first traced pass")


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": threads,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _passes_until(deadline, minimum, run, last=0.0, limit=math.inf):
    """Run ``run`` while a pass as long as the last one (``last`` seconds
    before the first) would still end before ``deadline``; run at least
    ``minimum`` passes, the second and later of them only if they end before
    ``limit``."""
    passes = []
    while True:
        end = time.perf_counter() + last
        wanted = len(passes) < minimum and (not passes or end <= limit)
        if not (wanted or end <= deadline):
            return passes
        t0 = time.perf_counter()
        passes.append(run())
        last = time.perf_counter() - t0


def run_workload(workload, seed, seconds, trace):
    items = _setup(workload, seed)
    # set-up time is an end-to-end metric only, so traced runs skip its probes
    setup_s, setup_samples = (None, []) if trace else _measure_setup(workload, seed)
    import workloads
    from tracing import Tracer

    out_dir = os.path.join(OUT, workload)
    workloads.warm_up(workload, os.path.join(OUT, "warm_up", workload))
    start = time.perf_counter()
    deadline = start + seconds
    untraced = [_run_pass(items, out_dir)]
    first_s = time.perf_counter() - start
    # peak RSS through the first pass: later passes can raise the high-water
    # mark through heap fragmentation, and how many run depends on speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if trace:
        def traced_pass():
            tracer = Tracer()
            with tracer.installed():
                result = _run_pass(items, out_dir, tracer)
            result.layer = tracer.layer_metrics()
            return result
        traced = _passes_until(deadline, 2, traced_pass,
                               limit=STARTED + RUN_LIMIT_S)
    else:
        untraced += _passes_until(deadline, 0, lambda: _run_pass(items, out_dir), first_s)

    all_records = [p.records for p in untraced + traced]
    _check_repeats(all_records)
    attempted = sum(len(r) for r in all_records)
    failures = [(i, r["item"], r["problems"]) for i, records in enumerate(all_records)
                for r in records if r["problems"]]
    wall = statistics.median(p.wall_s for p in untraced)
    if trace:
        metrics = {}
        for name, (value, unit) in traced[0].layer.items():
            if unit == "s":  # counts are identical on every pass, times are not
                value = statistics.median(p.layer[name][0] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(p.wall_s for p in traced) - wall, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu_s for p in untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": workloads.draw_params(workload, seed),
        "environment": _environment(),
        "setup_samples_s": setup_samples,
        "untraced_passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in untraced],
        "traced_passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in traced],
        "attempted": attempted,
        "failures": failures,
        "failed_frac": len(failures) / attempted,
        "metrics": metrics,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def _print_report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"inputs {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for i, name, problems in record["failures"]:
        print(f"FAILED pass {i} item {name}: {'; '.join(problems)}")
    if record["trace"] and len(record["traced_passes"]) < 2:
        print("one traced pass only (run-time limit): exact counters not repeat-checked")
    for name, m in record["metrics"].items():
        print(f"{name:52s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':52s} {record['failed_frac']:.6g} 1")


def _result_line(record):
    failed = len(record["failures"])
    return json.dumps({
        "correct": failed == 0, "attempted": record["attempted"], "failed": failed,
        "metrics": record["metrics"],
    })


def _run_all(args):
    """Run every workload, each in its own process, one after another."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_report(record)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
