#!/usr/bin/env python3
"""The repository benchmark: campaign sweeps and time-shared Splash.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-replay --seed 3 --seconds 20 --trace 0

It builds perfbench/tpbench.exe with dune, runs each pass of the
workload in its own process (sequentially, one job outstanding), checks
every output against perfbench/golden/, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs one untraced and one traced pass and reports the per-layer
metrics.  `--make-golden` regenerates the golden files instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "tpbench.exe")
WORKLOADS = ["sweep-replay", "sweep-kernel", "timeshare-splash"]
GOLDEN_SEEDS = 6  # must match golden_seeds in tpbench.ml
SETUP_REPS = 9
# Reference host speed: the calibration kernel's time per sample on the
# 2-core VM the benchmark was built on.  A pass whose samples take
# longer ran on a slower host; its window is scaled back by the ratio.
CALIB_REF_S = 0.035
RUN_LIMIT_S = 170  # a run must end well within 180 s
START = time.monotonic()


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for f in ("BENCHMARK.json", "dune-project", "lib/serve/engine.ml", "perfbench/dune"):
        if not os.path.isfile(f):
            die(f"{f} not found: run from the root of a full checkout")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/tpbench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed", 1)


def run_exe(args):
    """Run the worker once and return the JSON object on its last line."""
    left = RUN_LIMIT_S - (time.monotonic() - START)
    try:
        r = subprocess.run(
            [EXE] + args, capture_output=True, text=True, timeout=max(left, 1)
        )
    except subprocess.TimeoutExpired:
        die(f"{' '.join(args)}: not done within {RUN_LIMIT_S} s of the start", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"{' '.join(args)}: exit code {r.returncode}", 1)
    return json.loads(lines[-1])


def metric_table(spec, key):
    return [(m["name"], m["unit"]) for m in spec[key]]


def untraced(workload, seed, seconds):
    """Set-up several times, then passes until `seconds` are measured."""
    setups = [run_exe(["setup"])["setup_s"] for _ in range(SETUP_REPS)]
    passes = []
    longest = 0.0
    while not passes or sum(p["window_s"] for p in passes) < seconds:
        # Stop early rather than overrun the run's time limit.
        if passes and time.monotonic() - START + 1.5 * longest > RUN_LIMIT_S:
            break
        t0 = time.monotonic()
        passes.append(run_exe(["pass", workload, str(seed + len(passes)), "0"]))
        longest = max(longest, time.monotonic() - t0)
    setups += [p["setup_s"] for p in passes]
    ref_window = sum(p["window_s"] * CALIB_REF_S / p["calib_s"] for p in passes)
    cells = sum(p["cells"] for p in passes)
    ok = sum(p["cells_ok"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "cells_per_ref_s": ok / ref_window,
        "sim_acc_per_ref_s": sum(p["golden_accesses"] for p in passes) / ref_window,
        "max_rss_mib": max(p["rss_mib"] for p in passes),
        "ok_frac": ok / cells,
    }
    mismatches = sum(p["mismatches"] for p in passes)
    return values, cells, mismatches


def traced(workload, seed):
    """One untraced and one traced pass of the same inputs."""
    u = run_exe(["pass", workload, str(seed), "0"])
    t = run_exe(["pass", workload, str(seed), "1"])
    values = dict(t["layers"])
    values.update(
        {
            "engine.cached_cell_us": u["cached_cell_us"],
            "engine.retries": u["retries"],
            "engine.failed_attempt_s": u["failed_attempt_s"],
            "engine.failed_frac": 1.0 - u["cells_ok"] / u["cells"],
            "gc.minor_words": u["minor_words"],
            "gc.major_collections": u["major_collections"],
            "trace.overhead_frac": t["window_s"] / u["window_s"] - 1.0,
            "wall.cells_per_s": u["cells_ok"] / u["window_s"],
            "wall.sim_acc_per_s": u["golden_accesses"] / u["window_s"],
            "host.calib_ms": u["calib_s"] * 1e3,
        }
    )
    mismatches = u["mismatches"] + t["mismatches"]
    if u["digest"] != t["digest"]:
        print("perfbench: traced outputs differ from untraced ones", file=sys.stderr)
        mismatches += 1
    return values, u["cells"], mismatches


def make_golden():
    os.makedirs(os.path.join("perfbench", "golden"), exist_ok=True)
    for w in WORKLOADS:
        lines = []
        for s in range(1, GOLDEN_SEEDS + 1):
            r = subprocess.run(
                [EXE, "golden", w, str(s)], stdout=subprocess.PIPE, text=True
            )
            if r.returncode != 0:
                die(f"golden {w} {s}: exit code {r.returncode}", 1)
            lines.append(r.stdout)
        with open(os.path.join("perfbench", "golden", w + ".txt"), "w") as f:
            f.write("".join(lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--make-golden", action="store_true")
    args = ap.parse_args()
    build()
    if args.make_golden:
        make_golden()
        return
    if args.workload is None:
        die("--workload is required")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.trace:
        values, attempted, failed = traced(args.workload, args.seed)
        table = metric_table(spec, "per_layer")
    else:
        values, attempted, failed = untraced(args.workload, args.seed, args.seconds)
        table = metric_table(spec, "end_to_end")
    missing = [n for n, _ in table if n not in values]
    if missing:
        die(f"worker reported no value for {', '.join(missing)}", 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
