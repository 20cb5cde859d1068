"""Steadiness check: repeat each workload over seeds and compare spreads to bounds.

    python3 bench/steady.py --runs 10 --first-seed 1 --out bench/out/steady.json

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
the run length from ``BENCHMARK.json``.  For every end-to-end metric it
reports the median, the quartiles, and the spread: the distance between
the quartiles as a share of the median.  A metric is steady when its
spread is within its bound; the goal is a third of it.
``--trace`` adds one traced run per workload, for the per-layer baseline.
Exit code 1 when a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    """Median, quartiles, and the interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds}
    steady = True
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"runs": runs, "metrics": {}}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            within = stats["spread"] <= bound
            steady = steady and within
            mark = "within bound" if within else "TOO WIDE"
            if stats["spread"] <= bound / 3:
                mark = "ok"
            print(
                f"  {name:14s} median {stats['median']:12.6g}  q1 {stats['q1']:12.6g}  "
                f"q3 {stats['q3']:12.6g}  spread {stats['spread']:7.4f}  bound {bound}  {mark}"
            )
        if args.trace:
            entry["trace"] = run_once(workload, seeds[0], spec["run_seconds"], 1)
            e2e = entry["metrics"]["tasks_per_s"]["median"]
            overhead = entry["trace"]["metrics"]["trace.overhead_frac"]["value"]
            print(f"  traced run: overhead {overhead:.4f} (untraced median {e2e:.4g} tasks/s)")
        report[workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
