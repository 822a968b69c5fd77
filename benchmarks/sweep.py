"""Run every workload on several seeds and report each metric's spread.

    python3 benchmarks/sweep.py --runs 10 --out runs.jsonl

Runs ``run.py`` once per workload and seed 1 to ``--runs``, one after
another, with the run length from BENCHMARK.json, appending each
result to ``--out``.
Then prints, per workload and end-to-end metric, the median, the
quartiles and the spread (IQR over median) next to the metric's bound.
A benchmark is steady when every spread except setup_s stays below a
third of its bound.  ``--report`` prints the table for an existing
file without running anything.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import compare
import stats

HERE = Path(__file__).resolve().parent


def report(path, spec) -> bool:
    """Print the spread table; True when every gated spread is below a third of its bound."""
    steady = True
    for workload, runs in sorted(compare.by_workload(compare.load_runs(path)).items()):
        for metric in spec["end_to_end"]:
            vals = compare.values(runs, metric["name"])
            q1, med, q3 = stats.quartiles(vals)
            s = stats.spread(vals)
            gated = metric["name"] != "setup_s"
            ok = s < metric["bound"] / 3.0
            steady &= ok or not gated
            print(f"{workload:<12} {metric['name']:<10} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {s:.4f} bound {metric['bound']:.2f} {'ok' if ok else 'WIDE' if gated else 'wide'}")
        print(f"{workload:<12} runs {len(runs)}, failed_frac {compare.failed_frac(runs):.3g}, "
              f"all correct {all(r['result']['correct'] for r in runs)}")
    return steady


def main(argv=None) -> int:
    spec = compare.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON lines file the runs are appended to")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default all")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--report", action="store_true", help="only print the table for --out")
    args = parser.parse_args(argv)
    if not args.report:
        for workload in args.workload or names:
            for seed in range(1, args.runs + 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0", "--record", args.out]
                proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
                last = (proc.stdout.strip().splitlines() or [proc.stderr.strip()])[-1]
                print(f"{workload} seed {seed}: exit {proc.returncode} {last}", flush=True)
    return 0 if report(args.out, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
