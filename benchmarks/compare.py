"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 benchmarks/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines that ``run.py --record`` (or
``sweep.py``) appends.  Runs of the two sets are paired by workload and
seed, or by order where the seeds differ.  For every end-to-end metric
in BENCHMARK.json the table gives each side's median and quartiles,
the share of pairs the change won (ties count for neither side),
whether the gap in medians exceeds the parent's inter-quartile range,
and a verdict:

- ``gain``: the change won at least 9 of 10 pairs and its median is
  better by more than the parent's IQR;
- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound (a share of the parent median);
- ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
- ``same``: none of the above.

Failed operations are reported as failed_frac per side; a change with
more failures than the parent is never a gain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def by_workload(runs, trace: int = 0) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def values(runs, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs]


def failed_frac(runs) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def _pairs(parent, change):
    seeds = {r["seed"] for r in parent}
    if seeds == {r["seed"] for r in change} and len(seeds) == len(parent):
        by_seed = {r["seed"]: r for r in change}
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """Statistics and verdict for one metric on one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pv, cv = values(parent, name), values(change, name)
    pq, cq = stats.quartiles(pv), stats.quartiles(cv)
    diffs = [sign * (c["result"]["metrics"][name]["value"] - p["result"]["metrics"][name]["value"])
             for p, c in _pairs(parent, change)]
    won = sum(d > 0 for d in diffs) / len(diffs)
    gap = sign * (cq[1] - pq[1])
    parent_iqr = pq[2] - pq[0]
    worse_by = -gap / abs(pq[1]) if pq[1] else 0.0
    all_better = min(sign * v for v in cv) > max(sign * v for v in pv)
    if won >= WIN_SHARE and gap > parent_iqr and failed_frac(change) <= failed_frac(parent):
        call = "gain"
    elif worse_by > bound:
        call = "regression"
    elif max(stats.spread(pv), stats.spread(cv)) > bound and not all_better:
        call = "unresolved"
    else:
        call = "same"
    return {"parent": pq, "change": cq, "won": won, "gap_exceeds_iqr": gap > parent_iqr,
            "worse_by": worse_by, "bound": bound, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = by_workload(load_runs(args.parent)), by_workload(load_runs(args.change))
    print(f"{'workload':<12} {'metric':<10} {'parent q1/med/q3':<34} {'change q1/med/q3':<34} "
          f"{'won':>5} {'gap>IQR':>7} {'worse':>7} {'bound':>5}  verdict")
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            v = verdict(metric, p, c)
            regressions += v["verdict"] == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:<12} {metric['name']:<10} {fmt(v['parent']):<34} {fmt(v['change']):<34} "
                  f"{v['won']:5.2f} {str(v['gap_exceeds_iqr']):>7} {v['worse_by']:+7.3f} "
                  f"{v['bound']:5.2f}  {v['verdict']}")
        print(f"{workload:<12} failed_frac parent {failed_frac(p):.3g} ({len(p)} runs), "
              f"change {failed_frac(c):.3g} ({len(c)} runs)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
