"""Summarise result files of several runs into one BENCH_<n>.json.

    python3 perfbench/summarize.py perfbench/results/BENCH_1.json 201-210

reads ``perfbench/out/result-<workload>-seed<n>-trace0.json`` for every
workload and seed in the range, and ``...-trace1.json`` for the first seed
where present, and writes the median, quartiles and spread of every
end-to-end metric per workload, the per-layer metrics of the traced run,
and the environment.  Compare two BENCH files only when their environment
(machine, python, numpy, mpmath, mpmath backend) matches.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _load(workload: str, seed: int, trace: int):
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def summarize(seeds: list) -> dict:
    bench = {"schema": 1, "seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [r for r in (_load(workload, s, 0) for s in seeds) if r is not None]
        if not runs:
            continue
        entry = {"runs": len(runs), "seconds": runs[0]["environment"]["seconds"],
                 "metrics": {}}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry["metrics"][name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0}
        entry["failures"] = [f for r in runs for f in r["failures"]]
        traced = _load(workload, seeds[0], 1)
        if traced is not None:
            entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        bench["workloads"][workload] = entry
        env = dict(runs[0]["environment"])
        for key in ("seed", "workload", "trace", "seconds"):
            env.pop(key)
        bench["environment"] = env
    return bench


def main() -> int:
    path, span = sys.argv[1], sys.argv[2]
    lo, _, hi = span.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    with open(path, "w", encoding="ascii") as fh:
        json.dump(summarize(seeds), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
