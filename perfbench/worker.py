"""One fresh interpreter of the benchmark: set up, then run verdicts.

Started by run.py as ``python3 perfbench/worker.py '<json config>'``.  It
imports ``conifold_flows`` from the checkout's ``src``, runs one untimed
warm-up verdict, prints ``READY <json>`` and then either runs verdicts for
the configured seconds (``timed``) or re-runs the first ``count`` verdicts
(``replay``), and prints ``RESULT <json>``.  Every verdict is serialised
and its bytes are reported as a SHA-256 digest, so run.py can compare
verdicts across interpreters.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from spans import Tracer

# peak_rss_mb is read after this many rounds (kernel verdicts, or cli_flows
# rounds of eleven subcommands), or at the end of a shorter run
RSS_ROUNDS = 10


def _emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _environment(cf) -> dict:
    import mpmath
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "conifold_flows": cf.__version__,
    }


class Runner:
    """Runs verdict ``index`` of one workload and never raises: a raising
    verdict is returned with status "error" and its error text."""

    def __init__(self, cf, workload: str, seed: int, out_path: str):
        self.cf = cf
        self.workload = workload
        self.seed = seed
        self.out_path = out_path
        self.round = len(workloads.CLI_CLASSES) if workload == "cli_flows" else 1

    def inputs(self, index: int):
        if self.workload == "cli_flows":
            return workloads.cli_argv(self.seed, index)
        t, lam = workloads.kernel_point(self.workload, self.seed, index)
        return self.workload, {"t": t, "lam_check": lam}

    def _call(self, index: int, inputs) -> dict:
        if self.workload == "cli_flows":
            return workloads.cli_verdict(self.cf, inputs, self.out_path)
        return workloads.kernel_verdict(self.cf, self.workload, index,
                                        inputs["t"], inputs["lam_check"])

    def run(self, index: int, inputs) -> dict:
        try:
            return self._call(index, inputs)
        except Exception as exc:  # a raising verdict is a counted failure
            error = f"{type(exc).__name__}: {exc}"
            record = {"workload": self.workload, "index": index,
                      "inputs": inputs, "error": error}
            return {"status": "error", "error": error, "checks": {},
                    "bytes": self.cf.reporting.dump_json(record).encode("ascii")}

    def warmup(self) -> dict:
        if self.workload == "cli_flows":
            return self.run(-1, list(workloads.CLI_WARMUP))
        t, lam = workloads.KERNEL_WARMUP[self.workload]
        return self.run(-1, {"t": t, "lam_check": lam})


def _layer_stats(tracer: Tracer, records: list) -> dict:
    """Span aggregates plus the ring-size and subcommand breakdowns."""
    out = {"spans": tracer.aggregate()}
    by_index = {r["index"]: r for r in records}
    rk4 = {}
    cli_main = {}
    for _sid, _p, verdict, name, start, end, _f in tracer.spans:
        rec = by_index.get(verdict)
        if rec is None:
            continue
        if name == "lattice.rk4_step":
            rk4.setdefault(rec["label"].split(".")[-1], []).append(end - start)
        elif name == "cli.main":
            group_action = ".".join(rec["inputs"].split()[:2])
            cli_main.setdefault(group_action, []).append(end - start)
    out["spans_recorded"] = len(tracer.spans)
    out["span_cost_s"] = tracer.span_cost_s()
    out["rk4_mean_us"] = {k: 1e6 * sum(v) / len(v) for k, v in rk4.items()}
    out["cli_p50_s"] = {k: statistics.median(v) for k, v in cli_main.items()}
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    import conifold_flows as cf
    import conifold_flows.cli  # noqa: F401  (the package does not import it)

    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        tracer.install()
    os.makedirs(cfg["out_dir"], exist_ok=True)
    out_path = os.path.join(cfg["out_dir"], f"report-{os.getpid()}.json")
    runner = Runner(cf, cfg["workload"], cfg["seed"], out_path)
    warm = runner.warmup()
    if tracer is not None:
        tracer.reset()
    _emit("READY", {"environment": _environment(cf),
                    "warmup": {"status": warm["status"], "error": warm.get("error")}})

    records = []

    def one(index: int) -> float:
        label, inputs = runner.inputs(index)
        start = time.perf_counter()
        if tracer is None:
            res = runner.run(index, inputs)
        else:
            tracer.verdict = index
            res = tracer.call("verdict", runner.run, (index, inputs), {})
        end = time.perf_counter()
        records.append({
            "index": index, "label": label, "seconds": end - start,
            "status": res["status"], "error": res.get("error"),
            "inputs": " ".join(inputs) if runner.workload == "cli_flows" else inputs,
            "checks": res["checks"],
            "digest": hashlib.sha256(res["bytes"]).hexdigest(),
        })
        return end

    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    end = start
    rss = None
    if cfg["mode"] == "timed":
        deadline = start + cfg["seconds"]
        index = 0
        # whole cli_flows rounds only, so every subcommand has the same weight
        while end < deadline or index % runner.round:
            end = one(index)
            index += 1
            # the same work on every run: memory must not grow with speed
            if index == RSS_ROUNDS * runner.round:
                rss = peak_rss_mb()
    else:
        for index in range(cfg["count"]):
            end = one(index)
    if os.path.exists(out_path):
        os.remove(out_path)

    result = {"records": records, "wall_s": end - start,
              "peak_rss_mb": peak_rss_mb() if rss is None else rss}
    if tracer is not None:
        result["layers"] = _layer_stats(tracer, records)
        tracer.write(os.path.join(
            cfg["out_dir"], f"spans-{cfg['workload']}-seed{cfg['seed']}.csv"))
    for rec in records:
        if isinstance(rec["inputs"], dict):
            rec["inputs"] = {k: cf.reporting.fmt_complex(v) for k, v in rec["inputs"].items()}
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
