"""Benchmark of conifold-flows verdicts: a value, its residual, its
tolerance, and pass or fail.

    python3 perfbench/run.py --workload kernel_direct --seed 1 --seconds 45 --trace 0

Runs from the root of a checkout; see perfbench/README.md.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last line of standard output is the JSON result.  The
program runs in fresh worker interpreters (worker.py), one verdict at a
time, so no timed verdict is served from a cache filled by another run.
Exit code 0 means every verdict passed its tolerance or raised (a counted
failure) and every byte-identity check held; 1 means a tolerance or
byte-identity check failed; 2 means the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402

# Every run must end well inside 180 s; workers still running then are killed.
RUN_LIMIT_S = 170.0
SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("failed", "count"))
RING_SIZES = ("N64", "N4096")
CLI_SUBCOMMANDS = ("specfun.eval", "gw.eval", "hirota.check", "al.run",
                   "disp.run", "disp.check")
KERNEL_CHECKS = ("second_difference", "h_step", "g_step")
CLI_CHECKS = ("first_order_max", "max_error_vs_analytic", "conserved_drift",
              "density_h", "density_ht", "hamiltonian_form_z", "hamiltonian_form_zt")
# Error texts of the known defects listed in ROADMAP item 4.
KNOWN_DEFECTS = (
    ("quadrature did not reach tolerance",
     "ROADMAP 4: untyped ArithmeticError from the Barnes quadrature"),
    ("extension", "ROADMAP 4: fragile difference-equation extension path"),
    ("conserved_drift", "ROADMAP 4: spurious conserved drift"),
)


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker interpreter whose READY line marks the end of set-up."""

    started_workers = []

    def __init__(self, deadline: float, **cfg):
        cfg.update(root=ROOT, out_dir=OUT_DIR)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        Worker.started_workers.append(self)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        ready = self._read("READY")
        self.setup_s = time.perf_counter() - self.started
        self.environment = ready["environment"]
        self.warmup = ready["warmup"]

    def _read(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        self.finish()
        raise BenchError(f"worker ended without {tag} (exit {self.proc.returncode})")

    def result(self) -> dict:
        res = self._read("RESULT")
        self.finish()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return res

    def finish(self) -> None:
        self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()

    @classmethod
    def stop_all(cls) -> None:
        for worker in cls.started_workers:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.proc.wait()
            worker.timer.cancel()


def tail(samples: list) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile).  With eleven samples or fewer that is the minimum."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs)


def class_p50(records: list, seconds: list) -> tuple[float, dict]:
    """Geometric mean over verdict classes of each class's median time,
    with the class medians.  A kernel workload has one class, so this is
    its plain median.  On cli_flows the eleven subcommands take 3 ms to
    0.3 s, and the median of the pooled times falls in the gap between
    classes, where it jumps with the host's speed; every class median
    sits inside its own class."""
    by_class = {}
    for rec, s in zip(records, seconds):
        by_class.setdefault(rec["label"], []).append(s)
    medians = {label: statistics.median(xs) for label, xs in by_class.items()}
    logs = [math.log(m) for m in medians.values()]
    return math.exp(sum(logs) / len(logs)), medians


def margins(records: list, names) -> dict:
    """Minimum of log10(tolerance / residual) per check; 0 when the
    workload does not run the check."""
    out = {name: None for name in names}
    for rec in records:
        for name, (residual, tol) in rec["checks"].items():
            if name in out:
                digits = math.log10(tol / max(residual, 1e-300))
                out[name] = digits if out[name] is None else min(out[name], digits)
    return {k: (0.0 if v is None else v) for k, v in out.items()}


def classify(error: str) -> str:
    for needle, defect in KNOWN_DEFECTS:
        if needle in error:
            return defect
    return "not a listed defect"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark reads nothing outside the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over the program's source files, which identifies the code
    where the checkout has no .git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def layer_metrics(layers: dict, records: list, overhead_s: float) -> dict:
    m = {}
    for name in SPAN_NAMES:
        agg = layers["spans"][name]
        for stat, unit in SPAN_STATS:
            m[f"{name}.{stat}"] = (agg[stat], unit)
    for ring in RING_SIZES:
        m[f"lattice.rk4_step.{ring}.mean_us"] = (layers["rk4_mean_us"].get(ring, 0.0), "us")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_s"] = (layers["cli_p50_s"].get(sub, 0.0), "s")
    for name, digits in margins(records, KERNEL_CHECKS + CLI_CHECKS).items():
        m[f"accuracy.{name}.margin_digits_min"] = (digits, "digits")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = (layers["spans_recorded"], "count")
    m["trace.overhead_est_s"] = (layers["spans_recorded"] * layers["span_cost_s"], "s")
    return m


def compare(reference: list, replay: list) -> list:
    """Indices whose verdict bytes differ between two interpreters."""
    ref = {r["index"]: r["digest"] for r in reference}
    return [r["index"] for r in replay if ref.get(r["index"]) != r["digest"]]


def run(args) -> tuple[dict, dict]:
    """Returns (metrics, details); metrics map name -> (value, unit)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cfg = dict(workload=args.workload, seed=args.seed, seconds=args.seconds)
    timed = Worker(deadline, mode="timed", trace=bool(args.trace), **cfg)
    main = timed.result()
    records = main["records"]
    details = {"environment": dict(timed.environment, git_sha=git_sha(),
                                   src_sha256=source_digest(), seed=args.seed,
                                   workload=args.workload, seconds=args.seconds, trace=args.trace),
               "samples": len(records)}
    if args.trace:
        # Same verdicts untraced, in a fresh interpreter: tracing overhead,
        # and byte identity of every verdict across interpreters.
        replay_worker = Worker(deadline, mode="replay", trace=False,
                               count=len(records), **cfg)
        replay = replay_worker.result()
        details["byte_mismatch"] = compare(records, replay["records"])
        metrics = layer_metrics(main["layers"], records, main["wall_s"] - replay["wall_s"])
    else:
        # One verdict (one cli_flows round) again in a second fresh
        # interpreter, then a set-up-only interpreter: three set-up samples.
        replay_n = len(workloads.CLI_CLASSES) if args.workload == "cli_flows" else 1
        setups = [timed.setup_s]
        replay_worker = Worker(deadline, mode="replay", trace=False,
                               count=replay_n, **cfg)
        setups.append(replay_worker.setup_s)
        details["byte_mismatch"] = compare(records, replay_worker.result()["records"])
        probe = Worker(deadline, mode="replay", trace=False, count=0, **cfg)
        setups.append(probe.setup_s)
        probe.result()
        # a failed verdict counts as missing any latency limit: it ranks as
        # infinitely slow, and a statistic landing on one reads the run's wall
        seconds = [r["seconds"] if r["status"] == "pass" else math.inf for r in records]
        tail_s, tail_pct = tail(seconds)
        p50_s, class_medians = class_p50(records, seconds)
        passed = sum(r["status"] == "pass" for r in records)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verdicts_per_s": (len(records) / main["wall_s"], "1/s"),
            "verdict_p50_s": (min(p50_s, main["wall_s"]), "s"),
            "verdict_tail_s": (min(tail_s, main["wall_s"]), "s"),
            "pass_share": (passed / len(records), "ratio"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        details.update(setup_samples_s=setups, tail_percentile=tail_pct,
                       class_p50_s=class_medians,
                       pooled_p50_s=min(statistics.median(seconds), main["wall_s"]),
                       fail_share=1 - passed / len(records),
                       verdict_seconds=[[r["label"], r["seconds"]] for r in records])
    # the warm-up input is fixed and known to pass: any other outcome is a
    # broken program, whichever interpreter saw it
    details["warmup_failures"] = [w.warmup for w in Worker.started_workers
                                  if w.warmup["status"] != "pass"]
    details["failures"] = [
        {"index": r["index"], "label": r["label"], "inputs": r["inputs"],
         "status": r["status"], "error": r["error"], "defect": classify(r["error"] or "")}
        for r in records if r["status"] != "pass"]
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "conifold_flows")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        metrics, details = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        Worker.stop_all()

    records_failed = details["failures"]
    check_failed = [f for f in records_failed if f["status"] == "fail"]
    correct = not (check_failed or details["byte_mismatch"] or details["warmup_failures"])
    env = details["environment"]
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, why in workloads.NOT_BENCHMARKED.items():
        print(f"# workload {name} is not in BENCHMARK.json: {why}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"# {args.workload} verdict_tail_s is the {details['tail_percentile']:.1f}th "
              f"percentile of {details['samples']} verdicts; fail_share = "
              f"{details['fail_share']:.4g}")
        if len(details["class_p50_s"]) > 1:
            print(f"# {args.workload} verdict_p50_s is the geometric mean of the class "
                  "medians: " + ", ".join(f"{k} {v:.4g} s"
                                          for k, v in details["class_p50_s"].items())
                  + f"; the median of all verdicts is {details['pooled_p50_s']:.4g} s")
    for f in records_failed:
        print(f"# failed verdict {f['index']} ({f['label']}): {f['inputs']}: "
              f"{f['error']} [{f['defect']}]")
    for w in details["warmup_failures"]:
        print(f"# warm-up verdict {w['status']}: {w['error']}")
    if details["byte_mismatch"]:
        print(f"# verdict bytes differ between interpreters: {details['byte_mismatch']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"correct": correct, "metrics": {k: {"value": v, "unit": u}
                                                   for k, (v, u) in metrics.items()},
                   **details}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": details["samples"],
                      "failed": len(records_failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
