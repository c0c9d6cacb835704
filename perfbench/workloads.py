"""Seeded inputs and single verdicts for the three benchmark workloads.

Only the standard library is used here, so the driver process can import
this module without importing the program.  The verdict functions receive
the already imported ``conifold_flows`` modules from the worker.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random

WORKLOADS = ("kernel_direct", "kernel_extended", "cli_flows")
# Runnable, but left out of BENCHMARK.json, with the reason every run prints.
NOT_BENCHMARKED = {
    "kernel_extended": (
        "not steady enough to gate: a 30 s run holds 8-13 verdicts of "
        "1.2-4 s, some raising ArithmeticError, and over ten seeds the "
        "quartile spread was 0.25 of the median for verdicts_per_s and 0.34 "
        "for verdict_tail_s, above the largest allowed bound of 0.25; the "
        "longer runs that would steady it do not fit the time budget of a "
        "three-workload benchmark"),
}

# Acceptance criteria 01-02 use 1e-8 for all three folded residuals.
KERNEL_TOL = 1e-8

# (Re t, Im t, |lam_check|, arg lam_check) ranges.  kernel_direct is the
# domain of the acceptance fixture _grid_50; kernel_extended lies beyond the
# direct strip, so log_g walks difference-equation extension steps.  Neither
# is narrowed around known failures: those count in the pass share.
KERNEL_DOMAINS = {
    "kernel_direct": ((0.2, 0.65), (0.21, 0.99), (0.05, 0.3), (-1.4, 1.4)),
    "kernel_extended": ((1.05, 1.6), (0.3, 0.8), (0.15, 0.3), (-0.8, 0.8)),
}

# Untimed warm-up inputs, fixed so that set-up does the same work for every
# seed.  Timed inputs are drawn from continuous ranges and never repeat them.
KERNEL_WARMUP = {
    "kernel_direct": (0.3 + 0.4j, 0.1 + 0.1j),
    "kernel_extended": (1.3 + 0.55j, 0.2 + 0.05j),
}
CLI_WARMUP = ("disp", "check", "--grid", "32", "--zeta", "0.15+0.1i")

# One cli_flows round runs every subcommand once, in this order.
CLI_CLASSES = (
    "specfun.bernoulli", "specfun.polylog", "gw.genus", "hirota.check",
    "al.N64", "al.N4096", "disp.run.1z", "disp.run.1zt", "disp.run.4z",
    "disp.run.4zt", "disp.check",
)
AL_STEPS = {64: 1000, 4096: 200}
JITTER = 0.05


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def kernel_point(workload: str, seed: int, index: int):
    """Point ``index`` of a Halton sequence, jittered by the seed.

    The first points of the sequence cover the domain evenly, and the seed
    moves each of them by at most JITTER/2 of each range.  So no two seeds
    share an input, while every run times the same mix of cheap and costly
    points: with fully random points the run-to-run spread of the timing
    medians was 0.17-0.28 of the median at 30 s per run.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    u = [JITTER / 2 + (1 - JITTER) * _radical_inverse(index + 1, b)
         + JITTER * (rng.random() - 0.5) for b in (2, 3, 5, 7)]
    (re0, re1), (im0, im1), (r0, r1), (a0, a1) = KERNEL_DOMAINS[workload]
    t = complex(re0 + (re1 - re0) * u[0], im0 + (im1 - im0) * u[1])
    lam = (r0 + (r1 - r0) * u[2]) * cmath.exp(1j * (a0 + (a1 - a0) * u[3]))
    return t, lam


def _c(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def cli_argv(seed: int, index: int) -> tuple[str, list[str]]:
    """Subcommand label and arguments of cli_flows verdict ``index``.

    Parameters vary around the README examples.  ``disp check`` keeps the
    README zeta and seed: varying either makes check_density_constraint
    fail its 1e-6 tolerance on a few per cent of inputs (its finite
    differences straddle a log branch cut), which would fail whole runs.
    """
    label = CLI_CLASSES[index % len(CLI_CLASSES)]
    rng = random.Random(f"cli_flows:{seed}:{index}")
    if label == "specfun.bernoulli":
        return label, ["specfun", "eval", "--bernoulli", str(rng.randint(4, 40))]
    if label == "specfun.polylog":
        # Re z >= 0: argparse reads a value such as "-0.3+0.1i" as an option
        z = rng.uniform(0.3, 0.7) * cmath.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2))
        return label, ["specfun", "eval", "--polylog", str(rng.choice((2, 3))), _c(z)]
    if label == "gw.genus":
        t = complex(rng.uniform(0.1, 0.5), rng.uniform(0.3, 0.6))
        return label, ["gw", "eval", "--genus", str(rng.randint(1, 4)), "--t", _c(t)]
    if label == "hirota.check":
        return label, ["hirota", "check", "--sites", str(rng.randint(5, 7)),
                       "--seed", str(rng.randrange(10 ** 6))]
    if label.startswith("al."):
        n = int(label[4:])
        wave = (f"A={rng.uniform(0.2, 0.4):.17g},B={rng.uniform(0.1, 0.3):.17g},"
                f"mode={rng.randint(1, 4 if n == 64 else 64)}")
        return label, ["al", "run", "--N", str(n), "--dt", "1e-3",
                       "--steps", str(AL_STEPS[n]), "--planewave", wave]
    if label.startswith("disp.run."):
        # 100 RK4 steps as in the README, over half its T: at T = 0.1 flow 4
        # meets a gradient catastrophe (a correctly failed run) for about one
        # seed in 640, the earliest seen at t = 0.086
        flow, direction = label[9], label[10:]
        return label, ["disp", "run", "--grid", "64", "--T", "0.05", "--dt", "5e-4",
                       "--flow", flow, "--direction", direction,
                       "--seed", str(rng.randrange(10 ** 6))]
    t = complex(rng.uniform(0.2, 0.4), rng.uniform(0.3, 0.5))
    return label, ["disp", "check", "--grid", str(rng.choice((16, 32, 48, 64))),
                   "--zeta", "0.15+0.1i", "--t", _c(t),
                   "--x", f"{rng.uniform(0.5, 0.9):.17g}"]


def kernel_verdict(cf, workload: str, index: int, t: complex, lam: complex) -> dict:
    """The acceptance fixture's quartet at one point, checked at 1e-8.

    Calls go through module attributes, in the fixture's order, so that a
    traced run sees them.
    """
    barnes, gw = cf.barnes, cf.gw
    rep = gw.difference_equation_report(lam, t)
    lh_t = barnes.log_h(t, lam, 1.0)
    lh_tp = barnes.log_h(t + lam, lam, 1.0)
    lg_t = barnes.log_g(t, lam, 1.0)
    lg_tp = barnes.log_g(t + lam, lam, 1.0)
    h_rhs = -cmath.log(1 - cmath.exp(2j * math.pi * t))
    residuals = {
        "second_difference": abs(rep["residual"]),
        "h_step": abs(barnes.fold_2pii((lh_tp - lh_t) - h_rhs)[0]),
        "g_step": abs(barnes.fold_2pii((lg_tp - lg_t) + lh_tp)[0]),
    }
    tolerances = {k: KERNEL_TOL for k in residuals}
    ok = all(residuals[k] <= tolerances[k] for k in residuals)
    record = {
        "workload": workload, "index": index, "t": t, "lam_check": lam,
        "second_difference": rep["second_difference"],
        "rhs_closed_form": rep["rhs_closed_form"],
        "winding": rep["winding"],
        "log_h": [lh_t, lh_tp], "log_g": [lg_t, lg_tp],
        "residuals": residuals, "tolerances": tolerances,
        "status": "pass" if ok else "fail",
    }
    return {"status": record["status"],
            "error": None if ok else "above 1e-8: " + ", ".join(
                f"{k} = {v:.3g}" for k, v in residuals.items() if v > KERNEL_TOL),
            "bytes": cf.reporting.dump_json(record).encode("ascii"),
            "checks": {k: (residuals[k], KERNEL_TOL) for k in residuals}}


def _tolerance_for(key: str, tolerances: dict):
    """Tolerance of a report residual: same key, or a key it extends with
    '_<suffix>' (disp check's density_h is held to 'density')."""
    for tol_key, tol in tolerances.items():
        if key == tol_key or key.startswith(tol_key + "_"):
            return float(tol)
    return None


def cli_verdict(cf, argv: list[str], out_path: str) -> dict:
    """One in-process ``cli.main`` run with ``--out``; passes on exit code 0
    with report status "pass"."""
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cf.cli.main(["--out", out_path] + argv)
    if code not in (0, 1):
        record = {"argv": argv, "exit": code, "stderr": err.getvalue()}
        return {"status": "error", "error": f"exit {code}: {err.getvalue().strip()}",
                "checks": {}, "bytes": cf.reporting.dump_json(record).encode("ascii")}
    with open(out_path, "rb") as fh:
        data = fh.read()
    report = json.loads(data)
    checks = {}
    for key, value in report["residuals"].items():
        tol = _tolerance_for(key, report["tolerances"])
        if tol is not None:
            checks[key] = (float(value), tol)
    ok = code == 0 and report["status"] == "pass"
    over = ", ".join(f"{k} = {r:.3g} > {tol:.3g}" for k, (r, tol) in checks.items() if r > tol)
    return {"status": "pass" if ok else "fail", "bytes": data, "checks": checks,
            "error": None if ok else f"exit {code}, status {report['status']}: {over}"}
