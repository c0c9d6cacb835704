"""Command-line interface.

Every subcommand evaluates, checks, or simulates through the library and
writes a deterministic JSON report:

    {"schema": 1, "command": ..., "params": ..., "results": ...,
     "residuals": ..., "tolerances": ..., "status": "pass"|"fail"}

Floats are serialized with 17 significant digits and keys are sorted, so
identical configurations produce byte-identical reports.  Exit code 0
means all checks passed (or the command was a pure evaluation), 1 means a
check ran and failed, 2 means the parameters were invalid or a domain
error occurred (message on standard error).
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import barnes, disp, gw, hirota, lattice, specfun
from .errors import (DomainError, GradientCatastropheError, PoleError,
                     SingularStateError)
from .reporting import dump_json, parse_complex, write_json

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_ERROR = 2


def _held(name: str, residual, tolerances: dict) -> bool:
    """Whether a residual is within every tolerance that names it: that of
    the same key, or of a key it extends as <key>_ (density_h is held to
    density).  A residual that no tolerance names, or a NaN, is not held."""
    tols = [tol for key, tol in tolerances.items()
            if name == key or name.startswith(key + "_")]
    return bool(tols) and all(residual <= tol for tol in tols)


def _report(command: str, params: dict, results: dict,
            residuals: dict | None = None,
            tolerances: dict | None = None) -> dict:
    """The report of one command; it fails if the run aborted or if one of
    its residuals is not held by its tolerances."""
    residuals, tolerances = residuals or {}, tolerances or {}
    ok = not results.get("aborted") and all(
        _held(name, r, tolerances) for name, r in residuals.items())
    return {
        "schema": 1,
        "command": command,
        "params": params,
        "results": results,
        "residuals": residuals,
        "tolerances": tolerances,
        "status": "pass" if ok else "fail",
    }


def _emit(report: dict, out_path: str | None) -> None:
    if out_path:
        write_json(out_path, report)
    else:
        sys.stdout.write(dump_json(report))


def _omega_list(text: str):
    return tuple(parse_complex(p) for p in text.split(",") if p.strip())


# ---------------------------------------------------------------------------
# specfun eval


def _cmd_specfun_eval(args) -> dict:
    if args.bernoulli is not None:
        n = args.bernoulli
        val = specfun.bernoulli_number(n)
        return _report("specfun eval", {"bernoulli": n}, {"value": val})
    if args.polylog is not None:
        s_txt, z_txt = args.polylog
        s = int(s_txt)
        z = parse_complex(z_txt)
        val = specfun.polylog(s, z)
        return _report("specfun eval", {"polylog_order": s, "argument": z},
                       {"value": val})
    raise DomainError("specfun eval needs --bernoulli or --polylog")


# ---------------------------------------------------------------------------
# barnes eval


def _cmd_barnes_eval(args) -> dict:
    fn = args.function
    if fn in ("zeta", "log-gamma", "log-sine"):
        z, omega = parse_complex(args.z), _omega_list(args.omega)
        params = {"function": fn, "z": z, "omega": list(omega)}
        if fn == "zeta":
            if args.s is None:
                raise DomainError("barnes eval --function zeta needs --s")
            params["s"] = parse_complex(args.s)
            val = barnes.barnes_zeta(params["s"], z, omega, args.quad_tol)
        elif fn == "log-gamma":
            val = barnes.log_multiple_gamma(z, omega, args.quad_tol)
        else:
            val = barnes.log_multiple_sine(z, omega, args.quad_tol)
        return _report("barnes eval", params, {"value": complex(val)})
    if fn == "log-h":
        omega = _omega_list(args.omega)
        if len(omega) != 2:
            raise DomainError("log-h needs --omega w1,w2")
        t = parse_complex(args.t)
        val = barnes.log_h(t, omega[0], omega[1], quad_tol=args.quad_tol)
        return _report("barnes eval",
                       {"function": fn, "t": t, "omega": list(omega)},
                       {"value": complex(val)})
    if fn == "log-g":
        t = parse_complex(args.t)
        lam = parse_complex(args.lam)
        val = barnes.nonperturbative_potential(lam, t, args.quad_tol)
        return _report("barnes eval",
                       {"function": fn, "t": t, "lam_check": lam},
                       {"value": complex(val)})
    raise DomainError(f"unknown barnes function {fn!r}")


# ---------------------------------------------------------------------------
# gw


def _cmd_gw_eval(args) -> dict:
    t = parse_complex(args.t)
    if args.genus is not None:
        val = gw.free_energy_genus(args.genus, t)
        return _report("gw eval", {"genus": args.genus, "t": t},
                       {"value": complex(val)})
    if args.potential:
        lam = parse_complex(args.lam)
        x = parse_complex(args.x)
        kappa = parse_complex(args.kappa)
        val = gw.equivariant_potential(lam, t, x, kappa)
        return _report("gw eval",
                       {"potential": True, "lam_check": lam, "t": t,
                        "x": x, "kappa": kappa},
                       {"value": complex(val)})
    raise DomainError("gw eval needs --genus or --potential")


def _cmd_gw_check_diff(args) -> dict:
    t = parse_complex(args.t)
    lam = parse_complex(args.lam)
    rep = gw.difference_equation_report(lam, t, quad_tol=args.quad_tol)
    resid = abs(rep["residual"])
    return _report(
        "gw check-diff",
        {"t": t, "lam_check": lam},
        {"second_difference": rep["second_difference"],
         "rhs_closed_form": rep["rhs_closed_form"],
         "rhs_squared_derivative": rep["rhs_squared_derivative"],
         "fold_winding": rep["winding"]},
        residuals={"difference_equation": resid},
        tolerances={"difference_equation": args.tol})


def _cmd_gw_scan(args) -> dict:
    t = parse_complex(args.t)
    eps_lo, eps_hi = (float(p) for p in args.eps.split(","))
    eps_list = list(np.geomspace(eps_lo, eps_hi, args.points))
    genus_list = [int(g) for g in args.genus.split(",")]
    slopes = {f"genus_cap_{g}": gw.asymptotic_remainder_scan(
        t, args.theta, eps_list, genus_cap=g) for g in genus_list}
    return _report(
        "gw scan-asymptotics",
        {"t": t, "theta": args.theta, "eps_lo": eps_lo, "eps_hi": eps_hi,
         "points": args.points, "genus_caps": genus_list},
        {"slopes": slopes,
         "expected": {f"genus_cap_{g}": 2 * g for g in genus_list}},
        residuals={f"genus_cap_{g}": abs(slopes[f"genus_cap_{g}"] - 2 * g)
                   for g in genus_list},
        tolerances={"genus_cap": args.band})


# ---------------------------------------------------------------------------
# hirota check


def _cmd_hirota_check(args) -> dict:
    rng = np.random.default_rng(args.seed)
    n = args.sites
    if n < 5:
        raise DomainError("first-order claims need at least five sites "
                          "(the window shrinks twice)")
    a = 0.4 * (rng.random(n) - 0.5) + 0.4j * (rng.random(n) - 0.5)
    b = 0.4 * (rng.random(n) - 0.5) + 0.4j * (rng.random(n) - 0.5)
    triple = hirota.tau_from_lattice(list(a), list(b), first_site=-(n // 2))

    vacuum = hirota.TauTriple.from_numbers([0.0] * n, [0.0] * n, [1.0] * n,
                                           first_site=-(n // 2))
    vacuum_max = max(series.max_abs()
                     for res in hirota.hirota_residuals(vacuum, 1).values()
                     for series in res.values())

    claims = hirota.first_order_claim_residual(triple)
    worst = max(claims.values())
    return _report(
        "hirota check",
        {"seed": args.seed, "sites": n},
        {"per_equation": claims, "vacuum_identically_zero": vacuum_max == 0.0},
        residuals={"first_order_max": worst, "vacuum_max": vacuum_max},
        tolerances={"first_order_max": args.tol, "vacuum_max": 0.0})


# ---------------------------------------------------------------------------
# al run


_K_PATTERN = re.compile(r"^(?:(\d+)\*)?2(?:pi|π)/(\d+)$")


def _parse_planewave(text: str, n: int) -> lattice.PlaneWaveParams:
    amp_a = amp_b = None
    mode = None
    for part in text.split(","):
        if "=" not in part:
            raise DomainError(f"bad plane-wave component {part!r}")
        key, val = part.split("=", 1)
        key = key.strip()
        if key == "A":
            amp_a = parse_complex(val)
        elif key == "B":
            amp_b = parse_complex(val)
        elif key == "mode":
            mode = int(val)
        elif key == "k":
            m = _K_PATTERN.match(val.strip())
            if not m:
                raise DomainError(
                    f"wavenumber {val!r} must look like 2pi/64 or 3*2pi/64")
            mult = int(m.group(1) or 1)
            denom = int(m.group(2))
            if denom == 0:
                raise DomainError(f"wavenumber {val!r} divides by zero")
            if (mult * n) % denom:
                raise DomainError(
                    f"wavenumber {val!r} is incommensurate with N = {n}")
            mode = (mult * n) // denom
        else:
            raise DomainError(f"unknown plane-wave key {key!r}")
    if amp_a is None or amp_b is None or mode is None:
        raise DomainError("plane wave needs A=..., B=..., and k=... or mode=...")
    return lattice.PlaneWaveParams(sites=n, mode=mode, amp_a=amp_a, amp_b=amp_b)


def _cmd_al_run(args) -> dict:
    pw = _parse_planewave(args.planewave, args.sites)
    params = {"sites": args.sites, "dt": args.dt, "steps": args.steps,
              "mode": pw.mode, "amp_a": pw.amp_a, "amp_b": pw.amp_b}
    state = pw.state_at(0.0)
    try:
        traj = lattice.integrate(state, args.steps, args.dt,
                                 sample_every=max(1, args.steps // 10))
    except SingularStateError as exc:
        return _report("al run", params,
                       {"aborted": True, "reason": str(exc)})
    final = traj.states[-1]
    exact = pw.state_at(final.time)
    max_err = max(float(np.max(np.abs(final.a - exact.a))),
                  float(np.max(np.abs(final.b - exact.b))))
    drift = traj.conserved_drift()
    if args.csv:
        lattice.export_trajectory(traj, args.csv, args.csv + ".meta.json",
                                  {"mode": pw.mode,
                                   "amp_a": pw.amp_a, "amp_b": pw.amp_b})
    return _report(
        "al run", params,
        {"final_time": final.time,
         "frequency": pw.frequency,
         "conserved_initial": traj.conserved[0],
         "conserved_final": traj.conserved[-1]},
        residuals={"max_error_vs_analytic": max_err,
                   "conserved_drift": drift},
        tolerances={"max_error_vs_analytic": args.tol,
                    "conserved_drift": args.drift_tol})


# ---------------------------------------------------------------------------
# disp run / disp check


def _initial_fields(n: int, length: float, seed: int):
    # the grid checks its length and point count before its nodes divide by n
    x = disp.GridFunction(length, np.arange(n)).nodes
    rng = np.random.default_rng(seed)
    tp = 2.0 * math.pi / length

    def profile(scale):
        c = scale * (rng.random(4) - 0.5 + 1j * (rng.random(4) - 0.5))
        return (c[0] * np.cos(tp * x) + c[1] * np.sin(tp * x)
                + c[2] * np.cos(2 * tp * x) + c[3] * np.sin(2 * tp * x))

    u = disp.GridFunction(length, 1.0 + profile(0.08))
    v = disp.GridFunction(length, profile(0.08))
    return disp.DispersionlessFields(u, v)


def _cmd_disp_run(args) -> dict:
    fields = _initial_fields(args.grid, args.length, args.seed)
    params = {"grid": args.grid, "length": args.length, "seed": args.seed,
              "flow_index": args.flow, "direction": args.direction,
              "T": args.T, "dt": args.dt}
    try:
        out = disp.evolve_dispersionless(fields, args.flow, args.direction,
                                         args.T, dt=args.dt)
    except GradientCatastropheError as exc:
        return _report("disp run", params,
                       {"aborted": True, "catastrophe_time": exc.time})
    if args.csv:
        disp.export_fields(out, args.csv, args.csv + ".meta.json",
                           {"T": args.T, "dt": args.dt})
    g0 = fields.u.derivative().max_abs()
    g1 = out.u.derivative().max_abs()
    return _report(
        "disp run", params,
        {"final_max_u": out.u.max_abs(), "final_max_v": out.v.max_abs(),
         "gradient_initial": g0, "gradient_final": g1})


def _cmd_disp_check(args) -> dict:
    fields = _initial_fields(args.grid, args.length, args.seed)
    zeta0 = parse_complex(args.zeta)

    ham_z = disp.check_hamiltonian_form(zeta0, fields, "z")
    ham_zt = disp.check_hamiltonian_form(zeta0, fields, "zt")
    density_h = disp.check_density_constraint("z", zeta0=zeta0, seed=args.seed)
    density_ht = disp.check_density_constraint("zt", zeta0=zeta0, seed=args.seed)
    pid = disp.check_principal_identification(parse_complex(args.t),
                                              parse_complex(args.x))

    residuals = {
        "density_h": density_h["max_residual"],
        "density_ht": density_ht["max_residual"],
        "fppp_identity": density_h["fppp_identity_error"],
        "hamiltonian_form_z": ham_z["max_residual"],
        "hamiltonian_form_zt": ham_zt["max_residual"],
        "identification_best_sign": min(
            abs(pid["difference_plus_sign"]), abs(pid["difference_minus_sign"])),
    }
    return _report(
        "disp check",
        {"grid": args.grid, "length": args.length, "seed": args.seed,
         "zeta": zeta0, "t": parse_complex(args.t), "x": parse_complex(args.x)},
        {"density_constraint_sign_h": density_h["constraint_sign"],
         "density_constraint_sign_ht": density_ht["constraint_sign"],
         "density_residual_factor_plus": density_h["residual_factor_plus"],
         "density_residual_factor_minus": density_h["residual_factor_minus"],
         "recombination_signs": ham_z["recombination_signs"],
         "identification_match_sign": pid["match_sign"],
         "identification_difference_plus": pid["difference_plus_sign"],
         "identification_difference_minus": pid["difference_minus_sign"]},
        residuals=residuals,
        tolerances={"density": args.tol, "fppp_identity": args.tol,
                    "hamiltonian_form": args.tol, "identification": args.tol})


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="conifold-flows",
        description="Evaluations, identity checks, and simulations for the "
                    "conifold flow laboratory")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = p.add_subparsers(dest="group", required=True)

    sp = sub.add_parser("specfun", help="special-function evaluations")
    spsub = sp.add_subparsers(dest="action", required=True)
    spe = spsub.add_parser("eval")
    spe.add_argument("--bernoulli", type=int)
    spe.add_argument("--polylog", nargs=2, metavar=("S", "Z"))
    spe.set_defaults(handler=_cmd_specfun_eval)

    bp = sub.add_parser("barnes", help="multi-parameter gamma/sine layer")
    bpsub = bp.add_subparsers(dest="action", required=True)
    bpe = bpsub.add_parser("eval")
    bpe.add_argument("--function", default="log-gamma",
                     choices=["zeta", "log-gamma", "log-sine", "log-h", "log-g"])
    bpe.add_argument("--z", default="0.7")
    bpe.add_argument("--s")
    bpe.add_argument("--t", default="0.3+0.4i")
    bpe.add_argument("--lam", default="0.2")
    bpe.add_argument("--omega", default="1")
    bpe.add_argument("--quad-tol", type=float, default=1e-12)
    bpe.set_defaults(handler=_cmd_barnes_eval)

    gp = sub.add_parser("gw", help="free energies and difference equations")
    gpsub = gp.add_subparsers(dest="action", required=True)
    gpe = gpsub.add_parser("eval")
    gpe.add_argument("--genus", type=int)
    gpe.add_argument("--potential", action="store_true")
    gpe.add_argument("--t", default="0.3+0.4i")
    gpe.add_argument("--lam", default="0.2")
    gpe.add_argument("--x", default="0")
    gpe.add_argument("--kappa", default="1")
    gpe.set_defaults(handler=_cmd_gw_eval)
    gpc = gpsub.add_parser("check-diff")
    gpc.add_argument("--t", default="0.3+0.4i")
    gpc.add_argument("--lambda", dest="lam", default="0.1+0.1i")
    gpc.add_argument("--tol", type=float, default=1e-8)
    gpc.add_argument("--quad-tol", type=float, default=1e-12)
    gpc.set_defaults(handler=_cmd_gw_check_diff)
    gps = gpsub.add_parser("scan-asymptotics")
    gps.add_argument("--t", default="0.35+0.35i")
    gps.add_argument("--theta", type=float, default=math.pi / 4)
    gps.add_argument("--genus", default="2,3")
    gps.add_argument("--eps", default="0.01,0.1")
    gps.add_argument("--points", type=int, default=8)
    gps.add_argument("--band", type=float, default=0.2)
    gps.set_defaults(handler=_cmd_gw_scan)

    hp = sub.add_parser("hirota", help="bilinear identity checks")
    hpsub = hp.add_subparsers(dest="action", required=True)
    hpc = hpsub.add_parser("check")
    hpc.add_argument("--seed", type=int, default=11)
    hpc.add_argument("--sites", type=int, default=5)
    hpc.add_argument("--tol", type=float, default=1e-12)
    hpc.set_defaults(handler=_cmd_hirota_check)

    ap = sub.add_parser("al", help="lattice simulation")
    apsub = ap.add_subparsers(dest="action", required=True)
    apr = apsub.add_parser("run")
    apr.add_argument("--N", dest="sites", type=int, default=64)
    apr.add_argument("--dt", type=float, default=1e-3)
    apr.add_argument("--steps", type=int, default=10000)
    apr.add_argument("--planewave", default="A=0.3,B=0.2,k=2pi/64")
    apr.add_argument("--tol", type=float, default=1e-6)
    apr.add_argument("--drift-tol", type=float, default=1e-9)
    apr.add_argument("--csv")
    apr.set_defaults(handler=_cmd_al_run)

    dp = sub.add_parser("disp", help="dispersionless flows")
    dpsub = dp.add_subparsers(dest="action", required=True)
    dpr = dpsub.add_parser("run")
    dpr.add_argument("--grid", type=int, default=64)
    dpr.add_argument("--length", type=float, default=2.0)
    dpr.add_argument("--seed", type=int, default=3)
    dpr.add_argument("--flow", type=int, default=1)
    dpr.add_argument("--direction", default="z", choices=["z", "zt"])
    dpr.add_argument("--T", type=float, default=0.1)
    dpr.add_argument("--dt", type=float, default=1e-3)
    dpr.add_argument("--csv")
    dpr.set_defaults(handler=_cmd_disp_run)
    dpc = dpsub.add_parser("check")
    dpc.add_argument("--grid", type=int, default=64)
    dpc.add_argument("--length", type=float, default=2.0)
    dpc.add_argument("--seed", type=int, default=3)
    dpc.add_argument("--zeta", default="0.15+0.1i")
    dpc.add_argument("--t", default="0.3+0.4i")
    dpc.add_argument("--x", default="0.7")
    dpc.add_argument("--tol", type=float, default=1e-6)
    dpc.set_defaults(handler=_cmd_disp_check)

    return p


# argparse takes a value such as -0.3+0.4i for an option name; main gives
# these a leading space, which parse_complex, int() and float() strip
_NEGATIVE_VALUE = re.compile(r"-[\d.]|-i$")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: parse_args leaves a parser as it found it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    argv = [" " + a if _NEGATIVE_VALUE.match(a) else a
            for a in (sys.argv[1:] if argv is None else argv)]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return _EXIT_ERROR if exc.code not in (0,) else 0
    try:
        # the pass/fail thresholds; --quad-tol is checked where it is used
        for name in ("tol", "drift_tol", "band"):
            value = getattr(args, name, None)
            if value is not None and not 0 < value < math.inf:
                raise DomainError(f"--{name.replace('_', '-')} = {value} "
                                  "must be finite and positive")
        report = args.handler(args)
    except (DomainError, PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    _emit(report, args.out)
    return _EXIT_PASS if report["status"] == "pass" else _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
