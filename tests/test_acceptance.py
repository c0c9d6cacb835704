"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [ACCEPTANCE nn] PASS/FAIL line with the measured
quantity before asserting, so a -v run shows one verdict per criterion and
failures carry the numbers.
"""
import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import test_disp
from conifold_flows.barnes import (
    barnes_zeta,
    fold_2pii,
    log_g,
    log_h,
    log_multiple_gamma,
)
from conifold_flows.disp import (
    GridFunction,
    check_density_constraint,
    check_hamiltonian_form,
    check_principal_identification,
    check_xdif,
    classical_varpi,
    flow_rhs,
    spectral_derivative,
    u_from_r,
)
from conifold_flows.gw import (
    asymptotic_remainder_scan,
    constant_map_contribution,
    difference_equation_report,
    free_energy_genus,
    fugacity,
)
from conifold_flows.hirota import (
    HIROTA_EQUATION_IDS,
    TauTriple,
    extract_time_derivatives,
    first_order_claim_residual,
    hirota_residual,
    tau_from_lattice,
)
from conifold_flows.lattice import (
    LatticeState,
    PlaneWaveParams,
    al_rhs,
    integrate,
)
from conifold_flows.specfun import polylog


def _verdict(num: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _grid_50():
    """Deterministic 50-point sweep: Im t in (0.2, 1), Re t in [0.2, 0.65],
    coupling in the right half-plane with modulus in [0.05, 0.3].  Radii
    track Im t so shifted arguments keep positive imaginary part."""
    pts = []
    for k in range(50):
        frac = k / 49
        t = 0.2 + 0.45 * ((7 * k) % 50) / 49 + 1j * (0.21 + 0.78 * frac)
        rad = 0.05 + 0.25 * frac
        phase = -1.4 + 2.8 * ((3 * k) % 50) / 49
        pts.append((t, rad * cmath.exp(1j * phase)))
    return pts


@pytest.fixture(scope="module")
def grid_residuals():
    diff, h_res, g_res = [], [], []
    for t, lam in _grid_50():
        rep = difference_equation_report(lam, t)
        diff.append(abs(rep["residual"]))
        lh_t = log_h(t, lam, 1.0)
        lh_tp = log_h(t + lam, lam, 1.0)
        lg_t = log_g(t, lam, 1.0)
        lg_tp = log_g(t + lam, lam, 1.0)
        h_rhs = -cmath.log(1 - cmath.exp(2j * math.pi * t))
        h_res.append(abs(fold_2pii((lh_tp - lh_t) - h_rhs)[0]))
        g_res.append(abs(fold_2pii((lg_tp - lg_t) + lh_tp)[0]))
    return {"diff": diff, "h": h_res, "g": g_res}


def test_criterion_01_second_difference_matches_log_one_minus_q(grid_residuals):
    worst = max(grid_residuals["diff"])
    _verdict(1, worst <= 1e-8,
             f"max folded residual of the second difference = {worst:.3e} "
             f"(tol 1e-08, 50 points)")


def test_criterion_02_kernel_difference_relations(grid_residuals):
    worst_h = max(grid_residuals["h"])
    worst_g = max(grid_residuals["g"])
    ok = worst_h <= 1e-8 and worst_g <= 1e-8
    _verdict(2, ok,
             f"max folded residuals: H-step = {worst_h:.3e}, "
             f"G-step vs H = {worst_g:.3e} (tol 1e-08, 50 points)")


def test_criterion_03_truncation_remainder_slopes():
    t = 0.35 + 0.35j
    q = fugacity(t)
    eps = list(np.geomspace(1e-2, 1e-1, 5))
    slopes = {g: asymptotic_remainder_scan(t, math.pi / 4, eps, genus_cap=g)
              for g in (2, 3)}
    pin1 = abs(complex(free_energy_genus(1, t))
               - complex(polylog(1, q)) / 12)
    pin2 = abs(complex(free_energy_genus(2, t))
               - complex(polylog(-1, q)) / 240)
    ok = (abs(q) <= 0.5 and pin1 <= 1e-12 and pin2 <= 1e-12
          and all(abs(slopes[g] - 2 * g) <= 0.2 for g in (2, 3)))
    _verdict(3, ok,
             f"slopes {{2: {slopes[2]:.3f}, 3: {slopes[3]:.3f}}} vs 2*cap "
             f"(band 0.2); genus-1/2 pins {pin1:.1e}, {pin2:.1e}; "
             f"|q| = {abs(q):.3f}")


def test_criterion_04_multiple_zeta_reductions():
    # rank-1 reduction to the Hurwitz function
    worst_hurwitz = 0.0
    for s in (2.5, 1.3, 0.4, -0.7, 1.5 + 0.5j):
        for z, w in [(0.65, 1.0), (1.3 + 0.4j, 1.0), (0.8, 1.7)]:
            got = barnes_zeta(s, z, (w,))
            want = complex(mp.zeta(s, complex(z) / w) * mp.mpc(w) ** (-s))
            worst_hurwitz = max(worst_hurwitz,
                                abs(got - want) / max(1.0, abs(want)))

    # shift identity across ranks, twenty seeded draws
    rng = np.random.default_rng(42)
    worst_shift = 0.0
    draws = 0
    while draws < 20:
        r = 2 if draws % 2 == 0 else 3
        s = 0.6 + 2.4 * rng.random() + 0.3j * (rng.random() - 0.5)
        if min(abs(s - k) for k in range(1, r + 1)) < 0.15:
            continue
        z = 0.6 + rng.random() + 0.4j * (rng.random() - 0.5)
        omega = tuple(0.7 + rng.random(r) + 0.2j * (rng.random(r) - 0.5))
        lhs = (barnes_zeta(s, z + omega[-1], omega)
               - barnes_zeta(s, z, omega))
        rhs = -barnes_zeta(s, z, omega[:r - 1])
        worst_shift = max(worst_shift, abs(lhs - rhs) / max(1.0, abs(rhs)))
        draws += 1

    # rank-1 gamma normalization
    worst_gamma = 0.0
    for z in (0.3, 1.7, 2.5):
        got = log_multiple_gamma(z, (1.0,))
        want = complex(mp.loggamma(z) - mp.log(2 * mp.pi) / 2)
        worst_gamma = max(worst_gamma, abs(got - want) / abs(want))

    ok = worst_hurwitz <= 1e-10 and worst_shift <= 1e-9 and worst_gamma <= 1e-9
    _verdict(4, ok,
             f"Hurwitz reduction {worst_hurwitz:.2e} (tol 1e-10), "
             f"shift identity {worst_shift:.2e} (tol 1e-09, 20 draws), "
             f"gamma normalization {worst_gamma:.2e} (tol 1e-09)")


def test_criterion_05_lattice_plane_wave_integration():
    pw = PlaneWaveParams(sites=64, mode=2, amp_a=0.3, amp_b=0.2)
    traj = integrate(pw.state_at(0.0), steps=10000, dt=1e-3, sample_every=1000)
    final = traj.states[-1]
    exact = pw.state_at(final.time)
    err = max(float(np.max(np.abs(final.a - exact.a))),
              float(np.max(np.abs(final.b - exact.b))))
    drift = traj.conserved_drift()

    def halving_error(dt, steps):
        run = integrate(pw.state_at(0.0), steps=steps, dt=dt,
                        sample_every=steps)
        last = run.states[-1]
        ref = pw.state_at(last.time)
        return float(np.max(np.abs(last.a - ref.a)))

    order = math.log2(halving_error(2e-2, 50) / halving_error(1e-2, 100))
    ok = err <= 1e-6 and drift <= 1e-9 and abs(order - 4.0) <= 0.2
    _verdict(5, ok,
             f"plane-wave error at t=10: {err:.3e} (tol 1e-06), "
             f"conserved drift {drift:.3e} (tol 1e-09), "
             f"step-halving order {order:.3f} (4 +/- 0.2)")


def test_criterion_06_bilinear_flows_close():
    # vacuum: all six bilinear residuals vanish identically
    n = 9
    vacuum = TauTriple.from_numbers([0.0] * n, [0.0] * n, [1.0] * n,
                                    first_site=0)
    vacuum_exact = all(series.is_zero()
                       for eq in HIROTA_EQUATION_IDS
                       for series in hirota_residual(vacuum, eq, 1).values())

    # order 0-1 claims on tau data built from a random lattice state
    rng = np.random.default_rng(21)
    a = list(0.4 * (rng.random(n) - 0.5) + 0.4j * (rng.random(n) - 0.5))
    b = list(0.4 * (rng.random(n) - 0.5) + 0.4j * (rng.random(n) - 0.5))
    triple = tau_from_lattice(a, b, first_site=0)
    claim_max = max(first_order_claim_residual(triple).values())

    # the two flow directions combine to the lattice right side
    d = extract_time_derivatives(triple)
    state = LatticeState(np.array(a), np.array(b))
    da, db = al_rhs(state)
    combined = 0.0
    for m in triple.interior:
        combined = max(
            combined,
            abs(complex((d.da_z[m] + d.da_zt[m]).constant_term()) - da[m]),
            abs(complex((d.db_z[m] + d.db_zt[m]).constant_term()) - db[m]))

    ok = vacuum_exact and claim_max <= 1e-12 and combined <= 1e-12
    _verdict(6, ok,
             f"vacuum identically zero: {vacuum_exact}; first-order claim "
             f"max {claim_max:.3e} (tol 1e-12); combined flow vs lattice "
             f"rhs {combined:.3e} (tol 1e-12)")


def test_criterion_07_hydrodynamic_flow_coefficients():
    fields = test_disp._fields(seed=7)
    worst = 0.0
    for direction in ("z", "zt"):
        for j in (1, 2, 3, 4):
            du, dv = flow_rhs(fields, j, direction)
            odu, odv = test_disp.oracle_flow_rhs(fields, j, direction)
            scale = max(np.max(np.abs(odu)), np.max(np.abs(odv)), 1e-300)
            worst = max(worst,
                        float(np.max(np.abs(du.values - odu))) / scale,
                        float(np.max(np.abs(dv.values - odv))) / scale)

    u = fields.u.total_values()
    v = fields.v.total_values()
    du1, dv1 = flow_rhs(fields, 1, "z")
    length = fields.u.length
    closed = max(
        float(np.max(np.abs(
            dv1.values + 1j * spectral_derivative(np.exp(v - u), length)))),
        float(np.max(np.abs(
            du1.values
            - 1j * spectral_derivative(np.exp(v) * (1 - np.exp(-u)), length)))))

    ok = worst <= 1e-12 and closed <= 1e-12
    _verdict(7, ok,
             f"flow coefficients j<=4 vs series oracle {worst:.3e} "
             f"(tol 1e-12); first-flow closed forms {closed:.3e}")


def test_criterion_08_density_constraint_and_hamiltonian_form():
    dens = {d: check_density_constraint(direction=d) for d in ("z", "zt")}
    dens_worst = max(rep["max_residual"] for rep in dens.values())
    signs_ok = all(rep["constraint_sign"] == -1 for rep in dens.values())
    fppp = max(rep["fppp_identity_error"] for rep in dens.values())

    fields = test_disp._fields(seed=3, amp=0.2)
    ham = {d: check_hamiltonian_form(0.12 + 0.08j, fields, d)
           for d in ("z", "zt")}
    ham_worst = max(rep["max_residual"] for rep in ham.values())

    ok = (dens_worst <= 1e-6 and signs_ok and fppp <= 1e-12
          and ham_worst <= 1e-6)
    _verdict(8, ok,
             f"density constraint {dens_worst:.3e} (tol 1e-06, 20 points "
             f"per family, uniform sign: {signs_ok}, f''' identity "
             f"{fppp:.1e}); Hamiltonian-form consistency {ham_worst:.3e} "
             f"(tol 1e-06)")


def test_criterion_09_shift_relation_and_identification():
    n, length = 32, 2.0

    # exactness on a generic quadratic potential
    alpha = 0.3 + 0.2j
    r_quad = GridFunction(length,
                          np.full(n, 0.5 * cmath.log(1 - cmath.exp(2 * alpha))))
    quad = check_xdif(lambda x: alpha * x * x - 0.7 * x + 1.1j,
                      r_quad, 0.23 + 0.11j)["max_residual"]

    # classical potential at unit scaling pins u = -2 pi i t
    t = 0.3 + 0.4j
    r_cl = GridFunction(length,
                        np.full(n, 0.5 * cmath.log(1 - cmath.exp(2j * math.pi * t))))
    classical = check_xdif(classical_varpi(t, 1.0), r_cl, 0.2)["max_residual"]
    u_gap = float(np.max(np.abs(u_from_r(r_cl).values - (-2j * math.pi * t))))

    # both-sign identification report; exact agreement at x = 0
    rep = check_principal_identification(t, 0.7)
    zero = check_principal_identification(t, 0.0)
    ident_ok = (rep["match_sign"] == "plus"
                and abs(rep["difference_plus_sign"]) <= 1e-12
                and abs(rep["difference_minus_sign"]) > 1.0
                and zero["difference_plus_sign"] == 0
                and zero["difference_minus_sign"] == 0)

    ok = (quad <= 1e-12 and classical <= 1e-12 and u_gap <= 1e-12
          and ident_ok)
    _verdict(9, ok,
             f"quadratic second difference {quad:.3e}; classical potential "
             f"{classical:.3e}; u vs -2 pi i t gap {u_gap:.3e}; "
             f"identification sign {rep['match_sign']!r} with plus-branch "
             f"gap {abs(rep['difference_plus_sign']):.1e} and exact x=0")


def test_criterion_10_constant_map_value():
    got = constant_map_contribution(2, 2)
    ok = got == Fraction(1, 2880)
    _verdict(10, ok, f"degree-zero genus-2 contribution = {got} "
                     f"(expected 1/2880, exact rational)")
