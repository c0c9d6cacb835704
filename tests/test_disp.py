"""Hydrodynamic-limit flows, Hamiltonian densities, and the Frobenius layer.

Oracles: a generic truncated-power-series engine expanded per grid point
(independent of the array-valued expansion code under test), printed
closed forms for the first flows, high-precision finite differences for the
density constraint, and exact quadratics for the shift relation.
"""
import cmath
import csv
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from conifold_flows import (DomainError, GradientCatastropheError,
                            TruncationOrderError, disp)
from conifold_flows.disp import (
    DispersionlessFields,
    FrobeniusData,
    GridFunction,
    PotentialField,
    check_density_constraint,
    check_hamiltonian_form,
    check_principal_identification,
    check_xdif,
    classical_varpi,
    delta_flow,
    evolve_dispersionless,
    export_fields,
    flow_generating_series,
    flow_rhs,
    hamiltonian_density,
    hamiltonian_gradients,
    recombined_flow,
    spectral_derivative,
    u_from_r,
)
from conifold_flows.series import SeriesRing, series_log, series_sqrt
from conifold_flows.specfun import dense_mul

N = 32
L = 2.0


def _fields(seed=3, amp=0.25, base_u=1.0):
    rng = np.random.default_rng(seed)
    x = np.arange(N) * (L / N)
    tp = 2 * math.pi / L

    def profile():
        c = amp * (rng.random(4) - 0.5 + 1j * (rng.random(4) - 0.5))
        return (c[0] * np.cos(tp * x) + c[1] * np.sin(tp * x)
                + c[2] * np.cos(2 * tp * x) + c[3] * np.sin(2 * tp * x))

    return DispersionlessFields(GridFunction(L, base_u + profile()),
                                GridFunction(L, profile()))


def oracle_flow_rhs(fields, j, direction):
    """Per-point expansion through the generic series engine."""
    ring = SeriesRing(["zeta"], var_caps={"zeta": j}, total_cap=j)
    zeta = ring.variable("zeta")
    one = ring.constant(1)
    u = fields.u.total_values()
    v = fields.v.total_values()
    cu = np.zeros(N, complex)
    cv = np.zeros(N, complex)
    for i in range(N):
        e = cmath.exp(v[i] if direction == "z" else -v[i])
        f = cmath.exp(-u[i])
        s = series_sqrt((one + zeta * e) ** 2 - zeta * (4 * e * f))
        cu[i] = complex(series_log((one + zeta * e + s) * 0.5).coefficient(zeta=j))
        cv[i] = complex(series_log((one - zeta * e + s) * 0.5).coefficient(zeta=j))
    sign_u = 1.0 if direction == "z" else -1.0
    du = sign_u * 1j * spectral_derivative(j * cu, L)
    dv = 1j * spectral_derivative(j * cv, L)
    return du, dv


# ---------------------------------------------------------------------------
# grid calculus


def test_spectral_derivative_on_trig_polynomial():
    x = np.arange(N) * (L / N)
    tp = 2 * math.pi / L
    f = GridFunction(L, np.cos(tp * x) + 0.5 * np.sin(3 * tp * x))
    want = -tp * np.sin(tp * x) + 1.5 * tp * np.cos(3 * tp * x)
    assert np.max(np.abs(f.derivative().values - want)) < 1e-12
    want2 = -tp**2 * np.cos(tp * x) - 4.5 * tp**2 * np.sin(3 * tp * x)
    second = spectral_derivative(spectral_derivative(f.values, L), L)
    assert np.max(np.abs(second - want2)) < 1e-11


def test_spectral_derivative_of_a_stack_is_row_by_row_bitwise():
    rng = np.random.default_rng(8)
    rows = rng.random((2, N)) + 1j * rng.random((2, N))
    both = spectral_derivative(rows, L)
    assert both.shape == (2, N)
    for row, d_row in zip(rows, both):
        assert np.array_equal(d_row, spectral_derivative(row, L))


def test_cached_wavenumbers_are_read_only():
    ik = disp._wavenumbers(N, L)
    assert ik is disp._wavenumbers(N, L)
    with pytest.raises(ValueError):
        ik[1] = 0.0


def test_grid_function_slope_bookkeeping():
    x = np.arange(N) * (L / N)
    slope = 2j * math.pi / L  # commensurate: slope * L = 2 pi i
    f = GridFunction(L, np.cos(2 * math.pi * x / L), mean_slope=slope)
    assert np.max(np.abs(f.total_values() - (f.values + slope * x))) < 1e-15
    d = f.derivative()
    assert d.mean_slope == 0
    assert abs(np.mean(d.values) - slope) < 1e-13


def test_grid_function_guards():
    with pytest.raises(DomainError):
        GridFunction(L, np.zeros(3))
    with pytest.raises(DomainError):
        GridFunction(-1.0, np.zeros(8))
    with pytest.raises(DomainError, match="grid mismatch"):
        DispersionlessFields(GridFunction(L, np.ones(8)),
                             GridFunction(3.0, np.ones(8)))
    with pytest.raises(DomainError, match="grid mismatch"):
        DispersionlessFields(GridFunction(L, np.ones(8)),
                             GridFunction(L, np.ones(16)))


def test_incommensurate_slope_rejected():
    u = GridFunction(L, np.full(N, 1.0))
    v = GridFunction(L, np.zeros(N), mean_slope=0.7)  # slope*L not in 2 pi i Z
    with pytest.raises(DomainError):
        DispersionlessFields(u, v)


def test_branch_guard_on_u():
    u = GridFunction(L, np.zeros(N))  # exp(-u) = 1 everywhere
    v = GridFunction(L, np.zeros(N))
    with pytest.raises(DomainError):
        DispersionlessFields(u, v)


def test_auxiliary_construction():
    x = np.arange(N) * (L / N)
    s = GridFunction(L, 0.1 * np.sin(2 * math.pi * x / L))
    r = GridFunction(L, np.full(N, -0.8 + 0.3j))
    fields = DispersionlessFields.from_auxiliary(s, r)
    assert np.max(np.abs(fields.v.values - s.derivative().values)) < 1e-14
    want_u = -np.log(1 - np.exp(2 * (-0.8 + 0.3j)))
    assert np.max(np.abs(fields.u.values - want_u)) < 1e-14
    with pytest.raises(DomainError):
        u_from_r(GridFunction(L, np.zeros(N)))  # exp(2r) = 1


def test_potential_field_u_relation():
    x = np.arange(N) * (L / N)
    tp = 2 * math.pi / L
    pot = PotentialField(L, 0.05 * np.cos(tp * x), slope=0.3, quad=-0.5)
    u = pot.u_field()
    want = 1.0 + 0.05 * tp**2 * np.cos(tp * x)
    assert np.max(np.abs(u.values - want)) < 1e-12


# ---------------------------------------------------------------------------
# zeta expansions


def test_zeta_expansion_against_series_engine():
    rng = np.random.default_rng(11)
    c = [rng.random(4) + 1j * rng.random(4) for _ in range(3)]
    order = 5
    ze = c + [np.zeros(4, complex)] * (order - 2)
    ring = SeriesRing(["zeta"], var_caps={"zeta": order}, total_cap=order)
    zeta = ring.variable("zeta")
    for i in range(4):
        f = ring.constant(c[0][i]) + zeta * c[1][i] + zeta**2 * c[2][i]
        pack, ref = dense_mul(ze, ze), f * f
        for jj in range(order + 1):
            assert abs(pack[jj][i] - complex(ref.coefficient(zeta=jj))) < 1e-12


def test_zeta_expansion_order_guard():
    with pytest.raises(TruncationOrderError):
        flow_generating_series(_fields(), "z", 0)


def test_zeta_expansion_eval_matches_direct():
    # the summed series against G = log((1 +/- zeta E + S)/2) evaluated
    # directly, on the principal branches, which hold at small zeta
    fields = _fields()
    u, v = fields.u.total_values(), fields.v.total_values()
    f = np.exp(-u)
    x = 2.0 * f - 1.0
    root = np.sqrt(x * x - 1.0)
    z0, order = 0.04 + 0.03j, 8
    for direction in ("z", "zt"):
        e = np.exp(v if direction == "z" else -v)
        s = np.sqrt((1.0 + z0 * e) ** 2 - 4.0 * z0 * e * f)
        # rho = |zeta|/R with R the distance to the nearest zero of S^2;
        # the tail past zeta^order is of order rho^(order+1)/(1 - rho)
        rho = abs(z0) * np.max(np.abs(e) * np.maximum(np.abs(x + root),
                                                      np.abs(x - root)))
        bound = rho ** (order + 1) / (1.0 - rho)
        g_u, g_v = flow_generating_series(fields, direction, order)
        for series, a in ((g_u, 1.0 + z0 * e), (g_v, 1.0 - z0 * e)):
            got = sum(z0 ** k * ck for k, ck in enumerate(series))
            assert np.max(np.abs(got - np.log((a + s) / 2.0))) < bound


# ---------------------------------------------------------------------------
# flows


def test_first_flow_closed_forms():
    fields = _fields()
    u = fields.u.total_values()
    v = fields.v.total_values()
    du, dv = flow_rhs(fields, 1, "z")
    want_dv = -1j * spectral_derivative(np.exp(v - u), L)
    want_du = 1j * spectral_derivative(np.exp(v) * (1 - np.exp(-u)), L)
    assert np.max(np.abs(dv.values - want_dv)) < 1e-12
    assert np.max(np.abs(du.values - want_du)) < 1e-12


def test_first_flow_second_family_closed_forms():
    fields = _fields(seed=5)
    u = fields.u.total_values()
    v = fields.v.total_values()
    du, dv = flow_rhs(fields, 1, "zt")
    want_dv = -1j * spectral_derivative(np.exp(-v - u), L)
    want_du = -1j * spectral_derivative(np.exp(-v) * (1 - np.exp(-u)), L)
    assert np.max(np.abs(dv.values - want_dv)) < 1e-12
    assert np.max(np.abs(du.values - want_du)) < 1e-12


@pytest.mark.parametrize("direction", ["z", "zt"])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_flow_coefficients_match_series_oracle(j, direction):
    fields = _fields(seed=7)
    du, dv = flow_rhs(fields, j, direction)
    odu, odv = oracle_flow_rhs(fields, j, direction)
    scale = max(np.max(np.abs(odu)), np.max(np.abs(odv)), 1e-300)
    assert np.max(np.abs(du.values - odu)) / scale < 1e-12
    assert np.max(np.abs(dv.values - odv)) / scale < 1e-12


def test_high_order_coefficients_match_extended_precision_series():
    # orders up to 40 (the recombined flow uses up to 60) against the
    # series engine run on 50-digit mpmath coefficients, two grid points
    # per family; the worst relative error measured is 5.0e-15
    order = 40
    fields = _fields(seed=7)
    u = fields.u.total_values()
    v = fields.v.total_values()
    ring = SeriesRing(["zeta"], var_caps={"zeta": order}, total_cap=order)
    with mp.workdps(50):
        zeta = ring.variable("zeta")
        one = ring.constant(mp.mpf(1))
        half = mp.mpf(1) / 2
        for direction, points in (("z", (0, 16)), ("zt", (8, 24))):
            g_u, g_v = flow_generating_series(fields, direction, order)
            for i in points:
                e = mp.exp(mp.mpc(v[i]) if direction == "z" else -mp.mpc(v[i]))
                f = mp.exp(-mp.mpc(u[i]))
                s = series_sqrt((one + zeta * e) ** 2 - zeta * (4 * e * f))
                for got, ref in ((g_u, series_log((one + zeta * e + s) * half)),
                                 (g_v, series_log((one - zeta * e + s) * half))):
                    for jj in range(1, order + 1):
                        want = complex(ref.coefficient(zeta=jj))
                        assert abs(got[jj][i] - want) <= 5e-14 * abs(want)


def test_flows_vanish_on_constants():
    fields = DispersionlessFields(GridFunction(L, np.full(N, 1.3 + 0.2j)),
                                  GridFunction(L, np.full(N, -0.4j)))
    for j in (1, 3):
        du, dv = flow_rhs(fields, j, "z")
        assert du.max_abs() < 1e-13 and dv.max_abs() < 1e-13


def test_mirror_map_between_families():
    # (u, v) -> (u, -v) exchanges the families up to (du, dv) -> (-du, +dv)
    fields = _fields(seed=9)
    mirrored = DispersionlessFields(fields.u,
                                    GridFunction(L, -fields.v.values))
    for j in (1, 2, 4):
        du_z, dv_z = flow_rhs(fields, j, "z")
        du_m, dv_m = flow_rhs(mirrored, j, "zt")
        assert np.max(np.abs(du_m.values + du_z.values)) == 0.0
        assert np.max(np.abs(dv_m.values - dv_z.values)) == 0.0


def test_degenerate_limit_suppresses_second_row():
    # for large u the v-family generating coefficients collapse like e^{-u}
    fields = _fields(seed=13, amp=0.15, base_u=10.0)
    g_u, g_v = flow_generating_series(fields, "z", 3)
    for jj in (1, 2, 3):
        assert np.max(np.abs(g_v[jj])) < 1e-3
    assert np.max(np.abs(g_u[1])) > 0.5


def test_flow_guards():
    fields = _fields()
    with pytest.raises(DomainError):
        flow_rhs(fields, 0, "z")
    with pytest.raises(DomainError):
        flow_rhs(fields, 1, "w")
    with pytest.raises(DomainError):
        # overflow guard on exp(-u)
        DispersionlessFields(GridFunction(L, np.full(N, -1e4)),
                             GridFunction(L, np.zeros(N)))


@pytest.mark.parametrize("direction", ["z", "zt"])
def test_overflowing_exponentials_raise_without_a_warning(direction):
    # exp(-u) at u = -1e4, and E = e^{+/-v} at |v| = 800: the constructor
    # and every entry point that forms them raise DomainError, and numpy's
    # overflow warning, an error here, never escapes before it
    x = np.arange(N) * (L / N)
    v = np.full(N, 800.0 if direction == "z" else -800.0)
    fields = DispersionlessFields(
        GridFunction(L, 1.0 + 0.05 * np.cos(math.pi * x)), GridFunction(L, v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="exp\\(-u\\) overflows"):
            DispersionlessFields(GridFunction(L, np.full(N, -1e4)),
                                 GridFunction(L, np.zeros(N)))
        for call in (lambda: flow_rhs(fields, 1, direction),
                     lambda: flow_generating_series(fields, direction, 2),
                     lambda: recombined_flow(0.1, fields, direction, 2),
                     lambda: check_hamiltonian_form(0.1, fields, direction),
                     lambda: evolve_dispersionless(fields, 1, direction,
                                                   T=2e-3, dt=1e-3)):
            with pytest.raises(DomainError, match="exponentials overflow"):
                call()


@pytest.mark.parametrize("direction", ["z", "zt"])
def test_overflowing_legendre_argument_raises_without_a_warning(direction):
    # e^{-u} is finite at u = -709.5 but x = 2e^{-u} - 1 is not; the Legendre
    # terms are formed as they are read, inside their caller's warning scope
    fields = DispersionlessFields(GridFunction(L, np.full(N, -709.5)),
                                  GridFunction(L, np.zeros(N)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: flow_rhs(fields, 1, direction),
                     lambda: flow_generating_series(fields, direction, 2),
                     lambda: recombined_flow(0.1, fields, direction, 2),
                     lambda: evolve_dispersionless(fields, 1, direction,
                                                   T=1e-3, dt=1e-3)):
            with pytest.raises(DomainError, match="2F - 1\\) overflows"):
                call()


def test_hamiltonian_form_rejects_an_overflowing_series_ratio():
    # e^{-u} is finite at u = -709.5, but x = 2e^{-u} - 1 squared is not:
    # the series order is rejected as an overflow, without numpy warnings,
    # instead of placing zeta at NaN of the distance to the branch point
    x = np.arange(16) * (L / 16)
    fields = DispersionlessFields(
        GridFunction(L, -709.5 + 0.01 * np.cos(math.pi * x)),
        GridFunction(L, 0.05 * np.sin(math.pi * x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            check_hamiltonian_form(0.1, fields)


@pytest.mark.parametrize("direction", ["z", "zt"])
def test_overflowing_power_of_e_names_the_flow_order(direction):
    # E = e^{+/-v} is finite at |v| = 300, but E^3 is not: each route to the
    # third flow raises instead of returning NaN, and numpy never warns
    x = np.arange(N) * (L / N)
    v = 300.0 + 0.1 * np.sin(math.pi * x)
    fields = DispersionlessFields(
        GridFunction(L, 1.0 + 0.05 * np.cos(math.pi * x)),
        GridFunction(L, v if direction == "z" else -v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow_rhs(fields, 2, direction)  # E^2 is still in range
        for call in (lambda: flow_rhs(fields, 3, direction),
                     lambda: recombined_flow(1e-200, fields, direction, 3),
                     lambda: evolve_dispersionless(fields, 3, direction,
                                                   T=1e-3, dt=1e-3)):
            with pytest.raises(DomainError, match="flow order 3"):
                call()


def test_overflowing_legendre_polynomial_names_the_flow_order():
    # at u = -200, x = 2e^{-u} - 1 is about 1e87: P_3(x) is finite, P_4(x)
    # is not, although E = e^v stays near 1
    x = np.arange(N) * (L / N)
    fields = DispersionlessFields(
        GridFunction(L, -200.0 + 0.1 * np.cos(math.pi * x)),
        GridFunction(L, 0.1 * np.sin(math.pi * x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (2, 3):
            du, dv = flow_rhs(fields, j, "z")
            assert np.isfinite(du.values).all() and np.isfinite(dv.values).all()
        for call in (lambda: flow_rhs(fields, 4, "z"),
                     lambda: recombined_flow(1e-300, fields, "z", 4),
                     lambda: evolve_dispersionless(fields, 4, "z",
                                                   T=1e-3, dt=1e-3)):
            with pytest.raises(DomainError, match="flow order 4"):
                call()
        # at u = -709.5, F is finite but 2F - 1 is not
        fields = DispersionlessFields(GridFunction(L, np.full(N, -709.5)),
                                      GridFunction(L, np.zeros(N)))
        with pytest.raises(DomainError, match="flow order 1"):
            flow_rhs(fields, 1, "z")


# ---------------------------------------------------------------------------
# Hamiltonian form


@pytest.mark.parametrize("direction", ["z", "zt"])
def test_hamiltonian_form_consistency(direction):
    fields = _fields(seed=3, amp=0.2)
    rep = check_hamiltonian_form(0.12 + 0.08j, fields, direction)
    assert rep["max_residual"] <= 1e-6, rep
    assert rep["direction"] == direction
    assert rep["recombination_signs"] == {"u": -1, "v": +1}


def test_recombined_flow_matches_partial_sums():
    fields = _fields(seed=17, amp=0.15)
    z0 = 0.1 + 0.05j
    du_r, dv_r = recombined_flow(z0, fields, "z", jmax=12)
    acc_u = np.zeros(N, complex)
    acc_v = np.zeros(N, complex)
    for j in range(1, 13):
        du, dv = flow_rhs(fields, j, "z")
        acc_u += z0**j * du.values
        acc_v += z0**j * dv.values
    assert np.max(np.abs(du_r.values - acc_u)) < 1e-12
    assert np.max(np.abs(dv_r.values - acc_v)) < 1e-12


def test_density_and_delta_flow_guards():
    fields = _fields()
    with pytest.raises(DomainError):
        hamiltonian_density(0.0, fields)  # atanh argument hits 1 at zeta = 0
    with pytest.raises(DomainError):
        hamiltonian_density(0.1, fields, direction="x")
    with pytest.raises(DomainError):
        delta_flow(0.1, fields, "w")
    dens = hamiltonian_density(0.15 + 0.1j, fields)
    assert dens.size == N and np.all(np.isfinite(dens.values))


_B = 1 - 2 / math.e  # S^2 = zeta^2 + 2 b zeta + 1 at u = 1, v = 0


@pytest.mark.parametrize("direction", ["z", "zt"])
@pytest.mark.parametrize("u0, v0, zeta0", [
    pytest.param(1.0, 0.0, complex(-_B, math.sqrt(1 - _B * _B)), id="zero-of-S"),
    pytest.param(1.0, 800.0, 0.1 + 0.05j, id="v-800"),
    pytest.param(-800.0, 0.0, 0.1 + 0.05j, id="u-minus-800"),
])
def test_closed_form_guard_is_shared(direction, u0, v0, zeta0):
    # the density, its gradients and the grouped flow evaluate one closed
    # form behind one guard; v is mirrored for zt so that E = e^{-v}
    # overflows in that family as e^{v} does in the first; numpy's overflow
    # warning, an error here, never escapes before the DomainError
    if direction == "zt":
        v0 = -v0
    fields = _fields()
    # assigned after construction, past the exp(-u) guard of the fields
    fields.u = GridFunction(L, np.full(N, u0, complex))
    fields.v = GridFunction(L, np.full(N, v0, complex))
    u, v = fields.u.total_values(), fields.v.total_values()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            hamiltonian_density(zeta0, fields, direction)
        with pytest.raises(DomainError):
            hamiltonian_gradients(zeta0, u, v, direction)
        with pytest.raises(DomainError):
            delta_flow(zeta0, fields, direction)


def test_series_order_holds_recombination_to_tolerance():
    # the order worked out from zeta keeps the recombined series within
    # 1e-9 of the closed grouped flow out to |zeta| = 0.6 on fields of the
    # CLI's amplitude; past 60 terms zeta is rejected
    fields = _fields(seed=3, amp=0.1)
    rng = np.random.default_rng(2024)
    for _ in range(8):
        zeta0 = rng.uniform(0.02, 0.6) * cmath.exp(2j * math.pi * rng.random())
        for direction in ("z", "zt"):
            rep = check_hamiltonian_form(zeta0, fields, direction)
            assert rep["series_order"] <= 60
            assert rep["recombination_residual_u"] <= 1e-9, rep
            assert rep["recombination_residual_v"] <= 1e-9, rep
    with pytest.raises(DomainError, match="zeta"):
        check_hamiltonian_form(0.8, fields, "z")


# ---------------------------------------------------------------------------
# density constraint (Frobenius layer)


# the ids name the densities h (family z) and h-tilde (family zt); seed 12
# (h) and seed 54 (ht) put a stencil across the pi jump of the log
@pytest.mark.parametrize("direction,seed", [
    pytest.param(direction, seed, id=name if seed == 7 else f"{name}-{seed}")
    for seed in (7, 12, 54) for direction, name in (("z", "h"), ("zt", "ht"))])
def test_density_constraint_both_signs_reported(direction, seed):
    rep = check_density_constraint(direction=direction, seed=seed)
    assert rep["direction"] == direction
    # sharp residual within tolerance, and the satisfied prefactor is
    # uniformly 1/(1 - e^u) (sign -1 relative to 1/(e^u - 1))
    assert rep["max_residual"] <= 1e-6, rep
    assert rep["constraint_sign"] == -1
    assert rep["residual_factor_minus"] <= 1e-6
    assert rep["residual_factor_plus"] > 0.1
    assert len(rep["residuals"]) == 20


# the first two points failed with the fixed step 5e-3 (a zero of S^2 within
# 0.02 of the sample); at the third np.sqrt flipped S inside a stencil
_DENSITY_HARD_POINTS = [("z", -0.4309 + 0.4018j, 3), ("zt", 0.2173 - 0.4747j, 3),
                        ("zt", 0.1853239794172302 + 0.5574117540771675j, 3)]


def test_density_constraint_holds_near_zeros_of_s_squared():
    rng = np.random.default_rng(1758)
    cases = list(_DENSITY_HARD_POINTS)
    for seed in (0, 3, 7):
        for _ in range(12):
            zeta = rng.uniform(0.1, 0.6) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            cases += [("z", zeta, seed), ("zt", zeta, seed)]
    for direction, zeta, seed in cases:
        rep = check_density_constraint(direction, zeta, seed)
        assert rep["max_residual"] <= 1e-6 and rep["constraint_sign"] == -1, (
            direction, zeta, seed, rep["max_residual"])


def _ten_point_second_derivative(fn, center, step):
    """The Richardson pair of 5-point stencils, every point evaluated."""
    def d2(h):
        return (-fn(center + 2 * h) + 16 * fn(center + h) - 30 * fn(center)
                + 16 * fn(center - h) - fn(center - 2 * h)) / (12.0 * h * h)
    return (16.0 * d2(step / 2.0) - d2(step)) / 15.0


@pytest.mark.parametrize("direction", ["z", "zt"])
def test_density_constraint_shares_stencil_points_exactly(direction, monkeypatch):
    # the fine stencil's outer points and centre are points of the coarse
    # one, so seven density values per line give the bits of all ten
    shared = disp._second_derivative_fd
    calls = []

    def counting(fn, center, step):
        def counted(x):
            calls.append(x)
            return fn(x)
        return shared(counted, center, step)

    cases = [(0.15 + 0.1j, seed) for seed in (7, 12, 54)]
    cases += [(zeta, seed) for d, zeta, seed in _DENSITY_HARD_POINTS if d == direction]
    for zeta, seed in cases:
        monkeypatch.setattr(disp, "_second_derivative_fd", counting)
        del calls[:]
        got = check_density_constraint(direction, zeta, seed)
        assert len(calls) == 20 * 2 * 7
        monkeypatch.setattr(disp, "_second_derivative_fd",
                            _ten_point_second_derivative)
        assert got == check_density_constraint(direction, zeta, seed)


def test_density_constraint_fppp_identity():
    rep = check_density_constraint()
    assert rep["fppp_identity_error"] < 1e-12
    u = 1.3 + 0.2j
    assert abs(FrobeniusData.fppp(u) - FrobeniusData.fppp_polylog(u)) < 1e-14


def test_frobenius_potential_structure():
    u, v = 1.1, 0.4
    phi = FrobeniusData.potential(u, v)
    assert abs(phi - (u * v**2 / 2 + FrobeniusData.f(u))) < 1e-15
    assert abs(FrobeniusData.topological_tau(u, v) - cmath.exp(phi)) < 1e-15
    assert np.all(FrobeniusData.metric() == np.array([[0, 1], [1, 0]]))


# ---------------------------------------------------------------------------
# evolution


def test_constants_are_fixed_points_of_evolution():
    fields = DispersionlessFields(GridFunction(L, np.full(N, 1.2)),
                                  GridFunction(L, np.full(N, 0.3)))
    out = evolve_dispersionless(fields, 1, "z", T=0.05, dt=1e-3)
    assert np.max(np.abs(out.u.values - 1.2)) == 0.0
    assert np.max(np.abs(out.v.values - 0.3)) == 0.0


def test_linearized_evolution_matches_mode_analysis():
    # tiny perturbation of a constant background against exp(t A) per mode;
    # mode growth rates scale with the wavenumber, so a short horizon and a
    # coarse grid keep the roundoff-seeded fast modes below tolerance
    u0, v0 = 1.1, 0.2
    eps = 1e-5
    n, T = 16, 0.5
    q = 2 * math.pi / L  # first mode
    x = np.arange(n) * (L / n)
    du0, dv0 = 0.7 * eps, -0.4 * eps
    fields = DispersionlessFields(
        GridFunction(L, u0 + du0 * np.exp(1j * q * x)),
        GridFunction(L, v0 + dv0 * np.exp(1j * q * x)))
    out = evolve_dispersionless(fields, 1, "z", T=T, dt=1e-3)

    e0, f0 = math.exp(v0), math.exp(-u0)
    A = np.array([[-q * e0 * f0, -q * e0 * (1 - f0)],
                  [-q * e0 * f0, q * e0 * f0]], dtype=complex)
    w, V = np.linalg.eig(A)
    c = np.linalg.solve(V, np.array([du0, dv0]))
    du_t, dv_t = V @ (np.exp(w * T) * c)

    want_u = u0 + du_t * np.exp(1j * q * x)
    want_v = v0 + dv_t * np.exp(1j * q * x)
    # the seeded mode grows by ~e^{1.1}; nonlinear feedback is O(eps^2)
    assert np.max(np.abs(out.u.values - u0)) > 1e-5
    assert np.max(np.abs(out.u.values - want_u)) < 1e-6
    assert np.max(np.abs(out.v.values - want_v)) < 1e-6


def test_mirror_trajectory_is_exact_time_reversal():
    # v -> -v conjugates the second family to the time-reversed first one;
    # for RK4 with negated step the stage arithmetic is an exact negation,
    # so the mirrored run reproduces the forward trajectory bitwise
    fields = _fields(seed=19, amp=0.08)
    h = 5e-4

    def rk4(u0_vals, v0_vals, direction, dt, steps):
        u, v = u0_vals.copy(), v0_vals.copy()

        def f(uu, vv):
            du, dv = flow_rhs(DispersionlessFields(
                GridFunction(L, uu), GridFunction(L, vv)), 1, direction)
            return du.values, dv.values

        for _ in range(steps):
            k1 = f(u, v)
            k2 = f(u + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1])
            k3 = f(u + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1])
            k4 = f(u + dt * k3[0], v + dt * k3[1])
            u = u + (dt / 6) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + (dt / 6) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return u, v

    u_T, v_T = rk4(fields.u.values, fields.v.values, "z", h, 100)
    u_m, v_m = rk4(fields.u.values, -fields.v.values, "zt", -h, 100)
    assert np.max(np.abs(u_m - u_T)) == 0.0
    assert np.max(np.abs(v_m + v_T)) == 0.0


@pytest.mark.parametrize("direction", ["z", "zt"])
@pytest.mark.parametrize("j", [1, 4])
def test_evolution_matches_a_written_out_stage_bitwise(j, direction):
    # an independent RK4 of the j-th flow, with its own transforms, a fresh
    # wavenumber grid and the whole coefficient list, in the same arithmetic
    # order, must reproduce ten steps of the shared stage to the bit
    fields = _fields(seed=13, amp=0.08)
    sign = 1.0 if direction == "z" else -1.0
    dt = 5e-4

    def ddx(c):
        ik = 2j * math.pi * np.fft.fftfreq(N, d=1.0 / N) / L
        return np.fft.ifft(ik * np.fft.fft(c))

    def f(u, v):
        e = np.exp(v if sign > 0 else -v)
        x = 2.0 * np.exp(-u) - 1.0
        p_prev, p, e_n = np.ones_like(x), x, e
        c_u, c_v = [], []
        for n in range(1, j + 1):
            c_u.append(0.5 * e_n * (p_prev - p))
            c_v.append(-0.5 * e_n * (p_prev + p))
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
            e_n = e_n * e
        return sign * 1j * ddx(c_u[-1]), 1j * ddx(c_v[-1])

    u, v = fields.u.values, fields.v.values
    for _ in range(10):
        k1u, k1v = f(u, v)
        k2u, k2v = f(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = f(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = f(u + dt * k3u, v + dt * k3v)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    out = evolve_dispersionless(fields, j, direction, T=10 * dt, dt=dt)
    assert np.max(np.abs(u - fields.u.values)) > 1e-6  # the state moved
    assert np.array_equal(out.u.values, u) and np.array_equal(out.v.values, v)


def test_gradient_catastrophe_detection():
    # modes of the first flow grow like exp(q e^{v} e^{-u/2} t), so an
    # order-one profile trips the tenfold growth guard quickly
    x = np.arange(N) * (L / N)
    steep = DispersionlessFields(
        GridFunction(L, 1.5 + 0.3 * np.cos(2 * math.pi * x / L)),
        GridFunction(L, 1.2 * np.sin(2 * math.pi * x / L)))
    with pytest.raises(GradientCatastropheError) as err:
        evolve_dispersionless(steep, 1, "z", T=5.0, dt=1e-3)
    assert err.value.time > 0


def test_a_guard_past_the_initial_fields_is_a_catastrophe():
    # the fortieth flow of these fields is finite at t = 0, but a stage of
    # the first step overflows: a blow-up of the run at the time reached,
    # not an invalid input, which the initial fields alone decide
    fields = _fields()
    flow_rhs(fields, 40, "z")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GradientCatastropheError) as err:
            evolve_dispersionless(fields, 40, "z", T=0.01, dt=1e-3)
    assert err.value.time == 0.0
    assert isinstance(err.value.__cause__, DomainError)


def test_potential_co_evolution_keeps_u_consistent():
    x = np.arange(N) * (L / N)
    tp = 2 * math.pi / L
    pot = PotentialField(L, 0.02 * np.cos(tp * x), slope=0.1, quad=-0.5)
    u = pot.u_field()
    v = GridFunction(L, 0.02 * np.sin(tp * x))
    fields = DispersionlessFields(u, v, varpi=pot)
    out = evolve_dispersionless(fields, 1, "z", T=0.1, dt=1e-3)
    again = out.varpi.u_field()
    assert np.max(np.abs(again.values - out.u.values)) < 1e-9


def test_co_evolution_guards():
    fields = _fields()
    with pytest.raises(DomainError):
        evolve_dispersionless(fields, 1, "z", T=-1.0)


def test_evolution_checks_flow_index_and_whole_steps():
    # the flow index is checked even where no step is taken (T < dt/2),
    # and T = 0.0016 with dt = 1e-3 is rejected instead of run to t = 0.002
    fields = _fields()
    with pytest.raises(DomainError, match="flow index"):
        evolve_dispersionless(fields, -3, "z", T=1e-4)
    with pytest.raises(DomainError, match="T = 0.0016"):
        evolve_dispersionless(fields, 1, "z", T=0.0016, dt=1e-3)


def _fields_with_potential():
    x = np.arange(N) * (L / N)
    tp = 2 * math.pi / L
    pot = PotentialField(L, 0.02 * np.cos(tp * x) + 0.01 * np.sin(2 * tp * x),
                         slope=0.1, quad=-0.5)
    v = GridFunction(L, 0.02 * np.sin(tp * x) - 0.01j * np.cos(tp * x))
    return DispersionlessFields(pot.u_field(), v, varpi=pot)


@pytest.mark.parametrize("direction", ["z", "zt"])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_attached_potential_follows_every_flow(j, direction):
    # an attached varpi is never left behind: u = -varpi'' holds after the
    # run for every flow index and both families
    fields = _fields_with_potential()
    out = evolve_dispersionless(fields, j, direction, T=0.1, dt=1e-3)
    assert np.max(np.abs(out.u.values - fields.u.values)) > 1e-3
    assert np.max(np.abs(out.varpi.u_field().values - out.u.values)) <= 1e-9
    assert out.varpi.quad == fields.varpi.quad


def test_attached_potential_needs_a_periodic_u():
    # a linear part of u would need a cubic potential
    fields = _fields_with_potential()
    sloped = DispersionlessFields(
        GridFunction(L, fields.u.values, 2j * math.pi / L), fields.v,
        varpi=fields.varpi)
    with pytest.raises(DomainError, match="periodic u"):
        evolve_dispersionless(sloped, 1, "z", T=0.1)


# ---------------------------------------------------------------------------
# shift relation and small-phase-space identification


def test_xdif_exact_on_quadratics():
    alpha, beta, gamma = 0.3 + 0.2j, -0.7, 1.1j
    lhs_value = 2 * alpha  # second difference of a quadratic / l^2
    r_const = 0.5 * cmath.log(1 - cmath.exp(lhs_value))
    r = GridFunction(L, np.full(N, r_const))
    rep = check_xdif(lambda x: alpha * x * x + beta * x + gamma, r, 0.23 + 0.11j)
    assert rep["max_residual"] < 1e-12


def test_xdif_classical_potential_and_initial_value():
    t = 0.3 + 0.4j
    q = cmath.exp(2j * math.pi * t)
    r_const = 0.5 * cmath.log(1 - q)
    r = GridFunction(L, np.full(N, r_const))
    rep = check_xdif(classical_varpi(t, 1.0), r, 0.2)
    assert rep["max_residual"] < 1e-12
    # with kappa = 1 the induced u is the constant -2 pi i t
    u = u_from_r(r)
    assert np.max(np.abs(u.values - (-2j * math.pi * t))) < 1e-13
    # x-independent additions to the potential drop out of the difference
    rep2 = check_xdif(lambda x: classical_varpi(t, 1.0)(x) + 5.0 - 2.0j, r, 0.2)
    assert rep2["max_residual"] < 1e-12


def test_xdif_guard():
    r = GridFunction(L, np.full(N, -0.5))
    with pytest.raises(DomainError):
        check_xdif(lambda x: x * x, r, 0.0)


def test_principal_identification_signs():
    rep = check_principal_identification(0.3 + 0.4j, 0.7)
    assert rep["match_sign"] == "plus"
    assert abs(rep["difference_plus_sign"]) < 1e-12
    want_gap = 8 * math.pi**3 * abs(0.3 + 0.4j) * 0.49
    assert abs(rep["difference_minus_sign"]) == pytest.approx(want_gap, rel=1e-12)
    zero = check_principal_identification(0.3 + 0.4j, 0.0)
    assert zero["difference_plus_sign"] == 0
    assert zero["difference_minus_sign"] == 0
    with pytest.raises(DomainError):
        check_principal_identification(0.3 - 0.4j, 0.7)


# ---------------------------------------------------------------------------
# export


def test_export_fields_round_trip(tmp_path):
    fields = _fields(seed=23)
    csv_path = tmp_path / "fields.csv"
    meta_path = tmp_path / "fields.json"
    export_fields(fields, str(csv_path), str(meta_path), {"tag": "smoke"})
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re_u", "im_u", "re_v", "im_v"]
    assert len(rows) == 1 + N
    got = float(rows[1][1]) + 1j * float(rows[1][2])
    assert got == complex(fields.u.total_values()[0])
    meta = json.loads(meta_path.read_text())
    assert meta["schema"] == 1 and meta["grid_points"] == N
    assert meta["tag"] == "smoke"
