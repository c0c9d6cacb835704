"""Bilinear tau-function identities, Miwa shifts, and flow extraction."""
import math
from fractions import Fraction

import numpy as np
import pytest

from conifold_flows import DomainError, TruncationOrderError
from conifold_flows.hirota import (
    HIROTA_EQUATION_IDS,
    TauTriple,
    constraint_residual,
    default_ring,
    euler_step,
    extract_time_derivatives,
    first_order_claim_monomials,
    first_order_claim_residual,
    first_order_triple,
    hirota_residual,
    hirota_residuals,
    miwa_shift,
    tau_from_lattice,
)
from conifold_flows.lattice import LatticeState, al_rhs


def _random_lattice(n, seed):
    rng = np.random.default_rng(seed)
    a = 0.5 * (rng.random(n) - 0.5) + 0.5j * (rng.random(n) - 0.5)
    b = 0.5 * (rng.random(n) - 0.5) + 0.5j * (rng.random(n) - 0.5)
    return list(a), list(b)


# ---------------------------------------------------------------------------
# Miwa shift


def test_miwa_shift_is_exact_homomorphism_with_two_times():
    ring = default_ring(time_vars=2, zeta_cap=4, total_cap=6)
    z1, zt2 = ring.variable("z1"), ring.variable("zt2")
    f = ring.constant(1) + 2 * z1 + z1 * zt2
    g = ring.constant(3) + zt2 ** 2
    assert miwa_shift(f * g, "z", 1j) == miwa_shift(f, "z", 1j) * miwa_shift(g, "z", 1j)
    assert miwa_shift(f * g, "zt", 1j) == miwa_shift(f, "zt", 1j) * miwa_shift(g, "zt", 1j)


def test_miwa_shift_homomorphism_three_times():
    # with three time variables the 1/3 coefficient is inexact in binary,
    # so the homomorphism holds to rounding rather than exactly
    ring = default_ring(time_vars=3, zeta_cap=5, total_cap=8)
    z3 = ring.variable("z3")
    f = ring.constant(1) + z3
    g = ring.constant(1) + 2 * z3
    diff = miwa_shift(f * g, "z", 1j) - miwa_shift(f, "z", 1j) * miwa_shift(g, "z", 1j)
    assert diff.max_abs() < 1e-12


def test_miwa_shift_zero_scale_is_identity():
    ring = default_ring()
    f = ring.variable("z1") + ring.variable("zeta") ** 2
    assert miwa_shift(f, "z", 0) == f
    with pytest.raises(DomainError):
        miwa_shift(f, "x", 1j)


def test_miwa_shift_moves_times_by_zeta_powers():
    ring = default_ring(time_vars=2, zeta_cap=4, total_cap=6)
    shifted = miwa_shift(ring.variable("z2"), "z", 1j)
    assert shifted.coefficient(z2=1) == 1
    assert shifted.coefficient(zeta=2) == 0.5j
    assert shifted.coefficient(zeta=1) == 0
    # the other direction's variables are untouched
    assert miwa_shift(ring.variable("zt1"), "z", 1j) == ring.variable("zt1")


def test_miwa_replacements_are_kept_apart_by_scale_type_and_direction():
    # replacements are built once per ring, direction and scale; scales
    # that compare equal but differ in type must not share one
    ring = default_ring(time_vars=2, zeta_cap=4, total_cap=6)
    z2, zt1 = ring.variable("z2"), ring.variable("zt1")
    exact = miwa_shift(z2, "z", Fraction(1))
    inexact = miwa_shift(z2, "z", 1.0)
    assert type(exact.coefficient(zeta=2)) is Fraction
    assert exact.coefficient(zeta=2) == Fraction(1, 2)
    assert type(inexact.coefficient(zeta=2)) is float
    assert type(miwa_shift(z2, "z", Fraction(1)).coefficient(zeta=2)) is Fraction
    one, i = miwa_shift(z2, "z", 1), miwa_shift(z2, "z", 1j)
    assert one.coefficient(zeta=2) == Fraction(1, 2)
    assert i.coefficient(zeta=2) == 0.5j
    assert miwa_shift(zt1, "z", 1j) == zt1
    assert miwa_shift(zt1, "zt", 1j) == zt1 + 1j * ring.variable("zeta")
    assert miwa_shift(zt1, "zt", 1) == zt1 + ring.variable("zeta")


# ---------------------------------------------------------------------------
# residuals


def _fresh_residual(triple, eq_id, order):
    """One bilinear identity with every field shifted by its own
    miwa_shift call, as a reference for the shared shifts."""
    direction, step = ("z", 1) if eq_id in "abc" else ("zt", -1)
    sig, rho, tau = triple.sigma, triple.rho, triple.tau
    zeta = triple.ring.variable("zeta")
    i = triple.ring.index("zeta")
    out = {}
    for n in triple.interior:
        lo, hi = n - step, n + step

        def S(f, m):
            return miwa_shift(f[m], direction, 1j)

        if eq_id in "ad":
            res = tau[n] * S(tau, n) - rho[n] * S(sig, n) - tau[lo] * S(tau, hi)
        elif eq_id in "be":
            res = (tau[n] * S(sig, n) - sig[n] * S(tau, n)
                   - zeta * (tau[lo] * S(sig, hi)))
        else:
            res = (rho[n] * S(tau, n) - tau[n] * S(rho, n)
                   - zeta * (rho[lo] * S(tau, hi)))
        out[n] = {k: c for k, c in res.coeffs.items() if k[i] <= order}
    return out


def test_shared_shifts_match_fresh_shifts_exactly():
    a, b = _random_lattice(7, seed=61)
    triple = tau_from_lattice(a, b, first_site=-3)
    fo = first_order_triple(triple)
    n = 5
    vacuum = TauTriple.from_numbers([0.0] * n, [0.0] * n, [1.0] * n)
    for t in (fo, vacuum):
        every = hirota_residuals(t, 1)
        assert tuple(every) == HIROTA_EQUATION_IDS
        for eq in HIROTA_EQUATION_IDS:
            want = _fresh_residual(t, eq, 1)
            got = {m: s.coeffs for m, s in every[eq].items()}
            assert got == want
            # one identity is one entry of all six
            assert {m: s.coeffs for m, s in hirota_residual(t, eq, 1).items()} == got
    monos = first_order_claim_monomials(triple.ring)
    claims = {eq: max((abs(complex(c.get(e, 0))) for c in
                       _fresh_residual(fo, eq, 1).values() for e in monos),
                      default=0.0)
              for eq in HIROTA_EQUATION_IDS}
    assert first_order_claim_residual(triple) == claims


def test_vacuum_residuals_identically_zero():
    n = 5
    vac = TauTriple.from_numbers([0.0] * n, [0.0] * n, [1.0] * n, first_site=-2)
    for eq in HIROTA_EQUATION_IDS:
        res = hirota_residual(vac, eq, 1)
        for series in res.values():
            assert series.is_zero()


def test_unknown_equation_and_order_cap():
    n = 5
    vac = TauTriple.from_numbers([0.0] * n, [0.0] * n, [1.0] * n)
    with pytest.raises(DomainError):
        hirota_residual(vac, "g", 1)
    with pytest.raises(TruncationOrderError):
        hirota_residual(vac, "a", 99)


@pytest.mark.parametrize("order", [-1, -5, 0.5, 1.0, "1", None])
def test_zeta_order_must_be_a_nonnegative_integer(order):
    # a negative order used to truncate every coefficient away, so the
    # residual read as identically zero whatever the triple; this one is no
    # tau triple (tau^2 - sigma rho - tau(n-1) tau(n+1) = -0.02)
    triple = TauTriple.from_numbers([0.1] * 5, [0.2] * 5, [1.0] * 5)
    with pytest.raises(DomainError, match="zeta order"):
        hirota_residual(triple, "a", order)
    with pytest.raises(DomainError, match="zeta order"):
        hirota_residuals(triple, order)
    for series in hirota_residual(triple, "a", 0).values():
        assert series.constant_term() == pytest.approx(-0.02)


def test_first_order_residuals_on_random_data():
    a, b = _random_lattice(7, seed=5)
    triple = tau_from_lattice(a, b, first_site=-3)
    worst = first_order_claim_residual(triple)
    for eq in HIROTA_EQUATION_IDS:
        assert worst[eq] <= 1e-12, (eq, worst[eq])


def test_constraint_residual_zero_for_lattice_triple():
    a, b = _random_lattice(6, seed=9)
    triple = tau_from_lattice(a, b)
    for series in constraint_residual(triple).values():
        assert series.max_abs() < 1e-14


# ---------------------------------------------------------------------------
# extracted flows


def test_extracted_flows_match_shift_form():
    a, b = _random_lattice(7, seed=13)
    triple = tau_from_lattice(a, b, first_site=0)
    d = extract_time_derivatives(triple)
    for n in triple.interior:
        an, bn = a[n], b[n]
        w = 1 - an * bn
        assert abs(complex(d.da_z[n].constant_term()) - (-1j * a[n + 1] * w)) < 1e-13
        assert abs(complex(d.db_z[n].constant_term()) - (+1j * b[n - 1] * w)) < 1e-13
        assert abs(complex(d.da_zt[n].constant_term()) - (-1j * a[n - 1] * w)) < 1e-13
        assert abs(complex(d.db_zt[n].constant_term()) - (+1j * b[n + 1] * w)) < 1e-13


def test_combined_flow_reproduces_lattice_rhs():
    # sum of the two directions on tau-derived data vs the simulator's rhs
    n = 9
    a, b = _random_lattice(n, seed=21)
    triple = tau_from_lattice(a, b, first_site=0)
    d = extract_time_derivatives(triple)
    state = LatticeState(np.array(a), np.array(b))
    da, db = al_rhs(state)
    for m in triple.interior:
        got_a = complex((d.da_z[m] + d.da_zt[m]).constant_term())
        got_b = complex((d.db_z[m] + d.db_zt[m]).constant_term())
        assert abs(got_a - da[m]) < 1e-12
        assert abs(got_b - db[m]) < 1e-12


def test_tau_gauge_leftmost_derivative_zero():
    a, b = _random_lattice(6, seed=31)
    triple = tau_from_lattice(a, b, first_site=-1)
    d = extract_time_derivatives(triple)
    assert d.dtau_z[-1].is_zero()
    assert d.dtau_zt[-1].is_zero()


def test_first_order_triple_window_bookkeeping():
    a, b = _random_lattice(7, seed=41)
    triple = tau_from_lattice(a, b, first_site=0)
    fo = first_order_triple(triple)
    assert fo.sites == triple.sites[1:-1]
    z1 = fo.ring.variable("z1")
    # linear part in z1 matches the extracted derivative
    d = extract_time_derivatives(triple)
    n = fo.sites[1]
    lin = fo.tau[n].coefficients_at_order("z1", 1)
    want = d.dtau_z[n].constant_term()
    assert len(lin) == 1 and abs(complex(lin[0][1]) - complex(want)) < 1e-14


def test_euler_step_constraint_defect_is_second_order():
    a, b = _random_lattice(8, seed=51)
    triple = tau_from_lattice(a, b, first_site=0)

    def defect(h):
        stepped = euler_step(triple, h)
        worst = 0.0
        for series in constraint_residual(stepped).values():
            worst = max(worst, series.max_abs())
        return worst

    d1, d2 = defect(1e-2), defect(5e-3)
    order = math.log2(d1 / d2)
    assert order > 1.9, order


def test_tau_from_lattice_guards():
    with pytest.raises(DomainError):
        tau_from_lattice([0.1, 0.2], [0.1, 0.2])
    with pytest.raises(DomainError):
        tau_from_lattice([0.1] * 4, [0.1] * 3)
    with pytest.raises(DomainError):
        tau_from_lattice([2.0, 0.5, 0.1], [0.1, 2.0, 0.1])  # 1 - ab = 0
