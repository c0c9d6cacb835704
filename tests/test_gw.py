"""Genus free energies, the equivariant potential, and difference-equation
checks.

Oracles: sympy Bernoulli numbers for the rational prefactors, mpmath
polylogarithms for the genus terms, and the closed-form right side for the
second difference.
"""
import cmath
import math
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

from conifold_flows import DomainError, barnes
from conifold_flows.gw import (
    asymptotic_remainder_scan,
    check_difference_equation,
    constant_map_contribution,
    difference_equation_report,
    equivariant_potential,
    free_energy_genus,
    fugacity,
    genus_coefficient,
    truncated_difference_residual,
)

T0 = 0.3 + 0.4j


def _frac(x) -> Fraction:
    return Fraction(int(sympy.nsimplify(x).p), int(sympy.nsimplify(x).q))


def test_constant_map_exact_value():
    assert constant_map_contribution(2, 2) == Fraction(1, 2880)


@pytest.mark.parametrize("g,chi", [(2, 2), (3, 2), (4, -6), (2, 0)])
def test_constant_map_against_bernoulli_oracle(g, chi):
    b2g = _frac(sympy.bernoulli(2 * g))
    b2gm2 = _frac(sympy.bernoulli(2 * g - 2))
    want = ((-1) ** (g - 1) * Fraction(chi) * b2g * b2gm2
            / (4 * g * (2 * g - 2) * math.factorial(2 * g - 2)))
    assert constant_map_contribution(g, chi) == want


def test_constant_map_guard():
    with pytest.raises(DomainError):
        constant_map_contribution(1, 2)
    with pytest.raises(DomainError):
        constant_map_contribution(0, 2)


def test_genus_coefficients():
    assert genus_coefficient(1) == Fraction(1, 12)
    assert genus_coefficient(2) == Fraction(1, 240)
    for g in range(2, 7):
        b2g = _frac(sympy.bernoulli(2 * g))
        want = ((-1) ** (g - 1) * b2g
                / (2 * g * math.factorial(2 * g - 2)))
        assert genus_coefficient(g) == want


def test_free_energy_low_genus_closed_forms():
    q = fugacity(T0)
    assert abs(free_energy_genus(0, T0) - complex(mp.polylog(3, q))) < 1e-13
    want1 = complex(mp.polylog(1, q)) / 12
    assert abs(free_energy_genus(1, T0) - want1) < 1e-13
    want2 = complex(mp.polylog(-1, q)) / 240
    assert abs(free_energy_genus(2, T0) - want2) < 1e-13


def test_free_energy_periodicity():
    # q = exp(2 pi i t) is invariant under t -> t + 1
    for g in (0, 1, 3):
        a = free_energy_genus(g, T0)
        b = free_energy_genus(g, T0 + 1)
        assert abs(a - b) < 1e-12


def test_fugacity():
    assert abs(fugacity(T0) - cmath.exp(2j * math.pi * T0)) < 1e-15
    assert abs(fugacity(0.5j)) == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_free_energy_domain():
    with pytest.raises(DomainError):
        free_energy_genus(0, 0.3 - 0.2j)  # |q| > 1


def test_equivariant_potential_structure():
    lam, kappa = 0.1 + 0.1j, 1.0
    base = equivariant_potential(lam, T0, 0.0, kappa)
    for x in (0.5, 1.0 + 0.2j):
        got = equivariant_potential(lam, T0, x, kappa)
        quad = ((2 * math.pi) ** 3 * 1j * complex(x) ** 2 * T0
                / (2 * kappa ** 2 * lam ** 2))
        assert abs(got - base - quad) < 1e-12
    # x = 0 part does not depend on kappa
    other = equivariant_potential(lam, T0, 0.0, 2.5)
    assert abs(base - other) < 1e-15
    with pytest.raises(DomainError):
        equivariant_potential(lam, T0, 1.0, 0.0)


def test_difference_equation_residual_small():
    for t, lam in [(T0, 0.1 + 0.1j), (0.45 + 0.7j, 0.25),
                   (0.2 + 0.25j, 0.05 + 0.2j)]:
        assert abs(check_difference_equation(lam, t)) < 1e-10


def test_difference_equation_report_contents():
    rep = difference_equation_report(0.1 + 0.1j, T0)
    assert set(rep) == {"second_difference", "rhs_closed_form",
                        "rhs_squared_derivative", "residual", "winding"}
    # the squared-derivative route must agree with the closed form exactly
    assert abs(rep["rhs_squared_derivative"] - rep["rhs_closed_form"]) < 1e-13
    assert abs(rep["residual"]) < 1e-10
    q = fugacity(T0)
    assert abs(rep["rhs_closed_form"] - cmath.log(1 - q)) < 1e-13


@pytest.mark.parametrize("arg", [math.pi / 4, -math.pi / 4])
def test_difference_equation_at_the_coupling_floor(arg):
    # the smallest coupling check_coupling admits, answered by the q-series
    rep = difference_equation_report(1e-6 * cmath.exp(1j * arg), T0)
    assert abs(rep["residual"]) <= 1e-8 and rep["winding"] == 0


def test_difference_equation_guard():
    with pytest.raises(DomainError):
        check_difference_equation(-0.1, T0)


def test_truncated_residual_scaling():
    # Taylor orders cancel through lam^(2 cap), so the residual of the
    # genus-truncated second difference scales like lam^(2 cap + 2)
    t = 0.35 + 0.35j
    for cap in (1, 2):
        r1 = abs(truncated_difference_residual(0.08, t, cap))
        r2 = abs(truncated_difference_residual(0.04, t, cap))
        order = math.log2(r1 / r2)
        assert abs(order - (2 * cap + 2)) < 0.3, (cap, order)


def test_remainder_scan_slopes():
    eps = [0.01 * (10 ** (i / 4)) for i in range(5)]  # up to 0.1
    for cap in (2, 3):
        slope = asymptotic_remainder_scan(0.35 + 0.35j, math.pi / 4, eps, cap)
        assert abs(slope - 2 * cap) <= 0.2, (cap, slope)


def test_remainder_scan_guards():
    with pytest.raises(DomainError):
        asymptotic_remainder_scan(0.35 + 0.35j, 0.0, [0.1], 2)
    with pytest.raises(DomainError):
        asymptotic_remainder_scan(0.35 - 0.35j, 0.0, [0.1, 0.05], 2)
    with pytest.raises(DomainError):
        # |q| too large for the scan's error model
        asymptotic_remainder_scan(0.35 + 0.01j, 0.0, [0.1, 0.05], 2)


def test_results_do_not_depend_on_caller_precision():
    # barnes.working_precision owns the digits: the caller's mp.dps neither
    # changes a result nor is changed by the call.  At this point the
    # q-series gives a second difference with winding 0; the real coupling
    # 0.2 keeps the quadrature, and the cleared caches, under test.
    lam, t = 0.14 - 0.33j, -0.12 + 0.5j

    def run_all():
        barnes._laurent_coeffs.cache_clear()
        barnes._direct_kernel.cache_clear()
        return (barnes.log_g(T0, 0.1 + 0.1j, 1.0),
                barnes.log_g(T0, 0.2, 1.0),
                difference_equation_report(lam, t),
                check_difference_equation(lam, t),
                truncated_difference_residual(0.08, 0.35 + 0.35j, 2),
                asymptotic_remainder_scan(0.35 + 0.35j, math.pi / 4,
                                          [0.05, 0.1], 2))

    want = run_all()
    saved = mp.mp.dps
    try:
        for dps in (8, 50):
            mp.mp.dps = dps
            assert run_all() == want, dps
            assert mp.mp.dps == dps
    finally:
        mp.mp.dps = saved
