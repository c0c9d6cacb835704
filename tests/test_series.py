"""Truncated multivariate power-series quotient ring."""
from fractions import Fraction

import pytest

from conifold_flows import DomainError, TruncationOrderError
from conifold_flows.series import (
    SeriesRing,
    TruncatedSeries,
    series_inverse,
    series_log,
    series_sqrt,
)


@pytest.fixture
def ring():
    return SeriesRing(["zeta", "z1", "zt1"], var_caps={"zeta": 4}, total_cap=6)


def _sample(ring, shift=0):
    zeta, z1, zt1 = (ring.variable(n) for n in ("zeta", "z1", "zt1"))
    return (ring.constant(1 + shift) + 2 * zeta + (3 - shift) * z1 * zt1
            + zeta ** 2 * z1)


def test_ring_laws_exact(ring):
    f, g, h = _sample(ring), _sample(ring, 1), _sample(ring, -2)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f - f == ring.zero()
    assert f * ring.constant(1) == f


def test_caps_enforced(ring):
    zeta = ring.variable("zeta")
    z1 = ring.variable("z1")
    assert (zeta ** 5).is_zero()  # per-variable cap 4
    assert (z1 ** 7).is_zero()  # total cap 6
    assert not (zeta ** 4).is_zero()
    assert ring.admits((4, 2, 0))
    assert not ring.admits((5, 0, 0))
    assert not ring.admits((4, 2, 1))


def test_coefficient_access(ring):
    f = _sample(ring)
    assert f.constant_term() == 1
    assert f.coefficient(zeta=1) == 2
    assert f.coefficient(z1=1, zt1=1) == 3
    assert f.coefficient(zeta=2, z1=1) == 1
    assert f.coefficient(zeta=3) == 0
    by_order = f.coefficients_at_order("zeta", 1)
    assert by_order == [((0, 0), 2)]
    with pytest.raises(TruncationOrderError):
        f.coefficients_at_order("zeta", 5)
    with pytest.raises(TruncationOrderError):
        f.coefficient(zeta=5)


def test_pow_matches_repeated_mul(ring):
    f = _sample(ring)
    assert f ** 3 == f * f * f
    assert f ** 0 == ring.constant(1)


def test_substitution_is_a_homomorphism(ring):
    f, g = _sample(ring), _sample(ring, 2)
    repl = ring.variable("zeta") + ring.variable("z1") * ring.constant(Fraction(1, 2))
    lhs = (f * g).substitute("z1", repl)
    rhs = f.substitute("z1", repl) * g.substitute("z1", repl)
    assert lhs == rhs


def test_substitution_is_the_sum_of_its_products_bitwise(ring):
    # substitute accumulates into one dict; it must give the coefficients,
    # their order and the signs of their zeros that adding up the products
    # powers[e] * c x^rest with + and * gives, on inexact coefficients that
    # cancel and on a variable the series lacks
    zeta, z1, zt1 = (ring.variable(n) for n in ("zeta", "z1", "zt1"))
    f = (ring.constant(0.3 - 0.1j) + (1.7 + 2.1j) * z1 + (-0.2 + 1e-17j) * z1 * z1
         + complex(0.5, -0.0) * zeta * zt1 + (0.1 + 0.3j) * z1 ** 3 * zeta)
    repl = z1 + (0.3 + 1j / 3) * zeta + (-0.7 + 0.1j) * zeta ** 2

    def summed(f, name, repl):
        i = ring.index(name)
        powers = [ring.constant(1)]
        for _ in range(max(k[i] for k in f.coeffs)):
            powers.append(powers[-1] * repl)
        total = ring.zero()
        for key, c in f.terms():
            rest = key[:i] + (0,) + key[i + 1:]
            total = total + powers[key[i]] * TruncatedSeries(ring, {rest: c})
        return total

    for name in ("z1", "zt1", "zeta"):
        for g in (f, f * f):
            got = list(g.substitute(name, repl).coeffs.items())
            want = list(summed(g, name, repl).coeffs.items())
            assert [(k, repr(c)) for k, c in got] == [(k, repr(c)) for k, c in want]


def test_inverse(ring):
    f = _sample(ring)
    assert f * series_inverse(f) == ring.constant(1)
    with pytest.raises(DomainError):
        series_inverse(ring.variable("zeta"))


def test_log_turns_products_into_sums(ring):
    f = ring.constant(1) + ring.variable("zeta") * ring.constant(Fraction(1, 3))
    g = ring.constant(1) + ring.variable("z1") * ring.variable("zt1")
    lhs = series_log(f * g)
    rhs = series_log(f) + series_log(g)
    assert (lhs - rhs).max_abs() < 1e-15


def test_sqrt(ring):
    f = _sample(ring)
    s = series_sqrt(f)
    assert (s * s - f).max_abs() < 1e-14
    # exact when the constant term is exactly 1
    g = ring.constant(1) + ring.variable("zeta")
    s2 = series_sqrt(g)
    assert s2 * s2 == g
    with pytest.raises(DomainError):
        series_sqrt(ring.variable("z1"))


def test_map_and_zero_detection(ring):
    f = _sample(ring)
    doubled = f.map_coefficients(lambda c: 2 * c)
    assert doubled == f + f
    assert ring.zero().is_zero()
    assert ring.zero().max_abs() == 0.0


def test_exact_fraction_arithmetic(ring):
    f = ring.constant(Fraction(1, 3)) + ring.variable("zeta") * Fraction(1, 7)
    g = f * 21
    assert g.constant_term() == 7
    assert g.coefficient(zeta=1) == 3
    assert isinstance(g.constant_term(), Fraction)


def test_mixed_ring_arithmetic_rejected(ring):
    other = SeriesRing(["zeta"], var_caps={"zeta": 4}, total_cap=4)
    with pytest.raises(DomainError):
        _sample(ring) + other.variable("zeta")


def test_unknown_variable(ring):
    with pytest.raises(DomainError):
        ring.variable("missing")
    with pytest.raises(DomainError):
        ring.index("missing")
