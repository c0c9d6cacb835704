"""Exact rational special-function layer: Bernoulli data and polylogarithms.

Oracles here are independent of the package internals: a Fraction-arithmetic
series inversion for Bernoulli numbers, sympy's symbolic series for the
generalized Bernoulli polynomials, and mpmath.polylog for the polylogarithms.
"""
import math
from fractions import Fraction

import mpmath as mp
import pytest
import sympy

from conifold_flows import DomainError, PoleError, specfun
from conifold_flows.specfun import (
    bernoulli_number,
    gen_bernoulli,
    polylog,
)


def oracle_bernoulli(kmax):
    """B_k from inverting the EGF (e^t - 1)/t term by term, exactly."""
    # g_k = 1/(k+1)! are the coefficients of (e^t - 1)/t; solve sum over
    # j of B_j/j! * g_{k-j} = [k == 0] by forward substitution
    g = [Fraction(1, 1)]
    fact = 1
    for k in range(1, kmax + 1):
        fact *= k + 1
        g.append(Fraction(1, fact))
    b_over_fact = []
    for k in range(kmax + 1):
        rhs = Fraction(1 if k == 0 else 0)
        for j in range(k):
            rhs -= b_over_fact[j] * g[k - j]
        b_over_fact.append(rhs)
    fact = 1
    out = []
    for k in range(kmax + 1):
        if k:
            fact *= k
        out.append(b_over_fact[k] * fact)
    return out


def test_bernoulli_against_series_inversion():
    oracle = oracle_bernoulli(24)
    for k in range(25):
        assert bernoulli_number(k) == oracle[k]


def test_bernoulli_first_kind_convention():
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for k in range(3, 31, 2):
        assert bernoulli_number(k) == 0


def test_bernoulli_against_sympy():
    for k in range(0, 18):
        want = Fraction(int(sympy.bernoulli(k).p), int(sympy.bernoulli(k).q))
        if k == 1:
            want = Fraction(-1, 2)  # sympy's B(1) is +1/2 in recent versions
        assert bernoulli_number(k) == want


def test_bernoulli_negative_index_rejected():
    with pytest.raises(DomainError):
        bernoulli_number(-1)


def recurrence_bernoulli(kmax):
    """B_k from sum_{j=0}^{m} C(m+1, j) B_j = 0 (m >= 1), in Fractions: the
    O(k^2) recurrence the package used before the tangent numbers."""
    out = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, kmax + 1):
        acc = sum(math.comb(m + 1, j) * out[j] for j in range(m))
        out.append(-acc / (m + 1))
    return out


def test_bernoulli_matches_the_recurrence_to_200():
    oracle = recurrence_bernoulli(200)
    assert [bernoulli_number(k) for k in range(201)] == oracle


def test_bernoulli_index_is_capped():
    # past the documented maximum, a DomainError instead of an unbounded run
    for k in (specfun._BERNOULLI_MAX + 1, 10 ** 6):
        with pytest.raises(DomainError, match="Bernoulli index"):
            bernoulli_number(k)


def _sympy_gen_bernoulli(r, n, z, omega):
    t = sympy.symbols("t")
    num = t**r * sympy.exp(sympy.Rational(z) * t)
    den = sympy.prod([sympy.exp(sympy.Rational(w) * t) - 1 for w in omega])
    series = sympy.series(num / den, t, 0, n + 1).removeO()
    return Fraction(str(series.coeff(t, n) * sympy.factorial(n)))


@pytest.mark.parametrize("r,n,z,omega", [
    (1, 0, Fraction(1, 3), (1,)),
    (1, 3, Fraction(2, 5), (Fraction(3, 2),)),
    (2, 2, Fraction(1, 2), (1, 1)),
    (2, 4, Fraction(3, 4), (1, 2)),
    (3, 3, Fraction(5, 3), (1, 1, 2)),
    (3, 5, Fraction(1, 7), (2, 3, 5)),
])
def test_gen_bernoulli_exact_against_sympy(r, n, z, omega):
    assert gen_bernoulli(r, n, z, omega) == _sympy_gen_bernoulli(r, n, z, omega)


def test_gen_bernoulli_rank1_is_classical_polynomial():
    # B_{1,n}(z|w) = w^(n-1) B_n(z/w)
    z, w = Fraction(2, 7), Fraction(3, 2)
    for n in range(6):
        x = sympy.symbols("x")
        bn = sympy.bernoulli(n, x).subs(x, sympy.Rational(z / w))
        want = Fraction(str(sympy.nsimplify(bn))) * w ** (n - 1)
        assert gen_bernoulli(1, n, z, (w,)) == want


def test_gen_bernoulli_symmetric_in_periods():
    z = Fraction(1, 2)
    a = gen_bernoulli(3, 4, z, (1, 2, 3))
    for perm in ((2, 1, 3), (3, 2, 1), (1, 3, 2)):
        assert gen_bernoulli(3, 4, z, perm) == a


def test_gen_bernoulli_complex_periods():
    val = gen_bernoulli(2, 2, 0.3 + 0.1j, (1.0, 0.5 + 0.25j))
    t = sympy.symbols("t")
    z = sympy.Float(0.3) + sympy.Float(0.1) * sympy.I
    w2 = sympy.Float(0.5) + sympy.Float(0.25) * sympy.I
    expr = t**2 * sympy.exp(z * t) / ((sympy.exp(t) - 1) * (sympy.exp(w2 * t) - 1))
    want = complex(sympy.series(expr, t, 0, 3).removeO().coeff(t, 2)) * 2
    assert abs(val - want) < 1e-12


def test_gen_bernoulli_validation():
    with pytest.raises(DomainError):
        gen_bernoulli(0, 1, 0.5, ())
    with pytest.raises(DomainError):
        gen_bernoulli(2, 1, 0.5, (1,))
    with pytest.raises(DomainError):
        gen_bernoulli(1, -1, 0.5, (1,))
    with pytest.raises(DomainError):
        gen_bernoulli(1, 2, 0.5, (0,))


@pytest.mark.parametrize("s", [0, -1, -2, -3, -4])
def test_polylog_nonpositive_closed_forms(s):
    for z in (0.3, -0.45, 0.2 + 0.4j, 1.7 + 0.2j):
        want = complex(mp.polylog(s, z))
        assert abs(polylog(s, z) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_polylog_positive_orders_against_mpmath(s):
    for z in (0.25, -0.6, 0.3 + 0.35j, -0.1 - 0.7j):
        want = complex(mp.polylog(s, z))
        assert abs(polylog(s, z) - want) <= 1e-13 * max(1.0, abs(want))


def test_polylog_negative_orders_up_to_the_double_range():
    # the coefficients k! S(n + 1, k + 1) of Li_{-n} reach past the largest
    # double at n = 160: a double argument answers through order -159 (at
    # 0 < z < 1, where no terms cancel) and raises DomainError from -160 on,
    # whatever z and however far past; an mpmath argument keeps every order
    for s in (-30, -100, -159):
        for z in (0.5, 0.1):
            want = complex(mp.polylog(s, z))
            assert abs(polylog(s, z) - want) <= 1e-12 * abs(want), (s, z)
    for s in (-160, -200, -3000):
        for z in (0.5, 1e-6):
            with pytest.raises(DomainError, match=f"Li_{s}:"):
                polylog(s, z)
    with mp.workdps(30):
        got, want = polylog(-200, mp.mpf(0.5)), mp.polylog(-200, mp.mpf(0.5))
        assert abs(got - want) <= 1e-25 * abs(want)


def test_polylog_dilog_special_value():
    assert abs(polylog(2, 0.5) - (mp.pi**2 / 12 - mp.log(2) ** 2 / 2)) < 1e-14


def test_polylog_domain_errors():
    with pytest.raises(DomainError):
        polylog(4, 0.5)
    with pytest.raises(PoleError):
        polylog(1, 1.0)
    with pytest.raises(PoleError):
        polylog(0, 1.0)
    with pytest.raises(DomainError):
        polylog(2, 1.2)
