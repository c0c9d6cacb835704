"""Genus-expanded free energies of the resolved conifold and their
difference-equation and asymptotic checks against the rank-3 kernel.

The genus pieces in the fugacity q = exp(2 pi i t) are

    F0 = Li_3(q),   Fg = ((-1)^(g-1) B_{2g} / (2g (2g-2)!)) Li_{3-2g}(q)   (g >= 1)

and the all-genus object is log_g(t | lam_check, 1) whose second difference
in steps of lam_check equals log(1 - q) exactly.  Everything here is generic
over python complex and mpmath scalars; the asymptotic scan runs internally
in mpmath because the remainder after genus-3 truncation sits below the
float64 representation error of the unsubtracted values.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np

from . import barnes
from .errors import DomainError
from .specfun import bernoulli_number, is_mp, polylog

__all__ = [
    "fugacity",
    "genus_coefficient",
    "free_energy_genus",
    "constant_map_contribution",
    "classical_potential",
    "equivariant_potential",
    "check_difference_equation",
    "difference_equation_report",
    "truncated_difference_residual",
    "asymptotic_remainder_scan",
]


def fugacity(t):
    """q = exp(2 pi i t), with Re t reduced mod 1 first so that integer
    shifts of t give bitwise-identical q (the genus pieces are exactly
    1-periodic in t)."""
    if is_mp(t):
        t = mp.mpc(t)
        re = mp.re(t) - mp.floor(mp.re(t))
        return mp.exp(2j * mp.pi * mp.mpc(re, mp.im(t)))
    t = complex(t)
    re = t.real - math.floor(t.real)
    return cmath.exp(2j * math.pi * complex(re, t.imag))


def genus_coefficient(g: int) -> Fraction:
    """Exact rational prefactor of Li_{3-2g}(q) in the genus-g free energy."""
    if g < 1:
        raise DomainError("coefficient defined for genus >= 1")
    b = bernoulli_number(2 * g)
    return (-1) ** (g - 1) * b / (2 * g * math.factorial(2 * g - 2))


def free_energy_genus(g: int, t, series_tol: float = 1e-15):
    """Genus-g free energy at Kaehler parameter t (upper half-plane)."""
    if g < 0:
        raise DomainError("genus must be non-negative")
    if is_mp(t):
        if not mp.im(t) > 0:
            raise DomainError("need Im t > 0 so that |q| < 1")
    elif not complex(t).imag > 0:
        raise DomainError("need Im t > 0 so that |q| < 1")
    q = fugacity(t)
    if g == 0:
        return polylog(3, q, tol=series_tol)
    c = genus_coefficient(g)
    li = polylog(3 - 2 * g, q, tol=series_tol)
    if is_mp(li):
        return mp.mpf(c.numerator) / c.denominator * li
    return c.numerator / c.denominator * li


def constant_map_contribution(g: int, chi):
    """Degree-zero (constant-map) free energy at genus g >= 2 for Euler
    characteristic chi: (-1)^(g-1) chi B_{2g} B_{2g-2} / (4g (2g-2) (2g-2)!).

    Exact Fraction for integer chi.  Genus 0 and 1 pieces depend on the
    target geometry beyond chi and are not provided.
    """
    if g < 2:
        raise DomainError("constant-map term only implemented for genus >= 2")
    num = (-1) ** (g - 1) * bernoulli_number(2 * g) * bernoulli_number(2 * g - 2)
    den = 4 * g * (2 * g - 2) * math.factorial(2 * g - 2)
    core = num / den
    if isinstance(chi, int):
        return chi * core
    return complex(chi) * complex(core)


def classical_potential(lam_check, t, x, kappa) -> complex:
    """Classical piece (2 pi)^3 i x^2 t / (2 kappa^2 lam_check^2) of the
    equivariant potential."""
    kappa = complex(kappa)
    if kappa == 0:
        raise DomainError("equivariant parameter kappa must be nonzero")
    x = complex(x)
    return ((2 * math.pi) ** 3 * 1j * x * x * complex(t)
            / (2 * kappa ** 2 * complex(lam_check) ** 2))


def equivariant_potential(lam_check, t, x, kappa,
                          quad_tol: float = barnes.DEFAULT_QUAD_TOL) -> complex:
    """Full potential with anti-diagonal torus weights: the classical piece
    plus log_g(t | lam_check, 1)."""
    # the nonperturbative part checks Re lam_check > 0 before the classical
    # part divides by lam_check^2
    quantum = barnes.nonperturbative_potential(lam_check, t, quad_tol=quad_tol)
    return classical_potential(lam_check, t, x, kappa) + quantum


def _second_difference_mp(t, lam_check, quad_tol):
    """Second difference of log_g, both right sides, folded residual, winding."""
    lam_check = complex(lam_check)
    if lam_check.real <= 0:
        raise DomainError("reduced coupling needs positive real part")
    with barnes.working_precision(quad_tol):
        t, lam = mp.mpc(t), mp.mpc(lam_check)
        up, mid, dn = (barnes.log_g_highprec(arg, lam_check, 1, quad_tol)
                       for arg in (t + lam, t, t - lam))
        lhs = up - 2 * mid + dn
        q = fugacity(t)
        rhs = mp.log(1 - q)
        folded, winding = barnes.fold_2pii(lhs - rhs)
        return lhs, rhs, -polylog(1, q), folded, winding


def check_difference_equation(lam_check, t,
                              quad_tol: float = barnes.DEFAULT_QUAD_TOL) -> complex:
    """Folded residual of the central difference equation

        log_g(t + lam_check) - 2 log_g(t) + log_g(t - lam_check) = log(1 - q).

    The right side is the closed form of (i q d/dq)^2 Li_3(q); the residual
    is folded mod 2 pi i before being returned.
    """
    return complex(_second_difference_mp(t, lam_check, quad_tol)[3])


def difference_equation_report(lam_check, t,
                               quad_tol: float = barnes.DEFAULT_QUAD_TOL) -> dict:
    """Same check with all intermediate values exposed.

    `rhs_squared_derivative` records (i q d/dq)^2 Li_3(q) = -Li_1(q), which
    equals the closed form log(1 - q); both are reported so the sign
    convention is auditable.
    """
    lhs, rhs, via_derivative, folded, winding = _second_difference_mp(
        t, lam_check, quad_tol)
    return {
        "second_difference": complex(lhs),
        "rhs_closed_form": complex(rhs),
        "rhs_squared_derivative": complex(via_derivative),
        "residual": complex(folded),
        "winding": winding,
    }


def truncated_difference_residual(lam_check, t, genus_cap: int,
                                  series_tol: float = 1e-25) -> complex:
    """Residual of the difference equation with log_g replaced by the genus
    expansion truncated at `genus_cap`.

    Taylor orders of the second difference cancel across genus up to and
    including lam^(2 genus_cap); the residual therefore shrinks like
    lam^(2 genus_cap + 2)."""
    with barnes.working_precision(series_tol):
        lam_check_mp = mp.mpc(lam_check)
        t_mp = mp.mpc(t)
        lam = 2 * mp.pi * lam_check_mp

        def f_trunc(arg):
            acc = mp.mpc(0)
            for g in range(genus_cap + 1):
                acc += lam ** (2 * g - 2) * free_energy_genus(g, arg, series_tol)
            return acc

        lhs = (f_trunc(t_mp + lam_check_mp) - 2 * f_trunc(t_mp)
               + f_trunc(t_mp - lam_check_mp))
        rhs = mp.log(1 - fugacity(t_mp))
        return complex(lhs - rhs)


def asymptotic_remainder_scan(t, theta: float, eps_list: Sequence[float],
                              genus_cap: int,
                              quad_tol: float = 1e-14) -> float:
    """Fitted log-log slope of |log_g - genus expansion through genus_cap|
    along the ray lam_check = eps e^(i theta).

    Slope 2*genus_cap confirms the remainder order; for genus_cap = 0 the
    slope is 0 because the genus-1 term is independent of the coupling.
    Subtraction happens at mpmath precision.
    """
    if len({abs(eps) for eps in eps_list}) < 2:
        raise DomainError("need at least two distinct ray points eps to fit a slope")
    xs, ys = [], []
    with barnes.working_precision(quad_tol) as dps:
        t_mp = mp.mpc(t)
        if not mp.im(t_mp) > 0:
            raise DomainError("need Im t > 0")
        if abs(fugacity(t_mp)) > 0.5:
            raise DomainError("scan assumes |q| <= 0.5 so the genus series "
                              "coefficients stay O(1)")
        series_tol = float(mp.mpf(10) ** (-(dps - 3)))
        genus_values = [free_energy_genus(g, t_mp, series_tol)
                        for g in range(genus_cap + 1)]
        phase = mp.exp(1j * mp.mpf(theta))
        for eps in eps_list:
            lam_check = mp.mpf(repr(float(eps))) * phase
            lam = 2 * mp.pi * lam_check
            total = barnes.log_g_highprec(t_mp, lam_check, 1, quad_tol)
            for g, fg in enumerate(genus_values):
                total -= lam ** (2 * g - 2) * fg
            if total == 0:
                raise ArithmeticError("remainder vanished identically; "
                                      "cannot take its log")
            xs.append(float(mp.log10(abs(eps))))
            ys.append(float(mp.log10(abs(total))))
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)
