"""Sparse truncated multivariate power series.

The ring is a quotient of a polynomial ring by a monomial ideal fixed by two
kinds of caps: a per-variable degree cap and a total-degree cap.  All
operations truncate against the same ideal, so addition and multiplication
are exact ring operations on the quotient: associativity, distributivity,
and substitution compatibility hold to exact coefficient equality, not just
approximately.

One caveat is inherited by substitutions that trade a time variable for
powers of the expansion variable (Miwa shifts): those map the ideal into
itself only if no shifted variable has a cap smaller than the expansion
variable's cap.  The default caps (expansion variable capped, all others
bounded by the total cap alone) satisfy this.

Coefficients are duck-typed: python ints, floats, complex, Fractions and
mpmath numbers all work, and exact inputs stay exact.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb
from operator import add, le
from typing import Iterable, Mapping

import mpmath as mp

from .errors import DomainError, TruncationOrderError

__all__ = ["SeriesRing", "TruncatedSeries", "series_inverse", "series_log",
           "series_sqrt"]


class SeriesRing:
    """Shared context (variables and caps) for a family of series."""

    def __init__(self, variables: Iterable[str],
                 var_caps: Mapping[str, int] | None = None,
                 total_cap: int = 8):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise DomainError("duplicate variable names")
        if total_cap < 0:
            raise DomainError("total cap must be non-negative")
        self.total_cap = total_cap
        caps = dict(var_caps or {})
        unknown = set(caps) - set(self.variables)
        if unknown:
            raise DomainError(f"caps given for unknown variables {sorted(unknown)}")
        self.var_caps = tuple(min(caps.get(v, total_cap), total_cap)
                              for v in self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DomainError(f"no variable named {name!r}") from None

    def admits(self, exps: tuple[int, ...]) -> bool:
        return sum(exps) <= self.total_cap and all(map(le, exps, self.var_caps))

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def constant(self, c) -> "TruncatedSeries":
        zero_key = (0,) * len(self.variables)
        return TruncatedSeries(self, {} if _is_zero(c) else {zero_key: c})

    def variable(self, name: str) -> "TruncatedSeries":
        i = self.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        if not self.admits(key):
            raise TruncationOrderError(f"variable {name!r} exceeds its cap")
        return TruncatedSeries(self, {key: 1})

    def __eq__(self, other):
        return (isinstance(other, SeriesRing)
                and self.variables == other.variables
                and self.var_caps == other.var_caps
                and self.total_cap == other.total_cap)

    def __hash__(self):
        return hash((self.variables, self.var_caps, self.total_cap))

    def __repr__(self):
        return (f"SeriesRing({self.variables}, caps={self.var_caps}, "
                f"total={self.total_cap})")


def _is_zero(c) -> bool:
    return c == 0


class TruncatedSeries:
    """One element of a SeriesRing; immutable by convention."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SeriesRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "TruncatedSeries"):
        if self.ring != other.ring:
            raise DomainError("series from different rings")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + self.ring.constant(other)
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if _is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return TruncatedSeries(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if _is_zero(other):
                return self.ring.zero()
            return TruncatedSeries(self.ring,
                                   {k: c * other for k, c in self.coeffs.items()})
        self._check(other)
        ring = self.ring
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(map(add, k1, k2))
                if not ring.admits(k):
                    continue
                s = out.get(k, 0) + c1 * c2
                if _is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return TruncatedSeries(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers via series_inverse")
        acc = self.ring.constant(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ring.constant(other)
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Deterministically ordered (exponents, coefficient) pairs."""
        return sorted(self.coeffs.items(), key=lambda t: t[0])

    def coefficient(self, **exponents):
        key = [0] * len(self.ring.variables)
        for name, e in exponents.items():
            key[self.ring.index(name)] = int(e)
        key = tuple(key)
        if not self.ring.admits(key):
            raise TruncationOrderError(f"monomial {exponents} is beyond the caps")
        return self.coeffs.get(key, 0)

    def constant_term(self):
        return self.coeffs.get((0,) * len(self.ring.variables), 0)

    def coefficients_at_order(self, name: str, k: int):
        """All terms with exponent k in `name`, as (residual exponents, coeff)
        with the selected variable's slot removed."""
        i = self.ring.index(name)
        if k > self.ring.var_caps[i]:
            raise TruncationOrderError(
                f"order {k} in {name!r} exceeds the cap {self.ring.var_caps[i]}")
        out = []
        for key, c in self.terms():
            if key[i] == k:
                out.append((key[:i] + key[i + 1:], c))
        return out

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def map_coefficients(self, fn) -> "TruncatedSeries":
        out = {}
        for k, c in self.coeffs.items():
            fc = fn(c)
            if not _is_zero(fc):
                out[k] = fc
        return TruncatedSeries(self.ring, out)

    def substitute(self, name: str, replacement: "TruncatedSeries") -> "TruncatedSeries":
        """Replace one variable by a series (from the same ring)."""
        self._check(replacement)
        i = self.ring.index(name)
        # group by the exponent of the substituted variable, reuse powers
        max_e = max((k[i] for k in self.coeffs), default=0)
        powers = [self.ring.constant(1)]
        for _ in range(max_e):
            powers.append(powers[-1] * replacement)
        # the sum of powers[key[i]] * c x^rest over the terms, built in one
        # dict rather than by copying the running sum for every term; each
        # coefficient sees the operations of `__mul__` and `__add__`, in
        # their order
        ring = self.ring
        total = {}
        for key, c in self.terms():
            rest = key[:i] + (0,) + key[i + 1:]
            for k1, c1 in powers[key[i]].coeffs.items():
                k = tuple(map(add, k1, rest))
                if not ring.admits(k):
                    continue
                term = 0 + c1 * c
                if _is_zero(term):
                    continue
                s = total.get(k, 0) + term
                if _is_zero(s):
                    total.pop(k, None)
                else:
                    total[k] = s
        return TruncatedSeries(ring, total)

    def __repr__(self):
        if not self.coeffs:
            return "TruncatedSeries(0)"
        bits = []
        for key, c in self.terms()[:12]:
            mono = "*".join(f"{v}^{e}" for v, e in zip(self.ring.variables, key) if e)
            bits.append(f"({c!r})" + ("*" + mono if mono else ""))
        more = "" if len(self.coeffs) <= 12 else f" + <{len(self.coeffs) - 12} more>"
        return "TruncatedSeries(" + " + ".join(bits) + more + ")"


def _nilpotent_part(f: TruncatedSeries):
    c0 = f.constant_term()
    if _is_zero(c0):
        raise DomainError("series has no invertible constant term")
    return c0, f - f.ring.constant(c0)


def series_inverse(f: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; constant term must be invertible."""
    c0, h = _nilpotent_part(f)
    inv_c0 = 1 / c0
    # 1/f = (1/c0) * sum (-h/c0)^m
    g = h * (-inv_c0)
    acc = f.ring.constant(inv_c0)
    term = f.ring.constant(inv_c0)
    for _ in range(f.ring.total_cap):
        term = term * g
        if term.is_zero():
            break
        acc = acc + term
    return acc


def series_log(f: TruncatedSeries) -> TruncatedSeries:
    """log of a series with invertible constant term (principal branch of
    the scalar log of that constant)."""
    c0, h = _nilpotent_part(f)
    g = h * (1 / c0)
    if c0 == 1:
        acc = f.ring.zero()
    else:
        acc = f.ring.constant(cmath.log(c0) if isinstance(c0, complex)
                              else _generic_log(c0))
    term = f.ring.constant(1)
    for m in range(1, f.ring.total_cap + 1):
        term = term * g
        if term.is_zero():
            break
        acc = acc + term * ((-1) ** (m + 1) * _ratio(1, m, c0))
    return acc


def series_sqrt(f: TruncatedSeries) -> TruncatedSeries:
    """Principal square root of a series with invertible constant term."""
    c0, h = _nilpotent_part(f)
    g = h * (1 / c0)
    root = 1 if c0 == 1 else _generic_sqrt(c0)
    acc = f.ring.constant(root)
    term = f.ring.constant(1)    # g^m accumulator
    for m in range(1, f.ring.total_cap + 1):
        term = term * g
        if term.is_zero():
            break
        # binomial(1/2, m) = binom(2m, m) (-1)^(m-1) / (4^m (2m - 1))
        coeff = _ratio(comb(2 * m, m) * (-1) ** (m - 1), 4 ** m * (2 * m - 1), c0)
        acc = acc + term * (root * coeff)
    return acc


def _ratio(num: int, den: int, like):
    """num/den in an arithmetic compatible with the coefficient type."""
    if isinstance(like, (mp.mpf, mp.mpc)):
        return mp.mpf(num) / den
    if isinstance(like, (int, Fraction)):
        return Fraction(num, den)
    return num / den


def _generic_log(c):
    if isinstance(c, (mp.mpf, mp.mpc)):
        return mp.log(c)
    return cmath.log(complex(c))


def _generic_sqrt(c):
    if isinstance(c, (mp.mpf, mp.mpc)):
        return mp.sqrt(c)
    if isinstance(c, (int, float)) and c >= 0:
        return math.sqrt(c)
    return cmath.sqrt(complex(c))
