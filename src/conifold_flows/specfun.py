"""Exact Bernoulli data, generalized Bernoulli polynomials, integer polylogarithms,
dense truncated power series in one variable.

Branch conventions used across the whole package are fixed here once:

* ``log`` always means the principal branch (imaginary part in (-pi, pi]),
  both for ``cmath.log`` and ``mpmath.log``.
* ``polylog(1, z) = -log(1 - z)`` with that principal branch.
* Residuals of multiplicative functional equations are compared modulo
  2*pi*i; the folding helper lives in :mod:`conifold_flows.barnes`.

Numerical kernels in this module are generic over ``complex`` and
``mpmath`` scalars so higher layers can run them at extended precision.
"""
from __future__ import annotations

import cmath
import math
import sys
import threading
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float

from .errors import DomainError, PoleError

__all__ = [
    "as_mp",
    "bernoulli_number",
    "bernoulli_egf",
    "dense_mul",
    "gen_bernoulli",
    "is_mp",
    "polylog",
]

Scalar = Union[complex, "mp.mpc"]

# Bernoulli numbers, first-kind convention (B_1 = -1/2), exact rationals.
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]
_BERNOULLI_LOCK = threading.Lock()
# B_2000 takes 0.7-1.3 s on a 2-CPU Xeon (CPython 3.11), at a cost cubic in
# the index; from B_2064 on, a numerator has more digits than CPython prints
_BERNOULLI_MAX = 2000


def bernoulli_number(k: int) -> Fraction:
    """Exact Bernoulli number B_k (B_1 = -1/2), 0 <= k <= 2000.  A k past the
    table at least doubles it, from the tangent numbers T_m of Brent and
    Harvey (arXiv:1108.0286): B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    if not 0 <= k <= _BERNOULLI_MAX:
        raise DomainError(f"Bernoulli index must lie in 0..{_BERNOULLI_MAX}, "
                          f"got {k}")
    if k >= len(_BERNOULLI):
        with _BERNOULLI_LOCK:
            n = min(_BERNOULLI_MAX, max(k, 2 * len(_BERNOULLI))) // 2
            tangent = [0] + [math.factorial(j - 1) for j in range(1, n + 1)]
            for i in range(2, n + 1):
                for j in range(i, n + 1):
                    tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
            for m in range(len(_BERNOULLI) // 2, n + 1):
                _BERNOULLI.extend((Fraction((-1) ** (m - 1) * 2 * m * tangent[m],
                                            4 ** m * (4 ** m - 1)), Fraction(0)))
    return _BERNOULLI[k]


# ---------------------------------------------------------------------------
# dense truncated power series in one variable
#
# A list c[0..n] stands for c_0 + c_1 x + ... + c_n x^n mod x^(n+1).


def dense_mul(a, b):
    """Truncated product of two dense series, to the shorter length.

    Coefficients may be Fractions, mpmath or complex scalars, or numpy
    arrays (one series per grid point).  Terms with a zero coefficient of
    ``a`` are skipped.
    """
    n = min(len(a), len(b))
    out = [a[0] * 0 for _ in range(n)]
    for i, ai in enumerate(a[:n]):
        if (not ai.any()) if isinstance(ai, np.ndarray) else ai == 0:
            continue
        for j in range(n - i):
            out[i + j] = out[i + j] + ai * b[j]
    return out


# ---------------------------------------------------------------------------
# generalized Bernoulli polynomials
# ---------------------------------------------------------------------------

def is_mp(x) -> bool:
    """True for mpmath real and complex scalars."""
    return isinstance(x, (mp.mpf, mp.mpc))


def as_mp(x):
    """x as an mpmath complex: an mpmath number keeps its digits, any other
    number goes through complex() first and so gives its double's value,
    whose parts convert exactly."""
    if is_mp(x):
        return mp.mpc(x)
    z = complex(x)
    return mp.make_mpc((from_float(z.real), from_float(z.imag)))


def bernoulli_egf(z, omegas, nmax: int):
    """Taylor coefficients c_n = B_{r,n}(z|omega)/n! of the generating function

        x^r e^{z x} / prod_i (e^{omega_i x} - 1) = sum_n c_n x^n.

    The type of ``z`` picks the coefficient ring (Fraction, mpmath or
    complex) into which the exact Bernoulli numbers are lifted.
    """
    if isinstance(z, Fraction):
        conv = Fraction
    elif is_mp(z):
        def conv(q):
            return mp.mpc(mp.mpf(q.numerator) / q.denominator)
    else:
        conv = complex
    one = conv(Fraction(1))
    inv_fact = [one]
    for k in range(1, nmax + 1):
        inv_fact.append(inv_fact[-1] / k)

    prod = [one] + [one * 0] * nmax
    for w in omegas:
        # x/(e^{w x} - 1) = sum_k B_k w^{k-1} x^k / k!
        factor = []
        w_pow = one / w
        for k in range(nmax + 1):
            factor.append(conv(bernoulli_number(k)) * w_pow * inv_fact[k])
            w_pow = w_pow * w
        prod = dense_mul(prod, factor)

    expz = []
    z_pow = one
    for k in range(nmax + 1):
        expz.append(z_pow * inv_fact[k])
        z_pow = z_pow * z
    return dense_mul(prod, expz)


def gen_bernoulli(r: int, n: int, z, omega: Sequence):
    """Generalized Bernoulli polynomial B_{r,n}(z | omega_1..omega_r).

    Defined by x^r e^{z x} / prod_i (e^{omega_i x} - 1)
             = sum_{n>=0} B_{r,n}(z|omega) x^n / n!.

    Exact Fraction arithmetic when every input is rational, mpmath
    arithmetic at the working precision when any input is an mpmath scalar,
    complex arithmetic otherwise.  Symmetric in the omega entries.
    """
    omega = tuple(omega)
    if r < 1:
        raise DomainError(f"rank must be >= 1, got {r}")
    if len(omega) != r:
        raise DomainError(f"expected {r} periods, got {len(omega)}")
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")
    if any(w == 0 for w in omega):
        raise DomainError("periods must be non-zero")

    if all(isinstance(x, (int, Fraction)) for x in (z, *omega)):
        lift = Fraction
    else:
        lift = mp.mpc if any(is_mp(x) for x in (z, *omega)) else complex
    coeffs = bernoulli_egf(lift(z), [lift(w) for w in omega], n)
    return coeffs[n] * math.factorial(n)


# ---------------------------------------------------------------------------
# integer-order polylogarithms
# ---------------------------------------------------------------------------

def _negative_order_coefficients(n: int, limit=None):
    """k! S(n+1, k+1) for k = 0..n (S the Stirling numbers of the second
    kind), built row by row from a(m, k) = (k+1) a(m-1, k) + k a(m-1, k-1);
    None as soon as a row holds an integer above limit (rows only grow)."""
    row = [1]
    for _ in range(n):
        row = [(k + 1) * a + k * b
               for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
        if limit is not None and max(row) > limit:
            return None
    return row


def _log(x):
    return mp.log(x) if is_mp(x) else cmath.log(x)


def polylog(s: int, z, tol: float = 1e-15):
    """Polylogarithm Li_s(z) for integer order s <= 3.

    Closed forms for s <= 1 (rational in z for s <= 0, principal log for
    s = 1); direct power series with a proven tail bound for s in {2, 3},
    valid for |z| < 1.  Accepts ``complex`` or mpmath scalars and computes
    in the matching arithmetic; in doubles, s <= -160 raises DomainError,
    because a rational coefficient of Li_s exceeds the largest double.
    """
    if s > 3:
        raise DomainError(f"order {s} not supported (maximum 3)")
    if z == 0:
        return z * 0
    if s <= 1:
        if z == 1:
            raise PoleError(f"Li_{s} has a singularity at z = 1")
        if s == 1:
            return -_log(1 - z)
        # Li_{-n}(z) = sum_{k=0}^{n} k! S(n+1, k+1) (z/(1-z))^{k+1}
        coeffs = _negative_order_coefficients(
            -s, None if is_mp(z) else int(sys.float_info.max))
        if coeffs is None:
            raise DomainError(f"Li_{s}: its coefficients k! S({1 - s}, k+1) "
                              "exceed the double range; pass an mpmath argument")
        w = z / (1 - z)
        acc = z * 0
        w_pow = w
        for c in coeffs:
            acc += c * w_pow
            w_pow = w_pow * w
        return acc
    # s in {2, 3}: series sum_{m>=1} z^m / m^s with tail bound
    # |z|^{N+1} / ((N+1)^s (1 - |z|)) <= tol.
    az = abs(z)
    if az >= 1:
        raise DomainError(f"series for Li_{s} needs |z| < 1, got |z| = {az}")
    nterms = 1
    while float(az) ** (nterms + 1) / ((nterms + 1) ** s * (1 - float(az))) > tol:
        nterms += 1
    acc = z * 0
    z_pow = z * 0 + 1
    for m in range(1, nterms + 1):
        z_pow = z_pow * z
        acc += z_pow / m**s
    return acc
