"""Multiple zeta/gamma/sine functions and the conifold difference-equation kernels.

The rank-r zeta function  zeta_r(s, z | omega) = sum_{n in Z_{>=0}^r} (z + n.omega)^{-s}
(convergent for Re s > r) is continued through the split integral

    Gamma(s) zeta_r(s) = sum_{n=0}^{N} a_n x0^(s+n-r) / (s + n - r)
                         + int_{x0}^T x^{s-1} e^{-z x} / prod_i (1 - e^{-omega_i x}) dx

with a_n = (-1)^n B_{r,n}(z|omega) / n!  (generalized Bernoulli data) the
Laurent coefficients of the integrand, integrated termwise on (0, x0) with
x0 = 1/2 and N = 64, and cut where e^{-Re(z) T} falls below 1e-18 and
quad_tol/1000.  The s-derivative at s = 0 yields the log multiple gamma.
As a_n(|omega| - z) = (-1)^n a_n(z), a multiple sine takes one Laurent set
and one quadrature.  Inside 0 < Re z < Re |omega| the kernels ``log_h``
(r = 2) and ``log_g`` (r = 3) are log sin_r - pi i a_r; their exact
first/second difference equations extend them outside.

All heavy arithmetic runs at a working precision derived from the
requested quadrature tolerance, so that the severe cancellation between
the series terms and the integral stays far below the returned accuracy:
in mpmath, except for the q-series below, which runs from its mpmath
argument to its one returned value on Python integers in fixed point at
the same bits, as mpmath's own series do.  ``working_precision(quad_tol)``
alone maps a tolerance to those digits and holds the lock that serializes
precision changes; every entry point here, and every mpmath computation in
:mod:`gw`, runs under it.  Every argument of every entry point (t, s, z and
each period) is converted once, under that lock, by ``specfun.as_mp``: an
mpmath number keeps its digits, and any other number goes through
``complex()`` first, so every numeric type that stands for a double gives
that double's value.

``log_h`` and ``log_g`` share one dispatcher, ``_kernel``.  It first tries
Bridgeland's q-series for the kernels (the Gopakumar-Vafa sum in
x = e^{2 pi i t/w2} plus its non-perturbative series in
y = e^{2 pi i (t - w2)/w1}), which converges for non-real w1/w2 when
|x| < 1 and |y| < 1, and costs milliseconds.  Its value is the branch
convention: it may differ from the quadrature by a multiple of 2 pi i.
Real w1/w2, |y| >= 1, and points where the series would lose too many
digits to cancellation fall back to the split integral at t + k w1 nearest
mid-strip and the difference equations back to t, summed in closed form.

Every sum of both kernels steps u_k = 1/(1 - e^{kb}) in one of only two
ratios, b_x = +/-2 pi i w1/w2 for the x-series and b_y = -2 pi i w2/w1
(conjugated for Im(w1/w2) < 0) for the y-series.  So the data that depends
on the coupling alone is computed once per pair of periods and working
precision, in a small cache keyed on the exact mpmath values: 1/w2, 2 pi i,
b_x, and with lam_y = w1/w2 (or its conjugate) 2 pi i/lam_y, 1/lam_y and
1/(2 pi i), each in fixed point, and for each b a table of e^b and the u_k,
grown only as far as some sum has reached.  The values are bitwise those
of forming everything per call.
"""
from __future__ import annotations

import contextlib
import functools
import math
import threading
from typing import Sequence

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .errors import DomainError, PoleError
from .specfun import as_mp, bernoulli_egf, is_mp

__all__ = [
    "barnes_zeta",
    "zeta_at_zero",
    "log_multiple_gamma",
    "log_multiple_sine",
    "log_h",
    "log_g",
    "log_g_highprec",
    "nonperturbative_potential",
    "check_coupling",
    "working_precision",
    "fold_2pii",
]

DEFAULT_QUAD_TOL = 1e-12
_MIN_COUPLING = 1e-6
_EXTENSION_STEP_CAP = 400
_LAURENT_ORDER = 64
_Q_GUARD_DIGITS = 10
_Q_TERM_CAP = 1000

_PREC_LOCK = threading.RLock()


def _dps_for(quad_tol: float) -> int:
    if not 0 < quad_tol < math.inf:
        raise DomainError(
            f"quadrature tolerance {quad_tol} must be finite and positive")
    return max(25, int(round(-math.log10(quad_tol))) + 13)


@contextlib.contextmanager
def working_precision(quad_tol: float = DEFAULT_QUAD_TOL):
    """Hold the precision lock and run at the mpmath digits that keep the
    cancellations behind a result of tolerance quad_tol harmless; yields
    those digits."""
    dps = _dps_for(quad_tol)
    with _PREC_LOCK, mp.workdps(dps):
        yield dps


def _periods(omega):
    """The periods through as_mp, checked: one to three, each with positive
    real part."""
    omega = tuple(as_mp(w) for w in omega)
    if len(omega) not in (1, 2, 3):
        raise DomainError(f"need 1, 2 or 3 periods, got {len(omega)}")
    if not all(mp.re(w) > 0 for w in omega):
        raise DomainError("all periods need positive real part")
    return omega


def _continuation_point(z):
    """z through as_mp, checked for the split integral."""
    z = as_mp(z)
    if not mp.re(z) > 0:
        raise DomainError(
            "argument needs positive real part; outside this strip use "
            "the difference-equation extension in log_h/log_g")
    return z


@functools.lru_cache(maxsize=512)
def _laurent_coeffs(z, omegas, nmax: int, dps: int):
    """a_n = (-1)^n B_{r,n}(z|omega)/n!, n = 0..nmax, at working precision."""
    with mp.workdps(dps):
        c = bernoulli_egf(z, omegas, nmax)
        return tuple(((-1) ** n) * c[n] for n in range(nmax + 1))


class _SplitIntegral:
    """Shared data for continuing one (z, omega) pair across values of s.

    On (0, x0) the integrand is replaced by its Laurent series
    sum_n a_n x^(n-r) and integrated term by term; on (x0, T) it is
    integrated numerically.
    """

    def __init__(self, z, omegas, quad_tol: float):
        self.z, self.omegas = z, omegas
        self.r = len(omegas)
        self.quad_tol = quad_tol
        self.dps = _dps_for(quad_tol)
        wmax = max(abs(w) for w in self.omegas)
        if wmax > 10:
            raise DomainError(
                "period modulus above 10 exceeds the Laurent-series radius "
                "used on (0, 1/2); rescale with the homogeneity relation")
        self.x0 = mp.mpf("0.5")
        # -log of the decay where the integrals end: min(1e-18, quad_tol/1000)
        self.cut = mp.log(10) * max(18, 3 - math.log10(quad_tol))
        self.a = _laurent_coeffs(self.z, self.omegas, _LAURENT_ORDER, self.dps)
        # the series on (0, x0) must have converged by its last term
        scale = max(abs(an) for an in self.a) + mp.mpf(1)
        tail_term = abs(self.a[-1]) * self.x0 ** (_LAURENT_ORDER - self.r)
        if tail_term > scale * mp.mpf(10) ** (-(self.dps + 5)):
            raise DomainError("Laurent series of the integrand converges too "
                              "slowly; reduce the period moduli")

    def _integrand(self, x, num):
        for w in self.omegas:
            num /= -mp.expm1(-w * x)
        return num

    def _quad(self, fn, rate):
        # cut at the T where fn's decay e^{-rate T} reaches e^{-self.cut}
        T = max(mp.mpf(2), self.cut / rate)
        mid = min(1 + 4 / rate, T / 2 + mp.mpf("0.5"))
        points = [self.x0, mp.mpf(1), mid, T]
        val, err = mp.quad(fn, points, error=True)
        if err > self.quad_tol:
            val, err = mp.quad(fn, points, maxdegree=9, error=True)
            if err > self.quad_tol:
                raise DomainError(
                    f"quadrature did not reach tolerance {self.quad_tol} "
                    f"(estimate {mp.nstr(err, 3)})")
        return val

    def zeta(self, s):
        s = mp.mpc(s)
        # for Re s < 0, x0^s inflates the series and the integral alike
        # before they cancel: carry the digits that costs
        dps = self.dps + max(0, int(-mp.re(s) * mp.log10(1 / self.x0)))
        with mp.workdps(dps):
            a = _laurent_coeffs(self.z, self.omegas, _LAURENT_ORDER, dps)
            x0s = self.x0 ** s
            terms = [x0s * an * self.x0 ** (n - self.r) / (s + n - self.r)
                     for n, an in enumerate(a)]
            series = mp.fsum(terms)
            integral = self._quad(
                lambda x: x ** (s - 1) * self._integrand(x, mp.exp(-self.z * x)),
                mp.re(self.z))
            gamma = mp.gamma(s)
            value = (series + integral) / gamma
            # 1/Gamma(s) magnifies what that cancellation leaves: the
            # rounding, the series truncation, estimated by its last term,
            # and the integral cut at T, estimated by its leading tail
            T = max(mp.mpf(2), self.cut / mp.re(self.z))  # as in _quad
            cut = T ** (mp.re(s) - 1) * mp.exp(-mp.re(self.z) * T)
            err = (max(abs(series), abs(integral)) * mp.mpf(10) ** -dps
                   + abs(terms[-1]) + cut / mp.re(self.z)) / abs(gamma)
        if err > self.quad_tol * max(1, abs(value)):
            raise DomainError(
                f"zeta_{self.r} at s = {complex(s)}: 1/Gamma(s) magnifies "
                f"the rounding, truncation and cut-off error to about "
                f"{mp.nstr(err, 3)}, above the tolerance {self.quad_tol}")
        return value

    def zeta_nonpos_int(self, m: int):
        # zeta_r(-m) = (-1)^m m! a_{r+m}: the 1/Gamma zero kills everything
        # except the series pole at n = r + m.
        if self.r + m > _LAURENT_ORDER:
            raise DomainError(f"zeta_{self.r} at s = -{m} lies past the stored "
                              "Laurent coefficients; need "
                              f"m <= {_LAURENT_ORDER - self.r}")
        return ((-1) ** m) * mp.factorial(m) * self.a[self.r + m]

    def log_gamma(self):
        # d/ds (I(s)/Gamma(s)) at s = 0 with I(s) = a_r x0^s/s + J(s):
        # only J(0) and the a_r (Euler-gamma + log x0) term survive.
        acc = self.a[self.r] * (mp.euler + mp.log(self.x0))
        for n, an in enumerate(self.a):
            if n != self.r:
                acc += an * self.x0 ** (n - self.r) / (n - self.r)
        return acc + self._quad(
            lambda x: self._integrand(x, mp.exp(-self.z * x)) / x, mp.re(self.z))

    def log_sine(self):
        # log_gamma at z and at z' = |omega| - z, whose Laurent set is
        # (-1)^n a_n: the a_r terms and the terms with n + r even cancel
        z, r = self.z, self.r
        z_ref = sum(self.omegas) - z
        if not (mp.re(z) > 0 and mp.re(z_ref) > 0):
            raise DomainError("log_multiple_sine needs 0 < Re z < Re |omega|")
        series = mp.fsum(an * self.x0 ** (n - r) / (n - r)
                         for n, an in enumerate(self.a) if (n + r) % 2)
        sign = (-1) ** r
        return -2 * series + self._quad(
            lambda x: self._integrand(
                x, sign * mp.exp(-z_ref * x) - mp.exp(-z * x)) / x,
            min(mp.re(z), mp.re(z_ref)))


def barnes_zeta(s, z, omega: Sequence[complex],
                quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Analytically continued zeta_r(s, z | omega), r = len(omega).

    Raises PoleError at the simple poles s = 1..r.
    """
    with working_precision(quad_tol):
        omega = _periods(omega)
        z, s = _continuation_point(z), as_mp(s)
        for k in range(1, len(omega) + 1):
            if abs(s - k) < 1e-12:
                raise PoleError(f"zeta_{len(omega)} has a pole at s = {k}")
        core = _SplitIntegral(z, omega, quad_tol)
        if abs(mp.im(s)) < 1e-12 and abs(s - mp.nint(mp.re(s))) < 1e-12 \
                and mp.re(s) <= 0.5:
            m = int(mp.nint(-mp.re(s)))
            return complex(core.zeta_nonpos_int(m))
        return complex(core.zeta(s))


def zeta_at_zero(z, omega: Sequence[complex],
                 quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """zeta_r(0, z | omega) = (-1)^r B_{r,r}(z|omega) / r!."""
    return barnes_zeta(0, z, omega, quad_tol)


def log_multiple_gamma(z, omega: Sequence[complex],
                       quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """log Gamma_r(z | omega) := d/ds zeta_r(s, z | omega) at s = 0."""
    with working_precision(quad_tol):
        omega = _periods(omega)
        core = _SplitIntegral(_continuation_point(z), omega, quad_tol)
        return complex(core.log_gamma())


# ---------------------------------------------------------------------------
# multiple sine and the difference-equation kernels
# ---------------------------------------------------------------------------

def log_multiple_sine(z, omega: Sequence[complex],
                      quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """log sin_r(z | omega) = -log Gamma_r(z|omega) + (-1)^r log Gamma_r(|omega|-z|omega).

    This is the reflection combination under which sin_1(z|w) = 2 sin(pi z/w)
    and the rank-2/3 kernels below satisfy their exact difference equations.
    """
    with working_precision(quad_tol):
        omega = _periods(omega)
        return complex(_SplitIntegral(as_mp(z), omega, quad_tol).log_sine())


def _log1mexp(w):
    """log(1 - e^w) without overflow or cancellation, principal-ish branch."""
    if mp.re(w) < -1:
        return mp.log1p(-mp.exp(w))
    if mp.re(w) > 1:
        # 1 - e^w = -e^w (1 - e^{-w}); additive i*pi keeps a consistent sheet
        return w + mp.log1p(-mp.exp(-w)) + mp.pi * mp.mpc(0, 1)
    return mp.log(1 - mp.exp(w))


@functools.lru_cache(maxsize=1024)
def _direct_kernel(z, om, quad_tol: float):
    """log sin_r(z|om) - pi i a_r(z|om) inside the strip: log H at r = 2, and
    log G at r = 3 with z = t + w1, om = (w1, w1, w2)."""
    core = _SplitIntegral(z, om, quad_tol)
    return core.log_sine() - mp.pi * mp.mpc(0, 1) * core.a[len(om)]


def _walk(z, w1, w2) -> int:
    """The k, at most the step cap in size, that puts z + k w1 nearest the
    middle of the direct strip 0 < Re < Re(w1 + w2), inside it or not."""
    width = mp.re(w1) + mp.re(w2)
    k = mp.nint((width / 2 - mp.re(z)) / mp.re(w1))
    k = max(-_EXTENSION_STEP_CAP, min(k, _EXTENSION_STEP_CAP))
    if not 0 < mp.re(z) + k * mp.re(w1) < width - mp.mpf("1e-12"):
        raise DomainError("could not place the argument inside the direct "
                          f"strip within {_EXTENSION_STEP_CAP} steps")
    return int(k)


def _fixed(z, wp: int):
    """An mpmath complex as the (re, im) pair of integers scaled by 2^wp."""
    return tuple(to_fixed(part, wp) for part in z._mpc_)


def _mul(a, b, wp: int):
    """The product of two (re, im) pairs scaled by 2^wp."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> wp, (ar * bi + ai * br) >> wp


class _QTable:
    """The factors u_k = 1/(1 - e^{kb}) of the sums in one b, in the fixed
    point of _q_sum: e^b is converted and tested against |e^b| < 1 once, and
    row k - 1 holds (u_re, u_im, |u_k|, U_k), U_k = 1/(1 - |e^b|^k) >= |u_k|,
    or None where an integer of u_k overflows a float.  Rows are added one
    at a time when a sum first reaches them, so the table never runs past
    the last term some sum needed."""

    def __init__(self, b):
        self.wp = mp.mp.prec
        self.re_b = float(mp.re(b))
        self.inside = False
        self.rows = []
        if self.re_b < 0:
            self.scale_b = 2 * (1 + abs(complex(b)))
            self.e_b = br, bi = _fixed(mp.exp(b), self.wp)
            self.inside = br * br + bi * bi < 1 << 2 * self.wp
            self.q = 1 << self.wp, 0

    def grow(self):
        wp, (br, bi), (qr, qi) = self.wp, self.e_b, self.q
        self.q = qr, qi = (qr * br - qi * bi) >> wp, (qr * bi + qi * br) >> wp
        # u_k = 1/(1 - e^{kb}) = conj(1 - e^{kb}) / |1 - e^{kb}|^2
        dr = (1 << wp) - qr
        den = dr * dr + qi * qi
        ur, ui = (dr << 2 * wp) // den, (qi << 2 * wp) // den
        k = len(self.rows) + 1
        try:
            row = (ur, ui, math.hypot(ur, ui) * 2.0 ** -wp,
                   -1 / math.expm1(k * self.re_b))
        except OverflowError:
            row = None
        self.rows.append(row)


class _Coupling:
    """What Bridgeland's sums at one non-real coupling lam = w1/w2 share at
    the working bits, whatever t: whether Im lam > 0 (up), and formed in
    mpmath, then held in fixed point, 1/w2, 2 pi i, the x-series ratio
    b_x = 2 pi i lam (-2 pi i lam for Im lam < 0), and with the y-series
    coupling lam_y (lam, or conj lam for Im lam < 0) 2 pi i/lam_y, 1/lam_y
    and 1/(2 pi i); then the _QTable of b_x and of b_y = -2 pi i/lam_y."""

    def __init__(self, lam, w2):
        wp = mp.mp.prec
        self.up = up = mp.im(lam) > 0
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        b_x = two_pi_i * lam if up else -two_pi_i * lam
        lam_y = lam if up else mp.conj(lam)
        (self.inv_w2, self.two_pi_i, self.b_x, self.two_pi_i_lam_y,
         self.inv_lam_y, self.inv_two_pi_i) = (
            _fixed(c, wp) for c in (1 / w2, two_pi_i, b_x, two_pi_i / lam_y,
                                    1 / lam_y, 1 / two_pi_i))
        self.x_table = _QTable(b_x)
        self.y_table = _QTable(-two_pi_i / lam_y)


@functools.lru_cache(maxsize=8)
def _coupling(w1, w2, prec: int):
    """The _Coupling of the periods with raw mpmath values (``._mpc_``) w1,
    w2 at the working bits prec, or None for real w1/w2.  Keyed on the
    exact values, so a period with digits beyond a double is not taken for
    that double.  Its tables grow under _PREC_LOCK, which every caller
    holds."""
    with mp.workprec(prec):
        lam = mp.make_mpc(w1) / mp.make_mpc(w2)
        return _Coupling(lam, mp.make_mpc(w2)) if mp.im(lam) else None


def _q_sum(a, table: _QTable, c0=(0, 0), c1=(0, 0), c2=(0, 0)):
    """sum_{k>=1} e^{ka} u_k f_k / k with u_k = 1/(1 - e^{kb}) from the
    table of b and the linear form f_k = c0 + c1 u_k + c2/k, whose modulus
    is at most F_k = |c0| + |c1| U_k + |c2|/k, given U_k >= |u_k|.

    Returns (sum, size), where size adds up each |term| times its condition
    number, or None when |e^a| or |e^b| is not below 1 at the working bits
    or the tail bound does not fall below the working epsilon within
    _Q_TERM_CAP terms.  The terms are bounded by |e^a|^k U_k F_k / k, which
    shrinks at least by |e^a| a step.

    It runs in the fixed point of mpmath's own series: a complex number, a,
    the c and the sum too, is a pair of Python integers scaled by 2^wp, wp
    the working bits, and e^a comes from mpmath's fixed-point exp and
    cos/sin.  The tail bound and size are estimates and stay in floats.  A
    coefficient, u_k or u_k f_k whose scaled integer overflows a float
    (beyond about 2^(1024 - wp); at wp above 1024 bits, every u_k) would be
    charged far past any tolerance, so the sum declines instead.
    """
    wp, (ar, ai) = table.wp, a
    one, unit, eps = 1 << wp, 2.0 ** -wp, 2.0 ** (1 - wp)
    re_a = ar / one
    if not (re_a < 0 and table.re_b < 0):
        return None
    # their reductions by ln 2 and pi/2 lose the bits of |a|: given here
    g = (max(-ar, abs(ai)) >> wp).bit_length()
    mod, (cos, sin) = exp_fixed(ar << g, wp + g), cos_sin_fixed(ai << g, wp + g)
    er, ei = (mod * cos) >> (wp + 2 * g), (mod * sin) >> (wp + 2 * g)
    if not (er * er + ei * ei < one * one and table.inside):
        return None  # |e^a| or |e^b| rounds to 1 at the working bits
    (c0r, c0i), (c1r, c1i), (c2r, c2i) = c0, c1, c2
    rho = math.exp(re_a)
    tail = rho / -math.expm1(re_a)
    # rounding in e^{ka} grows like k |a|; in 1 - e^{kb}, like k |b| |u_k|.
    # Fixed point also rounds e^{ka} absolutely, by about k units of 2^-wp
    # however small it gets, which costs the term k |g_k| such units
    # (g_k = u_k f_k / k); size counts in working digits, and one unit of
    # 2^-wp is _Q_GUARD_DIGITS below them
    scale_a, scale_b = 1 + math.hypot(re_a, ai / one), table.scale_b
    fixed_unit = 10.0 ** -_Q_GUARD_DIGITS
    rows = table.rows
    tr = ti = 0
    pr, pi_ = one, 0
    mag, size = 1.0, 0.0
    try:
        f0, f1, f2 = (math.hypot(re, im) * unit
                      for re, im in ((c0r, c0i), (c1r, c1i), (c2r, c2i)))
        for k in range(1, _Q_TERM_CAP + 1):
            if k > len(rows):
                table.grow()
            row = rows[k - 1]
            if row is None:
                return None  # u_k overflows a float, see above
            ur, ui, u_abs, U = row
            pr, pi_ = (pr * er - pi_ * ei) >> wp, (pr * ei + pi_ * er) >> wp
            fr = c0r + ((c1r * ur - c1i * ui) >> wp) + c2r // k
            fi = c0i + ((c1r * ui + c1i * ur) >> wp) + c2i // k
            # g_k = u_k f_k / k, and the term is e^{ka} g_k
            gr = ((ur * fr - ui * fi) >> wp) // k
            gi = ((ur * fi + ui * fr) >> wp) // k
            tr += (pr * gr - pi_ * gi) >> wp
            ti += (pr * gi + pi_ * gr) >> wp
            mag *= rho
            size += k * math.hypot(gr, gi) * unit * (
                mag * (scale_a + scale_b * u_abs) + fixed_unit)
            if mag * tail * U * (f0 + f1 * U + f2 / k) / k <= eps:
                return (tr, ti), size
    except OverflowError:
        pass  # a magnitude past the float range: declined, see above
    return None


def _q_series(t, w1, w2, quad_tol: float, kind: str):
    """log G(t|w1,w2) (kind "g") or log H(t|w1,w2) ("h") from Bridgeland's
    q-series, or None where the series cannot be trusted.

    With tau = t/w2, lam = w1/w2, x = e^{2 pi i tau}, q = e^{2 pi i lam} and p
    whichever of q, 1/q lies inside the unit disc:

        log G = -sum_k (x p)^k / (k (1 - p^k)^2) + D(tau, lam)
        log H = -sum_k x^k / (k (1 - q^k))       + D_H(tau, lam)

    with D, D_H the y-series for Im lam > 0, in y = e^{2 pi i (tau - 1)/lam}
    and q~ = e^{b_y} = e^{-2 pi i/lam}; for Im lam < 0 they are
    conj(D(1 - conj tau, conj lam)) and -conj(D_H(1 - conj tau, conj lam)).
    From t to the value, all runs in the fixed point of _q_sum at
    _Q_GUARD_DIGITS above the working digits, with the data that depends on
    the coupling alone taken from _coupling, and is rounded once to the
    working bits.  Near real lam both sums grow large and cancel, so the
    value is returned only if the rounding of both sums together, charged
    at the working digits, stays within quad_tol * max(1, |value|).  Real
    lam, |x p| >= 1 (|x| >= 1 for H with Im lam > 0), |y| >= 1 and a sum
    past the term cap also return None.
    """
    dps = _dps_for(quad_tol)
    wp = dps_to_prec(dps + _Q_GUARD_DIGITS)
    c = _coupling(w1._mpc_, w2._mpc_, wp)
    if c is None:
        return None
    one = 1 << wp
    tau = _mul(_fixed(t, wp), c.inv_w2, wp)
    tau_y = tau if c.up else (one - tau[0], tau[1])
    a_x = _mul(tau, c.two_pi_i, wp)
    if kind == "g" or not c.up:
        a_x = a_x[0] + c.b_x[0], a_x[1] + c.b_x[1]
    a_y = _mul((tau_y[0] - one, tau_y[1]), c.two_pi_i_lam_y, wp)
    if kind == "h":
        # x^k / (1 - q^k) = -(x p)^k / (1 - p^k) when p = 1/q
        x_sum = _q_sum(a_x, c.x_table, c0=(-one if c.up else one, 0))
        y_sum = _q_sum(a_y, c.y_table, c0=(one, 0))
    else:
        x_sum = _q_sum(a_x, c.x_table, c1=(-one, 0))
        c0r, c0i = _mul(tau_y, c.inv_lam_y, wp)
        y_sum = _q_sum(a_y, c.y_table, c0=(-c0r, -c0i), c1=c.inv_lam_y,
                       c2=c.inv_two_pi_i)
    if x_sum is None or y_sum is None:
        return None
    ((xr, xi), x_size), ((yr, yi), y_size) = x_sum, y_sum
    if not c.up:
        yr, yi = (yr, -yi) if kind == "g" else (-yr, yi)
    value = mp.make_mpc(tuple(from_man_exp(part, -wp, mp.mp.prec, round_nearest)
                              for part in (xr + yr, xi + yi)))
    rounding = 10 * (x_size + y_size) * 10.0 ** -dps
    if rounding > quad_tol * max(1, abs(complex(value))):
        return None
    return value


def _kernel(t, w1, w2, quad_tol: float, kind: str):
    """log G (kind "g") or log H ("h") at mpmath t, w1, w2: the q-series
    where it answers, else the quadrature at b = t + k w1 (k from _walk) and
    the exact steps back to t in closed form.  With L(s) = log(1 - e^{2 pi i
    s/w2}), H(s + w1) = H(s) - L(s) and G(s + w1) = G(s) - H(s + w1) give
    H(t) = H(b) + sign(k) sum_j L(t + j w1) and
    G(t) = G(b) + k H(b) + sum_j |j| L(t + j w1), j = 0..k-1 or -1..k."""
    value = _q_series(t, w1, w2, quad_tol, kind)
    if value is not None:
        return value
    k = _walk(t + w1 if kind == "g" else t, w1, w2)
    b = t + k * w1
    if kind == "h":
        value = _direct_kernel(b, (w1, w2), quad_tol)
    else:
        value = _direct_kernel(b + w1, (w1, w1, w2), quad_tol) + (
            k * _kernel(b, w1, w2, quad_tol, "h") if k else 0)
    sign, corr = (1 if k > 0 else -1), mp.mpc(0)
    for j in range(k) if k > 0 else range(-1, k - 1, -1):
        log = _log1mexp(2 * mp.pi * mp.mpc(0, 1) * (t + j * w1) / w2)
        corr += (abs(j) if kind == "g" else sign) * log
    return value + corr


def log_h(t, omega1, omega2, quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Rank-2 kernel  H(t|w1,w2) = exp(-(pi i/2) B_{2,2}(t|w1,w2)) sin_2(t|w1,w2).

    Satisfies H(t + w1)/H(t) = (1 - exp(2 pi i t / w2))^{-1} exactly; that
    relation also extends the evaluation to arguments outside the direct
    strip 0 < Re t < Re(w1 + w2).
    """
    with working_precision(quad_tol):
        w1, w2 = _periods((omega1, omega2))
        return complex(_kernel(as_mp(t), w1, w2, quad_tol, "h"))


def log_g(t, omega1, omega2, quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """Rank-3 kernel built from the triple sine with periods (w1, w1, w2):

        G(t|w1,w2) = exp((pi i/6) B_{3,3}(t+w1 | w1,w1,w2)) sin_3(t+w1 | w1,w1,w2).

    Satisfies G(t + w1)/G(t) = H(t + w1 | w1, w2)^{-1}, hence a second
    difference in steps of w1 equal to log(1 - exp(2 pi i t / w2)).
    """
    return complex(log_g_highprec(t, omega1, omega2, quad_tol))


def log_g_highprec(t, omega1, omega2, quad_tol: float = DEFAULT_QUAD_TOL):
    """log_g returned as an mpmath complex at full working precision.

    Needed where a large value is subtracted from a nearby one (asymptotic
    remainders, second differences) and float64 rounding of the individual
    values would drown the signal.  mpmath arguments keep their digits.
    The value comes from the q-series where it converges and holds
    quad_tol, and otherwise from one rank-3 quadrature near mid-strip, the
    H kernel there and one logarithm per step of the difference equation.
    """
    with working_precision(quad_tol):
        w1, w2 = _periods((omega1, omega2))
        return _kernel(as_mp(t), w1, w2, quad_tol, "g")


def check_coupling(lam_check) -> None:
    """Reject a reduced coupling outside the domain of the G kernel: it needs
    Re(lam_check) > 0 and |lam_check| >= 1e-6.  A complex coupling takes the
    q-series, whose second-difference residual at 1e-6 is below 1e-16.  A
    real one takes the quadrature: log G grows like |lam_check|^-2, its
    second difference loses the digits of that growth, and near 1e-9 the
    quadrature itself fails, so the bound holds for both."""
    lam_check = complex(lam_check)
    if not lam_check.real > 0:
        raise DomainError("reduced coupling needs positive real part")
    if abs(lam_check) < _MIN_COUPLING:
        raise DomainError(f"reduced coupling |lam_check| = {abs(lam_check):.3g} "
                          f"is below the smallest supported {_MIN_COUPLING:g}")


def nonperturbative_potential(lam_check, t,
                              quad_tol: float = DEFAULT_QUAD_TOL) -> complex:
    """log G(t | lam_check, 1): the all-order potential in the reduced string
    coupling lam_check = lambda / (2 pi), which check_coupling admits; the
    fugacity exp(2 pi i t) should satisfy |q| < 1 (Im t > 0) for the
    asymptotic genus expansion to apply.
    """
    check_coupling(lam_check)
    return log_g(t, lam_check, 1.0, quad_tol)


def fold_2pii(value):
    """Fold a residual into the fundamental 2*pi*i strip; report the winding."""
    if is_mp(value):
        k = int(mp.nint(mp.im(value) / (2 * mp.pi)))
        return value - 2 * mp.pi * mp.mpc(0, 1) * k, k
    value = complex(value)
    k = int(round(value.imag / (2 * math.pi)))
    return value - 2j * math.pi * k, k
