"""Multiple zeta/gamma/sine layer.

Oracles: mpmath's Hurwitz zeta and loggamma for rank 1, exact shift and
homogeneity identities across ranks, a finite-difference s-derivative for the
log-gamma normalization, the closed-form difference equations for the
rank-2/3 kernels, and for their q-series the quadrature's multiple sine with
its Bernoulli prefactor and a plain mpmath sum of the same series.
"""
import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conifold_flows import DomainError, barnes, gw
from conifold_flows.barnes import (
    barnes_zeta,
    fold_2pii,
    log_g,
    log_g_highprec,
    log_h,
    log_multiple_gamma,
    log_multiple_sine,
    nonperturbative_potential,
    working_precision,
    zeta_at_zero,
)
from conifold_flows.specfun import gen_bernoulli


# ---------------------------------------------------------------------------
# rank-1 reductions against mpmath


@pytest.mark.parametrize("s", [2.5, 1.3, 0.4, -0.7, 1.5 + 0.5j, -15.5])
def test_hurwitz_reduction(s):
    # zeta_1(s, z | w) = w^(-s) * zeta_H(s, z/w)
    for z, w in [(0.65, 1.0), (1.3 + 0.4j, 1.0), (0.8, 1.7), (0.5 + 0.1j, 0.9),
                 (0.7, 4.0), (2.5, 3.0)]:
        got = barnes_zeta(s, z, (w,))
        want = complex(mp.zeta(s, complex(z) / w) * mp.mpc(w) ** (-s))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_gamma1_normalization():
    for z in (0.3, 1.7, 2.5):
        got = log_multiple_gamma(z, (1.0,))
        want = complex(mp.loggamma(z) - mp.log(2 * mp.pi) / 2)
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("z", [0.7, 1.5, 2.5, 0.3 + 0.2j])
def test_split_integral_cut_follows_the_tolerance(z):
    # the integral is cut where its decay falls below quad_tol/1000, so at
    # quad_tol 1e-30 the rank-1 gamma and sine hold their closed forms to
    # that tolerance (a cut fixed at 1e-18 left them off by about 2e-20)
    tol = 1e-30
    with working_precision(tol):
        z = mp.mpc(z)
        core = barnes._SplitIntegral(z, (mp.mpc(1),), tol)
        want = mp.loggamma(z) - mp.log(2 * mp.pi) / 2
        assert abs(core.log_gamma() - want) <= tol * max(1, abs(want)), z
        z = z / 4  # inside the strip 0 < Re z < 1
        core = barnes._SplitIntegral(z, (mp.mpc(1),), tol)
        want = mp.log(2 * mp.sin(mp.pi * z))
        assert abs(core.log_sine() - want) <= tol * max(1, abs(want)), z


def test_zeta_at_zero_rank1_hurwitz():
    for z in (0.4, 1.2 + 0.3j):
        got = zeta_at_zero(z, (1.0,))
        assert abs(got - (0.5 - complex(z))) < 1e-11


# ---------------------------------------------------------------------------
# cross-rank identities


def test_shift_identity_random_draws():
    # zeta_r(s, z + w_r) - zeta_r(s, z) = -zeta_{r-1}(s, z | w_1..w_{r-1})
    rng = np.random.default_rng(42)
    draws = 0
    while draws < 20:
        r = 2 if draws % 2 == 0 else 3
        s = 0.6 + 2.4 * rng.random() + 0.3j * (rng.random() - 0.5)
        if min(abs(s - k) for k in range(1, r + 1)) < 0.15:
            continue  # stay away from the poles of zeta_r
        z = 0.6 + rng.random() + 0.4j * (rng.random() - 0.5)
        omega = tuple(0.7 + rng.random(r) + 0.2j * (rng.random(r) - 0.5))
        lhs = (barnes_zeta(s, z + omega[-1], omega)
               - barnes_zeta(s, z, omega))
        if r == 2:
            rhs = -barnes_zeta(s, z, omega[:1])
        else:
            rhs = -barnes_zeta(s, z, omega[:2])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (r, s, z, omega)
        draws += 1


def test_homogeneity():
    # zeta_r(s, c z | c w) = c^(-s) zeta_r(s, z | w) for c > 0
    s, z = 1.6, 0.9 + 0.2j
    omega = (1.0, 1.4)
    c = 1.7
    a = barnes_zeta(s, c * z, tuple(c * w for w in omega))
    b = barnes_zeta(s, z, omega) * c ** (-s)
    assert abs(a - b) < 1e-10


def test_zeta_at_zero_bernoulli_formula():
    # zeta_r(0, z|w) = (-1)^r B_{r,r}(z|w) / r!
    z = Fraction(3, 4)
    omega = (1, Fraction(3, 2))
    got = zeta_at_zero(float(z), tuple(float(w) for w in omega))
    want = complex(gen_bernoulli(2, 2, z, omega)) / 2
    assert abs(got - want) < 1e-10


def test_log_gamma_is_s_derivative_at_zero():
    # independent check: centered finite difference in s with Richardson
    for rank, z, omega in [(1, 0.8, (1.0,)), (2, 1.1 + 0.2j, (1.0, 1.3)),
                           (3, 1.4, (1.0, 1.1, 0.8))]:
        def deriv(h):
            up = barnes_zeta(h, z, omega)
            dn = barnes_zeta(-h, z, omega)
            return (up - dn) / (2 * h)

        d1, d2 = deriv(1e-3), deriv(5e-4)
        fd = (4 * d2 - d1) / 3
        got = log_multiple_gamma(z, omega)
        assert abs(got - fd) < 5e-8, (rank, abs(got - fd))


# ---------------------------------------------------------------------------
# multiple sine


def test_sine_rank1_closed_form():
    for z, w in [(0.3, 1.0), (0.8, 1.0), (0.55, 1.3)]:
        got = log_multiple_sine(z, (w,))
        want = cmath.log(2 * math.sin(math.pi * z / w))
        assert abs(got - want) < 1e-10


def _sine_points():
    """One draw at each rank 1-3: complex periods, z inside the strip."""
    rng = np.random.default_rng(3)
    pts = []
    for r in (1, 2, 3):
        omega = tuple(complex(rng.uniform(0.6, 1.6), rng.uniform(-0.3, 0.3))
                      for _ in range(r))
        z = complex(rng.uniform(0.1, 0.9) * sum(omega).real,
                    rng.uniform(-0.4, 0.4))
        pts.append((z, omega))
    return pts


def test_sine_is_its_gamma_reflection():
    # log sin_r(z) = -log Gamma_r(z) + (-1)^r log Gamma_r(|omega| - z): the
    # sine takes both gammas from one Laurent set and one quadrature, the
    # gammas each from their own; |omega| - z is formed in mpmath, so both
    # sides see the same reflected argument
    for z, omega in _sine_points():
        with working_precision():
            z_ref = mp.fsum(mp.mpc(w) for w in omega) - mp.mpc(z)
        lg, lg_ref = log_multiple_gamma(z, omega), log_multiple_gamma(z_ref, omega)
        want = -lg + (-1) ** len(omega) * lg_ref
        got = log_multiple_sine(z, omega)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(lg), abs(lg_ref)), \
            (z, omega)


def test_sine_homogeneity():
    z, omega, c = 0.8 + 0.1j, (1.0, 1.2), 2.3
    a = log_multiple_sine(c * z, tuple(c * w for w in omega))
    b = log_multiple_sine(z, omega)
    assert abs(a - b) < 1e-10


def test_sine_reflection_parity():
    # under z -> |omega| - z the log-sine is even at rank 1 and odd at rank 2
    z = 0.3 + 0.05j
    a1 = log_multiple_sine(z, (1.0,))
    b1 = log_multiple_sine(1.0 - z, (1.0,))
    assert abs(a1 - b1) < 1e-10
    omega = (1.0, 1.4)
    a2 = log_multiple_sine(0.7 + 0.25j, omega)
    b2 = log_multiple_sine(sum(omega) - (0.7 + 0.25j), omega)
    assert abs(a2 + b2) < 1e-10


# ---------------------------------------------------------------------------
# difference-equation kernels


def _fold(value):
    return fold_2pii(value)[0]


def _h_rhs(t, w2):
    return -cmath.log(1 - cmath.exp(2j * math.pi * complex(t) / w2))


@pytest.mark.parametrize("t", [0.3 + 0.4j, 0.05 + 0.6j, -0.8 + 0.5j, 2.4 + 0.3j])
def test_h_difference_equation(t):
    # H(t + w1)/H(t) = (1 - exp(2 pi i t / w2))^{-1}; off-strip arguments
    # exercise the extension path
    w1, w2 = 0.15 + 0.1j, 1.0
    lhs = log_h(t + w1, w1, w2) - log_h(t, w1, w2)
    resid = _fold(lhs - _h_rhs(t, w2))
    assert abs(resid) < 1e-9, t


@pytest.mark.parametrize("t", [0.3 + 0.4j, -0.6 + 0.45j, 1.9 + 0.35j])
def test_g_first_difference_is_h(t):
    w1, w2 = 0.12 + 0.05j, 1.0
    lhs = log_g(t + w1, w1, w2) - log_g(t, w1, w2)
    resid = _fold(lhs + log_h(t + w1, w1, w2))
    assert abs(resid) < 1e-9, t


def test_g_second_difference_closed_form():
    t, lam = 0.3 + 0.4j, 0.1 + 0.1j
    lhs = (log_g(t + lam, lam, 1.0) - 2 * log_g(t, lam, 1.0)
           + log_g(t - lam, lam, 1.0))
    rhs = cmath.log(1 - cmath.exp(2j * math.pi * t))
    assert abs(_fold(lhs - rhs)) < 1e-10


def test_log_g_highprec_matches_float_path():
    t, lam = 0.25 + 0.5j, 0.2
    hp = log_g_highprec(t, lam, 1.0)
    assert isinstance(hp, (mp.mpc, mp.mpf))
    assert abs(complex(hp) - log_g(t, lam, 1.0)) < 1e-12


def _oracle(kernel, t, w1, w2):
    """log G or log H from the quadrature's multiple sine and the Bernoulli
    prefactor, through public names only."""
    if kernel == "g":
        z, om = t + w1, (w1, w1, w2)
        return (log_multiple_sine(z, om)
                + 1j * math.pi / 6 * gen_bernoulli(3, 3, z, om))
    om = (w1, w2)
    return log_multiple_sine(t, om) - 1j * math.pi / 2 * gen_bernoulli(2, 2, t, om)


@pytest.mark.parametrize("kernel", ["g", "h"])
def test_kernels_at_real_coupling_match_the_oracle(kernel):
    # a real coupling has no q-series: inside the strip the kernel is the
    # quadrature's multiple sine less pi i a_r, and the oracle adds the
    # Bernoulli prefactor from gen_bernoulli instead; at lam = 1e-4 mid-strip
    # is thousands of steps away, and a point inside the strip moves at most
    # the step cap toward it instead of raising
    for t, lam in [(0.3 + 0.4j, 0.2), (0.62 + 0.25j, 0.07),
                   (0.3 + 0.4j, 1e-4), (0.02 + 0.4j, 1e-4)]:
        got = (log_g if kernel == "g" else log_h)(t, lam, 1.0)
        want = _oracle(kernel, t, lam, 1.0)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (t, lam)


@pytest.mark.parametrize("kernel, t, w1", [
    ("g", 1.4 + 0.3j, 0.2 + 0.2j), ("h", 0.001 + 0.4j, 0.2),
    ("h", 1.199 + 0.4j, 0.2), ("h", 1.2 + 0.1j, 0.2 + 0.2j),
    ("g", 1.2 + 0.1j, 0.2 + 0.2j)])
def test_points_near_a_strip_edge_answer(kernel, t, w1):
    # the quadrature runs at the point nearest mid-strip, so a point near
    # an edge of the strip, inside or outside it, answers, and its step of
    # the difference equation holds
    if kernel == "h":
        step = log_h(t + w1, w1, 1.0) - log_h(t, w1, 1.0) - _h_rhs(t, 1.0)
    else:
        step = (log_g(t + w1, w1, 1.0) - log_g(t, w1, 1.0)
                + log_h(t + w1, w1, 1.0))
    assert abs(_fold(step)) <= 1e-12


def test_extension_sums_its_steps_in_closed_form(monkeypatch):
    # a cold log G two hundred steps out takes one rank-3 quadrature, one
    # H kernel at the same mid-strip point and one logarithm per step
    calls = dict.fromkeys(("_kernel", "_log1mexp", "_SplitIntegral"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(barnes, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(barnes, name, counted)
    barnes._direct_kernel.cache_clear()
    log_g(40.3 + 0.4j, 0.2, 1.0)
    assert calls["_kernel"] <= 2 and calls["_SplitIntegral"] <= 2, calls
    assert calls["_log1mexp"] <= 201, calls


@pytest.mark.parametrize("t, g_repr, h_repr", [
    (3.3 + 0.4j, "(-0.018738353792102064+0.05521194435334134j)",
     "(0.06647335977012073-0.019826394069289696j)"),
    (10.3 + 0.4j, "(-0.017969396143366793+0.055264652252229936j)",
     "(0.06644894841619271-0.019826394069289318j)"),
    (-2.7 + 0.4j, "(-0.018717429774449394+0.055166766154293896j)",
     "(0.06649428378777339-0.019826394069289696j)"),
])
def test_extended_doubles_are_pinned(t, g_repr, h_repr):
    # real lambda, 15 to 50 steps of the difference equations from the
    # strip on either side: summing them in closed form keeps these doubles
    assert repr(log_g(t, 0.2, 1.0)) == g_repr
    assert repr(log_h(t, 0.2, 1.0)) == h_repr


def _series_points():
    """20 draws from the kernel_direct domain (t/w2, w1/w2) with complex w2,
    alternating the kernel and the sign of Im(w1/w2) and kept inside the
    oracle's strip, then both kernels at |w1/w2| = 1e-4, arg +-pi/4."""
    rng = np.random.default_rng(1703)
    pts = []
    while len(pts) < 20:
        kernel, sign = "gh"[len(pts) % 2], (-1) ** (len(pts) // 2)
        tau = complex(rng.uniform(0.2, 0.65), rng.uniform(0.21, 0.99))
        lam = rng.uniform(0.05, 0.3) * cmath.exp(1j * sign * rng.uniform(0.05, 1.4))
        w2 = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.3, 0.3))
        t, w1 = tau * w2, lam * w2
        if t.real > 0 and (w1 + w2 - t).real > 0:
            pts.append((kernel, t, w1, w2))
    for kernel in "gh":
        for arg in (math.pi / 4, -math.pi / 4):
            pts.append((kernel, 0.3 + 0.4j, 1e-4 * cmath.exp(1j * arg), 1.0))
    return pts


def test_q_series_matches_the_quadrature(monkeypatch):
    # the kernels must answer every point without the extension walk, that
    # is from the q-series, and agree with the quadrature oracle
    def no_walk(*args):
        raise AssertionError("the q-series declined")

    monkeypatch.setattr(barnes, "_walk", no_walk)
    for kernel, t, w1, w2 in _series_points():
        got = (log_g if kernel == "g" else log_h)(t, w1, w2)
        want = _oracle(kernel, t, w1, w2)
        folded, winding = fold_2pii(got - want)
        assert winding == 0, (kernel, t, w1, w2)
        assert abs(folded) <= 1e-13 * max(1.0, abs(want)), (kernel, t, w1, w2)


@pytest.mark.parametrize("lam", [0.25 - 2.5e-9j, 0.25 + 2.5e-9j, 0.2 + 1e-9j])
def test_q_series_declines_where_its_sums_cancel(lam, monkeypatch):
    # near real lam the two sums of log G grow to about 1e9 each and cancel
    # to a value of order 0.05: the guard weighs the rounding of both sums
    # against that value and hands the point to the quadrature
    t = 0.3 + 0.4j
    folded, winding = fold_2pii(log_g(t, lam, 1.0) - _oracle("g", t, lam, 1.0))
    assert abs(folded) <= 1e-12 and winding == 0
    got = log_g_highprec(t, lam, 1.0)
    monkeypatch.setattr(barnes, "_q_series", lambda *args: None)
    assert log_g_highprec(t, lam, 1.0) == got


def _bridgeland_series(kernel, t, w1, w2):
    """log G or log H summed term by term from Bridgeland's x- and
    y-series in plain mpmath at the current precision, until a term drops
    below 1e-5 of the epsilon.  With tau = t/w2, lam = w1/w2, x = e^{2 pi i tau},
    y = e^{2 pi i (tau - 1)/lam}, q~ = e^{-2 pi i/lam} and, for Im lam > 0,
    q = e^{2 pi i lam}:

        log G = -sum (x q)^k / (k (1 - q^k)^2)
                + sum y^k u_k (u_k/lam + 1/(2 pi i k) - tau/lam) / k
        log H = -sum x^k / (k (1 - q^k)) + sum y^k u_k / k,  u_k = 1/(1 - q~^k)

    For Im lam < 0 the x-series runs in p = 1/q (x^k/(1 - q^k) becomes
    -(x p)^k/(1 - p^k)), and the y-series Y is replaced by its mirror
    +conj Y (G) or -conj Y (H) at (1 - conj tau, conj lam)."""
    two_pi_i = 2j * mp.pi

    def series(term):
        total, k = mp.mpc(0), 0
        while True:
            k += 1
            step = term(k)
            total += step
            if abs(step) < mp.eps * 1e-5:
                return total

    tau, lam = mp.mpc(t) / w2, mp.mpc(w1) / w2
    up = mp.im(lam) > 0
    x = mp.exp(two_pi_i * tau)
    p = mp.exp(two_pi_i * lam if up else -two_pi_i * lam)
    if kernel == "g":
        x_part = series(lambda k: -(x * p) ** k / (k * (1 - p ** k) ** 2))
    elif up:
        x_part = series(lambda k: -x ** k / (k * (1 - p ** k)))
    else:
        x_part = series(lambda k: (x * p) ** k / (k * (1 - p ** k)))
    if not up:
        tau, lam = 1 - mp.conj(tau), mp.conj(lam)
    y = mp.exp(two_pi_i * (tau - 1) / lam)
    q_dual = mp.exp(-two_pi_i / lam)

    def y_term(k):
        u = 1 / (1 - q_dual ** k)
        f = u / lam + 1 / (two_pi_i * k) - tau / lam if kernel == "g" else 1
        return y ** k * u * f / k

    y_part = series(y_term)
    if not up:
        y_part = mp.conj(y_part) if kernel == "g" else -mp.conj(y_part)
    return x_part + y_part


def _fixed_point_points():
    """42 draws: the kernel_direct domain with both signs of Im lam, some
    with complex w2, then |lam| = 1e-4; quad_tol cycles over 1e-8, 1e-12
    and 1e-25.  Then 20 <= |Re tau| <= 40, where |y| < 1 needs Im lam of
    the sign opposite to Re tau, and the kernel_direct domain again, with
    quad_tol cycling over 1e-12, 1e-60 and 1e-100: above 400 bits mpmath's
    fixed-point cos/sin leaves its cached table for a plain series."""
    rng = np.random.default_rng(2026)
    tols = (1e-8, 1e-12, 1e-25)
    pts = []
    for i in range(26):
        sign = (-1) ** i
        tau = complex(rng.uniform(0.2, 0.65), rng.uniform(0.21, 0.99))
        lam = rng.uniform(0.05, 0.3) * cmath.exp(1j * sign * rng.uniform(0.05, 1.4))
        w2 = 1.0 if i % 3 else complex(rng.uniform(0.8, 1.3), rng.uniform(-0.2, 0.2))
        pts.append((tau * w2, lam * w2, w2, tols[i % 3]))
    for i, arg in enumerate((math.pi / 4, -math.pi / 4, 1.2, -0.3)):
        pts.append((0.3 + 0.4j, 1e-4 * cmath.exp(1j * arg), 1.0, tols[i % 3]))
    tols = (1e-12, 1e-60, 1e-100)
    for i in range(12):
        sign = (-1) ** i
        if i < 8:
            tau = complex(sign * rng.uniform(20, 40), rng.uniform(0.3, 1.2))
            lam = rng.uniform(0.05, 0.9) * cmath.exp(-1j * sign * rng.uniform(0.2, 1.4))
        else:
            tau = complex(rng.uniform(0.2, 0.65), rng.uniform(0.21, 0.99))
            lam = rng.uniform(0.05, 0.3) * cmath.exp(1j * sign * rng.uniform(0.05, 1.4))
        w2 = 1.0 if i % 2 else complex(rng.uniform(0.8, 1.3), rng.uniform(-0.2, 0.2))
        pts.append((tau * w2, lam * w2, w2, tols[i % 3]))
    return pts


def test_q_series_matches_a_plain_mpmath_sum(monkeypatch):
    # the kernels sum Bridgeland's series in integer fixed point; here the
    # same series run as plain mpmath loops 20 digits above the working
    # ones.  log_g_highprec keeps the working digits, less two for the
    # rounding of the sums; log_h and log_g are the nearest doubles
    def no_walk(*args):
        raise AssertionError("the q-series declined")

    monkeypatch.setattr(barnes, "_walk", no_walk)
    for t, w1, w2, quad_tol in _fixed_point_points():
        with working_precision(quad_tol) as dps:
            pass
        for kernel in "gh":
            with mp.workdps(dps + 20):
                want = _bridgeland_series(kernel, t, w1, w2)
            scale = max(1.0, abs(complex(want)))
            if kernel == "g":
                got = log_g_highprec(t, w1, w2, quad_tol)
                with mp.workdps(dps + 20):
                    assert abs(got - want) <= 10.0 ** (2 - dps) * scale, \
                        (t, w1, w2, quad_tol)
                got = log_g(t, w1, w2, quad_tol)
            else:
                got = log_h(t, w1, w2, quad_tol)
            assert abs(got - complex(want)) <= 4e-16 * scale, \
                (kernel, t, w1, w2, quad_tol)


@pytest.mark.parametrize("t, lam, quad_tol, g_repr, h_repr", [
    (0.3 + 0.4j, 0.1 + 0.1j, 1e-12,
     "(0.09443043458177408+0.0386567989458482j)",
     "(0.09303557826498812-0.08247730591057241j)"),
    (0.5 + 0.3j, 0.2 - 0.05j, 1e-12,
     "(-0.09089197419810403-0.04142402830223328j)",
     "(0.03964294348864872+0.09567988664748746j)"),
    (0.3 + 0.4j, 1e-4 * cmath.exp(0.7j), 1e-25,
     "(180014.18434947167+97053.33243842065j)",
     "(119.55366441818036-45.9769201826259j)"),
    (0.4 + 0.9j, 0.05 + 0.2j, 1e-8,
     "(0.001840582390903762-0.00013645750289016496j)",
     "(0.004160277990504966-0.0023130539575688734j)"),
    (0.62 + 0.25j, 0.28 + 0.03j, 1e-12,
     "(-0.07041955818900536-0.04412546307473184j)",
     "(0.02721368284895343+0.13361897497643296j)"),
    (0.25 + 0.95j, 0.07 - 0.2j, 1e-30,
     "(-0.0008891355228965672-0.0009293250186901637j)",
     "(0.0005472293652669145+0.0007975894680700009j)"),
])
def test_q_series_doubles_are_pinned(t, lam, quad_tol, g_repr, h_repr):
    # doubles of the mpmath q-series that the fixed-point sum replaced
    assert repr(log_g(t, lam, 1.0, quad_tol)) == g_repr
    assert repr(log_h(t, lam, 1.0, quad_tol)) == h_repr


def _coupling_points():
    """Six couplings, three of each sign of Im lam, with three t each in
    the kernel_direct domain; quad_tol cycles over 1e-8, 1e-12 and 1e-25,
    so each coupling meets every tolerance."""
    rng = np.random.default_rng(1313)
    tols = (1e-8, 1e-12, 1e-25)
    pts = []
    for i in range(6):
        lam = rng.uniform(0.05, 0.3) * cmath.exp(
            1j * (-1) ** i * rng.uniform(0.05, 1.4))
        for j in range(3):
            t = complex(rng.uniform(0.2, 0.65), rng.uniform(0.21, 0.99))
            pts.append((t, lam, tols[(i + j) % 3]))
    return pts


def _kernel_values(points):
    # the full-precision log G and the double of log H, from the q-series
    return [(log_g_highprec(t, lam, 1.0, quad_tol), log_h(t, lam, 1.0, quad_tol))
            for t, lam, quad_tol in points]


def test_coupling_cache_keeps_every_value(monkeypatch):
    # the per-coupling data of the q-series serve later calls at the same
    # coupling and digits; the values must be those of a cold cache, in
    # any call order and whatever digits the coupling met before
    def no_walk(*args):
        raise AssertionError("the q-series declined")

    monkeypatch.setattr(barnes, "_walk", no_walk)
    pts = _coupling_points()
    barnes._coupling.cache_clear()
    warm = _kernel_values(pts)
    cold = []
    for p in pts:
        barnes._coupling.cache_clear()
        cold += _kernel_values([p])
    assert warm == cold
    order = list(np.random.default_rng(7).permutation(len(pts)))
    barnes._coupling.cache_clear()
    shuffled = _kernel_values([pts[i] for i in order])
    assert shuffled == [cold[i] for i in order]
    # one coupling at rising and falling digits
    t, lam, _ = pts[0]
    ladder = [(t, lam, tol) for tol in (1e-8, 1e-25, 1e-12, 1e-25, 1e-8)]
    barnes._coupling.cache_clear()
    got = _kernel_values(ladder)
    for p, value in zip(ladder, got):
        barnes._coupling.cache_clear()
        assert _kernel_values([p]) == [value], p


def test_coupling_cache_tells_extra_digits_from_the_double():
    # an mpmath period 2^-70 away from a double is its own coupling: after
    # the double has filled the cache it still gets its own value
    t, lam = 0.3 + 0.4j, 0.1 + 0.1j
    with working_precision():
        finer = mp.mpc(lam) + mp.mpf(2) ** -70
    barnes._coupling.cache_clear()
    cold = log_g_highprec(t, finer, 1.0)
    barnes._coupling.cache_clear()
    coarse = log_g_highprec(t, lam, 1.0)
    assert log_g_highprec(t, finer, 1.0) == cold != coarse


def test_working_digits_follow_the_tolerance():
    # 13 digits above -log10(quad_tol), at least 25, with -log10 taken as
    # the double nearest it and rounded half to even, on every 10^-k and
    # 10^-(k + 1/2) and on seeded draws; the oracle takes log10 at 30 digits
    rng = np.random.default_rng(60)
    tols = ([10.0 ** -k for k in range(61)]
            + [10.0 ** -(k + 0.5) for k in range(60)]
            + list(10.0 ** rng.uniform(-60, 0, 300)))
    for tol in tols:
        with mp.workdps(30):
            want = max(25, round(float(-mp.log10(tol))) + 13)
        with working_precision(tol) as dps:
            assert dps == want, tol


def test_nonperturbative_potential_is_log_g():
    t, lam = 0.3 + 0.4j, 0.1 + 0.05j
    assert nonperturbative_potential(lam, t) == log_g(t, lam, 1.0)


# ---------------------------------------------------------------------------
# one argument rule: every numeric type gives its double's value

_NUMERIC_TYPES = {
    "int": int, "np.int64": np.int64, "float": float, "np.float64": np.float64,
    "Fraction": Fraction, "mp.mpf": mp.mpf, "complex": complex,
    "np.complex128": np.complex128, "mp.mpc": mp.mpc,
}
_INTEGER_TYPES = ("int", "np.int64")
_COMPLEX_TYPES = ("complex", "np.complex128", "mp.mpc")

# entry point, its default arguments (a tuple holds the periods), and for
# each argument, named by its index (i, j for period j of argument i), an
# (integer, real, complex) value, each exact in every type that can hold
# it; the kernels' values keep them on the q-series.  The gw checks take
# their arguments into mpmath by the same rule
_KERNEL_VALUES = {0: (1, 0.5, 0.25 + 0.5j), 1: (1, 0.5, 0.25 + 0.125j),
                  2: (1, 1.5, 1 - 0.25j)}
_ENTRY_POINTS = {
    "barnes_zeta": (barnes_zeta, (2.5, 0.7, (1.0,)), {
        0: (3, 2.5, 2.5 + 0.5j), 1: (1, 0.75, 0.7 + 0.125j),
        (2, 0): (1, 1.25, 1 + 0.125j)}),
    "zeta_at_zero": (zeta_at_zero, (0.5, (1.0, 2.0)), {
        0: (1, 0.25, 0.4 + 0.1j), (1, 0): (1, 1.5, 1 + 0.5j),
        (1, 1): (3, 2.5, 2 - 0.25j)}),
    "log_multiple_gamma": (log_multiple_gamma, (0.5, (1.0,)), {
        0: (1, 0.25, 0.5 + 0.25j), (1, 0): (2, 1.5, 1 + 0.25j)}),
    "log_multiple_sine": (log_multiple_sine, (0.5, (3.0,)), {
        0: (1, 0.25, 0.5 + 0.25j), (1, 0): (3, 1.5, 1.5 + 0.25j)}),
    "log_h": (log_h, (0.3 + 0.4j, 0.2 + 0.1j, 1 - 0.5j), _KERNEL_VALUES),
    "log_g": (log_g, (0.3 + 0.4j, 0.2 + 0.1j, 1 - 0.5j), _KERNEL_VALUES),
    "log_g_highprec": (log_g_highprec, (0.3 + 0.4j, 0.2 + 0.1j, 1 - 0.5j),
                       _KERNEL_VALUES),
    "nonperturbative_potential": (nonperturbative_potential,
                                  (0.1 + 0.1j, 0.3 + 0.4j), {
        0: (1, 0.5, 0.25 + 0.125j), 1: (0, 0.5, 0.25 + 0.5j)}),
    "check_coupling": (barnes.check_coupling, (0.1 + 0.1j,), {
        0: (1, 0.5, 0.25 + 0.125j)}),
    "check_difference_equation": (
        gw.check_difference_equation, (0.14 - 0.33j, -0.12 + 0.5j),
        {1: (1, 0.5, 0.375 + 0.375j)}),
    "truncated_difference_residual": (
        gw.truncated_difference_residual, (0.08, 0.35 + 0.35j, 2),
        {0: (1, 0.125, 0.125 + 0.0625j), 1: (1, 0.5, 0.375 + 0.375j)}),
    "asymptotic_remainder_scan": (
        gw.asymptotic_remainder_scan,
        (0.35 + 0.35j, math.pi / 4, [0.05, 0.1], 2),
        {0: (1, 0.5, 0.375 + 0.375j), 1: (1, 0.5, 0.5 + 0.125j)}),
}


def _with_argument(args, position, value):
    args = list(args)
    if isinstance(position, int):
        args[position] = value
    else:
        i, j = position
        args[i] = args[i][:j] + (value,) + args[i][j + 1:]
    return args


def _outcome(fn, args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


@pytest.mark.parametrize("entry, position", [
    pytest.param(entry, position, id=f"{entry}-arg{position}" if isinstance(
        position, int) else f"{entry}-arg{position[0]}[{position[1]}]")
    for entry, (_, _, values) in _ENTRY_POINTS.items() for position in values])
def test_every_numeric_type_gives_its_doubles_value(entry, position):
    # each numeric type, at each argument of each public entry point,
    # answers what the plain double (or complex double) of the same value
    # answers, or raises DomainError where that does
    fn, defaults, values = _ENTRY_POINTS[entry]
    int_value, real_value, complex_value = values[position]
    for name, kind in _NUMERIC_TYPES.items():
        if name in _COMPLEX_TYPES:
            value, plain = kind(complex_value), complex_value
        else:
            base = int_value if name in _INTEGER_TYPES else real_value
            value, plain = kind(base), float(base)
        want = _outcome(fn, _with_argument(defaults, position, plain))
        got = _outcome(fn, _with_argument(defaults, position, value))
        assert got == want, (entry, position, name)
        assert type(got) is type(want), (entry, position, name)


# ---------------------------------------------------------------------------
# guards and folding


def test_domain_guards():
    with pytest.raises(DomainError):
        log_multiple_gamma(-0.5, (1.0,))  # continuation needs Re z > 0
    with pytest.raises(DomainError):
        log_multiple_gamma(0.5, (-1.0,))
    with pytest.raises(DomainError):
        log_multiple_sine(0.5, (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        log_multiple_sine(-0.2, (1.0,))
    with pytest.raises(DomainError):
        log_h(0.3, -0.1, 1.0)
    with pytest.raises(DomainError):
        nonperturbative_potential(-0.1, 0.3 + 0.4j)
    with pytest.raises(DomainError):
        barnes_zeta(0.5, 0.7, (5.0,))  # series too slow
    with pytest.raises(DomainError):
        barnes_zeta(-26.5, 0.7, (1.0,))  # 1/Gamma(s) ~ 1e27
    with pytest.raises(DomainError):
        barnes_zeta(0.5 + 40j, 0.7, (1.0,))  # 1/Gamma(s) ~ 1e27
    with pytest.raises(DomainError):
        barnes_zeta(0.5 + 15j, 0.7, (1.0,))  # cut at T


def test_fold_2pii():
    folded, winding = fold_2pii(0.5 + 7.0j)
    assert winding == 1
    assert abs(folded - (0.5 + (7.0 - 2 * math.pi) * 1j)) < 1e-15
    folded, winding = fold_2pii(mp.mpc(0.1, -6.5))
    assert winding == -1
    assert abs(complex(folded) - (0.1 + (-6.5 + 2 * math.pi) * 1j)) < 1e-15


def test_barnes_zeta_pole_protection():
    # s at a pole of zeta_2 must raise rather than return garbage
    with pytest.raises(DomainError):
        barnes_zeta(2, 0.8, (1.0, 1.1))


def test_barnes_zeta_nonpositive_integer_limit():
    # zeta_r(-m) reads the Laurent coefficient a_{r+m}; m = 64 - r is the
    # last one stored, past it the evaluation is a DomainError
    got = barnes_zeta(-63, 0.7, (1.0,))
    want = complex(mp.zeta(-63, 0.7))
    assert abs(got - want) <= 1e-10 * abs(want)
    with pytest.raises(DomainError, match="m <= 63"):
        barnes_zeta(-64, 0.7, (1.0,))
    with pytest.raises(DomainError, match="m <= 61"):
        barnes_zeta(-62, 0.7, (1.0, 1.0, 1.0))
