"""Bilinear tau-function identities of the integrable lattice hierarchy.

Three lattice-indexed tau functions (sigma, rho, tau) encode a solution
(a, b) = (sigma/tau, rho/tau) of the lattice system.  The hierarchy is
equivalent to six bilinear identities relating the triple at time arguments
(z, z~) and at the Miwa-shifted arguments z + c [zeta], where

    [zeta] = (zeta, zeta^2/2, zeta^3/3, ...)

and c = i.  Expanding in powers of zeta yields the flows: the first-order
coefficients determine the time derivatives of the triple, and the flows of
a and b close into shift-operator form.

Everything operates on a finite contiguous window of sites; identities that
reference both neighbors are only evaluated on interior sites.  Series
arithmetic is exact on exact coefficients, so vacuum and constructed-triple
residuals vanish to machine level rather than to a discretization tolerance.
"""
from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, TruncationOrderError
from .series import SeriesRing, TruncatedSeries, series_inverse

__all__ = [
    "default_ring",
    "TauTriple",
    "miwa_shift",
    "hirota_residual",
    "hirota_residuals",
    "FlowDerivatives",
    "extract_time_derivatives",
    "first_order_triple",
    "euler_step",
    "constraint_residual",
    "tau_from_lattice",
    "first_order_claim_monomials",
    "first_order_claim_residual",
    "HIROTA_EQUATION_IDS",
]

HIROTA_EQUATION_IDS = ("a", "b", "c", "d", "e", "f")

DEFAULT_TIME_VARS = 3
DEFAULT_ZETA_CAP = 5
DEFAULT_TOTAL_CAP = 8


def default_ring(time_vars: int = DEFAULT_TIME_VARS,
                 zeta_cap: int = DEFAULT_ZETA_CAP,
                 total_cap: int = DEFAULT_TOTAL_CAP) -> SeriesRing:
    """Ring in zeta and the first `time_vars` times of each direction."""
    names = ["zeta"]
    names += [f"z{j}" for j in range(1, time_vars + 1)]
    names += [f"zt{j}" for j in range(1, time_vars + 1)]
    return SeriesRing(names, var_caps={"zeta": zeta_cap}, total_cap=total_cap)


def _time_var_count(ring: SeriesRing) -> int:
    return sum(1 for v in ring.variables
               if v != "zeta" and v.startswith("z") and not v.startswith("zt"))


class TauTriple:
    """Per-site series triple on a contiguous window of lattice sites."""

    def __init__(self, sites, sigma, rho, tau):
        self.sites = tuple(int(n) for n in sites)
        if len(self.sites) < 3:
            raise DomainError("window needs at least three sites")
        if any(b - a != 1 for a, b in zip(self.sites, self.sites[1:])):
            raise DomainError("window sites must be contiguous")
        self.sigma = dict(sigma)
        self.rho = dict(rho)
        self.tau = dict(tau)
        for store, label in ((self.sigma, "sigma"), (self.rho, "rho"),
                             (self.tau, "tau")):
            if set(store) != set(self.sites):
                raise DomainError(f"{label} must be defined on every window site")
        rings = {s.ring for s in self.tau.values()}
        rings |= {s.ring for s in self.sigma.values()}
        rings |= {s.ring for s in self.rho.values()}
        if len(rings) != 1:
            raise DomainError("all series must share one ring")
        self.ring = next(iter(rings))
        for n in self.sites:
            if self.tau[n].constant_term() == 0:
                raise DomainError(f"tau has no invertible constant term at "
                                  f"site {n}")

    @property
    def interior(self) -> tuple[int, ...]:
        return self.sites[1:-1]

    @classmethod
    def from_numbers(cls, sigma, rho, tau, first_site: int = 0) -> "TauTriple":
        """Wrap plain numeric per-site values as constant series of the
        default ring."""
        ring = default_ring()
        sites = range(first_site, first_site + len(tau))
        return cls(sites,
                   {n: ring.constant(sigma[i]) for i, n in enumerate(sites)},
                   {n: ring.constant(rho[i]) for i, n in enumerate(sites)},
                   {n: ring.constant(tau[i]) for i, n in enumerate(sites)})


def miwa_shift(f: TruncatedSeries, direction: str, scale) -> TruncatedSeries:
    """Substitute z_j -> z_j + scale * zeta^j / j for every time variable of
    the chosen direction ('z' or 'zt') present in the ring.

    Time variables beyond the ring's stock enter only at zeta orders above
    the per-ring zeta cap, consistently with the quotient-ring truncation.
    """
    if direction not in ("z", "zt"):
        raise DomainError("direction must be 'z' or 'zt'")
    out = f
    for name, replacement in _miwa_replacements(f.ring, direction, scale):
        out = out.substitute(name, replacement)
    return out


# typed: scales that compare equal but differ in type (1, 1.0, Fraction(1))
# give replacements of different coefficient types, so they are kept apart
@functools.lru_cache(maxsize=32, typed=True)
def _miwa_replacements(ring: SeriesRing, direction: str, scale):
    """(z_j, z_j + scale * zeta^j / j) for the time variables of one
    direction, built once per ring, direction and scale."""
    zeta = ring.variable("zeta")
    out = []
    for j in range(1, _time_var_count(ring) + 1):
        name = f"{direction}{j}"
        # Fraction(1, j) keeps exact coefficient types exact; conversion to
        # float happens only when scale itself is inexact
        coeff = scale if j == 1 else scale * Fraction(1, j)
        out.append((name, ring.variable(name) + (zeta ** j) * coeff))
    return tuple(out)


def hirota_residual(triple: TauTriple, eq_id: str, zeta_order: int):
    """Left minus right side of one bilinear identity, per interior site,
    truncated to the requested zeta order: the entry eq_id of
    `hirota_residuals`, a dict site -> TruncatedSeries."""
    if eq_id not in HIROTA_EQUATION_IDS:
        raise DomainError(f"unknown equation id {eq_id!r}")
    return hirota_residuals(triple, zeta_order)[eq_id]


def hirota_residuals(triple: TauTriple, zeta_order: int) -> dict:
    """All six bilinear identities, as a dict equation id -> (interior site
    -> TruncatedSeries), truncated to the requested zeta order; the triple
    is Miwa-shifted once per direction.

    The order must be a nonnegative integer (DomainError otherwise).  Orders
    above min(zeta cap, number of time variables) are not claimable because
    truncated-away time variables would contribute there; requesting them
    raises TruncationOrderError.
    """
    try:
        order = operator.index(zeta_order)
    except TypeError:
        raise DomainError(f"zeta order {zeta_order!r} is not an integer") from None
    if order < 0:
        raise DomainError(f"zeta order {order} is negative")
    ring = triple.ring
    claim_cap = min(ring.var_caps[ring.index("zeta")], _time_var_count(ring))
    if order > claim_cap:
        raise TruncationOrderError(
            f"zeta order {order} exceeds the claimable cap {claim_cap}")
    sig, rho, tau = triple.sigma, triple.rho, triple.tau
    zeta = ring.variable("zeta")
    shifted = {direction: tuple({n: miwa_shift(f[n], direction, 1j)
                                 for n in triple.sites} for f in (sig, rho, tau))
               for direction in ("z", "zt")}
    out = {}
    for eq_id in HIROTA_EQUATION_IDS:
        # d, e, f are a, b, c in the zt direction with n - 1 and n + 1 swapped
        direction, step = ("z", 1) if eq_id in ("a", "b", "c") else ("zt", -1)
        Ssig, Srho, Stau = shifted[direction]
        res_eq = out[eq_id] = {}
        for n in triple.interior:
            lo, hi = n - step, n + step
            if eq_id in ("a", "d"):
                res = tau[n] * Stau[n] - rho[n] * Ssig[n] - tau[lo] * Stau[hi]
            elif eq_id in ("b", "e"):
                res = (tau[n] * Ssig[n] - sig[n] * Stau[n]
                       - zeta * (tau[lo] * Ssig[hi]))
            else:
                res = (rho[n] * Stau[n] - tau[n] * Srho[n]
                       - zeta * (rho[lo] * Stau[hi]))
            res_eq[n] = _truncate_zeta(res, order)
    return out


def _truncate_zeta(f: TruncatedSeries, order: int) -> TruncatedSeries:
    i = f.ring.index("zeta")
    kept = {k: c for k, c in f.coeffs.items() if k[i] <= order}
    return TruncatedSeries(f.ring, kept)


@dataclass(frozen=True)
class FlowDerivatives:
    """First time derivatives of a triple and the induced (a, b) flows.

    tau-derivatives exist on the whole window (with the leftmost site's
    logarithmic derivative gauged to zero); sigma/rho derivatives and the
    a/b flows need both neighbors and live on interior sites.
    """
    dsigma_z: dict
    drho_z: dict
    dtau_z: dict
    dsigma_zt: dict
    drho_zt: dict
    dtau_zt: dict
    da_z: dict
    db_z: dict
    da_zt: dict
    db_zt: dict


def extract_time_derivatives(triple: TauTriple) -> FlowDerivatives:
    """Solve the first-order-in-zeta coefficients of the bilinear identities
    for the time derivatives of (sigma, rho, tau).

    The induced flows close into shift form:

        da/dz_1  = -i a(n+1) (1 - a b),   db/dz_1  = +i b(n-1) (1 - a b),
        da/dz~_1 = -i a(n-1) (1 - a b),   db/dz~_1 = +i b(n+1) (1 - a b).
    """
    sites = triple.sites
    inv_tau = {n: series_inverse(triple.tau[n]) for n in sites}
    a = {n: triple.sigma[n] * inv_tau[n] for n in sites}
    b = {n: triple.rho[n] * inv_tau[n] for n in sites}

    c_z = {sites[0]: triple.ring.zero()}
    c_zt = {sites[0]: triple.ring.zero()}
    for n in sites[:-1]:
        c_z[n + 1] = c_z[n] + 1j * (b[n] * a[n + 1])
        c_zt[n + 1] = c_zt[n] - 1j * (a[n] * b[n + 1])

    z = _direction_derivatives(triple, a, b, inv_tau, c_z, 1)
    zt = _direction_derivatives(triple, a, b, inv_tau, c_zt, -1)
    return FlowDerivatives(*z[:3], *zt[:3], *z[3:], *zt[3:])


def _direction_derivatives(triple, a, b, inv_tau, c, step):
    """(dsigma, drho, dtau, da, db) along z (step 1) or zt (step -1, which
    swaps the neighbours n - 1 and n + 1); c is the gauged log-derivative
    of tau."""
    sig, rho, tau = triple.sigma, triple.rho, triple.tau
    dtau = {n: c[n] * tau[n] for n in triple.sites}
    dsigma, drho, da, db = {}, {}, {}, {}
    for n in triple.interior:
        lo, hi = n - step, n + step
        dsigma[n] = sig[n] * c[n] - 1j * (tau[lo] * sig[hi] * inv_tau[n])
        drho[n] = rho[n] * c[n] + 1j * (rho[lo] * tau[hi] * inv_tau[n])
        da[n] = (dsigma[n] - a[n] * dtau[n]) * inv_tau[n]
        db[n] = (drho[n] - b[n] * dtau[n]) * inv_tau[n]
    return dsigma, drho, dtau, da, db


def _advance(triple: TauTriple, c_z, c_zt) -> TauTriple:
    """f -> f + c_z df/dz1 + c_zt df/dzt1 for f in (sigma, rho, tau), on
    the interior window."""
    d = extract_time_derivatives(triple)
    interior = triple.interior

    def update(f, df_z, df_zt):
        return {n: f[n] + c_z * df_z[n] + c_zt * df_zt[n] for n in interior}

    return TauTriple(interior,
                     update(triple.sigma, d.dsigma_z, d.dsigma_zt),
                     update(triple.rho, d.drho_z, d.drho_zt),
                     update(triple.tau, d.dtau_z, d.dtau_zt))


def first_order_triple(triple: TauTriple) -> TauTriple:
    """Triple extended linearly in the first time of each direction:
    f -> f + z1 df/dz1 + zt1 df/dzt1, on the interior window."""
    ring = triple.ring
    return _advance(triple, ring.variable("z1"), ring.variable("zt1"))


def euler_step(triple: TauTriple, h: float) -> TauTriple:
    """First-order step along d/dz1 + d/dzt1; the window shrinks to the
    interior.  Deliberately only first-order accurate: the constraint
    defect it creates is quadratic in h."""
    return _advance(triple, h, h)


def constraint_residual(triple: TauTriple) -> dict:
    """tau^2 - sigma rho - tau(n-1) tau(n+1) per interior site (zero for a
    genuine tau triple, to truncation order)."""
    out = {}
    for n in triple.interior:
        out[n] = (triple.tau[n] * triple.tau[n]
                  - triple.sigma[n] * triple.rho[n]
                  - triple.tau[n - 1] * triple.tau[n + 1])
    return out


def tau_from_lattice(a_values, b_values, first_site: int = 0) -> TauTriple:
    """Build a constant tau triple matching numeric lattice data (a, b).

    The log of tau solves the discrete Poisson relation
    L(n+1) - 2 L(n) + L(n-1) = log(1 - a(n) b(n)) with L = 0 on the first
    two sites (a gauge choice that does not affect a, b, or the flows);
    then sigma = a tau and rho = b tau.
    """
    if len(a_values) != len(b_values):
        raise DomainError("a and b need the same length")
    N = len(a_values)
    if N < 3:
        raise DomainError("need at least three sites")
    L = [0.0, 0.0]
    for n in range(1, N - 1):
        prod = 1 - complex(a_values[n]) * complex(b_values[n])
        if prod == 0:
            raise DomainError(f"1 - a b vanishes at site {n + first_site}")
        L.append(2 * L[n] - L[n - 1] + cmath.log(prod))
    tau = [cmath.exp(Ln) for Ln in L]
    sigma = [complex(an) * tn for an, tn in zip(a_values, tau)]
    rho = [complex(bn) * tn for bn, tn in zip(b_values, tau)]
    return TauTriple.from_numbers(sigma, rho, tau, first_site=first_site)


def first_order_claim_monomials(ring: SeriesRing):
    """Exponent tuples {1, zeta, z1, zt1}: the monomials a first-order
    (linear in the first times) triple determines in the residuals."""
    nvars = len(ring.variables)
    base = tuple([0] * nvars)
    out = [base]
    for name in ("zeta", "z1", "zt1"):
        e = [0] * nvars
        e[ring.index(name)] = 1
        out.append(tuple(e))
    return out


def first_order_claim_residual(triple: TauTriple) -> dict:
    """Max coefficient magnitude of each bilinear residual over the
    first-order-reliable monomials, for the triple extended linearly in the
    first times via the extracted derivatives."""
    fo = first_order_triple(triple)
    monos = first_order_claim_monomials(triple.ring)
    out = {}
    for eq, res in hirota_residuals(fo, 1).items():
        worst = 0.0
        for series in res.values():
            for e in monos:
                c = series.coeffs.get(e, 0)
                worst = max(worst, abs(complex(c)))
        out[eq] = worst
    return out
