"""Periodic two-field lattice integrator.

The state is a pair of complex fields a_n, b_n on Z/NZ evolving under

    da_n/dt = -i (a_{n+1} + a_{n-1}) (1 - a_n b_n)
    db_n/dt = +i (b_{n+1} + b_{n-1}) (1 - a_n b_n)

with fixed-step fourth-order Runge-Kutta time stepping.  The product
C0 = sum_n log(1 - a_n b_n) is a first integral and is tracked along
trajectories as an accuracy diagnostic.  Plane waves

    a_n = A exp(i (k n - w t)),   b_n = B exp(-i (k n - w t))

with w = 2 cos(k) (1 - A B) solve the system exactly and serve as the
reference solution for convergence checks; on a ring the wavenumber must
be commensurate, k = 2 pi m / N.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .barnes import fold_2pii
from .errors import DomainError, SingularStateError
from .reporting import fmt_float, write_csv, write_json

__all__ = [
    "LatticeState",
    "PlaneWaveParams",
    "Trajectory",
    "al_rhs",
    "rk4_step",
    "integrate",
    "conserved_quantity",
    "plane_wave_frequency",
    "export_trajectory",
    "gauge_transform",
]

_SINGULAR_TOL = 1e-13


@dataclass
class LatticeState:
    """Fields on a periodic ring, with the current time attached."""

    a: np.ndarray
    b: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        if self.a.ndim != 1 or self.a.shape != self.b.shape:
            raise DomainError("fields a and b must be 1-d arrays of equal length")
        if self.a.size < 2:
            raise DomainError("need at least two lattice sites")

    @property
    def sites(self) -> int:
        return self.a.size


def plane_wave_frequency(k: float, amp_a: complex, amp_b: complex) -> complex:
    """Dispersion relation w = 2 cos(k) (1 - A B)."""
    return 2.0 * math.cos(k) * (1.0 - complex(amp_a) * complex(amp_b))


@dataclass(frozen=True)
class PlaneWaveParams:
    """Exact traveling-wave data on a ring of `sites` points.

    The integer mode index fixes k = 2 pi mode / sites, which is the
    commensurability condition for periodicity.
    """

    sites: int
    mode: int
    amp_a: complex
    amp_b: complex

    def __post_init__(self):
        if self.sites < 2:
            raise DomainError("need at least two lattice sites")
        if not isinstance(self.mode, int):
            raise DomainError("mode index must be an integer")
        ab = complex(self.amp_a) * complex(self.amp_b)
        if abs(1.0 - ab) < _SINGULAR_TOL:
            raise DomainError("amplitudes sit on the singular locus a*b = 1")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi * self.mode / self.sites

    @property
    def frequency(self) -> complex:
        return plane_wave_frequency(self.wavenumber, self.amp_a, self.amp_b)

    def state_at(self, t: float) -> LatticeState:
        n = np.arange(self.sites)
        phase = np.exp(1j * (self.wavenumber * n - self.frequency * t))
        return LatticeState(complex(self.amp_a) * phase,
                            complex(self.amp_b) / phase,
                            float(t))


def _rhs_arrays(a: np.ndarray, b: np.ndarray):
    factor = 1.0 - a * b
    if np.any(np.abs(factor) < _SINGULAR_TOL):
        bad = int(np.argmin(np.abs(factor)))
        raise SingularStateError(
            f"state reached the singular locus a*b = 1 at site {bad}")
    da = -1j * (np.roll(a, -1) + np.roll(a, 1)) * factor
    db = 1j * (np.roll(b, -1) + np.roll(b, 1)) * factor
    return da, db


def al_rhs(state: LatticeState):
    """Right side (da/dt, db/dt) of the lattice flow."""
    return _rhs_arrays(state.a, state.b)


def rk4_step(state: LatticeState, dt: float) -> LatticeState:
    a, b = state.a, state.b
    k1a, k1b = _rhs_arrays(a, b)
    k2a, k2b = _rhs_arrays(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
    k3a, k3b = _rhs_arrays(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
    k4a, k4b = _rhs_arrays(a + dt * k3a, b + dt * k3b)
    new_a = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    new_b = b + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return LatticeState(new_a, new_b, state.time + dt)


def conserved_quantity(state: LatticeState) -> complex:
    """C0 = sum_n log(1 - a_n b_n), the logarithm of the conserved product."""
    factor = 1.0 - state.a * state.b
    if np.any(np.abs(factor) < _SINGULAR_TOL):
        raise SingularStateError("conserved quantity undefined on the singular locus")
    c0 = complex(np.sum(np.log(factor)))
    if not cmath.isfinite(c0):
        raise SingularStateError("state left the float range")
    return c0


@dataclass
class Trajectory:
    """Sampled output of `integrate`: states plus the conserved diagnostic."""

    states: list = field(default_factory=list)
    conserved: list = field(default_factory=list)
    dt: float = 0.0
    sample_every: int = 1

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def conserved_drift(self) -> float:
        # C0 is the log of the conserved product, so only defined mod 2 pi i
        ref = self.conserved[0]
        return max(abs(fold_2pii(c - ref)[0]) for c in self.conserved)


def integrate(state: LatticeState, steps: int, dt: float,
              sample_every: int = 1) -> Trajectory:
    """Run `steps` fixed RK4 steps, sampling every `sample_every` steps
    (the initial and final states are always included).

    A step that lands on (or crosses into a neighborhood of) the singular
    locus a*b = 1 aborts with SingularStateError carrying the time reached.
    So does a state that has left the float range; it is caught at the
    next sample, through the conserved quantity, so that unsampled steps
    pay nothing for the check.
    """
    if steps < 0:
        raise DomainError("step count must be nonnegative")
    if sample_every < 1:
        raise DomainError("sample_every must be positive")
    if not math.isfinite(dt):
        raise DomainError(f"time step dt = {dt} must be finite")
    traj = Trajectory(dt=float(dt), sample_every=int(sample_every))
    traj.states.append(state)
    traj.conserved.append(conserved_quantity(state))
    # overflow is reported at the next sample, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            try:
                state = rk4_step(state, dt)
                if k % sample_every == 0 or k == steps:
                    traj.states.append(state)
                    traj.conserved.append(conserved_quantity(state))
            except SingularStateError as exc:
                raise SingularStateError(
                    f"{exc} (aborted during step {k}, t = {state.time:.6g})") from None
    return traj


def export_trajectory(traj: Trajectory, csv_path: str, meta_path: str,
                      extra_meta: dict | None = None) -> None:
    """CSV of site data (one row per sampled step and site) plus a JSON
    sidecar with run parameters and the conserved-quantity series."""
    rows = []
    t0 = traj.states[0].time if traj.states else 0.0
    for idx, st in enumerate(traj.states):
        # recover the step index from the stored time; robust to uneven sampling
        step = int(round((st.time - t0) / traj.dt)) if traj.dt else idx
        for n in range(st.sites):
            rows.append([
                step,
                fmt_float(st.time),
                n,
                fmt_float(st.a[n].real),
                fmt_float(st.a[n].imag),
                fmt_float(st.b[n].real),
                fmt_float(st.b[n].imag),
            ])
    write_csv(csv_path, ["step", "time", "site", "re_a", "im_a", "re_b", "im_b"], rows)
    meta = {
        "schema": 1,
        "dt": traj.dt,
        "sample_every": traj.sample_every,
        "sites": traj.states[0].sites if traj.states else 0,
        "steps": int(round((traj.states[-1].time - traj.states[0].time) / traj.dt))
        if traj.dt and traj.states else 0,
        "conserved_initial": traj.conserved[0] if traj.conserved else None,
        "conserved_final": traj.conserved[-1] if traj.conserved else None,
        "conserved_drift": traj.conserved_drift() if traj.conserved else None,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path, meta)


def gauge_transform(state: LatticeState, c: complex) -> LatticeState:
    """Map (a, b) -> (c a, b / c); commutes with the flow for constant c."""
    c = complex(c)
    if c == 0:
        raise DomainError("gauge constant must be nonzero")
    return LatticeState(state.a * c, state.b / c, state.time)
