"""Periodic lattice simulator: plane-wave oracle, conservation, RK4 order."""
import cmath
import csv
import json
import math

import numpy as np
import pytest

from conifold_flows import DomainError, SingularStateError
from conifold_flows.lattice import (
    LatticeState,
    PlaneWaveParams,
    al_rhs,
    conserved_quantity,
    export_trajectory,
    gauge_transform,
    integrate,
    plane_wave_frequency,
    rk4,
    rk4_step,
)


def _pw(n=16, mode=2, amp_a=0.3, amp_b=0.2):
    return PlaneWaveParams(sites=n, mode=mode, amp_a=amp_a, amp_b=amp_b)


# ---------------------------------------------------------------------------
# the RK4 step


def test_rk4_is_the_textbook_step_and_writes_only_its_own_arrays():
    rng = np.random.default_rng(16)
    y = 0.3 * (rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
    y_bytes, dt = y.tobytes(), 0.01
    returned = []

    def f(state):
        out = al_rhs(LatticeState(state[0].copy(), state[1].copy()))
        returned.append((out, out.tobytes()))
        return out

    got = rk4(f, y, dt)
    assert y.tobytes() == y_bytes
    assert len(returned) == 4
    assert all(out.tobytes() == b for out, b in returned)
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# plane-wave oracle


def test_plane_wave_is_exact_solution_short_run():
    pw = _pw()
    traj = integrate(pw.state_at(0.0), steps=400, dt=5e-4, sample_every=100)
    final = traj.states[-1]
    exact = pw.state_at(final.time)
    assert float(np.max(np.abs(final.a - exact.a))) < 1e-11
    assert float(np.max(np.abs(final.b - exact.b))) < 1e-11


def test_plane_wave_satisfies_rhs_exactly():
    # d/dt of the traveling wave equals the lattice right side at t = 0
    pw = _pw(n=12, mode=3, amp_a=0.25, amp_b=0.15)
    state = pw.state_at(0.0)
    da, db = al_rhs(state)
    w = pw.frequency
    assert np.max(np.abs(da - (-1j * w) * state.a)) < 1e-13
    assert np.max(np.abs(db - (+1j * w) * state.b)) < 1e-13


def test_dispersion_relation():
    k = 2 * math.pi * 2 / 16
    assert plane_wave_frequency(k, 0.3, 0.2) == pytest.approx(
        2 * math.cos(k) * (1 - 0.06), rel=1e-15)
    pw = _pw()
    assert pw.wavenumber == pytest.approx(k)
    assert pw.frequency == pytest.approx(plane_wave_frequency(k, 0.3, 0.2))


def test_plane_wave_param_guards():
    with pytest.raises(DomainError):
        PlaneWaveParams(sites=16, mode=1.5, amp_a=0.3, amp_b=0.2)
    with pytest.raises(DomainError):
        PlaneWaveParams(sites=16, mode=1, amp_a=1.0, amp_b=1.0)  # 1 - AB = 0
    with pytest.raises(DomainError):
        PlaneWaveParams(sites=1, mode=0, amp_a=0.3, amp_b=0.2)
    state = _pw().state_at(0.25)
    assert state.time == 0.25


# ---------------------------------------------------------------------------
# conservation and order


def test_conserved_quantity_drift():
    pw = _pw()
    traj = integrate(pw.state_at(0.0), steps=2000, dt=1e-3, sample_every=200)
    assert traj.conserved_drift() < 1e-12


def test_rk4_order_under_halving():
    pw = _pw(n=8, mode=1, amp_a=0.4, amp_b=0.3)

    def error(dt, steps):
        traj = integrate(pw.state_at(0.0), steps=steps, dt=dt, sample_every=steps)
        final = traj.states[-1]
        exact = pw.state_at(final.time)
        return float(np.max(np.abs(final.a - exact.a)))

    e1 = error(2e-2, 50)
    e2 = error(1e-2, 100)
    order = math.log2(e1 / e2)
    assert abs(order - 4.0) <= 0.2, order


def test_rk4_step_matches_a_written_out_tableau_bitwise():
    # an independent RK4 with its own right side, in the same arithmetic
    # order, must reproduce the shared step to the bit
    rng = np.random.default_rng(5)
    n, dt = 64, 1e-3
    a = 0.3 * (rng.random(n) - 0.5) + 0.2j * (rng.random(n) - 0.5)
    b = 0.3 * (rng.random(n) - 0.5) - 0.2j * (rng.random(n) - 0.5)

    def f(a, b):
        factor = 1.0 - a * b
        return (-1j * (np.roll(a, -1) + np.roll(a, 1)) * factor,
                1j * (np.roll(b, -1) + np.roll(b, 1)) * factor)

    state = LatticeState(a, b)
    a0 = a
    for _ in range(200):
        k1a, k1b = f(a, b)
        k2a, k2b = f(a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
        k3a, k3b = f(a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
        k4a, k4b = f(a + dt * k3a, b + dt * k3b)
        a = a + (dt / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (dt / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        state = rk4_step(state, dt)
    assert np.max(np.abs(a - a0)) > 1e-3  # the state moved
    assert np.array_equal(state.a, a) and np.array_equal(state.b, b)
    assert state.time == pytest.approx(200 * dt)


def _stepwise(state, steps, dt, sample_every):
    """integrate() written out over rk4_step, one LatticeState per step."""
    states = [state]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            try:
                state = rk4_step(state, dt)
                if k % sample_every == 0 or k == steps:
                    states.append(state)
                    conserved_quantity(state)
            except SingularStateError as exc:
                raise SingularStateError(
                    f"{exc} (aborted during step {k}, t = {state.time:.6g})") from None
    return states


@pytest.mark.parametrize("dt", [1e-2, -1e-2])
@pytest.mark.parametrize("n", [2, 3, 64])
def test_integrate_matches_a_loop_of_steps_bitwise(n, dt):
    # integrate steps one (2, N) array and builds states only at samples;
    # it must land on the bits of rk4_step applied step by step
    rng = np.random.default_rng(n)
    a = 0.4 * (rng.random(n) - 0.5) + 0.3j * (rng.random(n) - 0.5)
    b = 0.4 * (rng.random(n) - 0.5) - 0.3j * (rng.random(n) - 0.5)
    state = LatticeState(a, b, time=0.25)
    traj = integrate(state, steps=23, dt=dt, sample_every=5)
    want = _stepwise(state, 23, dt, 5)
    assert [s.time for s in traj.states] == [s.time for s in want]
    for got, ref in zip(traj.states, want):
        assert np.array_equal(got.a, ref.a) and np.array_equal(got.b, ref.b)
    assert traj.conserved == [conserved_quantity(s) for s in want]
    assert np.max(np.abs(traj.states[-1].a - a)) > 1e-3  # the state moved


@pytest.mark.parametrize("dt", [0.5, -0.5])
@pytest.mark.parametrize("n", [2, 3, 64])
def test_integrate_aborts_with_the_steps_message(n, dt):
    # site 0 sees the a-neighbour sum 2s and no b-neighbours, so with
    # s = i/(dt b_0) the second RK4 stage puts a_0 b_0 on 1 (to rounding):
    # the first step aborts on the singular locus
    a = np.zeros(n, complex)
    b = np.zeros(n, complex)
    a[0], b[0] = 0.3, 0.5
    a[1] = a[-1] = 1j / (dt * b[0])
    state = LatticeState(a, b, time=0.25)
    with pytest.raises(SingularStateError) as want:
        _stepwise(state, 10, dt, 3)
    with pytest.raises(SingularStateError) as got:
        integrate(state, 10, dt, sample_every=3)
    assert "singular locus a*b = 1 at site 0" in str(want.value)
    assert str(got.value) == str(want.value)
    # a state that leaves the float range is caught at the next sample,
    # whose step and time (after the step) the message names
    rng = np.random.default_rng(n)
    big = 2.0 * (rng.random((2, n)) - 0.5 + 1j * (rng.random((2, n)) - 0.5))
    state = LatticeState(big[0], big[1])
    with pytest.raises(SingularStateError) as want:
        _stepwise(state, 200, dt, 10)
    with pytest.raises(SingularStateError) as got:
        integrate(state, 200, dt, sample_every=10)
    assert "left the float range" in str(want.value)
    assert str(got.value) == str(want.value)


def test_time_reversibility():
    pw = _pw()
    fwd = integrate(pw.state_at(0.0), steps=200, dt=1e-3, sample_every=200)
    back = integrate(fwd.states[-1], steps=200, dt=-1e-3, sample_every=200)
    final = back.states[-1]
    start = pw.state_at(0.0)
    assert float(np.max(np.abs(final.a - start.a))) < 1e-10
    assert abs(final.time) < 1e-12


# ---------------------------------------------------------------------------
# structure


def test_gauge_covariance():
    rng = np.random.default_rng(3)
    a = 0.4 * (rng.random(10) - 0.5) + 0.2j * rng.random(10)
    b = 0.4 * (rng.random(10) - 0.5) - 0.2j * rng.random(10)
    state = LatticeState(a, b)
    c = cmath.exp(0.7j)
    one = gauge_transform(rk4_step(state, 1e-3), c)
    two = rk4_step(gauge_transform(state, c), 1e-3)
    assert float(np.max(np.abs(one.a - two.a))) < 1e-14
    assert float(np.max(np.abs(one.b - two.b))) < 1e-14
    with pytest.raises(DomainError):
        gauge_transform(state, 0.0)


def test_two_site_wrap():
    # with two sites each neighbor sum hits the same site twice
    eps = 1e-3
    state = LatticeState(np.array([0.0j, eps]), np.array([0.0j, 0.0j]))
    da, db = al_rhs(state)
    assert da[0] == -2j * eps
    assert da[1] == 0
    assert np.all(db == 0)


def test_zero_state_is_fixed_point():
    state = LatticeState(np.zeros(6, complex), np.zeros(6, complex))
    stepped = rk4_step(state, 1e-2)
    assert np.all(stepped.a == 0) and np.all(stepped.b == 0)


def test_singular_state_guard():
    a = np.full(4, 1.0 + 0j)
    b = np.full(4, 1.0 + 0j)
    state = LatticeState(a, b)
    with pytest.raises(SingularStateError):
        al_rhs(state)
    with pytest.raises(SingularStateError):
        conserved_quantity(state)


def test_state_validation():
    with pytest.raises(DomainError):
        LatticeState(np.zeros(1, complex), np.zeros(1, complex))
    with pytest.raises(DomainError):
        LatticeState(np.zeros(4, complex), np.zeros(5, complex))


# ---------------------------------------------------------------------------
# export


def test_export_round_trip(tmp_path):
    pw = _pw(n=6, mode=1)
    traj = integrate(pw.state_at(0.0), steps=20, dt=1e-3, sample_every=10)
    csv_path = tmp_path / "run.csv"
    meta_path = tmp_path / "run.json"
    export_trajectory(traj, str(csv_path), str(meta_path), {"label": "test"})

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "time", "site", "re_a", "im_a", "re_b", "im_b"]
    assert len(rows) == 1 + 3 * 6  # three samples, six sites

    meta = json.loads(meta_path.read_text())
    assert meta["schema"] == 1
    assert meta["sites"] == 6
    assert meta["label"] == "test"
    assert float(meta["conserved_drift"]) < 1e-12

    # float64 survives the 17-digit round trip
    last = rows[-1]
    got = float(last[3]) + 1j * float(last[4])
    assert got == complex(traj.states[-1].a[5])
