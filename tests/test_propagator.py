import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dirac_rescale.gauge import transformed_hamiltonian
from dirac_rescale.iontrap import IonTrapModel, build_demo_hamiltonian

from dirac_rescale.propagator import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliHamiltonian,
    UnitarityError,
    evolve_states,
    norm_defect,
    propagate,
    propagate_sampled,
    rescaled_propagate,
    su2_exponential,
    time_rescaled,
    unitarity_defect,
)
from dirac_rescale.rescaling import RescalingFunction


def demo_hamiltonian(p, tau=1.0):
    """Two-level ramp used throughout: (p - sin^2) sx + cos^2 sz."""
    pa = np.asarray(p, dtype=float)

    def terms(t):
        t = t[..., None] if pa.ndim else t
        return 0.0, pa - np.sin(np.pi * t / (2 * tau)) ** 2, 0.0, np.cos(np.pi * t / (2 * tau)) ** 2

    return PauliHamiltonian(terms)


def test_step_diagonal_for_sigma_z():
    h = PauliHamiltonian.constant(dz=1.0)
    dt = 0.37
    u = propagate(h, 0.0, dt, 1)
    expected = np.diag([np.exp(-1j * dt), np.exp(1j * dt)])
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_step_zero_hamiltonian_is_identity():
    h = PauliHamiltonian.constant()
    np.testing.assert_allclose(propagate(h, 0.0, 0.5, 1), IDENTITY2, atol=1e-15)


def test_step_matches_dense_expm():
    h = PauliHamiltonian.constant(dx=1.0, dz=1.0)
    dt = 0.2
    u = propagate(h, 0.0, dt, 1)
    reference = expm(-1j * (PAULI_X + PAULI_Z) * dt)
    assert np.max(np.abs(u - reference)) < 1e-12


def test_step_small_angle_branch():
    u = su2_exponential(0.3, 1e-20, 0.0, 1e-20, 0.1)
    np.testing.assert_allclose(u, np.exp(-1j * 0.03) * IDENTITY2, atol=1e-15)


def test_step_rejects_bad_input():
    h = PauliHamiltonian.constant(dx=1.0)
    with pytest.raises(ValueError):
        propagate(h, 0.0, -0.1, 1)


@settings(max_examples=60, deadline=None)
@given(
    d=hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)),
    log_scale=st.floats(-22.0, 4.0),
    dt=st.floats(1e-3, 10.0),
)
@example(d=np.array([0.3, 1.0, 0.0, 1.0]), log_scale=-20.0, dt=0.1)
@example(d=np.array([-0.5, 0.8, -0.6, 0.1]), log_scale=4.0, dt=10.0)
def test_step_unitary_and_matches_expm(d, log_scale, dt):
    # |d| dt spans the Taylor branch (< 1e-14) up to ~2e5
    d0, dx, dy, dz = d * 10.0**log_scale
    u = su2_exponential(d0, dx, dy, dz, dt)
    assert unitarity_defect(u) <= 1e-14
    reference = expm(-1j * (d0 * IDENTITY2 + dx * PAULI_X + dy * PAULI_Y + dz * PAULI_Z) * dt)
    angle = (abs(d0) + np.sqrt(dx * dx + dy * dy + dz * dz)) * dt
    assert np.max(np.abs(u - reference)) <= 1e-12 * max(1.0, angle)


def test_propagate_constant_hamiltonian():
    h = PauliHamiltonian.constant(dx=0.4, dy=-0.2, dz=0.9)
    for n in (1, 7, 64):
        u = propagate(h, 0.0, 1.3, n)
        np.testing.assert_allclose(u, propagate(h, 0.0, 1.3, 1), atol=1e-12)


def test_propagate_composition():
    h = demo_hamiltonian(0.3)
    u_full = propagate(h, 0.0, 1.0, 512)
    u_late = propagate(h, 0.5, 1.0, 256)
    u_early = propagate(h, 0.0, 0.5, 256)
    assert np.linalg.norm(u_full - u_late @ u_early, 2) < 1e-10


def test_propagate_fourth_order_convergence():
    h = demo_hamiltonian(0.3)
    reference = propagate(h, 0.0, 1.0, 16000)
    ns = np.array([50, 100, 200])
    errs = [np.linalg.norm(propagate(h, 0.0, 1.0, int(n)) - reference, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 3.9 <= -slope <= 4.1


def test_rescaled_propagate_fourth_order_convergence():
    # CF4: the error falls 2^4 = 16 times per halving of the step
    h = demo_hamiltonian(0.3)
    rf = RescalingFunction(a=2.0, tau=1.0)
    reference = rescaled_propagate(h, rf, 8000)
    ns = np.array([50, 100, 200, 400])
    errs = [np.linalg.norm(rescaled_propagate(h, rf, int(n)) - reference, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 3.9 <= -slope <= 4.1
    # an independent oracle: scipy's DOP853 on dU/ds = -i h(s) U of the rescaled H
    h_tilde = time_rescaled(h, rf)
    sol = solve_ivp(lambda s, y: (-1j * h_tilde.matrix(s) @ y.reshape(2, 2)).ravel(),
                    (0.0, rf.horizon), IDENTITY2.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-13)
    assert sol.success
    assert np.linalg.norm(reference - sol.y[:, -1].reshape(2, 2), 2) < 1e-12


@pytest.mark.parametrize("call", [
    lambda h, order: propagate(h, 0.0, 1.0, 10, order=order),
    lambda h, order: propagate_sampled(h, 0.0, 1.0, 10, [0, 10], order=order),
    lambda h, order: evolve_states(h, 0.0, 1.0, 10, np.array([1.0, 0.0]), [10], order=order),
    lambda h, order: rescaled_propagate(h, RescalingFunction(a=2.0, tau=1.0), 10, order=order),
], ids=["propagate", "propagate_sampled", "evolve_states", "rescaled_propagate"])
@pytest.mark.parametrize("order", [1, 3, 6])
def test_entry_points_reject_bad_order(call, order):
    # CF4 is the only stepper: no entry point takes an order, so none can
    # silently run a stepper the caller did not ask for
    with pytest.raises(TypeError, match="order"):
        call(demo_hamiltonian(0.3), order)


def test_propagate_unitarity_error_signal():
    # wildly stiff coefficients at one huge step trip the defect guard
    h = PauliHamiltonian(lambda t: (0.0, np.inf, 0.0, 0.0))
    with pytest.raises((UnitarityError, ValueError)):
        propagate(h, 0.0, 1.0, 2)
    # finite, but the step phases overflow as they add: no warning on the way
    h = PauliHamiltonian(lambda t: (1e308, 1.0, 0.0, 0.0))
    with pytest.raises(UnitarityError):
        propagate(h, 0.0, 10.0, 4)


@pytest.mark.parametrize("h", [
    pytest.param(PauliHamiltonian(lambda t: (0.0, np.full_like(t, np.nan), 0.0, 1.0)), id="nan_field"),
    pytest.param(PauliHamiltonian(lambda t: (np.full_like(t, np.nan), 1.0, 0.0, 0.0)), id="nan_phase"),
])
@pytest.mark.parametrize("call", [
    lambda h: propagate(h, 0.0, 1.0, 10),
    lambda h: propagate_sampled(h, 0.0, 1.0, 10, [0, 5, 10]),
    lambda h: evolve_states(h, 0.0, 1.0, 10, np.array([1.0, 0.0]), [0, 5, 10]),
], ids=["propagate", "propagate_sampled", "evolve_states"])
def test_nan_coefficients_raise(h, call):
    with pytest.raises(UnitarityError):
        call(h)


@pytest.mark.parametrize("t0,t1,n_steps,error", [
    pytest.param(1.0, 0.0, 10, ValueError, id="backwards"),
    pytest.param(0.0, 0.0, 10, ValueError, id="empty_window"),
    pytest.param(0.0, 1.0, 0, ValueError, id="n_steps_zero"),
    # a fractional step count would leave the window short of t1
    pytest.param(0.0, 1.0, 2.5, TypeError, id="n_steps_fractional"),
])
@pytest.mark.parametrize("call", [
    lambda h, t0, t1, n: propagate(h, t0, t1, n),
    lambda h, t0, t1, n: propagate_sampled(h, t0, t1, n, [0]),
    lambda h, t0, t1, n: evolve_states(h, t0, t1, n, np.array([1.0, 0.0]), [0]),
], ids=["propagate", "propagate_sampled", "evolve_states"])
def test_entry_points_reject_bad_window(call, t0, t1, n_steps, error):
    with pytest.raises(error):
        call(demo_hamiltonian(0.3), t0, t1, n_steps)


def test_rescaled_identity_factor_matches_plain():
    h = demo_hamiltonian(0.2)
    rf = RescalingFunction(a=1.0, tau=1.0)
    u_plain = propagate(h, 0.0, 1.0, 700)
    u_resc = rescaled_propagate(h, rf, 700)
    np.testing.assert_allclose(u_resc, u_plain, atol=1e-13)


@pytest.mark.parametrize("a,p", [(2.0, 0.0), (4.0, 0.3)])
def test_rescaled_equals_original_window(a, p):
    tau = 1.0
    h = demo_hamiltonian(p, tau)
    rf = RescalingFunction(a=a, tau=tau)
    u_orig = propagate(h, 0.0, tau, 8000)
    u_resc = rescaled_propagate(h, rf, 8000)
    assert np.linalg.norm(u_resc - u_orig, 2) < 1e-8


def test_unitarity_across_resolutions():
    h = demo_hamiltonian(0.1)
    for n in (17, 333, 4000):
        u = propagate(h, 0.0, 1.0, n)
        assert unitarity_defect(u) < 1e-10


def test_batched_modes_match_scalar_runs():
    p = np.array([-0.4, 0.0, 0.7])
    hb = demo_hamiltonian(p)
    ub = propagate(hb, 0.0, 1.0, 400)
    assert ub.shape == (3, 2, 2)
    for i, pi in enumerate(p):
        us = propagate(demo_hamiltonian(float(pi)), 0.0, 1.0, 400)
        np.testing.assert_allclose(ub[i], us, atol=1e-13)


def test_propagate_sampled_consistency():
    h = demo_hamiltonian(0.3)
    times, us = propagate_sampled(h, 0.0, 1.0, 400, [0, 100, 400])
    np.testing.assert_allclose(times, [0.0, 0.25, 1.0])
    np.testing.assert_allclose(us[0], IDENTITY2)
    np.testing.assert_allclose(us[1], propagate(h, 0.0, 0.25, 100), atol=1e-14)
    np.testing.assert_allclose(us[2], propagate(h, 0.0, 1.0, 400), atol=1e-14)


def test_evolve_states_matches_unitaries():
    psi0 = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]], dtype=complex)
    # one spinor per mode, then one mode whose propagator acts on both spinors
    for p in (np.array([-0.2, 0.5]), 0.3):
        h = demo_hamiltonian(p)
        times, psis = evolve_states(h, 0.0, 1.0, 300, psi0, [150, 300])
        _, us = propagate_sampled(h, 0.0, 1.0, 300, [150, 300])
        assert psis.shape == (2, 2, 2)
        for j in range(2):
            np.testing.assert_allclose(psis[j], np.einsum("...ij,...j->...i", us[j], psi0), atol=1e-13)
        assert norm_defect(psis) < 1e-12


def test_determinism_bit_identical():
    h = demo_hamiltonian(np.linspace(-0.3, 0.3, 5))
    u1 = propagate(h, 0.0, 1.0, 777)
    u2 = propagate(h, 0.0, 1.0, 777)
    assert np.array_equal(u1, u2)


@settings(max_examples=30, deadline=None)
@given(
    p=hnp.arrays(float, st.integers(1, 9), elements=st.floats(-1.0, 1.0)),
    pick=st.integers(0, 1000),
    n_steps=st.integers(1, 9000),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
@example(p=np.linspace(-0.3, 0.3, 129), pick=17, n_steps=9000, fracs=[0.0, 0.5, 1.0])
@example(p=np.linspace(-0.3, 0.3, 129), pick=40, n_steps=256, fracs=[0.25, 1.0])
def test_batch_invariance_bitwise(p, pick, n_steps, fracs):
    # a mode's result is the same bits alone or inside a batch, across step blocks
    m = pick % p.size
    sample = sorted(int(f * n_steps) for f in fracs)
    hb, hm = demo_hamiltonian(p), demo_hamiltonian(float(p[m]))
    psi0 = np.stack([np.cos(p), 1j * np.sin(p)], axis=-1)
    assert np.array_equal(propagate(hb, 0.0, 1.0, n_steps)[m], propagate(hm, 0.0, 1.0, n_steps))
    tb, ub = propagate_sampled(hb, 0.0, 1.0, n_steps, sample)
    tm, um = propagate_sampled(hm, 0.0, 1.0, n_steps, sample)
    assert np.array_equal(tb, tm) and np.array_equal(ub[:, m], um)
    _, sb = evolve_states(hb, 0.0, 1.0, n_steps, psi0, sample)
    _, sm = evolve_states(hm, 0.0, 1.0, n_steps, psi0[m], sample)
    assert np.array_equal(sb[:, m], sm)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(1.0, 16.0), p=st.floats(-0.5, 0.5))
@example(a=1.0, p=0.0)
@example(a=16.0, p=-0.5)
def test_rescaled_propagate_matches_original_property(a, p):
    # U(tau <- 0) of H equals the propagator of df(s) H(f(s)) over [0, tau/a],
    # with the contracted window stepped about as finely as the original
    h = build_demo_hamiltonian(IonTrapModel(), p)
    rf = RescalingFunction(a=a, tau=1.0)
    u_resc = rescaled_propagate(h, rf, math.ceil(64 * a))
    u_orig = propagate(h, 0.0, 1.0, 512)
    assert np.linalg.norm(u_resc - u_orig, 2) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(1.0, 16.0),
    frac=st.floats(0.0, 1.0),
    p=hnp.arrays(float, 5, elements=st.floats(-2.0, 2.0)),
)
@example(a=2.0, frac=0.4, p=np.full(5, 0.3))
def test_time_rescaled_coefficients(a, frac, p):
    h = demo_hamiltonian(p)
    rf = RescalingFunction(a=a, tau=1.0)
    hr = time_rescaled(h, rf)
    s = frac * rf.horizon
    d0, dx, dy, dz = hr.coeffs(s)
    fd, ft = rf.df(s), rf.f(s)
    assert dx == pytest.approx(fd * (p - np.sin(np.pi * ft / 2) ** 2))
    assert dz == pytest.approx(fd * np.cos(np.pi * ft / 2) ** 2)

    # one coefficient call: df(s) * H(f(s)), also on a time grid with mode axes trailing
    ts = np.array([0.0, s, rf.horizon])
    for t, fd_t in ((s, rf.df(s)), (ts, rf.df(ts)[:, None])):
        for got, want in zip(hr.coeffs(t), h.coeffs(rf.f(t))):
            assert np.array_equal(got, fd_t * want)

    # each mode of a batch matches its own scalar-p run, bit for bit
    h_frak = transformed_hamiltonian(rf, h)
    for m, pm in enumerate(p):
        h_m = demo_hamiltonian(float(pm))
        for batched, single in ((hr, time_rescaled(h_m, rf)),
                                (h_frak, transformed_hamiltonian(rf, h_m))):
            for got, want in zip(batched.coeffs(ts), single.coeffs(ts)):
                assert np.array_equal(got[:, m], want)


_EXACT_UNITARY = np.array([[0, -1], [1, 0]])


@pytest.mark.parametrize("dtype,tol", [(np.int64, 0.0), (np.float64, 0.0),
                                       (np.complex64, 1e-6), (np.complex128, 0.0)])
def test_unitarity_defect_any_dtype(dtype, tol):
    # the finiteness test reads values, not the bytes of the array
    assert unitarity_defect(_EXACT_UNITARY.astype(dtype)) <= tol


@pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.complex128])
def test_unitarity_defect_nan_is_inf(dtype):
    u = _EXACT_UNITARY.astype(dtype)
    u[0, 0] = np.nan
    assert unitarity_defect(u) == float("inf")
