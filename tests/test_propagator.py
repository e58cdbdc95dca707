import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from dirac_rescale.gauge import GaugeFrame, transformed_hamiltonian

from dirac_rescale.propagator import (
    IDENTITY2,
    PAULI_X,
    PAULI_Z,
    PauliHamiltonian,
    UnitarityError,
    evolve_state,
    evolve_states,
    norm_defect,
    propagate,
    propagate_sampled,
    rescaled_propagate,
    step_exact,
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
    u = step_exact(h, 0.0, dt)
    expected = np.diag([np.exp(-1j * dt), np.exp(1j * dt)])
    np.testing.assert_allclose(u, expected, atol=1e-15)


def test_step_zero_hamiltonian_is_identity():
    h = PauliHamiltonian.constant()
    np.testing.assert_allclose(step_exact(h, 0.0, 0.5), IDENTITY2, atol=1e-15)


def test_step_matches_dense_expm():
    h = PauliHamiltonian.constant(dx=1.0, dz=1.0)
    dt = 0.2
    u = step_exact(h, 0.0, dt)
    reference = expm(-1j * (PAULI_X + PAULI_Z) * dt)
    assert np.max(np.abs(u - reference)) < 1e-12


def test_step_small_angle_branch():
    u = su2_exponential(0.3, 1e-20, 0.0, 1e-20, 0.1)
    np.testing.assert_allclose(u, np.exp(-1j * 0.03) * IDENTITY2, atol=1e-15)


def test_step_rejects_bad_input():
    h = PauliHamiltonian.constant(dx=1.0)
    with pytest.raises(ValueError):
        step_exact(h, 0.0, -0.1)
    h_bad = PauliHamiltonian(lambda t: (0.0, np.full_like(t, np.nan), 0.0, 0.0))
    with pytest.raises(ValueError):
        step_exact(h_bad, 0.0, 0.1)


def test_propagate_constant_hamiltonian():
    h = PauliHamiltonian.constant(dx=0.4, dy=-0.2, dz=0.9)
    for n in (1, 7, 64):
        u = propagate(h, 0.0, 1.3, n)
        np.testing.assert_allclose(u, step_exact(h, 0.0, 1.3), atol=1e-12)


def test_propagate_composition():
    h = demo_hamiltonian(0.3)
    u_full = propagate(h, 0.0, 1.0, 512)
    u_late = propagate(h, 0.5, 1.0, 256)
    u_early = propagate(h, 0.0, 0.5, 256)
    assert np.linalg.norm(u_full - u_late @ u_early, 2) < 1e-10


def test_propagate_second_order_convergence():
    h = demo_hamiltonian(0.3)
    reference = propagate(h, 0.0, 1.0, 16000)
    ns = np.array([500, 1000, 2000])
    errs = [np.linalg.norm(propagate(h, 0.0, 1.0, int(n)) - reference, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 1.9 <= -slope <= 2.1


def test_propagate_unitarity_error_signal():
    # wildly stiff coefficients at one huge step trip the defect guard
    h = PauliHamiltonian(lambda t: (0.0, np.inf, 0.0, 0.0))
    with pytest.raises((UnitarityError, ValueError)):
        propagate(h, 0.0, 1.0, 2)


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


def test_rescaled_propagate_rejects_bad_rescaling():
    from dirac_rescale.rescaling import CustomRescaling

    h = demo_hamiltonian(0.0)
    bad = CustomRescaling(
        a=2.0, tau=1.0,
        f=lambda t: 2.0 * np.asarray(t),
        df=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
    )
    with pytest.raises(ValueError):
        rescaled_propagate(h, bad, 100)


def test_evolve_state_trivial_cases():
    s = np.array([1.0, 0.0], dtype=complex)
    np.testing.assert_allclose(evolve_state(IDENTITY2, s), s)
    u = np.diag([np.exp(-1j * 0.4), np.exp(1j * 0.4)])
    np.testing.assert_allclose(evolve_state(u, s), np.exp(-1j * 0.4) * s)


def test_evolve_state_preserves_norm_sweep():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        coeffs = rng.normal(size=4)
        u = su2_exponential(*coeffs, dt=rng.uniform(0.01, 1.0))
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = raw / np.linalg.norm(raw)
        out = evolve_state(u, s)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


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
    p = np.array([-0.2, 0.5])
    h = demo_hamiltonian(p)
    psi0 = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]], dtype=complex)
    times, psis = evolve_states(h, 0.0, 1.0, 300, psi0, [150, 300])
    _, us = propagate_sampled(h, 0.0, 1.0, 300, [150, 300])
    for j in range(2):
        np.testing.assert_allclose(psis[j], evolve_state(us[j], psi0), atol=1e-13)
    assert norm_defect(psis) < 1e-12


def test_determinism_bit_identical():
    h = demo_hamiltonian(np.linspace(-0.3, 0.3, 5))
    u1 = propagate(h, 0.0, 1.0, 777)
    u2 = propagate(h, 0.0, 1.0, 777)
    assert np.array_equal(u1, u2)


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
    frame = GaugeFrame(rf=rf)
    h_frak = transformed_hamiltonian(frame, h)
    for m, pm in enumerate(p):
        h_m = demo_hamiltonian(float(pm))
        for batched, single in ((hr, time_rescaled(h_m, rf)),
                                (h_frak, transformed_hamiltonian(frame, h_m))):
            for got, want in zip(batched.coeffs(ts), single.coeffs(ts)):
                assert np.array_equal(got[:, m], want)
