import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirac_rescale.floquet import WeylModelParams, build_rotating_frame_h
from dirac_rescale.gauge import (
    frak_vector_potential,
    frame_unitary,
    gauge_equivalence_check,
    phi_dot,
    phi_of_t,
    transformed_hamiltonian,
)
from dirac_rescale.iontrap import (
    IonTrapModel,
    WavepacketGrid,
    build_demo_hamiltonian,
    fidelity_curves,
)
from dirac_rescale.propagator import (
    IDENTITY2,
    PAULI_X,
    PauliHamiltonian,
    _to_matrix,
    propagate,
    propagate_sampled,
    time_rescaled,
    unitarity_defect,
)
from dirac_rescale.rescaling import RescalingFunction


def dirac_model(p, m=1.0, c=1.0, vector_potential=lambda t: 0.0 * np.asarray(t), scalar_potential=None):
    """Constant-rest-energy (1+1)D model per momentum mode."""
    V = scalar_potential or (lambda t: 0.0 * np.asarray(t))
    return PauliHamiltonian(lambda t: (V(t), c * p + vector_potential(t), 0.0, m * c * c))


def test_phi_zero_at_endpoints():
    rf = RescalingFunction(a=3.0, tau=1.0)
    assert phi_of_t(rf, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert phi_of_t(rf, rf.horizon) == pytest.approx(0.0, abs=1e-15)


def test_phi_exact_arccos_value():
    # a=2, tau=1: df(1/8) = 2 - cos(pi/2) = 2, so phi = arccos(1/2)/2 = pi/6
    rf = RescalingFunction(a=2.0, tau=1.0)
    assert phi_of_t(rf, 0.125) == pytest.approx(np.pi / 6, abs=1e-14)


def test_phi_matches_derivative_composition():
    rf = RescalingFunction(a=2.0, tau=1.0)
    t = 0.2
    assert phi_of_t(rf, t) == pytest.approx(0.5 * np.arccos(1.0 / rf.df(t)), abs=1e-15)


@pytest.mark.parametrize("tau", [1.0, 3.0])
@pytest.mark.parametrize("a", [1.5, 2.0, 4.0, 100.0])
def test_frame_angle_near_the_window_edges(a, tau):
    # phi rises as s t from the start and falls as s (h - t) to the end, with
    # phi_dot = +-s, s = omega sqrt(a - 1) / 2; here 1/df rounds to 1 or near it,
    # so 0.5 arccos(1/df) reads 0 at 1e-9 h and is off by up to 5.5e-4 at 1e-7 h
    rf = RescalingFunction(a=a, tau=tau)
    s, h = rf.omega * np.sqrt(a - 1.0) / 2.0, rf.horizon
    for t in (1e-9 * h, 1e-7 * h):
        assert phi_of_t(rf, t) == pytest.approx(s * t, rel=1e-10)
        assert phi_dot(rf, t) == pytest.approx(s, rel=1e-10)
    # rel 1e-8: h - e itself carries the rounding of h, 1e-9 of it
    e = h - 1e-7 * h
    assert phi_of_t(rf, e) == pytest.approx(s * (h - e), rel=1e-8)
    assert phi_dot(rf, e) == pytest.approx(-s, rel=1e-8)


@pytest.mark.parametrize("tau", [1.0, 3.0])
@pytest.mark.parametrize("a", [1.5, 2.0, 4.0])
def test_frame_angle_in_the_slack_is_taken_at_the_end(a, tau):
    # a time within the rescaling's slack past either end is taken at that end;
    # there phi is about sqrt(a - 1) sin(pi rounded) = 1.2e-16 sqrt(a - 1), so
    # a = 100 would read 1.2e-15
    rf = RescalingFunction(a=a, tau=tau)
    h = rf.horizon
    for t in (-1e-10 * h, h * (1.0 + 1e-10)):
        assert abs(phi_of_t(rf, t)) <= 1e-15
        np.testing.assert_allclose(frame_unitary(rf, t), IDENTITY2, rtol=0.0, atol=1e-15)


@settings(deadline=None)
@given(log_a1=st.floats(-3.0, 3.0), log_tau=st.floats(-2.0, 2.0), frac=st.floats(0.0, 1.0))
def test_frame_angle_properties(log_a1, log_tau, frac):
    # df cos(2 phi) = 1 over six decades of a - 1, and phi_dot is the textbook
    # d2f / (2 df sqrt(df^2 - 1)) wherever that quotient is well conditioned
    rf = RescalingFunction(a=1.0 + 10.0**log_a1, tau=10.0**log_tau)
    t = frac * rf.horizon
    fd = rf.df(t)
    assert abs(fd * np.cos(2.0 * phi_of_t(rf, t)) - 1.0) <= 1e-12
    if fd - 1.0 >= 1e-3:
        textbook = rf.d2f(t) / (2.0 * fd * np.sqrt(fd * fd - 1.0))
        assert phi_dot(rf, t) == pytest.approx(textbook, rel=1e-10)


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_frame_unitary_is_cos_identity_minus_i_sin_sigma_x(a):
    # K(t) = exp(-i phi sx), at each sampled time and bitwise for an array t
    rf = RescalingFunction(a=a, tau=1.0)
    t = np.linspace(0.0, rf.horizon, 11)
    phi = phi_of_t(rf, t)
    c, s = np.cos(phi)[:, None, None], np.sin(phi)[:, None, None]
    got = frame_unitary(rf, t)
    np.testing.assert_array_equal(got, c * IDENTITY2 - 1j * s * PAULI_X)
    assert all(np.array_equal(got[i], frame_unitary(rf, v)) for i, v in enumerate(t.tolist()))


@pytest.mark.parametrize("phi", [0.0, -0.0, -2.5, 1e6,
                                 np.random.default_rng(5).uniform(-10.0, 10.0, (3, 4))],
                         ids=["0", "-0", "-2.5", "1e6", "array"])
def test_K_matrix_is_cos_identity_plus_i_sin_sigma_x(phi):
    # the record (cos phi, -sin phi, 0, 0) at zero phase is exp(+i phi sx), K^dag at
    # angle phi; frame_unitary builds K from the same matrix formula at -phi
    c, s = (np.asarray(f(phi))[..., None, None] for f in (np.cos, np.sin))
    got = _to_matrix((np.cos(phi), -np.sin(phi), 0.0, 0.0, 0.0))
    assert got.shape == np.shape(phi) + (2, 2)
    np.testing.assert_array_equal(got, c * IDENTITY2 + 1j * s * PAULI_X)


def test_frame_unitary_special_value():
    # a = 2, tau = 1: phi(1/8) = pi/6
    got = frame_unitary(RescalingFunction(a=2.0, tau=1.0), 0.125)
    want = np.sqrt(3.0) / 2.0 * IDENTITY2 - 0.5j * PAULI_X
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_frame_unitary_is_unitary():
    rf = RescalingFunction(a=4.0, tau=1.0)
    t = np.random.default_rng(3).uniform(0.0, rf.horizon, size=200)
    assert np.max(unitarity_defect(frame_unitary(rf, t))) <= 1e-15


def test_K_dagger_is_negative_angle():
    # K(t)^dag = exp(+i phi sx), the rotation at -phi
    rf = RescalingFunction(a=3.0, tau=1.0)
    t = np.linspace(0.0, rf.horizon, 11)
    phi = -phi_of_t(rf, t)[:, None, None]
    at_minus_phi = np.cos(phi) * IDENTITY2 - 1j * np.sin(phi) * PAULI_X
    np.testing.assert_allclose(np.swapaxes(frame_unitary(rf, t).conj(), -1, -2),
                               at_minus_phi, rtol=0.0, atol=1e-16)


def test_frame_is_identity_at_endpoints():
    rf = RescalingFunction(a=4.0, tau=2.0)
    np.testing.assert_allclose(frame_unitary(rf, 0.0), IDENTITY2, atol=1e-15)
    np.testing.assert_allclose(frame_unitary(rf, rf.horizon), IDENTITY2, atol=1e-15)


def test_frak_reduces_to_plain_potential_at_a1():
    rf = RescalingFunction(a=1.0, tau=1.0)
    A = lambda t: np.sin(np.asarray(t))
    for t in (0.1, 0.5, 0.9):
        assert frak_vector_potential(rf, A, t, p=0.7) == pytest.approx(np.sin(t), abs=1e-12)


def test_frak_endpoint_limit():
    # the inertial term -dphi/dt tends to -(pi a / tau) sqrt(a - 1) as t -> 0+
    a, tau = 2.0, 1.0
    rf = RescalingFunction(a=a, tau=tau)
    zero = lambda t: 0.0 * np.asarray(t)
    expected = np.pi * a / tau * np.sqrt(a - 1.0)
    at_eps = frak_vector_potential(rf, zero, 1e-6, p=0.0)
    assert at_eps == pytest.approx(-expected, rel=1e-4)
    at_zero = frak_vector_potential(rf, zero, 0.0, p=0.0)
    assert at_zero == pytest.approx(-expected, rel=1e-12)
    # sqrt(d3f)/2 with the approach sign: negative when leaving the window
    at_end = phi_dot(rf, rf.horizon)
    assert at_end == pytest.approx(-expected, rel=1e-12)


def test_inertial_term_is_phi_derivative():
    rf = RescalingFunction(a=2.0, tau=1.0)
    zero = lambda t: 0.0 * np.asarray(t)
    for t in (0.07, 0.2, 0.33, 0.46):
        third = frak_vector_potential(rf, zero, t, p=0.0)
        h = 1e-6
        fd = (phi_of_t(rf, t + h) - phi_of_t(rf, t - h)) / (2 * h)
        assert third == pytest.approx(-fd, abs=1e-7)


@pytest.mark.parametrize("a", [2.0, 4.0])
def test_frak_potential_drives_the_propagated_frame(a):
    # (p + frak) sx + m sqrt(df^2 - 1) sy + m sz is the frame of
    # transformed_hamiltonian: K = I at the window's end, so its propagator
    # ends where the substituted run does
    rf = RescalingFunction(a=a, tau=1.0)
    A = lambda t: 0.2 * np.asarray(t)
    p, m = 0.5, 1.0

    def terms(t):
        fd = rf.df(t)
        return (0.0, p + frak_vector_potential(rf, A, t, p),
                m * np.sqrt(np.maximum(fd * fd - 1.0, 0.0)), m)

    u_frak = propagate(PauliHamiltonian(terms), 0.0, rf.horizon, 512)
    u_tilde = propagate(time_rescaled(dirac_model(p, m=m, vector_potential=A), rf), 0.0,
                        rf.horizon, 512)
    assert np.linalg.norm(u_frak - u_tilde, ord=2) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(a=st.floats(1.0, 8.0), tau=st.floats(0.5, 4.0), p=st.floats(-1.5, 1.5))
@example(a=2.0, tau=1.0, p=0.5)
@example(a=4.0, tau=1.0, p=0.5)
def test_frak_potential_is_the_sx_row(a, tau, p):
    # p + frak is transformed_hamiltonian's sx row, for a model dx = p + A and
    # for build_demo_hamiltonian's dx = p - A, which passes -A
    rf = RescalingFunction(a=a, tau=tau)
    t = np.linspace(0.0, rf.horizon, 41)
    A = lambda t: 0.2 * np.asarray(t)
    trap = IonTrapModel(tau=tau)
    for model, potential in ((dirac_model(p, vector_potential=A), A),
                             (build_demo_hamiltonian(trap, p),
                              lambda t: -trap.vector_potential(t))):
        sx_row = transformed_hamiltonian(rf, model).coeffs(t)[1]
        frak = frak_vector_potential(rf, potential, t, p)
        assert np.max(np.abs(p + frak - sx_row)) <= 1e-13


def test_transformed_recovers_original_at_a1():
    rf = RescalingFunction(a=1.0, tau=1.0)
    A = lambda t: 0.2 * np.asarray(t)
    model = dirac_model(0.5, m=1.3, c=0.9, vector_potential=A)
    h = transformed_hamiltonian(rf, model)
    t = 0.4
    d0, dx, dy, dz = h.coeffs(t)
    assert dy == pytest.approx(0.0, abs=1e-12)
    assert dx == pytest.approx(0.9 * 0.5 + 0.2 * t, abs=1e-12)
    assert dz == pytest.approx(1.3 * 0.9**2, abs=1e-12)


def test_transformed_pseudoscalar_coefficient():
    # df = 2 at t = tau/8 for a = 2: dy = m c^2 sqrt(3)
    rf = RescalingFunction(a=2.0, tau=1.0)
    h = transformed_hamiltonian(rf, dirac_model(0.0))
    _, _, dy, dz = h.coeffs(0.125)
    assert dy == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert dz == pytest.approx(1.0, abs=1e-12)


def test_rest_energy_constant_identity():
    # df * cos(2 phi) = 1 is the defining property of phi
    rf = RescalingFunction(a=4.0, tau=1.0)
    ts = np.linspace(0.0, rf.horizon, 101)
    vals = rf.df(ts) * np.cos(2.0 * phi_of_t(rf, ts))
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_transformed_dz_constant_over_window():
    rf = RescalingFunction(a=2.0, tau=1.0)
    h = transformed_hamiltonian(rf, dirac_model(0.3, m=0.8, c=1.1))
    ts = np.linspace(0.0, rf.horizon, 57)
    dz = h.coeffs(ts)[3]
    assert np.max(np.abs(dz - 0.8 * 1.1**2)) <= 1e-12


def test_transformed_matches_numeric_conjugation():
    # closed-form coefficients == K^dag Htilde K - i K^dag dK/dt
    rf = RescalingFunction(a=2.0, tau=1.0)
    model = build_demo_hamiltonian(IonTrapModel(tau=1.0), 0.3)
    h_frak = transformed_hamiltonian(rf, model)
    h_tilde = time_rescaled(model, rf)
    ds = 1e-7
    for s in (0.1, 0.22, 0.41):
        K = frame_unitary(rf, s)
        dK = (frame_unitary(rf, s + ds) - frame_unitary(rf, s - ds)) / (2 * ds)
        numeric = K.conj().T @ h_tilde.matrix(s) @ K - 1j * K.conj().T @ dK
        assert np.max(np.abs(h_frak.matrix(s) - numeric)) < 1e-6


def demo_h(ps, tau=1.0):
    return build_demo_hamiltonian(IonTrapModel(tau=tau), ps)


def test_gauge_equivalence_identity_rescaling():
    res = gauge_equivalence_check(demo_h([0.3]), RescalingFunction(a=1.0, tau=1.0), n_steps=500)
    assert res.max_deviation < 1e-12


def test_gauge_equivalence_a2():
    res = gauge_equivalence_check(demo_h([0.3]), RescalingFunction(a=2.0, tau=1.0), n_steps=4000)
    assert res.max_deviation <= 1e-6


def test_gauge_equivalence_a4_momentum_sweep():
    res = gauge_equivalence_check(demo_h([-1.0, 0.0, 1.0]), RescalingFunction(a=4.0, tau=1.0),
                                  n_steps=4000)
    assert res.max_deviation <= 1e-6


@pytest.mark.parametrize("h", [
    PauliHamiltonian.constant(d0=0.3, dx=0.4, dy=-0.2, dz=0.9),
    build_rotating_frame_h(WeylModelParams(V1=0.5, V2=0.25, k=1.1, phi_y=0.8, phi_z=0.5)),
], ids=["constant", "rotating-frame"])
@pytest.mark.parametrize("a", [2.0, 4.0])
def test_gauge_check_every_pauli_term_fourth_order(h, a):
    # nonzero d0 and dy, which the demo model lacks, and no mode axis: each
    # row of transformed_hamiltonian must hold for the frames to converge at
    # fourth order
    rf = RescalingFunction(a=a, tau=1.0)
    ns = np.array([128, 256, 512])
    devs = [gauge_equivalence_check(h, rf, n_steps=int(n)).max_deviation for n in ns]
    slope = -np.polyfit(np.log(ns), np.log(devs), 1)[0]
    assert 3.8 <= slope <= 4.2
    assert devs[-1] <= 1e-10


def test_gauge_check_two_batch_axes_match_no_mode_runs_bitwise():
    # the frames stack right after the time axes, so a (2, 3) batch is checked
    # as one propagation and each entry is to the bit a run without a mode axis
    d = np.random.default_rng(7).uniform(-1.0, 1.0, (4, 2, 3))
    rf = RescalingFunction(a=3.0, tau=1.0)

    def run(c):
        h = PauliHamiltonian(lambda t: tuple(
            v + 0.5 * np.sin(t).reshape(t.shape + (1,) * np.ndim(v)) for v in c))
        return gauge_equivalence_check(h, rf, n_steps=64, n_check=5)

    batch = run(d)
    assert batch.deviations.shape == (2, 3, 5)
    for i in np.ndindex(2, 3):
        assert np.array_equal(batch.deviations[i], run(d[(slice(None),) + i]).deviations)


def test_gauge_check_refuses_empty_batch():
    with pytest.raises(ValueError, match="^h: its batch is empty"):
        gauge_equivalence_check(demo_h(np.array([])), RescalingFunction(a=2.0, tau=1.0),
                                n_steps=8)


def test_phi_domain_error():
    rf = RescalingFunction(a=2.0, tau=1.0)
    with pytest.raises(ValueError):
        phi_of_t(rf, -0.2)


def test_gauge_check_order_4():
    # fourth order: at 512 steps the frames agree to 1e-10
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    res = gauge_equivalence_check(build_demo_hamiltonian(model, [-1.0, 0.0, 1.0]), rf,
                                  n_steps=512)
    assert res.max_deviation < 1e-10


def _one_momentum_reference(rf, p, n_steps, n_check):
    """Deviations of one momentum from two separate scalar-p propagations."""
    model = IonTrapModel(tau=rf.tau)
    h = build_demo_hamiltonian(model, float(p))
    sample = [int(round(j * n_steps / (n_check - 1))) for j in range(n_check)]
    times, u_tilde = propagate_sampled(time_rescaled(h, rf), 0.0, rf.horizon, n_steps,
                                       sample)
    _, u_frak = propagate_sampled(transformed_hamiltonian(rf, h), 0.0, rf.horizon,
                                  n_steps, sample)
    mismatch = u_tilde - np.matmul(frame_unitary(rf, times), u_frak)
    return times, np.linalg.norm(mismatch, ord=2, axis=(-2, -1))


@settings(max_examples=25, deadline=None)
@given(
    p=hnp.arrays(float, st.integers(1, 7), elements=st.floats(-1.5, 1.5)),
    a=st.floats(1.0, 8.0),
    n_steps=st.integers(2, 96),
)
@example(p=np.array([-0.9, -0.3, 0.1, 0.5, 0.77]), a=4.0, n_steps=512)
def test_gauge_check_batch_matches_single_momenta_bitwise(p, a, n_steps):
    # all momenta and both frames in one propagation give each momentum's
    # deviations to the bit, as one-momentum calls, runs without a mode axis
    # and scalar-p propagations do
    rf = RescalingFunction(a=a, tau=1.0)
    n_check = min(9, n_steps + 1)

    def run(ps):
        return gauge_equivalence_check(demo_h(ps), rf, n_steps=n_steps, n_check=n_check)

    batch = run(p)
    singles = [run([v]) for v in p]
    no_mode = [run(float(v)) for v in p]
    assert np.array_equal(batch.deviations, np.concatenate([s.deviations for s in singles]))
    assert np.array_equal(batch.deviations, np.stack([s.deviations for s in no_mode]))
    assert all(np.array_equal(batch.sample_times, s.sample_times) for s in singles + no_mode)
    times, devs = _one_momentum_reference(rf, p[0], n_steps, n_check)
    assert np.array_equal(batch.sample_times, times)
    assert np.array_equal(batch.deviations[0], devs)


@pytest.mark.parametrize("n_steps,n_check", [(4, 10), (1, 3), (4, 0), (4, -1)])
def test_gauge_check_rejects_bad_sample_count(n_steps, n_check):
    # each sample is a distinct step index in [0, n_steps]
    with pytest.raises(ValueError, match="n_check"):
        gauge_equivalence_check(demo_h([0.3]), RescalingFunction(a=2.0, tau=1.0),
                                n_steps=n_steps, n_check=n_check)


def test_gauge_check_samples_the_steps_of_fidelity_curves():
    # 100 steps in 8 intervals of 12.5 are rounded half to even, so the spacing
    # is uneven, and both checks read the same steps
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    curves = fidelity_curves(model, rf, WavepacketGrid.gaussian(n_points=9), n_times=9,
                             n_steps=100)
    res = gauge_equivalence_check(demo_h([0.3]), rf, n_steps=100, n_check=9)
    assert np.array_equal(curves.t, res.sample_times)
    steps = np.rint(curves.t / (rf.horizon / 100))
    assert steps.tolist() == [0, 12, 25, 38, 50, 62, 75, 88, 100]


@pytest.mark.parametrize("n_steps,n_check", [(4, 5), (1, 2), (4, 1)])
def test_gauge_check_accepts_one_sample_per_step(n_steps, n_check):
    res = gauge_equivalence_check(demo_h([0.3]), RescalingFunction(a=2.0, tau=1.0),
                                  n_steps=n_steps, n_check=n_check)
    assert res.sample_times.size == len(set(res.sample_times)) == n_check
    assert res.sample_times[-1] == pytest.approx(0.5)
