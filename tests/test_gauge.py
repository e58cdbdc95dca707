import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirac_rescale.gauge import (
    GaugeFrame,
    K_matrix,
    frak_vector_potential,
    frame_unitary,
    gauge_equivalence_check,
    phi_dot,
    phi_of_t,
    transformed_hamiltonian,
)
from dirac_rescale.iontrap import IonTrapModel, build_demo_hamiltonian
from dirac_rescale.propagator import (
    IDENTITY2,
    PAULI_X,
    PauliHamiltonian,
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
    frame = GaugeFrame(rf=RescalingFunction(a=3.0, tau=1.0))
    assert phi_of_t(frame, 0.0) == pytest.approx(0.0, abs=1e-7)
    assert phi_of_t(frame, frame.rf.horizon) == pytest.approx(0.0, abs=1e-7)


def test_phi_exact_arccos_value():
    # a=2, tau=1: df(1/8) = 2 - cos(pi/2) = 2, so phi = arccos(1/2)/2 = pi/6
    frame = GaugeFrame(rf=RescalingFunction(a=2.0, tau=1.0))
    assert phi_of_t(frame, 0.125) == pytest.approx(np.pi / 6, abs=1e-14)


def test_phi_matches_derivative_composition():
    rf = RescalingFunction(a=2.0, tau=1.0)
    frame = GaugeFrame(rf=rf)
    t = 0.2
    assert phi_of_t(frame, t) == pytest.approx(0.5 * np.arccos(1.0 / rf.df(t)), abs=1e-15)


def test_K_matrix_special_values():
    np.testing.assert_allclose(K_matrix(0.0), IDENTITY2)
    np.testing.assert_allclose(K_matrix(np.pi / 2), 1j * PAULI_X, atol=1e-15)


def test_K_matrix_unitary_sweep():
    rng = np.random.default_rng(3)
    for phi in rng.uniform(-np.pi, np.pi, size=200):
        assert unitarity_defect(K_matrix(phi)) <= 1e-15


def test_K_dagger_is_negative_angle():
    phi = 0.3
    np.testing.assert_allclose(K_matrix(phi).conj().T, K_matrix(-phi), atol=1e-16)


def test_frame_is_identity_at_endpoints():
    frame = GaugeFrame(rf=RescalingFunction(a=4.0, tau=2.0))
    np.testing.assert_allclose(frame_unitary(frame, 0.0), IDENTITY2, atol=1e-7)
    np.testing.assert_allclose(frame_unitary(frame, frame.rf.horizon), IDENTITY2, atol=1e-7)


def test_frak_reduces_to_plain_potential_at_a1():
    frame = GaugeFrame(rf=RescalingFunction(a=1.0, tau=1.0))
    A = lambda t: np.sin(np.asarray(t))
    for t in (0.1, 0.5, 0.9):
        assert frak_vector_potential(frame, A, t, p=0.7) == pytest.approx(np.sin(t), abs=1e-12)


def test_frak_endpoint_limit():
    # the inertial term tends to (pi a / tau) sqrt(a - 1) as t -> 0+
    a, tau = 2.0, 1.0
    frame = GaugeFrame(rf=RescalingFunction(a=a, tau=tau))
    zero = lambda t: 0.0 * np.asarray(t)
    expected = np.pi * a / tau * np.sqrt(a - 1.0)
    at_eps = frak_vector_potential(frame, zero, 1e-6, p=0.0)
    assert at_eps == pytest.approx(expected, rel=1e-4)
    at_zero = frak_vector_potential(frame, zero, 0.0, p=0.0)
    assert at_zero == pytest.approx(expected, rel=1e-12)
    # sqrt(d3f)/2 with the approach sign: negative when leaving the window
    at_end = phi_dot(frame, frame.rf.horizon)
    assert at_end == pytest.approx(-expected, rel=1e-12)


def test_inertial_term_is_phi_derivative():
    rf = RescalingFunction(a=2.0, tau=1.0)
    frame = GaugeFrame(rf=rf)
    zero = lambda t: 0.0 * np.asarray(t)
    for t in (0.07, 0.2, 0.33, 0.46):
        third = frak_vector_potential(frame, zero, t, p=0.0)
        h = 1e-6
        fd = (phi_of_t(frame, t + h) - phi_of_t(frame, t - h)) / (2 * h)
        assert third == pytest.approx(fd, abs=1e-7)


def test_transformed_recovers_original_at_a1():
    rf = RescalingFunction(a=1.0, tau=1.0)
    frame = GaugeFrame(rf=rf, c=0.9)
    A = lambda t: 0.2 * np.asarray(t)
    model = dirac_model(0.5, m=1.3, c=0.9, vector_potential=A)
    h = transformed_hamiltonian(frame, model)
    t = 0.4
    d0, dx, dy, dz = h.coeffs(t)
    assert dy == pytest.approx(0.0, abs=1e-12)
    assert dx == pytest.approx(0.9 * 0.5 + 0.2 * t, abs=1e-12)
    assert dz == pytest.approx(1.3 * 0.9**2, abs=1e-12)


def test_transformed_pseudoscalar_coefficient():
    # df = 2 at t = tau/8 for a = 2: dy = m c^2 sqrt(3)
    rf = RescalingFunction(a=2.0, tau=1.0)
    frame = GaugeFrame(rf=rf, c=1.0)
    h = transformed_hamiltonian(frame, dirac_model(0.0))
    _, _, dy, dz = h.coeffs(0.125)
    assert dy == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert dz == pytest.approx(1.0, abs=1e-12)


def test_rest_energy_constant_identity():
    # df * cos(2 phi) = 1 is the defining property of phi
    rf = RescalingFunction(a=4.0, tau=1.0)
    frame = GaugeFrame(rf=rf)
    ts = np.linspace(0.0, rf.horizon, 101)
    vals = rf.df(ts) * np.cos(2.0 * phi_of_t(frame, ts))
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_transformed_dz_constant_over_window():
    rf = RescalingFunction(a=2.0, tau=1.0)
    h = transformed_hamiltonian(GaugeFrame(rf=rf, c=1.1), dirac_model(0.3, m=0.8, c=1.1))
    ts = np.linspace(0.0, rf.horizon, 57)
    dz = h.coeffs(ts)[3]
    assert np.max(np.abs(dz - 0.8 * 1.1**2)) <= 1e-12


def test_transformed_matches_numeric_conjugation():
    # closed-form coefficients == K^dag Htilde K - i K^dag dK/dt
    rf = RescalingFunction(a=2.0, tau=1.0)
    frame = GaugeFrame(rf=rf)
    model = build_demo_hamiltonian(IonTrapModel(tau=1.0), 0.3)
    h_frak = transformed_hamiltonian(frame, model)
    h_tilde = time_rescaled(model, rf)
    ds = 1e-7
    for s in (0.1, 0.22, 0.41):
        K = frame_unitary(frame, s)
        dK = (frame_unitary(frame, s + ds) - frame_unitary(frame, s - ds)) / (2 * ds)
        numeric = K.conj().T @ h_tilde.matrix(s) @ K - 1j * K.conj().T @ dK
        assert np.max(np.abs(h_frak.matrix(s) - numeric)) < 1e-6


def demo_builder(tau=1.0):
    model = IonTrapModel(tau=tau)
    return lambda p: build_demo_hamiltonian(model, p)


def test_gauge_equivalence_identity_rescaling():
    res = gauge_equivalence_check(demo_builder(), RescalingFunction(a=1.0, tau=1.0), [0.3], n_steps=500)
    assert res.max_deviation < 1e-12


def test_gauge_equivalence_a2():
    res = gauge_equivalence_check(demo_builder(), RescalingFunction(a=2.0, tau=1.0), [0.3], n_steps=4000)
    assert res.max_deviation <= 1e-6


def test_gauge_equivalence_a4_momentum_sweep():
    res = gauge_equivalence_check(demo_builder(), RescalingFunction(a=4.0, tau=1.0), [-1.0, 0.0, 1.0], n_steps=4000)
    assert res.max_deviation <= 1e-6


def test_phi_domain_error():
    frame = GaugeFrame(rf=RescalingFunction(a=2.0, tau=1.0))
    with pytest.raises(ValueError):
        phi_of_t(frame, -0.2)


def test_gauge_check_order_4():
    # CF4 passes through: at 512 steps the frames agree far tighter than at order 2
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)

    def run(order):
        return gauge_equivalence_check(lambda p: build_demo_hamiltonian(model, p), rf,
                                       [-1.0, 0.0, 1.0], n_steps=512,
                                       order=order).max_deviation

    assert run(4) < 1e-10 < 1e-7 < run(2)


def _one_momentum_reference(rf, p, n_steps, n_check, order):
    """Deviations of one momentum from two separate scalar-p propagations."""
    model = IonTrapModel(tau=rf.tau)
    frame = GaugeFrame(rf=rf)
    h = build_demo_hamiltonian(model, float(p))
    sample = [int(round(j * n_steps / (n_check - 1))) for j in range(n_check)]
    times, u_tilde = propagate_sampled(time_rescaled(h, rf), 0.0, rf.horizon, n_steps,
                                       sample, order=order)
    _, u_frak = propagate_sampled(transformed_hamiltonian(frame, h), 0.0, rf.horizon,
                                  n_steps, sample, order=order)
    mismatch = u_tilde - np.matmul(frame_unitary(frame, times), u_frak)
    return times, np.linalg.norm(mismatch, ord=2, axis=(-2, -1))


@settings(max_examples=25, deadline=None)
@given(
    p=hnp.arrays(float, st.integers(1, 7), elements=st.floats(-1.5, 1.5)),
    a=st.floats(1.0, 8.0),
    n_steps=st.integers(2, 96),
    order=st.sampled_from([2, 4]),
)
@example(p=np.array([-0.9, -0.3, 0.1, 0.5, 0.77]), a=4.0, n_steps=512, order=4)
def test_gauge_check_batch_matches_single_momenta_bitwise(p, a, n_steps, order):
    # all momenta and both frames in one propagation give each momentum's
    # deviations to the bit, as one-momentum calls and as scalar-p runs do
    rf = RescalingFunction(a=a, tau=1.0)
    n_check = min(9, n_steps + 1)

    def run(ps):
        return gauge_equivalence_check(demo_builder(), rf, ps, n_steps=n_steps,
                                       n_check=n_check, order=order)

    batch = run(p)
    singles = [run([v]) for v in p]
    assert np.array_equal(batch.momenta, p)
    assert np.array_equal(batch.deviations, np.concatenate([s.deviations for s in singles]))
    assert all(np.array_equal(batch.sample_times, s.sample_times) for s in singles)
    times, devs = _one_momentum_reference(rf, p[0], n_steps, n_check, order)
    assert np.array_equal(batch.sample_times, times)
    assert np.array_equal(batch.deviations[0], devs)


@pytest.mark.parametrize("n_steps,n_check", [(4, 10), (1, 3), (4, 0), (4, -1)])
def test_gauge_check_rejects_bad_sample_count(n_steps, n_check):
    # each sample is a distinct step index in [0, n_steps]
    with pytest.raises(ValueError, match="n_check"):
        gauge_equivalence_check(demo_builder(), RescalingFunction(a=2.0, tau=1.0), [0.3],
                                n_steps=n_steps, n_check=n_check)


@pytest.mark.parametrize("n_steps,n_check", [(4, 5), (1, 2), (4, 1)])
def test_gauge_check_accepts_one_sample_per_step(n_steps, n_check):
    res = gauge_equivalence_check(demo_builder(), RescalingFunction(a=2.0, tau=1.0), [0.3],
                                  n_steps=n_steps, n_check=n_check)
    assert res.sample_times.size == len(set(res.sample_times)) == n_check
    assert res.sample_times[-1] == pytest.approx(0.5)
