import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirac_rescale import classical
from dirac_rescale.classical import (
    ClassicalModel,
    appendix_equivalence_check,
    canonical_map,
    evolve_classical,
    h1h2,
    harmonic_model,
    kappa,
    quantum_coeffs,
    quartic_model,
)
from dirac_rescale.rescaling import RescalingFunction


def test_h1h2_identity_rescaling():
    rf = RescalingFunction(a=1.0, tau=1.0)
    assert h1h2(rf, 0.3) == (1.0, 0.0)


def test_h1h2_flat_acceleration_point():
    # df = 2a-1 = 4 and d2f = 0 at the window midpoint for a = 2.5
    rf = RescalingFunction(a=2.5, tau=1.0)
    t = rf.horizon / 2.0
    h1, h2 = h1h2(rf, t)
    assert h1 == pytest.approx(0.5, abs=1e-14)
    assert h2 == pytest.approx(0.0, abs=1e-12)


def test_h1h2_matches_derivatives():
    rf = RescalingFunction(a=2.0, tau=1.0)
    t, m = 0.2, 1.3
    h1, h2 = h1h2(rf, t, m)
    fd, f2 = rf.df(t), rf.d2f(t)
    assert h1 == pytest.approx(1.0 / np.sqrt(fd), rel=1e-14)
    assert h2 == pytest.approx(m * f2 / (4.0 * fd**2), rel=1e-14)


def test_canonical_map_identity_at_a1():
    rf = RescalingFunction(a=1.0, tau=1.0)
    state = np.array([0.7, -1.2])
    np.testing.assert_allclose(canonical_map(state, rf, 0.4), state, atol=1e-15)


def test_canonical_map_refuses_unknown_direction():
    with pytest.raises(ValueError, match="direction must be 'forward' or 'inverse', got 'x'"):
        canonical_map(np.array([0.7, -1.2]), RescalingFunction(a=2.0, tau=1.0), 0.4,
                      direction="x")


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_harmonic_model_refuses_non_positive_mass(m):
    with pytest.raises(ValueError, match="mass must be positive"):
        harmonic_model(m=m)


def test_canonical_map_origin_column():
    rf = RescalingFunction(a=2.0, tau=1.0)
    t = 0.17
    h1, _ = h1h2(rf, t)
    out = canonical_map(np.array([0.0, 2.0]), rf, t)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(2.0 / h1, rel=1e-14)


def test_canonical_roundtrip_sweep():
    rng = np.random.default_rng(21)
    rf = RescalingFunction(a=3.0, tau=1.0)
    for _ in range(1000):
        state = rng.normal(scale=2.0, size=2)
        t = rng.uniform(0.0, rf.horizon)
        fwd = canonical_map(state, rf, t, m=0.8)
        back = canonical_map(fwd, rf, t, m=0.8, direction="inverse")
        np.testing.assert_allclose(back, state, atol=1e-14, rtol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(1.0, 16.0),
    tau=st.floats(0.5, 4.0),
    m=st.floats(0.1, 10.0),
    fracs=hnp.arrays(float, 6, elements=st.floats(0.0, 1.0)),
    states=hnp.arrays(float, (6, 2), elements=st.floats(-10.0, 10.0)),
)
def test_canonical_roundtrip_property(a, tau, m, fracs, states):
    # one call maps a whole batch, each state at its own time
    rf = RescalingFunction(a=a, tau=tau)
    t = fracs * rf.horizon
    fwd = canonical_map(states, rf, t, m=m)
    back = canonical_map(fwd, rf, t, m=m, direction="inverse")
    # the inverse adds 2 h2 x back onto p - 2 h2 x: roundoff scales with that term
    _, h2 = h1h2(rf, t, m)
    scale = 1.0 + np.max(np.abs(states)) + np.max(np.abs(2.0 * h2 * states[:, 0]))
    np.testing.assert_allclose(back, states, rtol=1e-14, atol=1e-14 * scale)


def test_kappa_vanishes_at_a1():
    rf = RescalingFunction(a=1.0, tau=1.0)
    assert kappa(rf, 0.5) == 0.0


def test_kappa_matches_coefficient_assembly():
    # 4 h2^2 df/(2 m h1^2) + dh2/dt / h1^2 with dh2 from central differences
    rf = RescalingFunction(a=2.0, tau=1.0)
    m = 1.4
    for t in (0.05, 0.2, 0.37, 0.45):
        h1, h2 = h1h2(rf, t, m)
        fd = rf.df(t)
        step = 1e-6
        dh2 = (h1h2(rf, t + step, m)[1] - h1h2(rf, t - step, m)[1]) / (2 * step)
        assembled = 4.0 * h2**2 * fd / (2.0 * m * h1**2) + dh2 / h1**2
        assert kappa(rf, t, m) == pytest.approx(assembled, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 4.0])
def test_kappa_is_quarter_mass_times_schwarzian(a):
    # kappa = (m/4) S(f) with the Schwarzian S(f) = d3f/df - (3/2) (d2f/df)^2
    rf = RescalingFunction(a=a, tau=1.0)
    t = np.linspace(0.0, rf.horizon, 257)
    fd, f2, f3 = rf.df(t), rf.d2f(t), rf.d3f(t)
    schwarzian = f3 / fd - 1.5 * (f2 / fd) ** 2
    for m in (0.5, 1.0, 3.0):
        want = 0.25 * m * schwarzian
        assert np.all(np.abs(kappa(rf, t, m) - want) <= 1e-13 * np.abs(want)), (a, m)


def test_cross_term_cancels():
    # the pbar*xbar coefficient 4 h2 df/(2m) + dh1/dt / h1 vanishes identically
    rng = np.random.default_rng(4)
    rf = RescalingFunction(a=4.0, tau=2.0)
    m = 1.0
    step = 1e-6
    for t in rng.uniform(5 * step, rf.horizon - 5 * step, size=100):
        h1, h2 = h1h2(rf, t, m)
        fd, f2 = rf.df(t), rf.d2f(t)
        dh1 = -f2 / (2.0 * fd**1.5)
        cross = 4.0 * h2 * fd / (2.0 * m) + dh1 / h1
        assert abs(cross) <= 1e-10
        # derivative-free corroboration, limited by FD roundoff
        dh1_fd = (h1h2(rf, t + step, m)[0] - h1h2(rf, t - step, m)[0]) / (2 * step)
        assert abs(4.0 * h2 * fd / (2.0 * m) + dh1_fd / h1) <= 1e-6


def test_quantum_coeffs_trivial_and_boundary():
    rf1 = RescalingFunction(a=1.0, tau=1.0)
    assert quantum_coeffs(rf1, 0.3) == (0.0, 0.0, 0.0)
    a, tau = 3.0, 2.0
    rf = RescalingFunction(a=a, tau=tau)
    alpha, beta, kq = quantum_coeffs(rf, 0.0)
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(0.0, abs=1e-12)
    # at t = 0: kappa_q = d3f(0) = (a-1)(2 pi a / tau)^2
    assert kq == pytest.approx(177.65287921960846, rel=1e-12)


def test_quantum_coeffs_match_derivatives():
    rf = RescalingFunction(a=2.0, tau=1.0)
    t = 0.13
    fd, f2, f3 = rf.df(t), rf.d2f(t), rf.d3f(t)
    alpha, beta, kq = quantum_coeffs(rf, t)
    assert alpha == pytest.approx(f2 / fd, rel=1e-14)
    assert beta == pytest.approx(np.log(fd), rel=1e-14)
    assert kq == pytest.approx(f3 / fd - f2**2 / fd**2 - f2**2 / fd**3, rel=1e-12)


def test_free_particle_exact():
    m = 1.0
    times, traj = evolve_classical(
        lambda x, p, t: p / m, lambda x, p, t: 0.0, (0.5, 2.0), 0.0, 3.0, 300
    )
    np.testing.assert_allclose(traj[-1], [0.5 + 2.0 * 3.0, 2.0], atol=1e-12)


def test_harmonic_energy_conservation():
    m, k_spring = 1.0, 1.0

    def energy(y):
        return y[1] ** 2 / (2 * m) + 0.5 * k_spring * y[0] ** 2

    times, traj = evolve_classical(
        lambda x, p, t: p / m, lambda x, p, t: k_spring * x, (1.0, 0.0), 0.0, 10.0, 4000
    )
    drift = np.max([abs(energy(y) - energy(traj[0])) for y in traj])
    assert drift <= 1e-8


def test_rk4_fourth_order_convergence():
    m = 1.0
    exact = np.array([np.cos(2.0), -np.sin(2.0)])  # unit harmonic oscillator
    ns = np.array([50, 100, 200, 400])
    errs = []
    for n in ns:
        _, traj = evolve_classical(
            lambda x, p, t: p / m, lambda x, p, t: x, (1.0, 0.0), 0.0, 2.0, int(n)
        )
        errs.append(np.max(np.abs(traj[-1] - exact)))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 3.8 <= slope <= 4.2


def _anharmonic_dH_dp(x, p, t):
    return p * (1.0 + 0.5 * np.sin(3.0 * t))


def _anharmonic_dH_dx(x, p, t):
    return (1.0 + t) * x**3 + 0.5 * x


@settings(max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([(1,), (3,), (2, 2)]),
    data=st.data(),
    n_steps=st.integers(20, 80),
)
def test_evolve_batch_invariance(batch, data, n_steps):
    # row i of a batched run is the single run from row i, bit for bit
    states = data.draw(hnp.arrays(float, (*batch, 2), elements=st.floats(-1.5, 1.5)))
    times, traj = evolve_classical(_anharmonic_dH_dp, _anharmonic_dH_dx, states,
                                   0.0, 1.0, n_steps)
    assert traj.shape == (len(times), *batch, 2)
    for idx in np.ndindex(*batch):
        t1, single = evolve_classical(_anharmonic_dH_dp, _anharmonic_dH_dx, states[idx],
                                      0.0, 1.0, n_steps)
        assert np.array_equal(t1, times)
        assert np.array_equal(traj[(slice(None), *idx)], single)


@pytest.mark.parametrize("state0,n_steps", [
    pytest.param((1.0, 0.0), 0, id="n_steps_zero"),
    pytest.param((1.0, 0.0, 0.0), 10, id="three_components"),
    pytest.param(1.0, 10, id="scalar_state"),
    pytest.param(np.zeros((4, 3)), 10, id="batch_last_axis_3"),
])
def test_evolve_rejects_bad_input(state0, n_steps):
    with pytest.raises(ValueError):
        evolve_classical(lambda x, p, t: p, lambda x, p, t: x, state0, 0.0, 1.0, n_steps)


def test_divergence_guard():
    with pytest.raises(RuntimeError):
        evolve_classical(
            lambda x, p, t: p, lambda x, p, t: -1e9 * x, (1.0, 0.0), 0.0, 10.0, 50
        )


def test_divergence_guard_catches_nan():
    # x turns negative, log(x) is NaN, and the NaN state must abort the run
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
        evolve_classical(lambda x, p, t: p, lambda x, p, t: np.log(x), (1.0, -5.0), 0.0, 1.0, 50)


def test_appendix_equivalence_identity():
    res = appendix_equivalence_check(harmonic_model(), RescalingFunction(a=1.0, tau=1.0), n_steps=800)
    assert res.max_deviation < 1e-10


@pytest.mark.parametrize("factory", [harmonic_model, quartic_model])
def test_appendix_equivalence_a2(factory):
    res = appendix_equivalence_check(factory(), RescalingFunction(a=2.0, tau=1.0), n_steps=4000)
    assert res.max_deviation <= 1e-5


def test_appendix_equivalence_fourth_order():
    rf = RescalingFunction(a=2.0, tau=1.0)
    devs = []
    ns = np.array([250, 500, 1000])
    for n in ns:
        res = appendix_equivalence_check(quartic_model(), rf, n_steps=int(n))
        devs.append(res.max_deviation)
    slope = -np.polyfit(np.log(ns), np.log(devs), 1)[0]
    assert 3.8 <= slope <= 4.2


@settings(max_examples=10, deadline=None)
@given(
    factory=st.sampled_from([harmonic_model, quartic_model]),
    a=st.floats(1.0, 4.0),
    x0=st.floats(0.5, 1.5),
    p0=st.floats(-0.5, 0.5),
    n_steps=st.integers(50, 200),
)
def test_appendix_check_deterministic(factory, a, x0, p0, n_steps):
    rf = RescalingFunction(a=a, tau=1.0)
    first, second = (appendix_equivalence_check(factory(), rf, state0=(x0, p0),
                                                n_steps=n_steps) for _ in range(2))
    for name in ("times", "original", "transformed", "mapped"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert first.max_deviation == second.max_deviation


@pytest.mark.parametrize("state0,n_steps", [
    pytest.param([(1.0, 0.0), (0.5, 0.5)], 10, id="state_batch"),
    pytest.param((1.0, 0.0), 0, id="n_steps_zero"),
])
def test_appendix_rejects_bad_input(state0, n_steps):
    # the two flows are stacked along the first axis; state0 is one (x, p) pair
    with pytest.raises(ValueError):
        appendix_equivalence_check(harmonic_model(), RescalingFunction(a=2.0, tau=1.0),
                                   state0=state0, n_steps=n_steps)


def _stacked_reference(model, rf, state0, n_steps):
    """The appendix check as the stacked (2, 2) state stepped by
    ``evolve_classical``: row 0 the original flow, row 1 the transformed one.
    dV gets one float at a time, as in the check."""
    m, dV = model.m, model.dV
    y0 = np.asarray(state0, dtype=float)
    ts, _ = classical._stage_times(0.0, rf.horizon, n_steps)
    index = {t: j for j, t in enumerate(ts.tolist())}
    fd = rf.df(ts)
    g = model.gamma(rf.f(ts))
    root = np.sqrt(fd)
    g3 = g**3
    P = np.stack([fd / m, np.full_like(fd, 1.0 / m)], axis=-1)
    A = np.stack([fd / g3, fd * root / g3], axis=-1)
    B = np.stack([1.0 / g, root / g], axis=-1)
    K = np.stack([np.zeros_like(fd), 2.0 * kappa(rf, ts, m)], axis=-1)

    def dH_dp(x, p, t):
        return P[index[t]] * p

    def dH_dx(x, p, t):
        j = index[t]
        return A[j] * [dV(u) for u in (B[j] * x).tolist()] + K[j] * x

    bar0 = canonical_map(y0, rf, 0.0, m)
    times, both = evolve_classical(dH_dp, dH_dx, np.stack([y0, bar0]), 0.0, rf.horizon,
                                   n_steps)
    orig, bar = both[:, 0], both[:, 1]
    mapped = canonical_map(orig, rf, times, m)
    return times, orig, bar, mapped, float(np.max(np.abs(mapped - bar)))


def _sine_dV(u):
    # the check hands dV one Python float, as ClassicalModel documents
    assert type(u) is float
    return math.sin(u)


def _sine_model(tau, m):
    return ClassicalModel(m=m, gamma=harmonic_model(tau, m).gamma, dV=_sine_dV)


def _linear_force_model(tau, m):
    # dV(0.0) = -0.0, so the K0 * x term alone decides the sign of a zero force
    return ClassicalModel(m=m, gamma=harmonic_model(tau, m).gamma, dV=lambda u: -2.0 * u)


@settings(max_examples=40, deadline=None)
@given(
    factory=st.sampled_from([harmonic_model, quartic_model, _sine_model]),
    a=st.floats(1.0, 8.0),
    m=st.floats(0.3, 3.0),
    tau=st.floats(0.5, 4.0),
    x0=st.floats(-1.5, 1.5),
    p0=st.floats(-0.5, 0.5),
    n_steps=st.integers(1, 600),
)
@example(factory=quartic_model, a=4.0, m=1.0, tau=1.0, x0=1.5, p0=-0.5, n_steps=1000)
@example(factory=harmonic_model, a=4.0, m=1.0, tau=1.0, x0=1.5, p0=-0.5, n_steps=1000)
@example(factory=quartic_model, a=2.0, m=1.0, tau=1.0, x0=1e5, p0=0.0, n_steps=100)
# signed zeros: without a stage's K0 * x term, original and mapped keep their
# values but not their bytes
@example(factory=_linear_force_model, a=2.0, m=1.0, tau=1.0, x0=0.0, p0=-0.0, n_steps=5)
def test_appendix_matches_stacked_rk4_bitwise(factory, a, m, tau, x0, p0, n_steps):
    # the float loop does the arithmetic of evolve_classical on the stacked
    # state, stage for stage, to the byte (array_equal takes -0.0 for 0.0)
    model, rf = factory(tau, m), RescalingFunction(a=a, tau=tau)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = _stacked_reference(model, rf, (x0, p0), n_steps)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                appendix_equivalence_check(model, rf, (x0, p0), n_steps)
            return
        res = appendix_equivalence_check(model, rf, (x0, p0), n_steps)
    got = (res.times, res.original, res.transformed, res.mapped, res.max_deviation)
    for name, w, g in zip(("times", "original", "transformed", "mapped", "max_deviation"),
                          want, got):
        w, g = np.asarray(w), np.asarray(g)
        assert w.shape == g.shape and w.tobytes() == g.tobytes(), name


@pytest.mark.parametrize("dV", [
    pytest.param(lambda u: math.nan, id="nan"),
    pytest.param(lambda u: np.exp(60.0 * u), id="blow_up"),
])
def test_appendix_divergence_guard(dV):
    # a NaN or runaway force aborts the check instead of returning its trajectory
    model = ClassicalModel(m=1.0, gamma=harmonic_model().gamma, dV=dV)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="trajectory diverged at t = "):
        appendix_equivalence_check(model, RescalingFunction(a=2.0, tau=1.0),
                                   n_steps=200)


def test_appendix_peak_memory_holds_no_float_per_entry():
    # the loop reads its coefficients through memoryviews of their arrays: at
    # 4000 steps the peak is about 1.04 MiB, and per-entry float lists of the
    # six coefficients over the 8001 stage times take it to about 2.1 MiB
    model, rf = quartic_model(), RescalingFunction(a=2.0)
    tracemalloc.start()
    try:
        appendix_equivalence_check(model, rf, (1.0, 0.0), 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_a1_collapses_all_coefficients():
    rf = RescalingFunction(a=1.0, tau=2.0)
    for t in (0.0, 0.6, 1.7):
        h1, h2 = h1h2(rf, t)
        assert (h1, h2) == (1.0, 0.0)
        assert kappa(rf, t) == 0.0
        assert quantum_coeffs(rf, t) == (0.0, 0.0, 0.0)
