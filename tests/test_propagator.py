import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from dirac_rescale import propagator
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


@pytest.mark.parametrize("kind,t_shape", [("time", ()), ("time", (7,)), ("mode", ()),
                                          ("mode", (2, 4))])
def test_matrix_is_the_entrywise_pauli_formula(kind, t_shape):
    # [[d0 + dz, dx - i dy], [dx + i dy, d0 - dz]] exactly, entry for entry
    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, size=t_shape)
    amp, freq = rng.normal(size=(2, 4))
    modes = rng.normal(size=(4, 3))
    if kind == "time":
        h = PauliHamiltonian(lambda t: tuple(a * np.cos(w * t) for a, w in zip(amp, freq)))
    else:
        h = PauliHamiltonian(lambda t: tuple(modes))
    d0, dx, dy, dz = h.coeffs(t)
    want = np.empty(d0.shape + (2, 2), dtype=complex)
    want[..., 0, 0], want[..., 0, 1] = d0 + dz, dx - 1j * dy
    want[..., 1, 0], want[..., 1, 1] = dx + 1j * dy, d0 - dz
    got = h.matrix(t)
    assert got.shape == t.shape + (() if kind == "time" else (3,)) + (2, 2)
    np.testing.assert_array_equal(got, want)


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


@pytest.mark.parametrize("batch", [(0,), (3, 0)])
def test_propagators_refuse_empty_batch(batch):
    # numpy's empty-reduction error would otherwise surface from the unitarity check
    h = PauliHamiltonian.constant(dx=np.ones(batch), dz=1.0)
    for run in (lambda: propagate(h, 0.0, 1.0, 4),
                lambda: propagate_sampled(h, 0.0, 1.0, 4, [2, 4]),
                lambda: evolve_states(h, 0.0, 1.0, 4, np.array([1.0, 0.0]), [4])):
        with pytest.raises(ValueError, match="^h: its batch is empty"):
            run()


@settings(max_examples=60, deadline=None)
@given(
    d=hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)),
    log_scale=st.floats(-22.0, 4.0),
    dt=st.floats(1e-3, 10.0),
)
@example(d=np.array([0.3, 1.0, 0.0, 1.0]), log_scale=-20.0, dt=0.1)
@example(d=np.array([-0.5, 0.8, -0.6, 0.1]), log_scale=4.0, dt=10.0)
def test_step_unitary_and_matches_expm(d, log_scale, dt):
    # |d| dt spans the small-angle branch (< 1e-14) up to ~2e5
    d0, dx, dy, dz = d * 10.0**log_scale
    u = su2_exponential(d0, dx, dy, dz, dt)
    assert unitarity_defect(u) <= 1e-14
    reference = expm(-1j * (d0 * IDENTITY2 + dx * PAULI_X + dy * PAULI_Y + dz * PAULI_Z) * dt)
    angle = (abs(d0) + np.sqrt(dx * dx + dy * dy + dz * dz)) * dt
    assert np.max(np.abs(u - reference)) <= 1e-12 * max(1.0, angle)


def test_backward_step_inverts_forward_step():
    # dt < 0 steps backwards: x = |d| dt < 0 is not a small angle
    d = (0.2, 1.0, -0.5, 0.3)
    h = d[0] * IDENTITY2 + d[1] * PAULI_X + d[2] * PAULI_Y + d[3] * PAULI_Z
    back = su2_exponential(*d, -0.7)
    assert np.max(np.abs(back - expm(0.7j * h))) <= 1e-14
    assert np.max(np.abs(back @ su2_exponential(*d, 0.7) - IDENTITY2)) <= 1e-14


#: ±0, subnormals, ±inf and NaN, drawn more often than st.floats() alone draws them
_EDGE_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]))


@st.composite
def _own_shape_terms(draw):
    """(n, batch, terms): the four terms of a CF4 grid (2, n) + batch, each at
    its own shape: constant, zero, time-only, mode-only or full."""
    n = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (3,)]))
    shapes = {"constant": (), "time": (2, n) + (1,) * len(batch), "mode": batch,
              "full": (2, n) + batch}
    kinds = draw(st.lists(st.sampled_from(["zero", *shapes]), min_size=4, max_size=4))
    # as in the models, some term carries the batch axis and some the time axes
    assume(not batch or {"time", "full"} & set(kinds) and {"mode", "full"} & set(kinds))
    terms = [np.float64(draw(st.sampled_from([0.0, -0.0]))) if kind == "zero"
             else draw(hnp.arrays(float, shapes[kind], elements=_EDGE_FLOATS)) for kind in kinds]
    return n, batch, terms


def _assert_same_bytes(got, want):
    # tobytes, not array_equal: -0.0 and +0.0 must not pass for each other.  A
    # NaN counts as one value: numpy's loops pick the sign of a NaN result by
    # their operand layout (contiguous, broadcast or 0-d), and IEEE 754 gives
    # that sign no meaning
    got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _broadcast_records(records, shape):
    """Records (5, *own) broadcast to (5, *shape); own aligns to the trailing axes."""
    lead = (1,) * (len(shape) + 1 - records.ndim)
    return np.broadcast_to(records.reshape(records.shape[:1] + lead + records.shape[1:]),
                           (5,) + shape)


@settings(max_examples=150, deadline=None)
@given(case=_own_shape_terms(), dt=st.one_of(_EDGE_FLOATS, st.floats(-2.0, 2.0)))
# constant H: the records still get their step axis
@example(case=(3, (), [np.float64(v) for v in (0.3, 1.0, -0.5, 2.0)]), dt=0.25)
# the iontrap model: zero d0 and dy, mode-only dx, time-only dz; dt < 0 steps backwards
@example(case=(2, (3,), [np.float64(0.0), np.array([0.1, -0.0, 0.7]), np.float64(-0.0),
                         np.array([[[1.0], [5e-324]], [[-0.0], [np.inf]]])]), dt=-0.5)
def test_own_shape_terms_give_broadcast_bits(case, dt):
    # evaluating each term at its own shape writes the bits of the same records
    # built from terms broadcast up front, sign of zero included
    n, batch, terms = case
    full = (2, n) + batch
    wide = [np.broadcast_to(v, full).copy() for v in terms]
    with np.errstate(all="ignore"):
        _assert_same_bytes(
            propagator._cf4_records(PauliHamiltonian(lambda t: terms), 0.0, dt, 0, n),
            propagator._cf4_records(PauliHamiltonian(lambda t: wide), 0.0, dt, 0, n))
        own_steps = propagator._su2_step(*terms, dt)
        wide_steps = propagator._su2_step(*wide, dt)
        _assert_same_bytes(_broadcast_records(own_steps, full), wide_steps)
        own_u = su2_exponential(*terms, dt)
        _assert_same_bytes(np.broadcast_to(own_u, full[:len(full) + 2 - own_u.ndim] + own_u.shape),
                           su2_exponential(*wide, dt))
        back = propagator._su2_step(*terms[::-1], -dt)
        _assert_same_bytes(_broadcast_records(propagator._compose(own_steps, back), full),
                           propagator._compose(wide_steps, _broadcast_records(back, full).copy()))


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


@pytest.mark.parametrize("samples,error", [
    pytest.param([5, 2], ValueError, id="descending"),
    pytest.param([11], ValueError, id="past_n_steps"),
    pytest.param([-1], ValueError, id="negative"),
    # a non-integer index is refused, neither truncated (2.7) nor parsed ('3')
    pytest.param([2.7], TypeError, id="fractional"),
    pytest.param(["3"], TypeError, id="string"),
])
@pytest.mark.parametrize("call", [
    lambda h, samples: propagate_sampled(h, 0.0, 1.0, 10, samples),
    lambda h, samples: evolve_states(h, 0.0, 1.0, 10, np.array([1.0, 0.0]), samples),
], ids=["propagate_sampled", "evolve_states"])
def test_entry_points_reject_bad_samples(call, samples, error):
    with pytest.raises(error):
        call(demo_hamiltonian(0.3), samples)


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


#: how a term varies: not at all, in time, across modes, or in both
_TERM_KINDS = ("scalar", "time", "mode", "time_mode")


def _kind_terms(kinds, amps, freqs, mode=None):
    """Terms of the given kinds over a trailing batch of all modes (mode None),
    or for mode ``mode`` alone, without a batch.  A term varying in time is
    amp * cos(freq * t), built from ``t[..., None]`` in the batch."""

    def terms(t):
        tb = t[..., None] if mode is None else t
        vals = []
        for kind, amp, w in zip(kinds, amps, freqs):
            a = amp[0] if kind in ("scalar", "time") else amp if mode is None else amp[mode]
            vals.append(a * np.cos(w * tb) if kind in ("time", "time_mode") else a)
        return tuple(vals)

    return PauliHamiltonian(terms)


def _per_time_terms(h):
    """h with every term broadcast to t's shape: read per time, whatever its kind."""
    return PauliHamiltonian(lambda t: tuple(np.broadcast_to(v, t.shape) for v in h.terms(t)))


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 4),
    batched=st.booleans(),
    steps=st.one_of(st.none(), st.integers(1, 6)),
    kinds=st.lists(st.sampled_from(_TERM_KINDS), min_size=4, max_size=4),
    amps=hnp.arrays(float, (4, 4), elements=st.floats(-2.0, 2.0)),
    freqs=hnp.arrays(float, 4, elements=st.floats(-3.0, 3.0)),
)
# the frozen Weyl mode's shapes: per-mode dx and dy without t's axes, dz on both
@example(m=3, batched=True, steps=None, kinds=["scalar", "mode", "mode", "time_mode"],
         amps=np.arange(16.0).reshape(4, 4) / 8.0, freqs=np.array([0.0, 0.0, 0.0, 2.0]))
def test_term_kinds_match_loop_over_modes_bitwise(m, batched, steps, kinds, amps, freqs):
    # each term may be scalar, per time, per mode, or per time and mode; the
    # batch's result for each mode is the bits of that mode propagated alone,
    # at n_steps = m too (steps None), where a misaligned batch axis still
    # broadcasts against the step axis
    n_steps = m if steps is None else steps
    amps = amps[:, :m]
    if batched and {"mode", "time_mode"} & set(kinds):
        got, modes = propagate(_kind_terms(kinds, amps, freqs), 0.0, 1.0, n_steps), range(m)
    else:
        got, modes = propagate(_kind_terms(kinds, amps, freqs, 0), 0.0, 1.0, n_steps)[None], [0]
    want = np.array([propagate(_per_time_terms(_kind_terms(kinds, amps, freqs, i)), 0.0, 1.0, n_steps)
                     for i in modes])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_steps", [3, 4])
def test_per_mode_constant_matches_one_mode_at_a_time(n_steps):
    # no term carries t's axes, so the (3,) dx is per mode, not per step,
    # also when the piece has as many steps as there are modes
    dx = np.array([0.1, 0.2, 0.3])
    got = propagate(PauliHamiltonian.constant(dx=dx), 0.0, 1.0, n_steps)
    want = np.array([propagate(PauliHamiltonian.constant(dx=v), 0.0, 1.0, n_steps) for v in dx])
    assert got.shape == (3, 2, 2) and got.tobytes() == want.tobytes()


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


def _segment_records(h, t0, t1, n_steps, sample_steps):
    """Reference for ``_sampled_records``: each segment between samples built
    and reduced in blocks of _BLOCK_STEPS from its start, the blocks chained in
    order, and the unitarity check run per sample as it is reached."""
    dt, idx = propagator._checked_args(t0, t1, n_steps, sample_steps)
    block, tol = propagator._BLOCK_STEPS, propagator._UNITARITY_TOL
    u = np.zeros((5,) + np.shape(h.coeffs(t0 + 0.5 * dt)[0]))
    u[0] = 1.0
    records = np.empty((5, len(idx)) + u.shape[1:])
    prev = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for i, k in enumerate(idx):
            for lo in range(prev, k, block):
                steps = propagator._cf4_records(h, t0, dt, lo, min(lo + block, k))
                u = propagator._compose(propagator._ordered_product(steps), u)
            prev = k
            w, x, y, z, phase = u
            defect = float(np.max(np.abs(w * w + x * x + y * y + z * z - 1.0) + 0.0 * phase))
            if not defect <= tol:
                raise UnitarityError(defect, tol)
            records[:, i] = u
    return t0 + np.asarray(idx, dtype=float) * dt, records


@st.composite
def _sampled_windows(draw):
    """(n_steps, ascending samples) with duplicates, 0, n_steps and uneven gaps."""
    n_steps = draw(st.integers(1, 120))
    samples = draw(st.lists(st.integers(0, n_steps), max_size=8))
    samples += draw(st.lists(st.sampled_from([0, n_steps]), max_size=2))
    return n_steps, sorted(samples)


@settings(max_examples=60, deadline=None)
@given(
    window=_sampled_windows(),
    block=st.integers(1, 16),
    p=st.one_of(st.floats(-1.0, 1.0), hnp.arrays(float, st.integers(1, 5), elements=st.floats(-1.0, 1.0))),
)
@example(window=(100, [0, 0, 3, 17, 17, 50, 99, 100]), block=8, p=np.array([0.1, -0.4, 0.7]))
@example(window=(64, [0, 8, 16, 24, 32, 40, 48, 56, 64]), block=8, p=0.3)
@example(window=(12, [0, 1, 3, 4, 6, 7, 9, 10, 12]), block=8, p=np.array([0.2, -0.5]))
# no pieces: every record is the identity filled in before the walk, or there are none
@example(window=(5, [0, 0]), block=8, p=0.3)
@example(window=(5, [0, 0]), block=8, p=np.array([0.1, -0.4, 0.7]))
@example(window=(5, []), block=8, p=0.3)
@example(window=(5, []), block=8, p=np.array([0.1, -0.4, 0.7]))
def test_sampled_records_match_segment_loop_bitwise(window, block, p):
    # pieces split at block boundaries and builds bounded by the step-mode
    # budget give the bits of the per-segment loop, batch () and (m,) alike
    n_steps, samples = window
    h = demo_hamiltonian(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagator, "_BLOCK_STEPS", block)
        times, records = propagator._sampled_records(h, 0.0, 1.0, n_steps, samples)
        ref_times, ref_records = _segment_records(h, 0.0, 1.0, n_steps, samples)
    assert np.array_equal(times, ref_times)
    assert records.shape == ref_records.shape and np.array_equal(records, ref_records)


def test_memory_before_first_build_follows_samples_not_steps(monkeypatch):
    # pieces are cut as the walk reaches them: a window of 10**9 steps and two
    # samples holds no list of its ~244000 pieces before the first records build
    class FirstBuild(Exception):
        pass

    def first_build(*args):
        raise FirstBuild

    monkeypatch.setattr(propagator, "_cf4_records", first_build)
    h = PauliHamiltonian.constant(dx=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(FirstBuild):
            propagator._sampled_records(h, 0.0, 1.0, 10**9, [0, 10**9])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p", [0.3, np.array([-0.2, 0.3, 0.6])], ids=["batch1", "batch3"])
def test_unitarity_error_reports_first_sample_past_blow_up(p):
    # d0 leaves float range in step 23 (t > 92, dt = 4): samples up to 23 pass,
    # and the error carries the defect of sample 24, the one the loop reports
    n_steps, samples = 60, [0, 10, 23, 24, 40, 60]
    base, batched = demo_hamiltonian(p), np.ndim(p) > 0

    def terms(t):
        d0 = np.where(t > 92.0, 1e308, 0.0)
        return (d0[..., None] if batched else d0,) + tuple(base.terms(t)[1:])

    h = PauliHamiltonian(terms)
    t1 = 4.0 * n_steps
    _, us = propagate_sampled(h, 0.0, t1, n_steps, samples[:3])
    assert unitarity_defect(us) < 1e-12
    with pytest.raises(UnitarityError) as got:
        propagate_sampled(h, 0.0, t1, n_steps, samples)
    with pytest.raises(UnitarityError) as want:
        _segment_records(h, 0.0, t1, n_steps, samples)
    assert math.isnan(got.value.defect) and str(got.value) == str(want.value)


def test_unitarity_error_reports_first_failing_sample_not_largest(monkeypatch):
    # with a bound below the rounding defects, the first sample over it is
    # reported with its own defect, which is not the largest of the run
    h = demo_hamiltonian(np.linspace(-0.3, 0.3, 4))
    samples = list(range(0, 401, 25))
    _, records = propagator._sampled_records(h, 0.0, 1.0, 400, samples)
    w, x, y, z, _ = records
    defects = np.max(np.abs(w * w + x * x + y * y + z * z - 1.0), axis=1)
    tol = np.min(defects[defects > 0]) / 2
    first = int(np.flatnonzero(defects > tol)[0])
    assert defects[first] < np.max(defects)
    monkeypatch.setattr(propagator, "_UNITARITY_TOL", tol)
    with pytest.raises(UnitarityError) as got:
        propagator._sampled_records(h, 0.0, 1.0, 400, samples)
    with pytest.raises(UnitarityError) as want:
        _segment_records(h, 0.0, 1.0, 400, samples)
    assert got.value.defect == want.value.defect == defects[first]


@pytest.mark.parametrize("delta,defect", [(5e-8, 1.0e-7), (1e-9, None)])
def test_unitarity_bound_sits_between_2e_9_and_1e_7(monkeypatch, delta, defect):
    # every quaternion scaled by 1 + delta is off unit norm by about 2 delta:
    # a defect of 1e-7 is refused and one of 2e-9 passes, so the bound is pinned
    cf4_records = propagator._cf4_records

    def scaled(h, t0, dt, lo, hi):
        records = cf4_records(h, t0, dt, lo, hi)
        records[:4] *= 1.0 + delta
        return records

    monkeypatch.setattr(propagator, "_cf4_records", scaled)
    h = PauliHamiltonian.constant(dx=1.0, dz=0.5)
    if defect is None:
        assert unitarity_defect(propagate(h, 0.0, 1.0, 1)) < propagator._UNITARITY_TOL
    else:
        with pytest.raises(UnitarityError) as got:
            propagate(h, 0.0, 1.0, 1)
        assert got.value.defect == pytest.approx(defect, rel=1e-6)


@pytest.mark.parametrize("n_steps,samples,p,block,max_builds", [
    # the iontrap packet: 256 steps, 33 samples, 129 modes (32 segments of 8
    # steps); a budget of 2 * 4096 // 129 = 63 steps takes 7 segments a build
    (256, [round(j * 256 / 32) for j in range(33)], np.linspace(-0.5, 0.5, 129), None, 5),
    # uneven pieces: three builds of 9 pieces at one mode, eight at three modes,
    # where the 3-step piece is longer than the budget of 2 * 4 // 3 steps
    (17, [0, 1, 2, 3, 5, 8, 9, 12, 16, 17], 0.2, 4, 3),
    (17, [0, 1, 2, 3, 5, 8, 9, 12, 16, 17], np.array([0.1, 0.5, -0.3]), 4, 8),
    # one segment longer than a block: each block-long piece is built alone
    (40, [0, 0, 40], np.array([0.1, 0.5]), 8, 5),
])
def test_records_builds_cover_whole_pieces_within_budget(monkeypatch, n_steps, samples, p,
                                                         block, max_builds):
    # a build never exceeds the step-mode budget unless one piece alone does,
    # which keeps the records temporaries (and so peak memory) bounded
    if block is not None:
        monkeypatch.setattr(propagator, "_BLOCK_STEPS", block)
    block = propagator._BLOCK_STEPS
    builds = []
    cf4_records = propagator._cf4_records

    def spy(h, t0, dt, lo, hi):
        builds.append((lo, hi))
        return cf4_records(h, t0, dt, lo, hi)

    monkeypatch.setattr(propagator, "_cf4_records", spy)
    propagator._sampled_records(demo_hamiltonian(p), 0.0, 1.0, n_steps, samples)
    pieces = [(lo, min(lo + block, k)) for prev, k in zip([0] + samples, samples)
              for lo in range(prev, k, block)]
    cuts = {0} | {hi for _, hi in pieces}
    limit = max(max(hi - lo for lo, hi in pieces), 2 * block // np.size(p))
    assert [lo for lo, _ in builds] + [samples[-1]] == [0] + [hi for _, hi in builds]
    assert all(lo in cuts and hi in cuts and hi - lo <= limit for lo, hi in builds)
    assert len(builds) <= max_builds
