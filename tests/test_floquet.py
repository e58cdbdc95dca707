import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import j0

from dirac_rescale import floquet
from dirac_rescale.floquet import (
    WeylModelParams,
    build_pumping_h,
    build_rotating_frame_h,
    build_single_mode_h,
    calibrate_perturbative_prefactor,
    floquet_operator,
    linearized_h_near_touching,
    perturbative_floquet,
    pumping_path,
    quasienergies,
    quasienergy_gap,
    rescaled_floquet_equivalence,
    scan_quasienergies,
)
from dirac_rescale.propagator import (
    _UNITARITY_TOL,
    IDENTITY2,
    PAULI_X,
    PauliHamiltonian,
    propagate,
    su2_exponential,
)
from dirac_rescale.rescaling import RescalingFunction


def params(**overrides):
    defaults = dict(J=0.2, lam=0.15, V1=2 * math.pi, V2=0.4 * math.pi,
                    Omega=2 * math.pi, T0=50.0)
    defaults.update(overrides)
    return WeylModelParams(**defaults)


def test_single_mode_sz_vanishes_at_phi_z_half_pi():
    p = params(phi_z=math.pi / 2)
    h = build_single_mode_h(p)
    t = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(h.coeffs(t)[3], 0.0, atol=1e-15)


def test_single_mode_only_sy_survives():
    # k = pi/2 kills the sx hopping term; phi_z = pi/2 kills the sz drive
    p = params(k=math.pi / 2, phi_y=0.3, phi_z=math.pi / 2)
    h = build_single_mode_h(p)
    d0, dx, dy, dz = h.coeffs(0.37)
    assert abs(dx) < 1e-15
    assert abs(dz) < 1e-15
    assert dy == pytest.approx(2 * p.lam * math.cos(0.3), abs=1e-15)


def test_single_mode_periodicity_sweep():
    p = params(k=0.7, phi_y=0.4, phi_z=0.9)
    h = build_single_mode_h(p)
    rng = np.random.default_rng(10)
    t = rng.uniform(0.0, 5.0, size=100)
    for before, after in zip(h.coeffs(t), h.coeffs(t + p.T)):
        np.testing.assert_allclose(before, after, atol=1e-13)


def test_rotating_frame_t0_reduction():
    # sin(0) = 0 makes alpha vanish at t = 0
    p = params(k=0.6, phi_y=0.5, phi_z=0.8)
    h = build_rotating_frame_h(p)
    d0, dx, dy, dz = h.coeffs(0.0)
    assert dx == pytest.approx(2 * p.J * math.cos(p.k), abs=1e-14)
    assert dy == pytest.approx(-2 * p.J * math.cos(p.k), abs=1e-14)
    assert dz == pytest.approx(p.V1 * math.cos(p.phi_z), abs=1e-14)


def test_rotating_frame_alpha_zero_when_undriven():
    p = params(V2=0.0, k=0.6, phi_y=0.5, phi_z=0.8)
    h = build_rotating_frame_h(p)
    t = np.linspace(0.0, 2.0, 9)
    np.testing.assert_allclose(h.coeffs(t)[1], 2 * p.J * math.cos(p.k), atol=1e-14)


def test_rotating_frame_periodic_with_frozen_path():
    p = params(k=0.7, phi_y=0.4, phi_z=0.9)
    h = build_rotating_frame_h(p)
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 4.0, size=50)
    for before, after in zip(h.coeffs(t), h.coeffs(t + p.T)):
        np.testing.assert_allclose(before, after, atol=1e-12)


def test_pumping_path_loop():
    p = params(r=0.25, phi_y0=1.0, phi_z0=0.5)
    assert pumping_path(p, 0.0) == pytest.approx((1.25, 0.5))
    py, pz = pumping_path(p, p.T0 / 4)
    assert py == pytest.approx(1.0, abs=1e-13)
    assert pz == pytest.approx(0.75, abs=1e-13)
    start = pumping_path(p, 0.0)
    end = pumping_path(p, p.T0)
    assert start[0] == pytest.approx(end[0], abs=1e-13)
    assert start[1] == pytest.approx(end[1], abs=1e-13)


@pytest.mark.parametrize("p", [params(), params(J=0.7, lam=-0.3, V2=1.1, k=0.4, phi_y0=0.8,
                                               phi_z0=0.5, r=0.25)], ids=["default", "generic"])
def test_pumping_h_is_frozen_mode_h_on_the_loop(p):
    # the pumped mode is the frozen mode at the loop's quasimomenta, to the byte
    # (the angles go in unwrapped, as pumping_path gives them)
    for t in (0.0, 0.37, 12.5, 37.5, 49.99, 50.0, 137.25):
        got = build_pumping_h(p).coeffs(t)
        want = floquet._frozen_mode_h(p, p.k, *pumping_path(p, t)).coeffs(t)
        for g, w in zip(got, want):
            assert g.shape == w.shape == () and g.tobytes() == w.tobytes()


def test_floquet_operator_constant_h():
    h = PauliHamiltonian.constant(dx=0.3, dz=0.8)
    u = floquet_operator(h, 1.0, 64)
    ref = expm(-1j * h.matrix(0.0) * 1.0)
    assert np.max(np.abs(u - ref)) < 1e-12


def test_floquet_factorization_two_periods():
    p = params(k=0.7, phi_y=0.4, phi_z=0.9)
    h = build_single_mode_h(p)
    n = 512
    u1 = floquet_operator(h, p.T, n)
    u2 = propagate(h, 0.0, 2 * p.T, 2 * n)
    assert np.linalg.norm(u2 - u1 @ u1, 2) < 1e-10


def test_floquet_powers_up_to_eight_periods():
    p = params(J=0.1, lam=0.08, V1=0.5, V2=0.3, k=0.7, phi_y=0.4, phi_z=0.9)
    h = build_single_mode_h(p)
    n = 4096
    u1 = floquet_operator(h, p.T, n)
    power = IDENTITY2.copy()
    for cycles in range(1, 9):
        power = u1 @ power
        un = propagate(h, 0.0, cycles * p.T, cycles * n)
        assert np.linalg.norm(un - power, 2) < 1e-9


def test_floquet_eigenvalues_on_unit_circle():
    p = params(k=1.1, phi_y=0.4, phi_z=0.9)
    u = floquet_operator(build_single_mode_h(p), p.T, 2048)
    lam = np.linalg.eigvals(u)
    np.testing.assert_allclose(np.abs(lam), 1.0, atol=1e-10)


def test_quasienergies_identity_and_diagonal():
    np.testing.assert_allclose(quasienergies(IDENTITY2, 1.0), [0.0, 0.0])
    eps = 0.4
    u = np.diag([np.exp(-1j * eps), np.exp(1j * eps)])
    np.testing.assert_allclose(quasienergies(u, 1.0), [-eps, eps], atol=1e-14)


def test_quasienergies_zone_edge_tie():
    e = quasienergies(-IDENTITY2, 1.0)
    np.testing.assert_allclose(e, [math.pi, math.pi], atol=1e-14)


def test_quasienergies_reject_non_unitary():
    with pytest.raises(ValueError):
        quasienergies(np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex), 1.0)


@pytest.mark.parametrize("defect,accepted", [(0.5 * _UNITARITY_TOL, True),
                                             (2.0 * _UNITARITY_TOL, False)])
def test_quasienergies_refuse_at_the_propagator_unitarity_bound(defect, accepted):
    # (1 + eps) R has U^dag U - I = (2 eps + eps^2) I, so 1 + eps = sqrt(1 + defect)
    r = su2_exponential(0.2, 0.3, -0.4, 0.5, 1.3)
    u = math.sqrt(1.0 + defect) * r
    if accepted:
        np.testing.assert_allclose(quasienergies(u, 1.0), quasienergies(r, 1.0), atol=1e-12)
    else:
        with pytest.raises(ValueError, match="not unitary"):
            quasienergies(u, 1.0)


def test_quasienergies_start_time_invariant():
    p = params(J=0.1, lam=0.08, V1=0.4, V2=0.2, k=0.7, phi_y=0.4, phi_z=0.9)
    h = build_single_mode_h(p)
    n = 8192
    e0 = quasienergies(propagate(h, 0.0, p.T, n), p.T)
    e1 = quasienergies(propagate(h, 0.3 * p.T, 1.3 * p.T, n), p.T)
    np.testing.assert_allclose(e0, e1, atol=1e-10)


def test_band_touching_located_by_gap_minimization():
    # scan k_z through zero: the circle-gap of the linearized mode closes there
    base = params(k=math.pi / 2, phi_y=math.pi / 2)
    phi_l = base.phi_l
    offsets = np.linspace(-0.1, 0.1, 21)
    gaps = []
    for dz in offsets:
        p = params(k=math.pi / 2, phi_y=math.pi / 2, phi_z=phi_l + dz)
        h = linearized_h_near_touching(p)
        gaps.append(quasienergy_gap(floquet_operator(h, p.T, 512), p.T))
    gaps = np.asarray(gaps)
    assert abs(offsets[int(np.argmin(gaps))]) < 1e-12
    assert gaps.min() < 1e-10
    assert gaps.max() > 0.1


def test_perturbative_identity_cases():
    p = params(k=math.pi / 2, phi_y=math.pi / 2)
    np.testing.assert_allclose(perturbative_floquet(p), IDENTITY2, atol=1e-15)
    tiny = params(V2=1e-30, k=math.pi / 2 + 1e-3, phi_y=math.pi / 2)
    u = perturbative_floquet(tiny)
    expected = IDENTITY2 + 1j * 2 * tiny.J * 1e-3 * tiny.T0 * np.array([[0, 1], [1, 0]])
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_perturbative_requires_touching_angle():
    with pytest.raises(ValueError):
        perturbative_floquet(params(V1=1.0))


@pytest.mark.parametrize("V1", [0.0, math.nan, 1.0])
def test_no_touching_angle_raises_value_error(V1):
    # a zero or NaN V1 is refused as no angle, not as ZeroDivisionError or a NaN angle
    p = params(V1=V1)
    with pytest.raises(ValueError, match="no band-touching angle"):
        p.phi_l
    with pytest.raises(ValueError, match="no band-touching angle"):
        perturbative_floquet(p)
    with pytest.raises(ValueError, match="no band-touching angle"):
        linearized_h_near_touching(p)


def _bessel_factor(z):
    """J_0(ell c) as perturbative_floquet computes it, and ell c itself."""
    def sx_part(p):
        return 0.5 * np.real(np.trace(PAULI_X @ ((perturbative_floquet(p) - IDENTITY2) / 1j)))
    p = params(V2=z * 2 * math.pi, k=math.pi / 2 + 0.01)
    # at c = 0 every drive phase gives cos(0) = 1, so the ratio is J_0 alone
    return sx_part(p) / sx_part(replace(p, V2=0.0)), p.ell * p.c_ratio


def test_bessel_factor_matches_scipy_j0():
    # the trapezoid mean needs more phases as |z| grows; a fixed 64 fails past ~35
    zs = np.concatenate([[0.0, 0.2, 0.5, -0.5, 2.404825557695773, 35.0, 40.0, 60.0, 1e3, -1e3],
                         np.linspace(-999.63, 999.63, 1001)])
    worst = 0.0
    for z in zs:
        value, zc = _bessel_factor(z)
        worst = max(worst, abs(value - j0(zc)))
    assert worst < 1e-14
    assert _bessel_factor(0.0)[0] == 1.0


@pytest.mark.parametrize("V2", [1e3 * 2 * math.pi * 1.001, -3e5, math.nan, math.inf])
def test_bessel_factor_refuses_large_or_non_finite_argument(V2):
    with pytest.raises(ValueError, match=r"ell\*V2/V1"):
        perturbative_floquet(params(V2=V2))


@pytest.mark.parametrize("field", ["Omega", "T0"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_weyl_params_refuse_non_positive_periods(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        params(**{field: value})


def test_drive_average_is_bessel_j0():
    T = 1.0
    omega = 2 * math.pi / T
    for zc in (0.1, 0.5, 1.0):
        cos_avg = quad(lambda t: math.cos(zc * math.sin(omega * t)), 0.0, T,
                       epsabs=1e-13, epsrel=1e-13)[0] / T
        sin_avg = quad(lambda t: math.sin(zc * math.sin(omega * t)), 0.0, T,
                       epsabs=1e-13, epsrel=1e-13)[0] / T
        assert abs(cos_avg - j0(zc)) < 1e-10
        assert abs(sin_avg) < 1e-12


def test_perturbative_prefactor_calibration():
    p = params(k=math.pi / 2 + 0.01, phi_y=math.pi / 2 - 0.008)
    pref = calibrate_perturbative_prefactor(p)
    assert pref == pytest.approx(p.T0, rel=1e-4)


@pytest.mark.parametrize("p", [
    WeylModelParams(),  # k = pi/2, so k_x = 0
    WeylModelParams(J=0.0, k=1.0, phi_y=1.2),
], ids=["k_x=0", "J=0"])
def test_perturbative_prefactor_refuses_a_zero_sx_term(p):
    # 2J k_x J_0 T0 = 0 leaves nothing to match: a ValueError, not 0/0 or x/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"k_x = .*J = "):
            calibrate_perturbative_prefactor(p)


def test_perturbative_error_scales_quadratically():
    base = params(k=math.pi / 2 + 0.003, phi_y=math.pi / 2 - 0.002, V2=0.2 * 2 * math.pi)
    scales = np.array([0.02, 0.01, 0.005, 0.0025])
    errs = []
    for s in scales:
        p = params(J=base.J * s, lam=base.lam * s, k=base.k, phi_y=base.phi_y, V2=base.V2)
        h = linearized_h_near_touching(p, include_offset=False, freeze_kz=True)
        u_num = propagate(h, 0.0, p.T0, 40000)
        errs.append(np.linalg.norm(u_num - perturbative_floquet(p), 2))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_dispersion_slopes_near_touching():
    """Gap slopes along (k_x, k_y, k_z) vs (2J, 2lam, V1 sin(phi_l)) to 5%."""
    eps = 0.01
    base = dict(k=math.pi / 2, phi_y=math.pi / 2)
    p0 = params(**base)
    phi_l = p0.phi_l
    targets = (2 * p0.J, 2 * p0.lam, p0.V1 * math.sin(phi_l))
    offsets = [
        params(k=math.pi / 2 + eps, phi_y=math.pi / 2, phi_z=phi_l),
        params(k=math.pi / 2, phi_y=math.pi / 2 + eps, phi_z=phi_l),
        params(k=math.pi / 2, phi_y=math.pi / 2, phi_z=phi_l + eps),
    ]
    for p, target in zip(offsets, targets):
        h = linearized_h_near_touching(p, include_offset=False)
        gap = quasienergy_gap(floquet_operator(h, p.T, 2048), p.T)
        slope = gap / (2 * eps)
        assert slope == pytest.approx(target, rel=0.05)


def test_linearized_trivial_points():
    p = params(k=math.pi / 2, phi_y=math.pi / 2)
    h = linearized_h_near_touching(params(k=math.pi / 2, phi_y=math.pi / 2, phi_z=p.phi_l))
    d0, dx, dy, dz = h.coeffs(0.3)
    assert abs(dx) < 1e-15 and abs(dy) < 1e-15
    assert dz == pytest.approx(math.pi, abs=1e-12)
    # at t = 0 the oscillating argument vanishes: sx -> -2J k_x, sy -> -2 lam k_y
    p2 = params(k=math.pi / 2 + 0.02, phi_y=math.pi / 2 + 0.01, phi_z=p.phi_l)
    h2 = linearized_h_near_touching(p2)
    d0, dx, dy, dz = h2.coeffs(0.0)
    assert dx == pytest.approx(-2 * p2.J * 0.02, abs=1e-12)
    assert dy == pytest.approx(-2 * p2.lam * 0.01, abs=1e-12)


def test_rescaled_equivalence_identity_is_exact():
    p = params(k=0.9, phi_y=0.4, phi_z=0.7)
    h = build_pumping_h(p)
    rf = RescalingFunction(a=1.0, tau=p.T0)
    assert rescaled_floquet_equivalence(h, rf, 20000) < 1e-12


def test_rescaled_equivalence_near_touching_a2():
    p = params(k=math.pi / 2 + 0.01, phi_y=math.pi / 2 - 0.008)
    h = linearized_h_near_touching(params(k=p.k, phi_y=p.phi_y, phi_z=p.phi_l + 0.005))
    rf = RescalingFunction(a=2.0, tau=p.T0)
    assert rescaled_floquet_equivalence(h, rf, 120000) < 1e-8


def test_rescaled_equivalence_generic_a4():
    p = params(J=0.2, lam=0.15, V1=0.5, V2=0.25, k=1.1, phi_y=0.8, phi_z=0.5)
    h = build_pumping_h(p)
    rf = RescalingFunction(a=4.0, tau=p.T0)
    assert rescaled_floquet_equivalence(h, rf, 120000) < 1e-8


def test_quasimomenta_wrapped_to_zone():
    p = params(k=3 * math.pi, phi_y=-3 * math.pi / 2, phi_z=2 * math.pi)
    assert -math.pi < p.k <= math.pi
    assert p.k == pytest.approx(math.pi)
    assert p.phi_y == pytest.approx(math.pi / 2)
    assert p.phi_z == pytest.approx(0.0, abs=1e-15)


def test_short_pumping_period_warns():
    # the warning names the line that built the params, not the dataclass __init__
    with pytest.warns(RuntimeWarning) as record:
        params(T0=10.0)
    assert [w.filename for w in record] == [__file__]


def test_order_4_equivalence_and_quasienergies():
    # fourth order: the cycle deviation falls 16x per halving of the step,
    # and 256 steps per drive period give the quasienergies of a fine run
    p = params(V1=0.5, V2=0.25, k=1.1, phi_y=0.8, phi_z=0.5, phi_y0=0.8, phi_z0=0.5)
    h = build_pumping_h(p)
    rf = RescalingFunction(a=2.0, tau=p.T0)
    devs = [rescaled_floquet_equivalence(h, rf, n) for n in (1000, 2000, 4000)]
    assert all(14.0 < x / y < 18.0 for x, y in zip(devs, devs[1:]))
    assert devs[-1] < 1e-9
    hs = build_single_mode_h(p)
    reference = quasienergies(floquet_operator(hs, p.T, 8192), p.T)
    coarse = quasienergies(floquet_operator(hs, p.T, 256), p.T)
    assert np.max(np.abs(coarse - reference)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    axis=st.sampled_from(["k", "phi_y", "phi_z"]),
    values=hnp.arrays(float, st.integers(1, 65), elements=st.floats(-10.0, 10.0)),
    n_steps=st.integers(1, 64),
)
@example(axis="phi_z", values=np.linspace(-math.pi, math.pi, 65), n_steps=256)
@example(axis="k", values=np.array([math.pi, -math.pi, 3 * math.pi, -7.0, 0.0]), n_steps=16)
def test_scan_matches_loop_bitwise(axis, values, n_steps):
    # one batched propagation gives each value's quasienergies to the bit,
    # zone wrapping of values outside (-pi, pi] included
    p = params(V1=0.5, V2=0.25, k=1.1, phi_y=0.8, phi_z=0.5)
    got = scan_quasienergies(p, axis, values, n_steps)
    want = [quasienergies(floquet_operator(build_single_mode_h(replace(p, **{axis: float(v)})),
                                           p.T, n_steps), p.T)
            for v in values]
    assert got.shape == (values.size, 2)
    assert np.array_equal(got, np.array(want))


def test_scan_rejects_unknown_axis():
    with pytest.raises(ValueError, match="scan axis"):
        scan_quasienergies(params(), "ell", [0.0], 16)


@pytest.mark.parametrize("values", [[], np.array([]), np.empty((0, 3))], ids=["list", "1-d", "2-d"])
def test_scan_rejects_empty_values(values):
    with pytest.raises(ValueError, match="^values: a scan needs at least one value$"):
        scan_quasienergies(params(), "k", values, 16)
