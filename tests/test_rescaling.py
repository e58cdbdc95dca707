import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_rescale.classical import h1h2, kappa, quantum_coeffs
from dirac_rescale.gauge import frak_vector_potential, phi_dot, phi_of_t
from dirac_rescale.rescaling import BOUNDARY_TOL, RescalingFunction, check_boundary


def test_identity_passthrough():
    rf = RescalingFunction(tau=1.0)
    assert rf.f(0.3) == pytest.approx(0.3, abs=1e-15)
    assert rf.df(0.3) == 1.0
    assert rf.d2f(0.7) == 0.0


def test_midpoint_value_is_half_tau():
    # sin(pi) = 0 forces f(tau/(2a)) = tau/2
    rf = RescalingFunction(a=2.0, tau=1.0)
    assert rf.f(0.25) == pytest.approx(0.5, abs=1e-15)


def test_closed_form_value_frozen():
    # 0.4 - (3/(8 pi)) sin(0.8 pi), evaluated independently at 40 digits
    rf = RescalingFunction(a=4.0, tau=1.0)
    assert rf.f(0.1) == pytest.approx(0.32983830371585207, abs=1e-15)


def test_boundary_values_exact():
    for a, tau in [(1.0, 1.0), (2.0, 1.0), (4.0, 2.0), (7.5, 0.3)]:
        rf = RescalingFunction(a=a, tau=tau)
        assert rf.f(0.0) == pytest.approx(0.0, abs=1e-14 * tau)
        assert rf.f(rf.horizon) == pytest.approx(tau, abs=1e-13 * tau)
        assert rf.df(0.0) == pytest.approx(1.0, abs=1e-13)
        assert rf.df(rf.horizon) == pytest.approx(1.0, abs=1e-13)


def test_derivatives_at_special_points():
    rf = RescalingFunction(a=3.0, tau=1.0)
    df, d2f = rf.df(0.0), rf.d2f(0.0)
    assert df == pytest.approx(1.0, abs=1e-14)
    assert d2f == pytest.approx(0.0, abs=1e-12)
    # cos(pi) = -1 at the window midpoint: df = 2a - 1
    rf2 = RescalingFunction(a=2.0, tau=1.0)
    assert rf2.df(rf2.horizon / 2) == pytest.approx(3.0, abs=1e-13)


def test_derivatives_match_central_differences():
    rf = RescalingFunction(a=2.0, tau=1.0)
    t = 0.1

    def fd(fun, h):
        return (fun(t + h) - fun(t - h)) / (2 * h)

    for fun, dfun in [(rf.f, rf.df), (rf.df, rf.d2f), (rf.d2f, rf.d3f)]:
        errs = [abs(fd(fun, h) - dfun(t)) for h in (1e-3, 5e-4)]
        # central differences are O(h^2): halving h shrinks the error ~4x
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 1e-4 * max(1.0, abs(dfun(t)))


def test_monotonicity_property():
    rng = np.random.default_rng(7)
    rf = RescalingFunction(a=4.0, tau=1.0)
    t = np.sort(rng.uniform(0.0, rf.horizon, size=2000))
    fv = rf.f(t)
    assert np.all(np.diff(fv) > 0)


def test_df_at_least_one():
    rf = RescalingFunction(a=3.0, tau=2.0)
    t = np.linspace(0.0, rf.horizon, 1001)
    dfv = rf.df(t)
    assert np.all(dfv >= 1.0 - 1e-14)
    interior = dfv[1:-1]
    assert np.all(interior > 1.0)


def test_domain_errors():
    rf = RescalingFunction(a=2.0, tau=1.0)
    with pytest.raises(ValueError):
        rf.f(-0.1)
    with pytest.raises(ValueError):
        rf.f(0.51)
    with pytest.raises(ValueError):
        RescalingFunction(a=0.5, tau=1.0)
    with pytest.raises(ValueError):
        RescalingFunction(a=2.0, tau=-1.0)
    with pytest.raises(ValueError):
        RescalingFunction(tau=0.0)


@pytest.mark.parametrize("lo,hi,worst", [(0.0, 0.8, "0.8"), (-0.3, 0.2, "-0.3")])
def test_domain_error_names_the_worst_time(lo, hi, worst):
    # the message names the time furthest out, not the whole array
    with pytest.raises(ValueError) as exc:
        RescalingFunction(a=2.0, tau=1.0).df(np.linspace(lo, hi, 1000))
    msg = str(exc.value)
    assert len(msg) < 80
    assert f"time {worst} " in msg and "[0, 0.5]" in msg


@pytest.mark.parametrize("a,tau", [(2.0, 1e-320), (1.0, 1e-320), (1e300, 1e-300)])
def test_too_small_horizon_rejected(a, tau):
    # below about 5e-315 floats are spaced wider than the domain slack; the
    # message names tau and a, not a sample time
    with pytest.raises(ValueError, match=r"horizon tau/a = .* is too small"):
        RescalingFunction(a=a, tau=tau)


def test_subnormal_horizon_with_fine_spacing_accepted():
    # 1e-308 is subnormal but keeps 51 bits, far finer than the domain slack,
    # so the horizon check lets it through; below about 3.5e-308 omega =
    # 2 pi / horizon overflows and f(0) is NaN, so the boundary check refuses it
    assert math.ulp(1e-308) <= 1e-9 * 1e-308
    with pytest.raises(ValueError, match=r"rescaling fails boundary conditions.*f\(0\) = nan"):
        RescalingFunction(a=1e308, tau=1.0)


def test_check_boundary_passes_for_family():
    for a, tau in [(1.0, 1.0), (4.0, 2.0)]:
        residuals = check_boundary(RescalingFunction(a=a, tau=tau))
        assert all(v < BOUNDARY_TOL for v in residuals.values())


_BOUNDARY_TAUS = np.logspace(-3, 9, 49).tolist()
_BOUNDARY_AS = [1.5, 2.0, 3.0, 4.0, 7.5, 10.0, 100.0, 1e3, 1e6]


@pytest.mark.parametrize("a", _BOUNDARY_AS)
@pytest.mark.parametrize("tau", _BOUNDARY_TAUS)
def test_check_boundary_passes_at_any_scale(tau, a):
    # the f residuals are relative to tau: one ulp of tau = 1e6 is 1.16e-10
    residuals = check_boundary(RescalingFunction(a=a, tau=tau))
    assert all(v < BOUNDARY_TOL for v in residuals.values()), residuals


def test_check_boundary_rejects_linear_map():
    # at a = 1e16 the float df(0) = a - (a-1) rounds to 0, so it cannot be built
    with pytest.raises(ValueError) as exc:
        RescalingFunction(a=1e16)
    msg = str(exc.value)
    assert "\n" not in msg
    assert "rescaling fails boundary conditions" in msg
    assert "a = 1e+16, tau = 1.0" in msg
    assert "df(0)-1 = 1.000e+00" in msg and "tol 1e-10" in msg


@settings(deadline=None)
@given(
    a=st.one_of(st.floats(1.0, 2.0**53 + 8), st.floats(1.0, 10.0)),
    tau=st.floats(1e-3, 1e9),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_every_built_rescaling_has_df_at_least_one(a, tau, fractions):
    # passing df(0) = 1 at build time makes a - 1 exact, so the float
    # df = a - (a-1) cos(omega t) cannot drop below 1 anywhere in the window
    try:
        rf = RescalingFunction(a=a, tau=tau)
    except ValueError as exc:
        assert "rescaling fails boundary conditions" in str(exc)
        return
    t = np.concatenate([np.linspace(0.0, rf.horizon, 4097),
                        np.asarray(fractions) * rf.horizon])
    assert np.all(rf.df(t) >= 1.0)


@settings(deadline=None)
@given(
    a=st.floats(1.0, 50.0),
    tau=st.floats(0.1, 10.0),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=6),
)
def test_float_time_gives_numpy_float_matching_array_call(a, tau, fractions):
    # numpy owns the scalar convention: a float t gives a 0-d np.floating,
    # bitwise element i of the call on the array of times; both endpoints
    # are included, where the frame angle's df is 1 and theta is 0 and pi
    rf = RescalingFunction(a=a, tau=tau)
    ts = np.array([0.0, *fractions, 1.0]) * rf.horizon
    calls = {
        "f": rf.f,
        "df": rf.df,
        "d2f": rf.d2f,
        "d3f": rf.d3f,
        "phi_of_t": lambda t: phi_of_t(rf, t),
        "phi_dot": lambda t: phi_dot(rf, t),
        "frak_vector_potential": lambda t: frak_vector_potential(rf, np.sin, t, 0.3),
        "h1h2": lambda t: h1h2(rf, t, 1.5),
        "kappa": lambda t: kappa(rf, t, 1.5),
        "quantum_coeffs": lambda t: quantum_coeffs(rf, t),
    }
    for name, call in calls.items():
        whole = call(ts)
        whole = whole if isinstance(whole, tuple) else (whole,)
        assert all(np.shape(w) == ts.shape for w in whole), name
        for i, t in enumerate(ts.tolist()):
            one = call(t)
            one = one if isinstance(one, tuple) else (one,)
            for s, w in zip(one, whole, strict=True):
                assert isinstance(s, np.floating) and np.ndim(s) == 0, (name, type(s))
                assert np.asarray(s).tobytes() == w[i].tobytes(), (name, t)


@pytest.mark.parametrize("a,built", [(1e15, True), (2.0**53 + 2, False),
                                     (1e16, False), (1e300, False)])
def test_largest_contraction_factors(a, built):
    # at tau = 1 floats keep df(0) = 1 up to a of about 9e15
    if built:
        assert RescalingFunction(a=a, tau=1.0).a == a
        return
    with pytest.raises(ValueError, match="rescaling fails boundary conditions") as exc:
        RescalingFunction(a=a, tau=1.0)
    assert "\n" not in str(exc.value)
