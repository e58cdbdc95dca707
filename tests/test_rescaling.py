import numpy as np
import pytest

from dirac_rescale.classical import appendix_equivalence_check, kappa, quartic_model
from dirac_rescale.gauge import gauge_equivalence_check
from dirac_rescale.iontrap import IonTrapModel, build_demo_hamiltonian
from dirac_rescale.rescaling import (
    BOUNDARY_TOL,
    CustomRescaling,
    RescalingFunction,
    check_boundary,
)


def test_identity_passthrough():
    rf = RescalingFunction.identity(tau=1.0)
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


def test_inverse_boundaries():
    rf = RescalingFunction(a=2.0, tau=1.0)
    assert rf.inverse(0.0) == 0.0
    assert rf.inverse(1.0) == pytest.approx(0.5, abs=1e-13)


def test_inverse_against_bisection():
    rf = RescalingFunction(a=2.0, tau=1.0)
    s = 0.37
    lo, hi = 0.0, rf.horizon
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rf.f(mid) < s:
            lo = mid
        else:
            hi = mid
    t_star = rf.inverse(s)
    assert t_star == pytest.approx(0.5 * (lo + hi), abs=1e-13)
    assert abs(rf.f(t_star) - s) <= 1e-12 * rf.tau


def test_inverse_roundtrip_property():
    rng = np.random.default_rng(42)
    for a, tau in [(1.0, 1.0), (2.0, 1.0), (4.0, 3.0)]:
        rf = RescalingFunction(a=a, tau=tau)
        ts = rng.uniform(0.0, rf.horizon, size=50)
        for t in ts:
            assert abs(rf.inverse(rf.f(t)) - t) <= 1e-10
        # a user-supplied rescaling with the same f, df inverts arrays the same way
        custom = CustomRescaling(a=a, tau=tau, f=rf.f, df=rf.df)
        s = rf.f(ts).reshape(5, 10)
        t_custom = custom.inverse(s)
        assert t_custom.shape == (5, 10)
        assert np.all(np.abs(t_custom - ts.reshape(5, 10)) <= 1e-10)
        assert np.array_equal(t_custom, rf.inverse(s))


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
        rf.inverse(1.2)
    with pytest.raises(ValueError):
        RescalingFunction(a=0.5, tau=1.0)
    with pytest.raises(ValueError):
        RescalingFunction(a=2.0, tau=-1.0)
    with pytest.raises(ValueError):
        RescalingFunction.identity(tau=0.0)


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
    # 1e-308 is subnormal but keeps 51 bits, far finer than the domain slack;
    # its omega overflows, which the CLI reports as a non-finite result (exit 3)
    assert RescalingFunction(a=1e308, tau=1.0).horizon == 1e-308


def test_check_boundary_passes_for_family():
    assert check_boundary(RescalingFunction(a=1.0, tau=1.0)).passed
    report = check_boundary(RescalingFunction(a=4.0, tau=2.0))
    assert report.passed
    assert all(v < BOUNDARY_TOL for v in report.residuals.values())


def test_check_boundary_rejects_linear_map():
    a, tau = 2.0, 1.0
    bad = CustomRescaling(a=a, tau=tau, f=lambda t: a * np.asarray(t), df=lambda t: a * np.ones_like(np.asarray(t, dtype=float)))
    report = check_boundary(bad)
    assert not report.passed
    assert report.residuals["df(0)-1"] == pytest.approx(1.0)


def test_custom_rescaling_requires_higher_derivs():
    bad = CustomRescaling(a=1.0, tau=1.0, f=lambda t: np.asarray(t), df=lambda t: np.ones_like(np.asarray(t, dtype=float)))
    for missing in (bad.d2f, bad.d3f):
        with pytest.raises(ValueError, match="does not provide d2f/d3f"):
            missing(0.1)


@pytest.mark.parametrize("check", [
    pytest.param(lambda rf: kappa(rf, 0.1), id="kappa"),
    pytest.param(lambda rf: gauge_equivalence_check(
        lambda p: build_demo_hamiltonian(IonTrapModel(), p), rf, [0.3], n_steps=64),
        id="gauge_equivalence_check"),
    pytest.param(lambda rf: appendix_equivalence_check(quartic_model(), rf, n_steps=64),
                 id="appendix_equivalence_check"),
])
def test_custom_rescaling_without_higher_derivs_raises_value_error(check):
    # f and df of a valid contraction, so the boundary check passes and the
    # missing d2f/d3f is what stops the call
    sine = RescalingFunction(a=2.0, tau=1.0)
    partial = CustomRescaling(a=2.0, tau=1.0, f=sine.f, df=sine.df)
    with pytest.raises(ValueError, match="does not provide d2f/d3f"):
        check(partial)
