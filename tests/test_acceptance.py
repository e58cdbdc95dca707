"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from dirac_rescale.classical import (
    appendix_equivalence_check,
    h1h2,
    harmonic_model,
    kappa,
    quantum_coeffs,
    quartic_model,
)
from dirac_rescale.cli import main as cli_main
from dirac_rescale.floquet import (
    WeylModelParams,
    build_pumping_h,
    build_single_mode_h,
    floquet_operator,
    linearized_h_near_touching,
    perturbative_floquet,
    rescaled_floquet_equivalence,
)
from dirac_rescale.gauge import (
    gauge_equivalence_check,
    phi_of_t,
    transformed_hamiltonian,
)
from dirac_rescale.iontrap import (
    IonTrapModel,
    WavepacketGrid,
    build_demo_hamiltonian,
    fidelity_curves,
    instantaneous_eigenstate,
)
from dirac_rescale.propagator import (
    IDENTITY2,
    PauliHamiltonian,
    evolve_states,
    norm_defect,
    propagate,
    rescaled_propagate,
    time_rescaled,
    unitarity_defect,
)
from dirac_rescale.rescaling import RescalingFunction

TAU = 1.0
#: adiabatic-baseline horizon frozen from the fine-step oracle (tau = 10
#: already exceeds the 0.99 terminal fidelity with the default wavepacket)
TAU_ADIABATIC = 10.0


def report(criterion: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {label}: {detail} .. {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_rescaling_equivalence():
    model = IonTrapModel(tau=TAU)
    tol = 1e-8
    worst = 0.0
    slopes = []
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        for p in (-0.5, 0.0, 0.5):
            h = build_demo_hamiltonian(model, p)
            u_ref = propagate(h, 0.0, TAU, 32000)
            dev = np.linalg.norm(rescaled_propagate(h, rf, 8000) - propagate(h, 0.0, TAU, 8000), 2)
            worst = max(worst, float(dev))
            ns = np.array([50, 100, 200])
            errs = [float(np.linalg.norm(rescaled_propagate(h, rf, int(n)) - u_ref, 2)) for n in ns]
            slopes.append(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    slope_lo, slope_hi = min(slopes), max(slopes)
    ok = worst <= tol and all(3.8 <= s <= 4.2 for s in slopes)
    assert report(
        1, "rescaling equivalence",
        ok, f"max dev {worst:.2e} (tol {tol:g}), slopes {slope_lo:.2f}..{slope_hi:.2f} (want ~4)",
    )


def _baseline_fidelities(model, grid, t_end, n_steps):
    """Plain (a=1) packet evolution to t_end; the reparametrization oracle."""
    h = build_demo_hamiltonian(model, grid.p)
    chi_i = instantaneous_eigenstate(model, grid.p, 0.0)
    chi_f = instantaneous_eigenstate(model, grid.p, model.tau)
    _, psis = evolve_states(h, 0.0, t_end, n_steps, chi_i, [n_steps])
    wg2 = grid.weights * np.abs(grid.envelope) ** 2
    fi = float(np.sum(wg2 * np.abs(np.einsum("mi,mi->m", psis[0].conj(), chi_i)) ** 2))
    ff = float(np.sum(wg2 * np.abs(np.einsum("mi,mi->m", psis[0].conj(), chi_f)) ** 2))
    return fi, ff


def test_criterion_2_fidelity_reproduction():
    model = IonTrapModel(tau=TAU)
    grid = WavepacketGrid.gaussian()
    steps = 4000
    tol_identity = 1e-6
    curves = {}
    for a in (1.0, 2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        curves[a] = fidelity_curves(model, rf, grid, n_times=17, n_steps=steps)

    start_ok = all(abs(curves[a].f_initial[0] - 1.0) <= 1e-10 for a in curves)

    monotone_ok = True
    for a in curves:
        ff = curves[a].f_final
        monotone_ok &= bool(np.all(np.diff(ff) >= -1e-3) and ff[-1] >= ff[0])

    ident_worst = 0.0
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        for j, t in enumerate(curves[a].t):
            target = float(rf.f(float(t)))
            n_j = max(8, int(round(steps * target / TAU)))
            fi_ref, ff_ref = _baseline_fidelities(model, grid, target, n_j) if target > 0 else (1.0, None)
            ident_worst = max(ident_worst, abs(curves[a].f_initial[j] - fi_ref))
            if ff_ref is not None:
                ident_worst = max(ident_worst, abs(curves[a].f_final[j] - ff_ref))

    terminal_ref = curves[1.0].f_final[-1]
    term_worst = max(abs(curves[a].f_final[-1] - terminal_ref) for a in (2.0, 4.0))

    ok = start_ok and monotone_ok and ident_worst <= tol_identity and term_worst <= 1e-6
    assert report(
        2, "fidelity-curve reproduction", ok,
        f"F_i(0)-1 ok={start_ok}, monotone={monotone_ok}, "
        f"reparam dev {ident_worst:.2e} (tol {tol_identity:g}), "
        f"terminal mismatch {term_worst:.2e} (tol 1e-06)",
    )


def test_criterion_3_adiabatic_baseline():
    model = IonTrapModel(tau=TAU_ADIABATIC)
    grid = WavepacketGrid.gaussian()
    threshold = 0.99
    finals = {}
    for a in (1.0, 2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU_ADIABATIC)
        curves = fidelity_curves(model, rf, grid, n_times=3, n_steps=4000)
        finals[a] = float(curves.f_final[-1])
    ok = all(v >= threshold for v in finals.values())
    detail = ", ".join(f"a={a:g}: F_f={v:.5f}" for a, v in finals.items())
    assert report(3, f"adiabatic baseline (tau={TAU_ADIABATIC:g})", ok,
                  f"{detail} (threshold {threshold})")


def test_criterion_4_gauge_equivalence():
    model = IonTrapModel(tau=TAU)
    tol = 1e-6
    worst = 0.0
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        res = gauge_equivalence_check(build_demo_hamiltonian(model, [-1.0, 0.0, 1.0]), rf,
                                      n_steps=4000)
        worst = max(worst, res.max_deviation)

    # defining property of the frame angle: df cos(2 phi) = 1 exactly
    ident_worst = 0.0
    dz_worst = 0.0
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        ts = np.linspace(0.0, rf.horizon, 257)
        ident_worst = max(ident_worst, float(np.max(np.abs(
            rf.df(ts) * np.cos(2.0 * phi_of_t(rf, ts)) - 1.0))))
        rest = 0.7 * 1.2**2
        const_model = PauliHamiltonian.constant(dx=1.2 * 0.4, dz=rest)
        h = transformed_hamiltonian(rf, const_model)
        dz_worst = max(dz_worst, float(np.max(np.abs(h.coeffs(ts)[3] - rest))))

    ok = worst <= tol and ident_worst <= 1e-12 and dz_worst <= 1e-12
    assert report(
        4, "gauge-frame equivalence", ok,
        f"max dev {worst:.2e} (tol {tol:g}), df*cos(2phi)-1 {ident_worst:.1e}, "
        f"rest-energy drift {dz_worst:.1e} (tol 1e-12)",
    )


def test_criterion_5_floquet_identities():
    # contracted pumping cycle reproduces the one-cycle operator
    p_gen = WeylModelParams(J=0.2, lam=0.15, V1=0.5, V2=0.25, Omega=2 * math.pi,
                            k=1.1, phi_y=0.8, phi_z=0.5, T0=50.0)
    h_pump = build_pumping_h(p_gen)
    equiv_tol = 1e-8
    equiv_worst = 0.0
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=p_gen.T0)
        equiv_worst = max(equiv_worst, rescaled_floquet_equivalence(h_pump, rf, 150000))

    # stroboscopic factorization U(nT) = U_F(T)^n
    p_strobe = WeylModelParams(J=0.1, lam=0.08, V1=0.5, V2=0.3, Omega=2 * math.pi,
                               k=0.7, phi_y=0.4, phi_z=0.9, T0=50.0)
    h_strobe = build_single_mode_h(p_strobe)
    n = 4096
    u1 = floquet_operator(h_strobe, p_strobe.T, n)
    power = IDENTITY2.copy()
    strobe_worst = 0.0
    for cycles in range(1, 9):
        power = u1 @ power
        un = propagate(h_strobe, 0.0, cycles * p_strobe.T, cycles * n)
        strobe_worst = max(strobe_worst, float(np.linalg.norm(un - power, 2)))

    # drive-period average identity behind the Bessel reading
    quad_worst = 0.0
    T, omega = 1.0, 2 * math.pi
    for zc in (0.1, 0.5, 1.0):
        avg = quad(lambda t: math.cos(zc * math.sin(omega * t)), 0.0, T,
                   epsabs=1e-13, epsrel=1e-13)[0] / T
        quad_worst = max(quad_worst, abs(avg - j0(zc)))

    # first-order operator valid to second order in the hopping amplitudes
    scales = np.array([0.02, 0.01, 0.005, 0.0025])
    errs = []
    for s in scales:
        p = WeylModelParams(J=0.2 * s, lam=0.15 * s, V1=2 * math.pi, V2=0.4 * math.pi,
                            Omega=2 * math.pi, k=math.pi / 2 + 0.003,
                            phi_y=math.pi / 2 - 0.002, T0=50.0)
        h = linearized_h_near_touching(p, include_offset=False, freeze_kz=True)
        errs.append(float(np.linalg.norm(propagate(h, 0.0, p.T0, 40000) - perturbative_floquet(p), 2)))
    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])

    ok = (equiv_worst <= equiv_tol and strobe_worst <= 1e-9
          and quad_worst <= 1e-10 and 1.8 <= slope <= 2.2)
    assert report(
        5, "Floquet identities", ok,
        f"cycle equivalence {equiv_worst:.2e} (tol {equiv_tol:g}), "
        f"U(nT)=U_F^n {strobe_worst:.2e} (tol 1e-09), "
        f"Bessel quadrature {quad_worst:.2e} (tol 1e-10), "
        f"perturbative slope {slope:.2f} (want 1.8..2.2)",
    )


def test_criterion_6_appendix_equivalence():
    tol = 1e-5
    rf2 = RescalingFunction(a=2.0, tau=TAU)
    devs = {}
    for name, factory in (("harmonic", harmonic_model), ("quartic", quartic_model)):
        devs[name] = appendix_equivalence_check(factory(tau=TAU), rf2, n_steps=4000).max_deviation

    ns = np.array([250, 500, 1000])
    conv = [appendix_equivalence_check(quartic_model(tau=TAU), rf2, n_steps=int(n)).max_deviation
            for n in ns]
    slope = float(-np.polyfit(np.log(ns), np.log(conv), 1)[0])

    rf4 = RescalingFunction(a=4.0, tau=2.0)
    cross_worst = 0.0
    for t in np.linspace(1e-4, rf4.horizon - 1e-4, 101):
        h1, h2 = h1h2(rf4, t)
        fd, f2 = rf4.df(t), rf4.d2f(t)
        cross_worst = max(cross_worst, abs(4.0 * h2 * fd / 2.0 - f2 / (2.0 * fd**1.5) / h1))

    rf1 = RescalingFunction(a=1.0, tau=TAU)
    collapse_ok = all(
        h1h2(rf1, t) == (1.0, 0.0)
        and kappa(rf1, t) == 0.0
        and quantum_coeffs(rf1, t) == (0.0, 0.0, 0.0)
        for t in (0.0, 0.31, 0.9)
    )

    ok = (max(devs.values()) <= tol and 3.8 <= slope <= 4.2
          and cross_worst <= 1e-10 and collapse_ok)
    assert report(
        6, "appendix canonical equivalence", ok,
        f"harmonic {devs['harmonic']:.2e}, quartic {devs['quartic']:.2e} (tol {tol:g}), "
        f"order {slope:.2f} (want ~4), cross-term {cross_worst:.1e} (tol 1e-10), "
        f"a=1 collapse {collapse_ok}",
    )


def test_criterion_7_global_invariants(tmp_path):
    model = IonTrapModel(tau=TAU)
    unit_worst = 0.0
    for a in (1.0, 2.0, 4.0):
        rf = RescalingFunction(a=a, tau=TAU)
        h = build_demo_hamiltonian(model, np.linspace(-0.3, 0.3, 33))
        unit_worst = max(unit_worst, unitarity_defect(rescaled_propagate(h, rf, 2000)))
    grid = WavepacketGrid.gaussian(n_points=33)
    h = build_demo_hamiltonian(model, grid.p)
    chi = instantaneous_eigenstate(model, grid.p, 0.0)
    _, psis = evolve_states(time_rescaled(h, RescalingFunction(a=2.0, tau=TAU)),
                            0.0, 0.5, 2000, chi, [1000, 2000])
    norm_worst = norm_defect(psis)

    out = tmp_path / "run"
    args = ["iontrap", "--a", "2", "--steps", "300", "--n-times", "5",
            "--grid-points", "17", "--out", str(out)]
    assert cli_main(args) == 0
    blobs1 = {name: (out / name).read_bytes() for name in ("fidelity.csv", "summary.json")}
    assert cli_main(args) == 0
    blobs2 = {name: (out / name).read_bytes() for name in ("fidelity.csv", "summary.json")}
    identical = blobs1 == blobs2

    ok = unit_worst <= 1e-10 and norm_worst <= 1e-10 and identical
    assert report(
        7, "global invariants", ok,
        f"unitarity {unit_worst:.1e}, norm drift {norm_worst:.1e} (tol 1e-10), "
        f"CLI reruns byte-identical {identical}",
    )
