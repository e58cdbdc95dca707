import numpy as np
import pytest

from dirac_rescale.iontrap import (
    IonTrapModel,
    PhysicalTrapParams,
    WavepacketGrid,
    build_demo_hamiltonian,
    fidelity_curves,
    instantaneous_eigenstate,
)
from dirac_rescale.propagator import PAULI_Z
from dirac_rescale.rescaling import RescalingFunction


def test_ramp_partition_of_unity():
    model = IonTrapModel(tau=2.0)
    t = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(model.vector_potential(t) + model.gap(t), 1.0, atol=1e-15)
    assert model.vector_potential(0.0) == 0.0
    assert model.vector_potential(2.0) == pytest.approx(1.0)
    assert model.gap(0.0) == 1.0
    assert model.gap(2.0) == pytest.approx(0.0, abs=1e-15)


def test_demo_hamiltonian_special_points():
    model = IonTrapModel(tau=1.0)
    h0 = build_demo_hamiltonian(model, 0.0)
    np.testing.assert_allclose(h0.matrix(0.0), PAULI_Z, atol=1e-15)
    h1 = build_demo_hamiltonian(model, 1.0)
    assert np.max(np.abs(h1.matrix(1.0))) < 1e-15
    h2 = build_demo_hamiltonian(model, 0.5)
    d0, dx, dy, dz = h2.coeffs(0.5)
    assert dx == pytest.approx(0.0, abs=1e-15)
    assert dz == pytest.approx(0.5, abs=1e-15)


def test_physical_units_map():
    const = PhysicalTrapParams(
        eta=0.1, Delta=0.5, gamma=lambda t: 2.0 + 0.0 * np.asarray(t),
        omega=lambda t: 3.0 + 0.0 * np.asarray(t), m_ion=1.0, nu=1.0,
    )
    from dirac_rescale.iontrap import physical_units_map

    c_eff, rest = physical_units_map(const, 0.7)
    assert c_eff == pytest.approx(2 * 0.1 * 0.5 * 2.0)
    assert rest == pytest.approx(3.0)
    double = PhysicalTrapParams(
        eta=0.1, Delta=0.5, gamma=lambda t: 4.0 + 0.0 * np.asarray(t),
        omega=lambda t: 3.0 + 0.0 * np.asarray(t), m_ion=1.0, nu=1.0,
    )
    assert physical_units_map(double, 0.7)[0] == pytest.approx(2 * c_eff)
    profiled = PhysicalTrapParams(
        eta=0.2, Delta=0.3, gamma=np.cos, omega=np.exp, m_ion=1.0, nu=2.0, hbar=1.5,
    )
    t = 0.4
    c_eff, rest = physical_units_map(profiled, t)
    assert c_eff == pytest.approx(2 * 0.2 * 0.3 * np.cos(t))
    assert rest == pytest.approx(1.5 * np.exp(t))


def test_eigenstate_initial_point():
    model = IonTrapModel(tau=1.0)
    np.testing.assert_allclose(
        instantaneous_eigenstate(model, 0.0, 0.0), [1.0, 0.0], atol=1e-15
    )


def test_eigenstate_target_plus_branch():
    # p - A > 0 with the gap closed gives the equal superposition
    model = IonTrapModel(tau=1.0)
    state = instantaneous_eigenstate(model, 2.0, 1.0)
    np.testing.assert_allclose(state, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_eigenstate_residual_sweep():
    rng = np.random.default_rng(5)
    model = IonTrapModel(tau=1.0)
    for _ in range(300):
        p = rng.uniform(-2.0, 0.9)
        t = rng.uniform(0.0, 1.0)
        h = build_demo_hamiltonian(model, p).matrix(t)
        for branch in (+1, -1):
            s = instantaneous_eigenstate(model, p, t, branch=branch)
            hs = h @ s
            ev = np.vdot(s, hs)
            assert np.linalg.norm(hs - ev * s) <= 1e-12


def test_eigenstate_branches_orthonormal():
    model = IonTrapModel(tau=1.0)
    up = instantaneous_eigenstate(model, 0.4, 0.3, +1)
    dn = instantaneous_eigenstate(model, 0.4, 0.3, -1)
    assert abs(np.vdot(up, dn)) < 1e-15
    assert np.linalg.norm(up) == pytest.approx(1.0, abs=1e-15)


def test_eigenstate_degeneracy_warning():
    model = IonTrapModel(tau=1.0)
    with pytest.warns(RuntimeWarning):
        instantaneous_eigenstate(model, 1.0, 1.0)


def test_gaussian_grid_normalized_and_symmetric():
    grid = WavepacketGrid.gaussian()
    assert grid.quadrature_norm == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(grid.p + grid.p[::-1], 0.0, atol=1e-15)
    assert grid.p.size == 129


@pytest.mark.parametrize("sigma_p", [1e308, 1e160, 1e-300])
def test_gaussian_width_out_of_float_range(sigma_p):
    # 6 sigma_p or sigma_p**2 leaves float range: a ValueError, with no
    # OverflowError or numpy warning
    with pytest.raises(ValueError, match="no normalisable packet"):
        WavepacketGrid.gaussian(sigma_p=sigma_p)


def test_fidelity_starts_at_one_both_modes():
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    grid = WavepacketGrid.gaussian()
    for mode in ("incoherent", "coherent"):
        curves = fidelity_curves(model, rf, grid, n_times=5, n_steps=400, mode=mode)
        assert curves.f_initial[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(curves.f_initial >= -1e-12) and np.all(curves.f_initial <= 1 + 1e-12)
        assert np.all(curves.f_final >= -1e-12) and np.all(curves.f_final <= 1 + 1e-12)


def test_reparametrization_identity():
    """Rescaled curves are the a=1 curves read at f(t); exact mathematics."""
    tau = 1.0
    model = IonTrapModel(tau=tau)
    grid = WavepacketGrid.gaussian(n_points=33)
    base_steps = 2000
    for a in (2.0, 4.0):
        rf = RescalingFunction(a=a, tau=tau)
        curves = fidelity_curves(model, rf, grid, n_times=9, n_steps=base_steps)
        for j, t in enumerate(curves.t):
            target = rf.f(float(t))
            if target <= 0.0:
                continue
            # evolve the a=1 dynamics exactly to f(t) as the oracle
            n_j = max(8, int(round(base_steps * target / tau)))
            ref = _fidelities_at(model, grid, target, n_j)
            assert curves.f_initial[j] == pytest.approx(ref[0], abs=1e-6)
            assert curves.f_final[j] == pytest.approx(ref[1], abs=1e-6)


def _fidelities_at(model, grid, t_end, n_steps):
    """Plain (a=1) evolution of the packet to t_end; used as oracle."""
    from dirac_rescale.iontrap import instantaneous_eigenstate
    from dirac_rescale.propagator import evolve_states

    h = build_demo_hamiltonian(model, grid.p)
    chi_i = instantaneous_eigenstate(model, grid.p, 0.0)
    chi_f = instantaneous_eigenstate(model, grid.p, model.tau)
    _, psis = evolve_states(h, 0.0, t_end, n_steps, chi_i, [n_steps])
    psi = psis[0]
    wg2 = grid.weights * np.abs(grid.envelope) ** 2
    fi = float(np.sum(wg2 * np.abs(np.einsum("mi,mi->m", psi.conj(), chi_i)) ** 2))
    ff = float(np.sum(wg2 * np.abs(np.einsum("mi,mi->m", psi.conj(), chi_f)) ** 2))
    return fi, ff


def test_grid_refinement_stability():
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    coarse = fidelity_curves(model, rf, WavepacketGrid.gaussian(n_points=129), n_times=5, n_steps=800)
    fine = fidelity_curves(model, rf, WavepacketGrid.gaussian(n_points=257), n_times=5, n_steps=800)
    assert np.max(np.abs(coarse.f_final - fine.f_final)) < 1e-6
    assert np.max(np.abs(coarse.f_initial - fine.f_initial)) < 1e-6


def test_adiabatic_baseline_tau10():
    model = IonTrapModel(tau=10.0)
    rf = RescalingFunction(a=1.0, tau=10.0)
    curves = fidelity_curves(model, rf, WavepacketGrid.gaussian(), n_times=3, n_steps=4000)
    assert curves.f_final[-1] >= 0.99


def test_degenerate_grid_mode_warning():
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=1.0, tau=1.0)
    grid = WavepacketGrid.gaussian(p0=1.0, sigma_p=0.01, n_points=17)
    with pytest.warns(RuntimeWarning):
        fidelity_curves(model, rf, grid, n_times=3, n_steps=50)


def test_norm_guard_catches_nan(monkeypatch):
    import dirac_rescale.iontrap as iontrap

    def nan_states(h, t0, t1, n_steps, psi0, sample, order=2):
        return np.zeros(len(sample)), np.full((len(sample),) + np.shape(psi0), np.nan, dtype=complex)

    monkeypatch.setattr(iontrap, "evolve_states", nan_states)
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    with pytest.raises(RuntimeError):
        fidelity_curves(model, rf, WavepacketGrid.gaussian(n_points=17), n_times=3, n_steps=50)


def test_tau_mismatch_rejected():
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=2.0)
    with pytest.raises(ValueError):
        fidelity_curves(model, rf, WavepacketGrid.gaussian(), n_times=3, n_steps=50)


@pytest.mark.parametrize("n_times", [0, 1])
def test_fidelity_rejects_too_few_times(n_times):
    # at least the start and the end of the window must be sampled
    model = IonTrapModel(tau=1.0)
    grid = WavepacketGrid.gaussian(p0=0.0, sigma_p=0.05, n_points=9)
    with pytest.raises(ValueError, match="n_times"):
        fidelity_curves(model, RescalingFunction(a=2.0, tau=1.0), grid, n_times=n_times, n_steps=50)


@pytest.mark.parametrize("n_times,n_steps", [(10, 4), (33, 31), (3, 1)])
def test_fidelity_rejects_more_samples_than_steps(n_times, n_steps):
    # each sample is a distinct step index in [0, n_steps]
    model = IonTrapModel(tau=1.0)
    grid = WavepacketGrid.gaussian(p0=0.0, sigma_p=0.05, n_points=9)
    with pytest.raises(ValueError, match="n_times"):
        fidelity_curves(model, RescalingFunction(a=2.0, tau=1.0), grid, n_times=n_times,
                        n_steps=n_steps)


@pytest.mark.parametrize("n_times,n_steps", [(5, 4), (2, 1)])
def test_fidelity_accepts_one_sample_per_step(n_times, n_steps):
    model = IonTrapModel(tau=1.0)
    grid = WavepacketGrid.gaussian(p0=0.0, sigma_p=0.05, n_points=9)
    curves = fidelity_curves(model, RescalingFunction(a=2.0, tau=1.0), grid, n_times=n_times,
                             n_steps=n_steps)
    assert curves.t.size == len(set(curves.t)) == n_times


def test_fidelity_order_4_matches_fine_reference():
    # CF4 at 256 steps is within 1e-10 of a fine run; the midpoint rule at 256 is not
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=4.0, tau=1.0)
    grid = WavepacketGrid.gaussian(n_points=33)
    reference = fidelity_curves(model, rf, grid, n_steps=8192, order=4)

    def error(n_steps, order):
        c = fidelity_curves(model, rf, grid, n_steps=n_steps, order=order)
        return max(np.max(np.abs(c.f_initial - reference.f_initial)),
                   np.max(np.abs(c.f_final - reference.f_final)))

    assert error(256, 4) < 1e-10 < 1e-7 < error(256, 2)


def test_fidelity_default_is_midpoint():
    # the library default (order 2) is the midpoint rule that wrote the
    # midpoint-era artifacts, bit for bit; CF4 is opt-in
    model = IonTrapModel(tau=1.0)
    rf = RescalingFunction(a=2.0, tau=1.0)
    grid = WavepacketGrid.gaussian(n_points=9)
    default = fidelity_curves(model, rf, grid, n_times=5, n_steps=400)
    midpoint = fidelity_curves(model, rf, grid, n_times=5, n_steps=400, order=2)
    cf4 = fidelity_curves(model, rf, grid, n_times=5, n_steps=400, order=4)
    for name in ("t", "f_initial", "f_final"):
        assert np.array_equal(getattr(default, name), getattr(midpoint, name))
    assert not np.array_equal(default.f_final, cf4.f_final)
