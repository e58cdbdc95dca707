"""Ion-trap two-level ramp and its time-rescaled fidelity experiment.

In instantaneous units the per-mode Hamiltonian is

    H(p, t) = [p - sin^2(pi t / 2 tau)] sx + cos^2(pi t / 2 tau) sz ,

whose gap closes only at p = 1, t = tau.  A Gaussian momentum packet is
prepared mode-by-mode in the upper instantaneous eigenstate and propagated
under df(s) H(p, f(s)); fidelity curves against the initial and final
eigenstates reproduce the contracted-window shortcut: the t-axis of the
rescaled run is exactly the original curve read at f(t).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .propagator import (PauliHamiltonian, _even_sample_steps, evolve_states, norm_defect,
                         time_rescaled)
from .rescaling import RescalingFunction

__all__ = [
    "IonTrapModel",
    "PhysicalTrapParams",
    "WavepacketGrid",
    "build_demo_hamiltonian",
    "physical_units_map",
    "instantaneous_eigenstate",
    "fidelity_curves",
    "FidelityCurves",
]

#: both |p - A| and the gap below this means the mode sits on the closure point
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class IonTrapModel:
    """Ramp A(t) = sin^2(pi t/2 tau), gap(t) = cos^2(pi t/2 tau); A + gap = 1."""

    tau: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")

    def vector_potential(self, t):
        return np.sin(np.pi * np.asarray(t, dtype=float) / (2.0 * self.tau)) ** 2

    def gap(self, t):
        return np.cos(np.pi * np.asarray(t, dtype=float) / (2.0 * self.tau)) ** 2


@dataclass(frozen=True)
class PhysicalTrapParams:
    """Laboratory knobs behind the instantaneous units.

    eta is the Lamb-Dicke parameter, Delta the ground-state width of the
    confining trap, gamma(t) the laser coupling strength and omega(t) the
    detuning.
    """

    eta: float
    Delta: float
    gamma: Callable
    omega: Callable
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("eta", "Delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def physical_units_map(params: PhysicalTrapParams, t):
    """(effective velocity, rest energy) = (2 eta Delta gamma(t), hbar omega(t))."""
    c_eff = 2.0 * params.eta * params.Delta * np.asarray(params.gamma(t), dtype=float)
    rest = params.hbar * np.asarray(params.omega(t), dtype=float)
    return c_eff, rest


def build_demo_hamiltonian(model: IonTrapModel, p) -> PauliHamiltonian:
    """Per-mode Hamiltonian (p - A(t)) sx + gap(t) sz; p may be an array of modes."""
    p_arr = np.asarray(p, dtype=float)

    def terms(t):
        t = t[..., None] if p_arr.ndim else t
        return 0.0, p_arr - model.vector_potential(t), 0.0, model.gap(t)

    return PauliHamiltonian(terms)


def instantaneous_eigenstate(model: IonTrapModel, p, t, branch: int = +1):
    """Normalized eigenstate (cos(theta/2), sin(theta/2)) of H(p, t).

    branch +1 follows the upper (+|d|) eigenvalue from theta0 = atan2(p, 1);
    branch -1 is the orthogonal lower state.  The gap stays nonnegative for
    the whole ramp, so atan2 itself tracks theta continuously.  dx and dz
    are read from :func:`build_demo_hamiltonian`'s coefficients, so an
    array t with an array p gives the (time, mode) grid.
    """
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    _, dx, _, dz = build_demo_hamiltonian(model, p).coeffs(t)
    if np.any((np.abs(dx) < DEGENERACY_EPS) & (np.abs(dz) < DEGENERACY_EPS)):
        warnings.warn(
            "mode sits on the gap-closure point (p = 1, t = tau); "
            "eigenstate direction is undefined there",
            RuntimeWarning,
            stacklevel=2,
        )
    theta = np.arctan2(dx, dz)
    if branch == +1:
        comp = np.stack([np.cos(theta / 2.0), np.sin(theta / 2.0)], axis=-1)
    else:
        comp = np.stack([-np.sin(theta / 2.0), np.cos(theta / 2.0)], axis=-1)
    return comp.astype(complex)


@dataclass(frozen=True, eq=False)
class WavepacketGrid:
    """Momentum samples, trapezoidal weights and a normalized envelope."""

    p: np.ndarray
    weights: np.ndarray
    envelope: np.ndarray

    @classmethod
    def gaussian(cls, p0: float = 0.0, sigma_p: float = 0.05,
                 n_points: int = 129) -> "WavepacketGrid":
        """Gaussian packet truncated at p0 +/- 6 sigma_p on a symmetric grid."""
        if n_points < 3:
            raise ValueError("need at least 3 momentum samples")
        # a packet too wide or too narrow for float range leaves NaN or 0 in
        # ``total`` (float64 powers overflow to inf where Python floats raise)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p = np.linspace(p0 - 6.0 * sigma_p, p0 + 6.0 * sigma_p, n_points)
            dp = p[1] - p[0]
            w = np.full(n_points, dp)
            w[0] *= 0.5
            w[-1] *= 0.5
            g = np.exp(-((p - p0) ** 2) / (4.0 * np.float64(sigma_p) ** 2)).astype(complex)
            total = float(np.sum(w * np.abs(g) ** 2))
        if not total >= 1e-12:
            raise ValueError(f"p0 = {p0!r}, sigma_p = {sigma_p!r} give no normalisable "
                             f"packet (envelope weight {total!r})")
        g /= np.sqrt(total)
        return cls(p=p, weights=w, envelope=g)

    @property
    def quadrature_norm(self) -> float:
        return float(np.sum(self.weights * np.abs(self.envelope) ** 2))


@dataclass(frozen=True, eq=False)
class FidelityCurves:
    """Sampled fidelity trajectories of one rescaled run."""

    t: np.ndarray
    f_initial: np.ndarray
    f_final: np.ndarray


def fidelity_curves(model: IonTrapModel, rf: RescalingFunction, grid: WavepacketGrid,
                    n_times: int = 33, n_steps: int = 4000,
                    mode: str = "incoherent") -> FidelityCurves:
    """Fidelity of the evolving packet against initial and target eigenstates.

    Per mode p the state starts in the upper instantaneous eigenstate and
    evolves under df(s) H(p, f(s)) on [0, tau/a].  The target is the
    adiabatic continuation of that branch to t = tau.  "incoherent" averages
    per-mode overlap probabilities with weight w |g|^2; "coherent" squares
    the weighted overlap amplitude (normalized so F_initial(0) = 1).
    """
    if mode not in ("incoherent", "coherent"):
        raise ValueError(f"unknown fidelity mode {mode!r}")
    sample = _even_sample_steps("n_times", n_times, n_steps, 2)
    if abs(grid.quadrature_norm - 1.0) > 1e-10:
        raise ValueError("wavepacket grid is not normalized")
    if model.tau != rf.tau:
        raise ValueError("rescaling horizon must target the model duration tau")
    # the ramp's gap closes at p = A(tau) = 1
    if np.any(np.abs(grid.p - 1.0) < 1e-6):
        warnings.warn(
            "grid contains modes within 1e-6 of the gap-closure momentum p = 1",
            RuntimeWarning,
            stacklevel=2,
        )

    h_resc = time_rescaled(build_demo_hamiltonian(model, grid.p), rf)
    chi_i = instantaneous_eigenstate(model, grid.p, 0.0)
    chi_f = instantaneous_eigenstate(model, grid.p, model.tau)

    times, psis = evolve_states(h_resc, 0.0, rf.horizon, n_steps, chi_i, sample)
    if not norm_defect(psis) <= 1e-10:
        raise RuntimeError("per-mode norm drifted beyond 1e-10 during evolution")

    wg2 = grid.weights * np.abs(grid.envelope) ** 2
    ov_i = np.einsum("kmi,mi->km", psis.conj(), chi_i)
    ov_f = np.einsum("kmi,mi->km", psis.conj(), chi_f)
    if mode == "incoherent":
        f_i = np.einsum("m,km->k", wg2, np.abs(ov_i) ** 2)
        f_f = np.einsum("m,km->k", wg2, np.abs(ov_f) ** 2)
    else:
        f_i = np.abs(np.einsum("m,km->k", wg2, ov_i)) ** 2
        f_f = np.abs(np.einsum("m,km->k", wg2, ov_f)) ** 2
    return FidelityCurves(t=times, f_initial=f_i, f_final=f_f)
