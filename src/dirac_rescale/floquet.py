"""Single-mode kicked-lattice Floquet machinery and pumping shortcuts.

The driven mode

    H_k(t) = 2J cos(k) sx + 2 lambda sin(k) cos(phi_y) sy
             + [V1 + V2 cos(Omega t)] cos(phi_z) sz

is T-periodic with T = 2 pi / Omega.  Slow cyclic variation of the
quasimomenta (phi_y, phi_z) over a pumping period T0 >> T transports the
mode around a band feature; contracting that loop with a rescaling function
reproduces the same one-cycle Floquet operator on a window T0/a.

Energies and times are in units with hbar = 1, so a quasienergy is
-angle(eigenvalue)/T.  :func:`rescaled_floquet_equivalence` returns the
distance between the two one-cycle operators and leaves judging it to the
caller (the CLI's ``--tol``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .propagator import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PauliHamiltonian,
    propagate,
    rescaled_propagate,
    unitarity_defect,
)
from .rescaling import RescalingFunction

__all__ = [
    "WeylModelParams",
    "build_single_mode_h",
    "build_rotating_frame_h",
    "build_pumping_h",
    "pumping_path",
    "floquet_operator",
    "quasienergies",
    "scan_quasienergies",
    "quasienergy_gap",
    "perturbative_floquet",
    "calibrate_perturbative_prefactor",
    "linearized_h_near_touching",
    "rescaled_floquet_equivalence",
]

#: below this pumping-to-drive period ratio adiabatic transport is doubtful
MIN_PUMPING_RATIO = 50.0


def _wrap_angle(x):
    """Reduce to the quasimomentum zone (-pi, pi], elementwise (exact fmod)."""
    y = np.fmod(np.asarray(x, dtype=float) + math.pi, 2.0 * math.pi)
    out = np.where(y <= 0.0, y + 2.0 * math.pi, y) - math.pi
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WeylModelParams:
    """Hopping/drive parameters of one lattice mode plus the pumping loop."""

    J: float = 0.2
    lam: float = 0.15
    V1: float = 2.0 * math.pi
    V2: float = 0.4 * math.pi
    Omega: float = 2.0 * math.pi
    k: float = math.pi / 2
    phi_y: float = math.pi / 2
    phi_z: float = 1.0
    ell: int = 1
    T0: float = 50.0
    r: float = 0.3
    phi_y0: float = math.pi / 2
    phi_z0: float = 1.0

    def __post_init__(self):
        if not self.Omega > 0:
            raise ValueError("Omega must be positive")
        if not self.T0 > 0:
            raise ValueError("T0 must be positive")
        for name in ("k", "phi_y", "phi_z"):
            object.__setattr__(self, name, _wrap_angle(getattr(self, name)))
        if self.T0 / self.T < MIN_PUMPING_RATIO:
            warnings.warn(
                f"pumping period T0 = {self.T0:g} is below {MIN_PUMPING_RATIO:g} drive "
                f"periods (T = {self.T:g}); transport may not be adiabatic",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def T(self) -> float:
        """Drive period 2 pi / Omega."""
        return 2.0 * math.pi / self.Omega

    @property
    def c_ratio(self) -> float:
        """Drive-to-onsite ratio V2 / V1."""
        return self.V2 / self.V1

    @property
    def phi_l(self) -> float:
        """Touching-point quasimomentum arccos(ell*pi / V1)."""
        x = self.ell * math.pi / self.V1
        if abs(x) > 1.0:
            raise ValueError(
                f"|ell*pi/V1| = {abs(x):.3f} > 1; no band-touching angle exists"
            )
        return math.acos(x)


def build_single_mode_h(params: WeylModelParams) -> PauliHamiltonian:
    """The mode Hamiltonian at frozen quasimomenta; T-periodic in t."""
    return _frozen_mode_h(params, params.k, params.phi_y, params.phi_z)


def _frozen_mode_h(params: WeylModelParams, k, phi_y, phi_z) -> PauliHamiltonian:
    """Mode Hamiltonian at quasimomenta that may be arrays of modes (one trailing axis)."""
    J, lam, V1, V2, Om = params.J, params.lam, params.V1, params.V2, params.Omega
    dx = 2.0 * J * np.cos(k)
    dy = 2.0 * lam * np.sin(k) * np.cos(phi_y)
    cz = np.cos(phi_z)
    modes = np.ndim(dx) or np.ndim(dy) or np.ndim(cz)

    def terms(t):
        t = t[..., None] if modes else t
        return 0.0, dx, dy, (V1 + V2 * np.cos(Om * t)) * cz

    return PauliHamiltonian(terms)


def build_rotating_frame_h(params: WeylModelParams,
                           phi_y: Callable | None = None,
                           phi_z: Callable | None = None) -> PauliHamiltonian:
    """Rotating-frame coefficients with alpha = V2 cos(phi_z(t)) sin(Omega t)/Omega.

    The sx row mixes cos(2 alpha) and sin(2 alpha); the sy row repeats it
    with the hopping term negated; the sz row keeps V1 cos(phi_z).
    """
    J, lam, V1, V2, Om = params.J, params.lam, params.V1, params.V2, params.Omega
    k = params.k

    def terms(t):
        py = params.phi_y if phi_y is None else phi_y(t)
        pz = params.phi_z if phi_z is None else phi_z(t)
        a2 = 2.0 * (V2 * np.cos(pz) * np.sin(Om * t) / Om)
        hop = 2.0 * J * np.cos(k) * np.cos(a2)
        kick = 2.0 * lam * np.sin(k) * np.cos(py) * np.sin(a2)
        return 0.0, hop + kick, -hop + kick, V1 * np.cos(pz)

    return PauliHamiltonian(terms)


def pumping_path(params: WeylModelParams, t):
    """Loop (phi_y, phi_z) = (phi_y0 + r cos(theta), phi_z0 + r sin(theta)), theta = 2 pi t / T0."""
    theta = 2.0 * math.pi * np.asarray(t, dtype=float) / params.T0
    return params.phi_y0 + params.r * np.cos(theta), params.phi_z0 + params.r * np.sin(theta)


def build_pumping_h(params: WeylModelParams) -> PauliHamiltonian:
    """Mode Hamiltonian with the quasimomenta driven around the pumping loop."""
    J, lam, V1, V2, Om = params.J, params.lam, params.V1, params.V2, params.Omega
    k = params.k
    dx = 2.0 * J * np.cos(k)

    def terms(t):
        py, pz = pumping_path(params, t)
        return 0.0, dx, 2.0 * lam * np.sin(k) * np.cos(py), (V1 + V2 * np.cos(Om * t)) * np.cos(pz)

    return PauliHamiltonian(terms)


def floquet_operator(h: PauliHamiltonian, period: float, n_steps: int, order: int = 2):
    """One-period time-ordered propagator U_F(period <- 0)."""
    return propagate(h, 0.0, period, n_steps, order=order)


def quasienergies(u_f, period: float):
    """Zone-reduced quasienergies of a Floquet operator, sorted ascending.

    E = i log(eigenvalue)/period reduced to (-pi/period, pi/period]; a tie
    exactly at the zone edge is reported as +pi/period.
    """
    u_f = np.asarray(u_f)
    if unitarity_defect(u_f) > 1e-8:
        raise ValueError("input operator is not unitary")
    lam = np.linalg.eigvals(u_f)
    edge = math.pi / period
    energies = -np.angle(lam) / period
    energies = np.where(energies == -edge, edge, energies)
    return np.sort(energies, axis=-1)


def scan_quasienergies(params: WeylModelParams, axis: str, values, n_steps: int,
                       order: int = 2) -> np.ndarray:
    """Quasienergies (n, 2) of the frozen mode with ``axis`` set to each of n values.

    ``axis`` is one of "k", "phi_y", "phi_z"; the values are zone-wrapped as
    the params would hold them.  All values share one propagation over the
    drive period, on a trailing mode axis, so each row is bitwise that of
    ``quasienergies(floquet_operator(build_single_mode_h(replace(params,
    axis=v)), ...))``.
    """
    if axis not in ("k", "phi_y", "phi_z"):
        raise ValueError(f"scan axis must be k, phi_y or phi_z, got {axis!r}")
    angles = {"k": params.k, "phi_y": params.phi_y, "phi_z": params.phi_z}
    angles[axis] = _wrap_angle(np.atleast_1d(values))
    h = _frozen_mode_h(params, **angles)
    u = floquet_operator(h, params.T, n_steps, order=order)
    return quasienergies(u, params.T)


def quasienergy_gap(u_f, period: float) -> float:
    """Distance of the two quasienergies on the Floquet-zone circle."""
    e1, e2 = quasienergies(u_f, period)
    zone = 2.0 * math.pi / period
    d = abs(e2 - e1) % zone
    return float(min(d, zone - d))


def perturbative_floquet(params: WeylModelParams):
    """First-order pumping-cycle operator near the touching point,

        I + i (2J k_x sx + 2 lambda k_y sy) * J_0(ell c) * T0 ,

    with k_x = k - pi/2, k_y = phi_y - pi/2 and c = V2/V1.  The Bessel order
    is 0, which is what the drive-period average of the linearized
    coefficients produces; the prefactor T0 is fixed once by matching
    the first-order term of the numeric operator (see
    :func:`calibrate_perturbative_prefactor`).
    """
    from scipy.special import jv  # here, not at module level: keeps scipy off the CLI's import path

    params.phi_l  # raises if the touching angle does not exist
    kx = params.k - math.pi / 2.0
    ky = params.phi_y - math.pi / 2.0
    amp = jv(0, params.ell * params.c_ratio) * params.T0
    return IDENTITY2 + 1j * amp * (2.0 * params.J * kx * PAULI_X + 2.0 * params.lam * ky * PAULI_Y)


def calibrate_perturbative_prefactor(params: WeylModelParams, n_steps: int = 20000,
                                     scale: float = 1e-3) -> float:
    """Prefactor in front of J_0(ell c) matched against the numeric operator.

    Shrinks the hopping amplitudes by ``scale`` so the first-order term
    dominates, evolves the touching-point Hamiltonian over one pumping
    period and reads the sx component of (U - I)/i.
    """
    from scipy.special import jv

    small = replace(params, J=params.J * scale, lam=params.lam * scale)
    h = linearized_h_near_touching(small, include_offset=False, freeze_kz=True)
    u = propagate(h, 0.0, small.T0, n_steps)
    kx = small.k - math.pi / 2.0
    first_order = (u - IDENTITY2) / 1j
    sx_part = 0.5 * np.real(np.trace(PAULI_X @ first_order))
    j0 = jv(0, small.ell * small.c_ratio)
    return float(sx_part / (2.0 * small.J * kx * j0))


def linearized_h_near_touching(params: WeylModelParams,
                               rf: RescalingFunction | None = None,
                               include_offset: bool = True,
                               freeze_kz: bool = False) -> PauliHamiltonian:
    """First-order expansion of the driven mode around the touching point,

        df(t) * { [-2J k_x cos(g) - 2 lam k_y sin(g)] sx
                  + [2J k_x sin(g) - 2 lam k_y cos(g)] sy
                  + [ell pi - V1 k_z sin(phi_l)] sz } ,

    with g(t) = ell c sin(Omega f(t)), k_x = k - pi/2, k_y = phi_y - pi/2
    and k_z = phi_z - phi_l.  ``include_offset=False`` drops the constant
    ell*pi rest term (the quasienergy offset already resummed into the
    oscillating coefficients), which is the frame in which the dispersion
    slopes (2J, 2lam, V1 sin(phi_l)) appear; ``freeze_kz`` zeroes k_z.
    """
    if rf is None:
        rf = RescalingFunction.identity(tau=params.T0)
    phi_l = params.phi_l
    kx = params.k - math.pi / 2.0
    ky = params.phi_y - math.pi / 2.0
    kz = 0.0 if freeze_kz else params.phi_z - phi_l
    z = params.ell * params.c_ratio
    J, lam, V1, Om = params.J, params.lam, params.V1, params.Omega
    offset = params.ell * math.pi if include_offset else 0.0
    rest = offset - V1 * kz * math.sin(phi_l)

    def terms(t):
        fd = rf.df(t)
        g = z * np.sin(Om * rf.f(t))
        return (0.0,
                fd * (-2.0 * J * kx * np.cos(g) - 2.0 * lam * ky * np.sin(g)),
                fd * (2.0 * J * kx * np.sin(g) - 2.0 * lam * ky * np.cos(g)),
                fd * rest)

    return PauliHamiltonian(terms)


def rescaled_floquet_equivalence(h: PauliHamiltonian, rf: RescalingFunction,
                                 n_steps: int, order: int = 2) -> float:
    """Operator-norm distance between U_F(tau <- 0) and the contracted run.

    The rescaling must be built with tau equal to the Floquet period under
    test; the deviation vanishes at the stepper's order in the step size.
    """
    u_orig = propagate(h, 0.0, rf.tau, n_steps, order=order)
    u_resc = rescaled_propagate(h, rf, n_steps, order=order)
    return float(np.linalg.norm(u_resc - u_orig, 2))
