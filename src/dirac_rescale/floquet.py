"""Single-mode kicked-lattice Floquet machinery and pumping shortcuts.

The driven mode

    H_k(t) = 2J cos(k) sx + 2 lambda sin(k) cos(phi_y) sy
             + [V1 + V2 cos(Omega t)] cos(phi_z) sz

is T-periodic with T = 2 pi / Omega.  Its coefficients are written once, in
``_mode_terms``; each builder only chooses its quasimomenta: fixed ones
(``build_single_mode_h``, or one mode per value in
``scan_quasienergies``), the pumping loop's (``build_pumping_h``), or
fixed ones in the frame rotating with the drive
(``build_rotating_frame_h``).  Slow cyclic variation of the quasimomenta
(phi_y, phi_z) over a pumping period T0 >> T transports the mode around a
band feature; contracting that loop with a rescaling function reproduces
the same one-cycle Floquet operator on a window T0/a.

Energies and times are in units with hbar = 1, so a quasienergy is
-angle(eigenvalue)/T.  :func:`rescaled_floquet_equivalence` returns the
distance between the two one-cycle operators and leaves judging it to the
caller (the CLI's ``--tol``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .propagator import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PauliHamiltonian,
    _UNITARITY_TOL,
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
                stacklevel=3,  # the caller, past the dataclass-generated __init__
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
        x = self.ell * math.pi / self.V1 if self.V1 else math.inf
        if not abs(x) <= 1.0:
            raise ValueError(
                f"|ell*pi/V1| = {abs(x):.3f} is not at most 1; no band-touching angle exists"
            )
        return math.acos(x)


def build_single_mode_h(params: WeylModelParams) -> PauliHamiltonian:
    """The mode Hamiltonian at frozen quasimomenta; T-periodic in t."""
    return _frozen_mode_h(params, params.k, params.phi_y, params.phi_z)


def _mode_terms(params: WeylModelParams, k, phi_y, phi_z, t):
    """(d0, dx, dy, dz) of H_k(t) at the given quasimomenta, the one place they are written."""
    return (0.0, 2.0 * params.J * np.cos(k), 2.0 * params.lam * np.sin(k) * np.cos(phi_y),
            (params.V1 + params.V2 * np.cos(params.Omega * t)) * np.cos(phi_z))


def _frozen_mode_h(params: WeylModelParams, k, phi_y, phi_z) -> PauliHamiltonian:
    """Mode Hamiltonian at quasimomenta that may be arrays of modes (one trailing axis)."""
    modes = np.ndim(k) or np.ndim(phi_y) or np.ndim(phi_z)
    return PauliHamiltonian(
        lambda t: _mode_terms(params, k, phi_y, phi_z, t[..., None] if modes else t))


def build_rotating_frame_h(params: WeylModelParams) -> PauliHamiltonian:
    """Rotating-frame coefficients with alpha = V2 cos(phi_z) sin(Omega t)/Omega.

    The sx row mixes cos(2 alpha) and sin(2 alpha); the sy row repeats it
    with the hopping term negated; the sz row keeps V1 cos(phi_z).
    """
    V1, V2, Om, pz = params.V1, params.V2, params.Omega, params.phi_z
    # dx and dy do not depend on t
    _, dx, dy, _ = _mode_terms(params, params.k, params.phi_y, pz, 0.0)

    def terms(t):
        a2 = 2.0 * (V2 * np.cos(pz) * np.sin(Om * t) / Om)
        hop, kick = dx * np.cos(a2), dy * np.sin(a2)
        return 0.0, hop + kick, -hop + kick, V1 * np.cos(pz)

    return PauliHamiltonian(terms)


def pumping_path(params: WeylModelParams, t):
    """Loop (phi_y, phi_z) = (phi_y0 + r cos(theta), phi_z0 + r sin(theta)), theta = 2 pi t / T0."""
    theta = 2.0 * math.pi * np.asarray(t, dtype=float) / params.T0
    return params.phi_y0 + params.r * np.cos(theta), params.phi_z0 + params.r * np.sin(theta)


def build_pumping_h(params: WeylModelParams) -> PauliHamiltonian:
    """Mode Hamiltonian with the quasimomenta driven around the pumping loop."""
    return PauliHamiltonian(lambda t: _mode_terms(params, params.k, *pumping_path(params, t), t))


def floquet_operator(h: PauliHamiltonian, period: float, n_steps: int):
    """One-period time-ordered propagator U_F(period <- 0)."""
    return propagate(h, 0.0, period, n_steps)


def quasienergies(u_f, period: float):
    """Zone-reduced quasienergies of a Floquet operator, sorted ascending.

    E = i log(eigenvalue)/period reduced to (-pi/period, pi/period]; a tie
    exactly at the zone edge is reported as +pi/period.
    """
    u_f = np.asarray(u_f)
    if unitarity_defect(u_f) > _UNITARITY_TOL:
        raise ValueError("input operator is not unitary")
    lam = np.linalg.eigvals(u_f)
    edge = math.pi / period
    energies = -np.angle(lam) / period
    energies = np.where(energies == -edge, edge, energies)
    return np.sort(energies, axis=-1)


def scan_quasienergies(params: WeylModelParams, axis: str, values, n_steps: int) -> np.ndarray:
    """Quasienergies (n, 2) of the frozen mode with ``axis`` set to each of n values.

    ``axis`` is one of "k", "phi_y", "phi_z"; the values are zone-wrapped as
    the params would hold them.  All values share one propagation over the
    drive period, on a trailing mode axis, so each row is bitwise that of
    ``quasienergies(floquet_operator(build_single_mode_h(replace(params,
    axis=v)), ...))``.
    """
    if axis not in ("k", "phi_y", "phi_z"):
        raise ValueError(f"scan axis must be k, phi_y or phi_z, got {axis!r}")
    if not np.size(values):
        raise ValueError("values: a scan needs at least one value")
    angles = {"k": params.k, "phi_y": params.phi_y, "phi_z": params.phi_z}
    angles[axis] = _wrap_angle(np.atleast_1d(values))
    h = _frozen_mode_h(params, **angles)
    u = floquet_operator(h, params.T, n_steps)
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
    coefficients produces, and J_0(z) is taken as that average: the mean of
    cos(z sin(theta)) over N = 32 + 2 ceil(|z|) equally spaced drive phases,
    which the trapezoid rule gives to rounding for this periodic integrand.
    A non-finite z or |z| > 1e3 is refused.  The prefactor T0 is fixed once
    by matching the first-order term of the numeric operator (see
    :func:`calibrate_perturbative_prefactor`).
    """
    params.phi_l  # raises if the touching angle does not exist
    z = params.ell * params.c_ratio
    if not abs(z) <= 1e3:
        raise ValueError(f"|ell*V2/V1| = {abs(z):g} is not at most 1e3")
    theta = np.linspace(0.0, 2.0 * math.pi, 32 + 2 * math.ceil(abs(z)), endpoint=False)
    amp = np.mean(np.cos(z * np.sin(theta))) * params.T0
    kx = params.k - math.pi / 2.0
    ky = params.phi_y - math.pi / 2.0
    return IDENTITY2 + 1j * amp * (2.0 * params.J * kx * PAULI_X + 2.0 * params.lam * ky * PAULI_Y)


def calibrate_perturbative_prefactor(params: WeylModelParams) -> float:
    """Prefactor in front of J_0(ell c) matched against the numeric operator.

    Shrinks the hopping amplitudes by 1e-3 so the first-order term
    dominates, evolves the touching-point Hamiltonian over one pumping
    period in 20000 steps and returns T0 times the ratio of the sx
    components of (U - I)/i in that operator and in
    :func:`perturbative_floquet`.  ``ValueError`` if the latter's sx term,
    2J k_x J_0(ell c) T0, is 0 (k = pi/2 or J = 0): there is nothing to match.
    """
    def sx(u):
        return 0.5 * np.real(np.trace(PAULI_X @ ((u - IDENTITY2) / 1j)))

    small = replace(params, J=params.J * 1e-3, lam=params.lam * 1e-3)
    sx_pert = sx(perturbative_floquet(small))
    if sx_pert == 0.0:
        raise ValueError(f"the perturbative sx term 2J k_x J_0(ell c) T0 is 0 at "
                         f"k_x = k - pi/2 = {small.k - math.pi / 2.0:g}, J = {params.J:g}")
    h = linearized_h_near_touching(small, include_offset=False, freeze_kz=True)
    return float(small.T0 * sx(propagate(h, 0.0, small.T0, 20000)) / sx_pert)


def linearized_h_near_touching(params: WeylModelParams,
                               include_offset: bool = True,
                               freeze_kz: bool = False) -> PauliHamiltonian:
    """First-order expansion of the driven mode around the touching point,

        [-2J k_x cos(g) - 2 lam k_y sin(g)] sx
        + [2J k_x sin(g) - 2 lam k_y cos(g)] sy
        + [ell pi - V1 k_z sin(phi_l)] sz ,

    with g(t) = ell c sin(Omega t), k_x = k - pi/2, k_y = phi_y - pi/2
    and k_z = phi_z - phi_l.  ``include_offset=False`` drops the constant
    ell*pi rest term (the quasienergy offset already resummed into the
    oscillating coefficients), which is the frame in which the dispersion
    slopes (2J, 2lam, V1 sin(phi_l)) appear; ``freeze_kz`` zeroes k_z.
    Its contracted form is ``time_rescaled(h, rf)``.
    """
    phi_l = params.phi_l
    kx = params.k - math.pi / 2.0
    ky = params.phi_y - math.pi / 2.0
    kz = 0.0 if freeze_kz else params.phi_z - phi_l
    z = params.ell * params.c_ratio
    J, lam, V1, Om = params.J, params.lam, params.V1, params.Omega
    offset = params.ell * math.pi if include_offset else 0.0
    rest = offset - V1 * kz * math.sin(phi_l)

    def terms(t):
        g = z * np.sin(Om * t)
        return (0.0,
                -2.0 * J * kx * np.cos(g) - 2.0 * lam * ky * np.sin(g),
                2.0 * J * kx * np.sin(g) - 2.0 * lam * ky * np.cos(g),
                rest)

    return PauliHamiltonian(terms)


def rescaled_floquet_equivalence(h: PauliHamiltonian, rf: RescalingFunction,
                                 n_steps: int) -> float:
    """Operator-norm distance between U_F(tau <- 0) and the contracted run.

    The rescaling must be built with tau equal to the Floquet period under
    test; the deviation vanishes as the fourth power of the step size.
    """
    u_orig = propagate(h, 0.0, rf.tau, n_steps)
    u_resc = rescaled_propagate(h, rf, n_steps)
    return float(np.linalg.norm(u_resc - u_orig, 2))
