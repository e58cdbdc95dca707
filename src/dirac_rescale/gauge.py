"""Frame transformation that trades rescaled mass/velocity for potentials.

The substituted Hamiltonian df*H(f) carries an effective velocity df*c and
rest energy df*m*c^2.  The rotation angle phi(t) with cos(2 phi) = 1/df
defines a time-dependent unitary built from exp(i phi sx) that restores a
constant rest energy; what remains is a shifted kinetic coefficient (an
inertial, momentum-dependent vector potential) plus a pseudoscalar sy term
with coefficient m c^2 sqrt(df^2 - 1).

Convention used throughout: with the frame unitary K(t) = exp(-i phi(t) sx),
a solution of the substituted dynamics factorizes as psi_tilde = K * phi_sol
where phi_sol evolves under

    h = K^dag (df H(f)) K - i K^dag dK/dt   (hbar = 1) .

This pairing makes the sy coefficient come out positive, at the price of a
minus sign on the inertial dphi/dt term inside the sx coefficient (the two
signs cannot both be positive for any single rotation axis; flipping the
sign of phi everywhere gives the mirrored, equally valid frame).

:func:`gauge_equivalence_check` measures how far the two frames disagree
and returns that measurement; judging it against a tolerance is the
caller's choice (the CLI's ``--tol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .propagator import (
    PauliHamiltonian,
    _align_tail,
    propagate_sampled,
    time_rescaled,
)
from .rescaling import RescalingFunction, require_boundary

__all__ = [
    "GaugeFrame",
    "phi_of_t",
    "phi_dot",
    "K_matrix",
    "frame_unitary",
    "frak_vector_potential",
    "transformed_hamiltonian",
    "gauge_equivalence_check",
]

#: df - 1 below which the inertial term switches to its series limit
_ENDPOINT_EPS = 1e-12


@dataclass(frozen=True)
class GaugeFrame:
    """Rotation-frame data for one rescaling: angle phi(t) with cos(2 phi) = 1/df."""

    rf: RescalingFunction
    c: float = 1.0


def phi_of_t(frame: GaugeFrame, t):
    """Principal angle 0.5*arccos(1/df(t)) in [0, pi/4)."""
    fd = np.asarray(frame.rf.df(t), dtype=float)
    if np.any(fd < 1.0 - 1e-12):
        raise ValueError("df < 1: not a valid contraction at this time")
    out = 0.5 * np.arccos(np.clip(1.0 / fd, -1.0, 1.0))
    return float(out) if out.ndim == 0 else out


def phi_dot(frame: GaugeFrame, t):
    """d(phi)/dt = d2f / (2 df sqrt(df^2 - 1)), with its finite endpoint limit.

    Where df = 1 the quotient is 0/0; the series limit is +sqrt(d3f)/2 when
    entering the window and -sqrt(d3f)/2 when leaving it.
    """
    rf = frame.rf
    t_arr = np.asarray(t, dtype=float)
    fd = np.asarray(rf.df(t_arr), dtype=float)
    f2 = np.asarray(rf.d2f(t_arr), dtype=float)
    g = fd * fd - 1.0
    regular = fd - 1.0 > _ENDPOINT_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(regular, f2 / (2.0 * fd * np.sqrt(np.where(regular, g, 1.0))), 0.0)
    if not np.all(regular):
        f3 = np.asarray(rf.d3f(t_arr), dtype=float)
        sign = np.where(t_arr <= 0.5 * rf.horizon, 1.0, -1.0)
        limit = sign * 0.5 * np.sqrt(np.maximum(f3, 0.0))
        val = np.where(regular, val, limit)
    return float(val) if val.ndim == 0 else val


def K_matrix(phi):
    """cos(phi) I + i sin(phi) sx; unitary for any phi, K(0) = I."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.cos(phi)
    out[..., 1, 1] = np.cos(phi)
    out[..., 0, 1] = 1j * np.sin(phi)
    out[..., 1, 0] = 1j * np.sin(phi)
    return out


def frame_unitary(frame: GaugeFrame, t):
    """The frame rotation K(t) = K_matrix(-phi(t)) used in psi_tilde = K phi."""
    return K_matrix(-np.asarray(phi_of_t(frame, t)))


def frak_vector_potential(frame: GaugeFrame, vector_potential: Callable, t, p):
    """Momentum-mode vector potential absorbing the rescaled kinetic shift,

        df*A(f) + (df - 1)*c*p + d2f / (2 df sqrt(df^2 - 1)) ,

    the last term being dphi/dt (finite endpoint limit included).
    """
    rf = frame.rf
    fd = np.asarray(rf.df(t), dtype=float)
    a_resc = fd * np.asarray(vector_potential(rf.f(t)), dtype=float)
    out = a_resc + (fd - 1.0) * frame.c * np.asarray(p, dtype=float) + phi_dot(frame, t)
    return float(out) if np.ndim(out) == 0 else out


def transformed_hamiltonian(frame: GaugeFrame, model: PauliHamiltonian) -> PauliHamiltonian:
    """Coefficients of h = K^dag (df H(f)) K - i K^dag dK/dt.

    For a model d0*I + dx*sx + dz*sz this gives
        d0 -> df*d0(f)          dx -> df*dx(f) - dphi/dt
        dz -> dz(f)             dy -> dz(f)*sqrt(df^2 - 1)
    so a constant rest-energy dz stays constant and the sy (pseudoscalar)
    coefficient is +m c^2 sqrt(df^2 - 1).  A nonzero model dy rotates into
    dz in the same way.
    """
    rf = frame.rf

    def terms(t):
        z0, zx, zy, zz = model.coeffs(rf.f(t))
        fd = _align_tail(rf.df(t), z0)
        # df*cos(2 phi) = 1 and df*sin(2 phi) = sqrt(df^2 - 1)
        sin2phi_scaled = np.sqrt(np.maximum(fd * fd - 1.0, 0.0))
        inertial = _align_tail(phi_dot(frame, t), z0)
        return (fd * z0, fd * zx - inertial,
                zy + sin2phi_scaled * zz, zz - sin2phi_scaled * zy)

    return PauliHamiltonian(terms)


@dataclass(frozen=True)
class GaugeEquivalenceResult:
    momenta: np.ndarray
    sample_times: np.ndarray
    deviations: np.ndarray  # (n_p, n_times) operator-norm mismatches
    max_deviation: float


def gauge_equivalence_check(
    model_for_momentum: Callable[[np.ndarray], PauliHamiltonian],
    rf: RescalingFunction,
    p_list: Sequence[float],
    n_steps: int = 4000,
    n_check: int = 9,
    order: int = 2,
) -> GaugeEquivalenceResult:
    """Propagate both frames and measure the mismatch of U_tilde(t) = K(t) U_frame(t).

    ``model_for_momentum`` receives the momenta as one array (n_p,) and
    returns a Hamiltonian with a trailing mode axis of that length (e.g.
    :func:`~dirac_rescale.iontrap.build_demo_hamiltonian`).  Both frames
    share the window [0, tau/a], so they are stacked on one axis before the
    modes and propagated together; the propagator is batch-invariant, so
    each momentum's result is bitwise that of a run on its own.

    The check is operator-level (valid for every initial state at once) and
    uses two independent propagations as mutual oracle.  ``n_check`` samples
    fall on steps round(j * n_steps / (n_check - 1)), so at most n_steps + 1
    are allowed.
    """
    if not 1 <= n_check <= n_steps + 1:
        raise ValueError(f"n_check must be in [1, n_steps + 1 = {n_steps + 1}], got {n_check}")
    require_boundary(rf)
    frame = GaugeFrame(rf=rf)
    sample = [int(round(j * n_steps / (n_check - 1))) for j in range(n_check)] if n_check > 1 else [n_steps]
    p_arr = np.asarray(list(p_list), dtype=float)
    h = model_for_momentum(p_arr)
    h_tilde = time_rescaled(h, rf)
    h_frak = transformed_hamiltonian(frame, h)
    # coefficients (..., frame, mode): the substituted run first, the rotated frame second
    h_both = PauliHamiltonian(lambda t: tuple(
        np.stack(pair, axis=-2) for pair in zip(h_tilde.coeffs(t), h_frak.coeffs(t))))
    times, us = propagate_sampled(h_both, 0.0, rf.horizon, n_steps, sample, order=order)
    mismatch = us[:, 0] - frame_unitary(frame, times)[:, None] @ us[:, 1]
    devs = np.linalg.norm(mismatch, ord=2, axis=(-2, -1)).T
    return GaugeEquivalenceResult(
        momenta=p_arr,
        sample_times=times,
        deviations=devs,
        max_deviation=float(devs.max()),
    )
