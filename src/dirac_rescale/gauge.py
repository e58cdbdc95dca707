"""Frame transformation that trades rescaled mass/velocity for potentials.

The substituted Hamiltonian df*H(f) carries an effective velocity df and
rest energy df*m (c = 1, as hbar = 1).  The rotation angle phi(t) with
cos(2 phi) = 1/df comes from the rescaling alone, so every function here
takes the RescalingFunction itself; it defines a time-dependent unitary
built from exp(i phi sx) that restores a constant rest energy.  What remains
is a shifted kinetic coefficient (an inertial, momentum-dependent vector
potential) plus a pseudoscalar sy term with coefficient m sqrt(df^2 - 1).
phi and dphi/dt come from half the rescaling's phase, omega t / 2, so they
are accurate to rounding up to the window's edges.

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
from typing import Callable

import numpy as np

from .propagator import (
    PauliHamiltonian,
    _align_tail,
    _even_sample_steps,
    _to_matrix,
    propagate_sampled,
    time_rescaled,
)
from .rescaling import RescalingFunction

__all__ = [
    "phi_of_t",
    "phi_dot",
    "K_matrix",
    "frame_unitary",
    "frak_vector_potential",
    "transformed_hamiltonian",
    "gauge_equivalence_check",
]


def _frame_angle(rf: RescalingFunction, t):
    """(df, df sin 2phi, dphi/dt) from theta = omega t / 2, which runs over [0, pi].

    As df - 1 = 2 (a - 1) sin^2 theta, sqrt(df^2 - 1) = sqrt(2 (a - 1) (df + 1)) sin theta
    and d2f / (2 df sqrt(df^2 - 1)) = sqrt((a - 1)/2) omega cos theta / (df sqrt(df + 1)).
    The right-hand forms cancel nothing: they hold to rounding up to the window's edges,
    where the left-hand ones are 0/0.  A time in the slack is taken at the end.
    """
    fd = rf.df(t)
    theta = 0.5 * rf.omega * np.clip(t, 0.0, rf.horizon)
    half, root = np.sqrt(0.5 * (rf.a - 1.0)), np.sqrt(fd + 1.0)
    return fd, 2.0 * half * root * np.sin(theta), half * rf.omega * np.cos(theta) / (fd * root)


def phi_of_t(rf: RescalingFunction, t):
    """Principal angle phi in [0, pi/4) with cos(2 phi) = 1/df(t)."""
    return 0.5 * np.arctan(_frame_angle(rf, t)[1])


def phi_dot(rf: RescalingFunction, t):
    """d(phi)/dt = d2f / (2 df sqrt(df^2 - 1)), finite at the window's edges."""
    return _frame_angle(rf, t)[2]


def K_matrix(phi):
    """cos(phi) I + i sin(phi) sx, the SU(2) record (cos phi, -sin phi, 0, 0) at zero
    phase as a matrix; unitary for any phi, K(0) = I."""
    return _to_matrix((np.cos(phi), -np.sin(phi), 0.0, 0.0, 0.0))


def frame_unitary(rf: RescalingFunction, t):
    """The frame rotation K(t) = K_matrix(-phi(t)) used in psi_tilde = K phi."""
    return K_matrix(-np.asarray(phi_of_t(rf, t)))


def frak_vector_potential(rf: RescalingFunction, vector_potential: Callable, t, p):
    """Momentum-mode vector potential absorbing the rescaled kinetic shift,

        df*A(f) + (df - 1)*p + d2f / (2 df sqrt(df^2 - 1)) ,

    the last term being dphi/dt, accurate to rounding up to the window's edges.
    """
    fd = rf.df(t)
    a_resc = fd * np.asarray(vector_potential(rf.f(t)), dtype=float)
    return a_resc + (fd - 1.0) * np.asarray(p, dtype=float) + phi_dot(rf, t)


def transformed_hamiltonian(rf: RescalingFunction, model: PauliHamiltonian) -> PauliHamiltonian:
    """Coefficients of h = K^dag (df H(f)) K - i K^dag dK/dt.

    For a model d0*I + dx*sx + dz*sz this gives
        d0 -> df*d0(f)          dx -> df*dx(f) - dphi/dt
        dz -> dz(f)             dy -> dz(f)*sqrt(df^2 - 1)
    so a constant rest-energy dz stays constant and the sy (pseudoscalar)
    coefficient is +m sqrt(df^2 - 1).  A nonzero model dy rotates into
    dz in the same way.
    """

    def terms(t):
        _, (z0, zx, zy, zz) = model._aligned_terms(rf.f(t))
        # df*cos(2 phi) = 1 and df*sin(2 phi) = sqrt(df^2 - 1)
        fd, sin2phi_scaled, inertial = (_align_tail(v, z0) for v in _frame_angle(rf, t))
        return (fd * z0, fd * zx - inertial,
                zy + sin2phi_scaled * zz, zz - sin2phi_scaled * zy)

    return PauliHamiltonian(terms)


@dataclass(frozen=True)
class GaugeEquivalenceResult:
    sample_times: np.ndarray
    deviations: np.ndarray  # (*batch, n_check) operator-norm mismatches
    max_deviation: float


def gauge_equivalence_check(h: PauliHamiltonian, rf: RescalingFunction, n_steps: int = 4000,
                            n_check: int = 9) -> GaugeEquivalenceResult:
    """Propagate both frames and measure the mismatch of U_tilde(t) = K(t) U_frame(t).

    ``h`` may carry any batch (e.g. the mode axis of
    :func:`~dirac_rescale.iontrap.build_demo_hamiltonian` at an array p).  Both
    frames share the window [0, tau/a], so they are stacked on one axis right
    after the time axes and propagated together; the propagator is
    batch-invariant, so each mode's result is bitwise that of a run on its own.

    The check is operator-level (valid for every initial state at once) and
    uses two independent propagations as mutual oracle.  ``n_check`` samples
    fall on steps round(j * n_steps / (n_check - 1)), as in ``fidelity_curves``,
    or one on the last step; a count outside [1, n_steps + 1] raises ValueError.
    """
    sample = _even_sample_steps("n_check", n_check, n_steps, 1)
    h_tilde = time_rescaled(h, rf)
    h_frak = transformed_hamiltonian(rf, h)
    # coefficients (*t, frame, *batch): the substituted run first, the rotated frame second;
    # each pair is broadcast to one shape first, as the frames' terms keep their own
    h_both = PauliHamiltonian(lambda t: tuple(
        np.stack(np.broadcast_arrays(*pair), axis=t.ndim)
        for pair in zip(h_tilde._aligned_terms(t)[1], h_frak._aligned_terms(t)[1])))
    times, us = propagate_sampled(h_both, 0.0, rf.horizon, n_steps, sample)
    # us is (n_check, frame, *batch, 2, 2); K(t) broadcasts over the batch
    k = frame_unitary(rf, times).reshape((n_check,) + (1,) * (us.ndim - 4) + (2, 2))
    norms = np.linalg.norm(us[:, 0] - k @ us[:, 1], ord=2, axis=(-2, -1))
    deviations = np.moveaxis(norms, 0, -1)
    return GaugeEquivalenceResult(times, deviations, float(deviations.max()))
