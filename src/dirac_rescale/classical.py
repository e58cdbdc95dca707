"""Canonical-transformation view of time-rescaling for scale-invariant flows.

For H = p^2/2m + V(x/gamma)/gamma^2 the substituted Hamiltonian
df*H(x, p, f(t)) is generated back into standard kinetic form by the
second-kind generating function F = h1(t) x pbar + h2(t) x^2 with

    h1 = 1/sqrt(df),    h2 = m d2f / (4 df^2) ,

for which the pbar*xbar cross term cancels identically and only an
auxiliary harmonic term kappa(t) xbar^2 remains.  The quantum analogue
replaces F by exponentials of x^2 and {x, p} with coefficients
beta = log(df), alpha = d2f/df and a harmonic strength kappa_q.

Integration is fixed-step RK4 on the grid of 2n+1 stage times t0 + k*h and
t0 + k*h + h/2.  :func:`evolve_classical` steps a batch of (..., 2) states
together, row by row independent.  The appendix check evaluates the
rescaling and every coefficient once on that grid, as vectorised calls, and
steps the original and transformed flows side by side on four Python floats
(x, p, xbar, pbar), bit for bit the arithmetic of :func:`evolve_classical` on
the stacked pair.  Its four RK4 stages are written out in the loop body, so a
step calls nothing but dV, on one float at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rescaling import RescalingFunction

__all__ = [
    "ClassicalModel",
    "harmonic_model",
    "quartic_model",
    "h1h2",
    "canonical_map",
    "kappa",
    "quantum_coeffs",
    "evolve_classical",
    "appendix_equivalence_check",
    "AppendixCheckResult",
]


@dataclass(frozen=True)
class ClassicalModel:
    """Mass, scale factor gamma(t) > 0 and the derivative dV of the shape V(u).

    dV takes a float u and returns a float.
    """

    m: float
    gamma: Callable
    dV: Callable

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("mass must be positive")


def _default_gamma(tau: float) -> Callable:
    return lambda t: 1.0 + np.asarray(t, dtype=float) / (2.0 * tau)


def harmonic_model(tau: float = 1.0, m: float = 1.0) -> ClassicalModel:
    return ClassicalModel(m=m, gamma=_default_gamma(tau), dV=lambda u: 2.0 * u)


def quartic_model(tau: float = 1.0, m: float = 1.0) -> ClassicalModel:
    return ClassicalModel(m=m, gamma=_default_gamma(tau), dV=lambda u: 4.0 * u * u * u)


def h1h2(rf: RescalingFunction, t, m: float = 1.0):
    """Generating-function coefficients (1/sqrt(df), m d2f/(4 df^2))."""
    fd = rf.df(t)
    f2 = rf.d2f(t)
    return 1.0 / np.sqrt(fd), m * f2 / (4.0 * fd * fd)


def canonical_map(state, rf: RescalingFunction, t, m: float = 1.0,
                  direction: str = "forward"):
    """Point map induced by p = h1 pbar + 2 h2 x, xbar = h1 x.

    forward: (x, p) -> (xbar, pbar); inverse composes back to the identity.
    State is any (..., 2) array ordered (position, momentum).
    """
    h1, h2 = h1h2(rf, t, m)
    arr = np.asarray(state, dtype=float)
    x, p = arr[..., 0], arr[..., 1]
    if direction == "forward":
        out = np.stack([h1 * x, (p - 2.0 * h2 * x) / h1], axis=-1)
    elif direction == "inverse":
        xb, pb = x, p
        xo = xb / h1
        out = np.stack([xo, h1 * pb + 2.0 * h2 * xo], axis=-1)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return out


def kappa(rf: RescalingFunction, t, m: float = 1.0):
    """Auxiliary harmonic strength, assembled from the chosen h1, h2:

        kappa = 4 h2^2 df/(2 m h1^2) + dh2/dt / h1^2
              = m d2f^2/(8 df^2) + m (df d3f - 2 d2f^2)/(4 df^2) .
    """
    fd = rf.df(t)
    f2 = rf.d2f(t)
    f3 = rf.d3f(t)
    return m * f2 * f2 / (8.0 * fd * fd) + m * (fd * f3 - 2.0 * f2 * f2) / (4.0 * fd * fd)


def quantum_coeffs(rf: RescalingFunction, t):
    """(alpha, beta, kappa_q) of the quantum generating function:

        beta = log(df),  alpha = d2f/df,
        kappa_q = d3f/df - d2f^2/df^2 - d2f^2/df^3 .
    """
    fd = rf.df(t)
    f2 = rf.d2f(t)
    f3 = rf.d3f(t)
    kq = f3 / fd - f2 * f2 / (fd * fd) - f2 * f2 / (fd * fd * fd)
    return f2 / fd, np.log(fd), kq


#: |x| or |p| beyond this aborts the integration as diverged
_OVERFLOW_GUARD = 1e12


def _stage_times(t0: float, t1: float, n_steps: int):
    """Step h and the 2n+1 RK4 stage times: t_k = t0 + k*h at even index,
    t_k + h/2 at odd index."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    h = (t1 - t0) / n_steps
    ts = np.empty(2 * n_steps + 1)
    ts[0::2] = t0 + np.arange(n_steps + 1) * h
    ts[1::2] = ts[:-1:2] + h / 2.0
    return ts, h


def evolve_classical(dH_dp: Callable, dH_dx: Callable, state0, t0: float,
                     t1: float, n_steps: int):
    """Fixed-step RK4 for xdot = dH/dp, pdot = -dH/dx.

    ``state0`` is one (x, p) pair or a batch of shape (..., 2); both
    callables take (x, p, t) with x, p of the batch shape and must act on
    each row alone.  The stage times are t0 + k*h and t0 + k*h + h/2.
    Returns (times, trajectory) with trajectory[j] = the (..., 2) state at
    times[j], one entry per step plus the start.  A run aborts as diverged
    when any |x| or |p| of the batch exceeds 1e12 or is NaN.
    """
    ts, h = _stage_times(t0, t1, n_steps)
    y = np.asarray(state0, dtype=float)
    if y.ndim == 0 or y.shape[-1] != 2:
        raise ValueError(f"state must have shape (..., 2), got {y.shape}")

    def rhs(j, y):
        x, p, t = y[..., 0], y[..., 1], ts[j]
        out = np.empty_like(y)
        out[..., 0] = dH_dp(x, p, t)
        out[..., 1] = -dH_dx(x, p, t)
        return out

    traj = [y]
    for k in range(n_steps):
        j = 2 * k
        k1 = rhs(j, y)
        k2 = rhs(j + 1, y + h / 2.0 * k1)
        k3 = rhs(j + 1, y + h / 2.0 * k2)
        k4 = rhs(j + 2, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.abs(y) <= _OVERFLOW_GUARD):
            raise RuntimeError(f"trajectory diverged at t = {ts[j + 2]:g}")
        traj.append(y)
    return ts[::2], np.asarray(traj)


@dataclass(frozen=True, eq=False)
class AppendixCheckResult:
    """Dual-integration comparison of the original and transformed flows."""

    times: np.ndarray
    original: np.ndarray     # (x, p) trajectory under df*H(f)
    transformed: np.ndarray  # (xbar, pbar) trajectory under the standard form
    mapped: np.ndarray       # canonical image of the original trajectory
    max_deviation: float


def appendix_equivalence_check(model: ClassicalModel, rf: RescalingFunction,
                               state0=(1.0, 0.0), n_steps: int = 4000) -> AppendixCheckResult:
    """Measure how closely the canonical map carries one flow onto the other.

    (x, p) evolves under df*[p^2/2m + V(x/gamma(f))/gamma(f)^2]; (xbar, pbar)
    under pbar^2/2m + df*V(xbar sqrt(df)/gamma(f))/gamma(f)^2 + kappa xbar^2,
    from the mapped initial condition.  The two flows, stepped side by side
    but uncoupled, act as mutual oracle; the result carries their largest
    deviation.
    """
    m, dV = model.m, model.dV
    y0 = np.asarray(state0, dtype=float)
    if y0.shape != (2,):
        raise ValueError(f"state0 must be one (x, p) pair, got shape {y0.shape}")
    # Both right-hand sides read dH/dp = P p, dH/dx = A dV(B x) + K x; suffix 0
    # marks the original flow's coefficients, suffix 1 the transformed flow's,
    # each evaluated once on the whole stage grid.  A memoryview indexes the
    # array as Python floats without holding a float object per entry, as a
    # list would.  P1 and K0 are constant (1/m and 0); the K0 x0 term stays
    # for its signed zero.
    ts, h = _stage_times(0.0, rf.horizon, n_steps)
    fd = rf.df(ts)
    g = model.gamma(rf.f(ts))
    root = np.sqrt(fd)
    g3 = g**3
    P0, P1 = memoryview(fd / m), 1.0 / m
    A0, A1 = memoryview(fd / g3), memoryview(fd * root / g3)
    B0, B1 = memoryview(1.0 / g), memoryview(root / g)
    K0, K1 = 0.0, memoryview(2.0 * kappa(rf, ts, m))

    # RK4 on plain floats (x0, p0, x1, p1), stage for stage the arithmetic of
    # evolve_classical on the stacked (2, 2) state, so the bits are the same;
    # on so small a state each numpy call costs more than the arithmetic it
    # does.  The four stages a-d are written out, so that a step calls
    # nothing but dV: stage a reads the six coefficients at index j, stages b
    # and c share those at j + 1, and those of stage d at j + 2 serve the next
    # step's stage a.  Each step is stored through a flat float view of traj,
    # which costs less than a numpy row write.
    traj = np.empty((n_steps + 1, 4))
    out = memoryview(traj).cast("B").cast("d")
    x0, p0 = y0.tolist()
    x1, p1 = canonical_map(y0, rf, 0.0, m).tolist()
    traj[0] = x0, p0, x1, p1
    h2, h6 = h / 2.0, h / 6.0
    P0a, A0a, B0a, A1a, B1a, K1a = P0[0], A0[0], B0[0], A1[0], B1[0], K1[0]
    for k in range(n_steps):
        j = 2 * k
        jb, jd = j + 1, j + 2
        P0b, A0b, B0b = P0[jb], A0[jb], B0[jb]
        A1b, B1b, K1b = A1[jb], B1[jb], K1[jb]
        P0d, A0d, B0d = P0[jd], A0[jd], B0[jd]
        A1d, B1d, K1d = A1[jd], B1[jd], K1[jd]
        a0 = P0a * p0
        a1 = -(A0a * dV(B0a * x0) + K0 * x0)
        a2 = P1 * p1
        a3 = -(A1a * dV(B1a * x1) + K1a * x1)
        u0, u1 = x0 + h2 * a0, x1 + h2 * a2
        b0 = P0b * (p0 + h2 * a1)
        b1 = -(A0b * dV(B0b * u0) + K0 * u0)
        b2 = P1 * (p1 + h2 * a3)
        b3 = -(A1b * dV(B1b * u1) + K1b * u1)
        u0, u1 = x0 + h2 * b0, x1 + h2 * b2
        c0 = P0b * (p0 + h2 * b1)
        c1 = -(A0b * dV(B0b * u0) + K0 * u0)
        c2 = P1 * (p1 + h2 * b3)
        c3 = -(A1b * dV(B1b * u1) + K1b * u1)
        u0, u1 = x0 + h * c0, x1 + h * c2
        d0 = P0d * (p0 + h * c1)
        d1 = -(A0d * dV(B0d * u0) + K0 * u0)
        d2 = P1 * (p1 + h * c3)
        d3 = -(A1d * dV(B1d * u1) + K1d * u1)
        x0 = x0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        p0 = p0 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x1 = x1 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        p1 = p1 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        if not (abs(x0) <= _OVERFLOW_GUARD and abs(p0) <= _OVERFLOW_GUARD
                and abs(x1) <= _OVERFLOW_GUARD and abs(p1) <= _OVERFLOW_GUARD):
            raise RuntimeError(f"trajectory diverged at t = {ts[j + 2]:g}")
        i = 4 * k + 4
        out[i], out[i + 1] = x0, p0
        out[i + 2], out[i + 3] = x1, p1
        P0a, A0a, B0a = P0d, A0d, B0d
        A1a, B1a, K1a = A1d, B1d, K1d
    times = ts[::2].copy()
    both = traj.reshape(n_steps + 1, 2, 2)
    orig, bar = both[:, 0], both[:, 1]
    mapped = canonical_map(orig, rf, times, m)
    return AppendixCheckResult(times=times, original=orig, transformed=bar, mapped=mapped,
                               max_deviation=float(np.max(np.abs(mapped - bar))))
