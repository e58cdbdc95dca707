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
(x, p, xbar, pbar), with the arithmetic of the batched loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rescaling import RescalingFunction, require_boundary

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

    dV takes an array u and returns an array of the same shape.
    """

    m: float
    gamma: Callable
    dV: Callable
    label: str = "custom"

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("mass must be positive")


def _default_gamma(tau: float) -> Callable:
    return lambda t: 1.0 + np.asarray(t, dtype=float) / (2.0 * tau)


def harmonic_model(tau: float = 1.0, m: float = 1.0) -> ClassicalModel:
    return ClassicalModel(m=m, gamma=_default_gamma(tau),
                          dV=lambda u: 2.0 * u, label="harmonic")


def quartic_model(tau: float = 1.0, m: float = 1.0) -> ClassicalModel:
    return ClassicalModel(m=m, gamma=_default_gamma(tau),
                          dV=lambda u: 4.0 * u**3, label="quartic")


def h1h2(rf: RescalingFunction, t, m: float = 1.0):
    """Generating-function coefficients (1/sqrt(df), m d2f/(4 df^2))."""
    fd = np.asarray(rf.df(t), dtype=float)
    f2 = np.asarray(rf.d2f(t), dtype=float)
    h1 = 1.0 / np.sqrt(fd)
    h2 = m * f2 / (4.0 * fd * fd)
    if np.ndim(h1) == 0:
        return float(h1), float(h2)
    return h1, h2


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
    fd = np.asarray(rf.df(t), dtype=float)
    f2 = np.asarray(rf.d2f(t), dtype=float)
    f3 = np.asarray(rf.d3f(t), dtype=float)
    out = m * f2 * f2 / (8.0 * fd * fd) + m * (fd * f3 - 2.0 * f2 * f2) / (4.0 * fd * fd)
    return float(out) if np.ndim(out) == 0 else out


def quantum_coeffs(rf: RescalingFunction, t):
    """(alpha, beta, kappa_q) of the quantum generating function:

        beta = log(df),  alpha = d2f/df,
        kappa_q = d3f/df - d2f^2/df^2 - d2f^2/df^3 .
    """
    fd = np.asarray(rf.df(t), dtype=float)
    f2 = np.asarray(rf.d2f(t), dtype=float)
    f3 = np.asarray(rf.d3f(t), dtype=float)
    alpha = f2 / fd
    beta = np.log(fd)
    kq = f3 / fd - f2 * f2 / (fd * fd) - f2 * f2 / (fd * fd * fd)
    if np.ndim(alpha) == 0:
        return float(alpha), float(beta), float(kq)
    return alpha, beta, kq


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


def _rk4(rhs: Callable, y0: np.ndarray, ts: np.ndarray, h: float, record_every: int):
    """Fixed-step RK4 over the stage grid ``ts``; rhs(j, y) is dy/dt at ts[j].

    Returns (times, trajectory) sampled every ``record_every`` steps and at
    the last step; y0 may hold any batch of states.

    Only :func:`evolve_classical` steps through here.  The appendix check has
    its own loop on four Python floats: on a (2, 2) state each numpy call
    costs more than the arithmetic it does, so that loop is about 3x faster,
    while this one serves any batch shape and any callable.
    """
    n_steps = (len(ts) - 1) // 2
    y = np.array(y0, dtype=float)
    recorded = [0]
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
        if (k + 1) % record_every == 0 or k + 1 == n_steps:
            recorded.append(j + 2)
            traj.append(y)
    return ts[recorded], np.asarray(traj)


def evolve_classical(dH_dp: Callable, dH_dx: Callable, state0, t0: float,
                     t1: float, n_steps: int, n_record: int | None = None):
    """Fixed-step RK4 for xdot = dH/dp, pdot = -dH/dx.

    ``state0`` is one (x, p) pair or a batch of shape (..., 2); both
    callables take (x, p, t) with x, p of the batch shape and must act on
    each row alone.  The stage times are t0 + k*h and t0 + k*h + h/2.
    Returns (times, trajectory) with trajectory[j] = the (..., 2) state at
    times[j]; n_record (default: every step) sets how many steps are
    recorded.  A run aborts as diverged when any |x| or |p| of the batch
    exceeds 1e12 or is NaN.
    """
    ts, h = _stage_times(t0, t1, n_steps)
    n_record = n_steps if n_record is None else n_record
    if n_record < 1:
        raise ValueError("n_record must be at least 1")
    y0 = np.asarray(state0, dtype=float)
    if y0.ndim == 0 or y0.shape[-1] != 2:
        raise ValueError(f"state must have shape (..., 2), got {y0.shape}")

    def rhs(j, y):
        x, p, t = y[..., 0], y[..., 1], ts[j]
        out = np.empty_like(y)
        out[..., 0] = dH_dp(x, p, t)
        out[..., 1] = -dH_dx(x, p, t)
        return out

    return _rk4(rhs, y0, ts, h, max(1, n_steps // n_record))


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
    require_boundary(rf)
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

    def rhs(j, x0, p0, x1, p1):
        # dV sees one 2-element array, as numpy rounds the powers of arrays
        # and of Python floats differently
        f0, f1 = dV(np.array((B0[j] * x0, B1[j] * x1))).tolist()
        return (P0[j] * p0, -(A0[j] * f0 + K0 * x0),
                P1 * p1, -(A1[j] * f1 + K1[j] * x1))

    # RK4 on plain floats (x0, p0, x1, p1), stage for stage the arithmetic
    # of _rk4 on the stacked (2, 2) state, so the bits are the same
    traj = np.empty((n_steps + 1, 4))
    x0, p0 = y0.tolist()
    x1, p1 = canonical_map(y0, rf, 0.0, m).tolist()
    traj[0] = x0, p0, x1, p1
    h2, h6 = h / 2.0, h / 6.0
    for k in range(n_steps):
        j = 2 * k
        a0, a1, a2, a3 = rhs(j, x0, p0, x1, p1)
        b0, b1, b2, b3 = rhs(j + 1, x0 + h2 * a0, p0 + h2 * a1, x1 + h2 * a2, p1 + h2 * a3)
        c0, c1, c2, c3 = rhs(j + 1, x0 + h2 * b0, p0 + h2 * b1, x1 + h2 * b2, p1 + h2 * b3)
        d0, d1, d2, d3 = rhs(j + 2, x0 + h * c0, p0 + h * c1, x1 + h * c2, p1 + h * c3)
        x0 = x0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        p0 = p0 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x1 = x1 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        p1 = p1 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        if not (abs(x0) <= _OVERFLOW_GUARD and abs(p0) <= _OVERFLOW_GUARD
                and abs(x1) <= _OVERFLOW_GUARD and abs(p1) <= _OVERFLOW_GUARD):
            raise RuntimeError(f"trajectory diverged at t = {ts[j + 2]:g}")
        traj[k + 1] = x0, p0, x1, p1
    times = ts[::2].copy()
    both = traj.reshape(n_steps + 1, 2, 2)
    orig, bar = both[:, 0], both[:, 1]
    mapped = canonical_map(orig, rf, times, m)
    return AppendixCheckResult(times=times, original=orig, transformed=bar, mapped=mapped,
                               max_deviation=float(np.max(np.abs(mapped - bar))))
