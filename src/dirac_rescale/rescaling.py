"""Time-rescaling functions and their boundary conditions.

The sinusoidal family

    f(t) = a*t - tau*(a-1)/(2*pi*a) * sin(2*pi*a*t/tau),   t in [0, tau/a]

contracts a process of duration tau into a window of length tau/a while
keeping f(0) = 0, f(tau/a) = tau and df/dt = 1 at both endpoints, so the
substituted dynamics starts and ends in the original frame.  a = 1 is the
identity map.

A :class:`RescalingFunction` cannot be built unless :func:`check_boundary`
passes, and it keeps those residuals, so no caller checks these conditions
again.  In floats they fail for a of about 9e15 or more (at tau = 1), where
df(0) = a - (a-1) rounds away from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RescalingFunction", "check_boundary"]

#: residual threshold for the shortcut boundary conditions
BOUNDARY_TOL = 1e-10

#: relative slack past either end of [0, tau/a] that a time may have
_DOMAIN_SLACK = 1e-9


@dataclass(frozen=True)
class RescalingFunction:
    """Sinusoidal time contraction with factor ``a`` over horizon ``tau/a``; a = 1 is the identity."""

    a: float = 1.0
    tau: float = 1.0
    #: the :func:`check_boundary` residuals, computed once when the rescaling is built
    residuals: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.a >= 1.0):
            raise ValueError(f"a: contraction factor must be >= 1, got {self.a}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau: must be positive, got {self.tau}")
        # below about 5e-315 the spacing of floats exceeds the slack of _check_domain
        horizon = self.tau / self.a
        if math.ulp(horizon) > _DOMAIN_SLACK * horizon:
            raise ValueError(f"horizon tau/a = {self.tau}/{self.a} is too small: floats that "
                             f"small are spaced wider than {_DOMAIN_SLACK:g} * tau/a")
        # a huge a or tau overflows f(0) to inf * 0 = NaN, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = check_boundary(self)
        failed = [f"{name} = {value:.3e}" for name, value in residuals.items()
                  if not value < BOUNDARY_TOL]
        if failed:
            raise ValueError(f"rescaling fails boundary conditions at a = {self.a}, "
                             f"tau = {self.tau}: {', '.join(failed)} (tol {BOUNDARY_TOL:g})")
        object.__setattr__(self, "residuals", residuals)

    @property
    def horizon(self) -> float:
        """Length tau/a of the contracted window."""
        return self.tau / self.a

    @property
    def omega(self) -> float:
        """Angular frequency 2*pi*a/tau of the sinusoidal modulation."""
        return 2.0 * math.pi * self.a / self.tau

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        top = self.horizon
        # fmin and fmax skip NaN, which passes through as np.clip leaves it
        lo = np.fmin.reduce(t, axis=None, initial=np.inf)
        hi = np.fmax.reduce(t, axis=None, initial=-np.inf)
        if lo < 0.0 or hi > top:
            slack = _DOMAIN_SLACK * top
            if lo < -slack or hi > top + slack:
                worst = float(lo if lo < -slack else hi)
                raise ValueError(f"time {worst!r} outside the rescaling domain [0, {top}]")
            return np.clip(t, 0.0, top)
        # in [0, tau/a] already: np.clip would change nothing; a float gives np.float64
        return t[()]

    def f(self, t):
        """Rescaled time f(t)."""
        t = self._check_domain(t)
        w = self.omega
        return self.a * t - self.tau * (self.a - 1.0) / (2.0 * math.pi * self.a) * np.sin(w * t)

    def df(self, t):
        """First derivative, df(t) = a - (a-1) cos(2*pi*a*t/tau) >= 1."""
        t = self._check_domain(t)
        return self.a - (self.a - 1.0) * np.cos(self.omega * t)

    def d2f(self, t):
        t = self._check_domain(t)
        w = self.omega
        return (self.a - 1.0) * w * np.sin(w * t)

    def d3f(self, t):
        t = self._check_domain(t)
        w = self.omega
        return (self.a - 1.0) * w * w * np.cos(w * t)


def check_boundary(rf) -> dict:
    """Residuals of f(0)=0, f(tau/a)=tau, df(0)=df(tau/a)=1 and df >= 1 on a 257-point grid.

    The f residuals are relative, |f(0)|/tau and |f(tau/a) - tau|/tau, so one
    ulp of a large tau passes; the df residuals are dimensionless already.
    """
    h, tau = rf.horizon, rf.tau
    grid = np.linspace(0.0, h, 257)
    df_min = float(np.min(rf.df(grid)))
    return {
        "f(0)": abs(float(rf.f(0.0))) / tau,
        "f(horizon)-tau": abs(float(rf.f(h)) - tau) / tau,
        "df(0)-1": abs(float(rf.df(0.0)) - 1.0),
        "df(horizon)-1": abs(float(rf.df(h)) - 1.0),
        "df_min_below_1": max(0.0, 1.0 - df_min),
    }
