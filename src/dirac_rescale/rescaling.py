"""Time-rescaling functions and their boundary conditions.

The sinusoidal family

    f(t) = a*t - tau*(a-1)/(2*pi*a) * sin(2*pi*a*t/tau),   t in [0, tau/a]

contracts a process of duration tau into a window of length tau/a while
keeping f(0) = 0, f(tau/a) = tau and df/dt = 1 at both endpoints, so the
substituted dynamics starts and ends in the original frame.  a = 1 is the
identity map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RescalingFunction",
    "CustomRescaling",
    "BoundaryReport",
    "check_boundary",
    "require_boundary",
]

#: residual threshold for the shortcut boundary conditions
BOUNDARY_TOL = 1e-10


def _missing_derivative(t):
    raise ValueError("custom rescaling does not provide d2f/d3f")


def _as_float_or_array(x):
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class RescalingFunction:
    """Sinusoidal time contraction with factor ``a`` over horizon ``tau/a``; a = 1 is the identity."""

    a: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if not (self.a >= 1.0):
            raise ValueError(f"contraction factor must satisfy a >= 1, got {self.a}")
        if not (self.tau > 0.0):
            raise ValueError(f"process duration must be positive, got {self.tau}")

    @classmethod
    def identity(cls, tau: float = 1.0) -> "RescalingFunction":
        return cls(a=1.0, tau=tau)

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
        slack = 1e-9 * self.horizon
        if np.any(t < -slack) or np.any(t > self.horizon + slack):
            raise ValueError(
                f"time {t!r} outside the rescaling domain [0, {self.horizon}]"
            )
        return np.clip(t, 0.0, self.horizon)

    def f(self, t):
        """Rescaled time f(t)."""
        t = self._check_domain(t)
        w = self.omega
        out = self.a * t - self.tau * (self.a - 1.0) / (2.0 * math.pi * self.a) * np.sin(w * t)
        return _as_float_or_array(out)

    def df(self, t):
        """First derivative, df(t) = a - (a-1) cos(2*pi*a*t/tau) >= 1."""
        t = self._check_domain(t)
        out = self.a - (self.a - 1.0) * np.cos(self.omega * t)
        return _as_float_or_array(out)

    def d2f(self, t):
        t = self._check_domain(t)
        w = self.omega
        out = (self.a - 1.0) * w * np.sin(w * t)
        return _as_float_or_array(out)

    def d3f(self, t):
        t = self._check_domain(t)
        w = self.omega
        out = (self.a - 1.0) * w * w * np.cos(w * t)
        return _as_float_or_array(out)

    def inverse(self, s):
        """t with f(t) = s, for s in [0, tau] (scalar or array).  Uses the monotonicity of f."""
        return _invert_monotone(self, s)


@dataclass(frozen=True)
class CustomRescaling:
    """User-supplied rescaling; must pass :func:`check_boundary` before use.

    ``f`` and ``df`` are required and must be vectorized over t.  Higher
    derivatives are optional; an operation that needs one left out raises
    ValueError.
    """

    a: float
    tau: float
    f: Callable
    df: Callable
    d2f: Callable = _missing_derivative
    d3f: Callable = _missing_derivative

    @property
    def horizon(self) -> float:
        return self.tau / self.a

    def inverse(self, s):
        return _invert_monotone(self, s)


def _invert_monotone(rf, s):
    """t with rf.f(t) = s, one brentq solve per point of a scalar or array s."""
    from scipy.optimize import brentq  # here, not at module level: keeps scipy off the CLI's import path

    s_arr = np.asarray(s, dtype=float)
    if s_arr.ndim > 0:
        return np.array([_invert_monotone(rf, v) for v in s_arr.ravel()]).reshape(s_arr.shape)
    s = float(s_arr)
    tau, horizon = rf.tau, rf.horizon
    slack = 1e-9 * tau
    if s < -slack or s > tau + slack:
        raise ValueError(f"target {s} outside the image [0, {tau}] of f")
    s = min(max(s, 0.0), tau)
    f0, f1 = float(rf.f(0.0)), float(rf.f(horizon))
    if not (f0 - slack <= s <= f1 + slack):
        raise RuntimeError("inversion bracket failed; rescaling is not monotone onto [0, tau]")
    if s <= f0:
        return 0.0
    if s >= f1:
        return horizon
    t = brentq(lambda x: float(rf.f(x)) - s, 0.0, horizon, xtol=1e-15 * max(tau, 1.0), rtol=8.9e-16)
    if abs(float(rf.f(t)) - s) > 1e-12 * tau:
        raise RuntimeError("inversion did not converge; is the supplied f monotone?")
    return float(t)


@dataclass(frozen=True)
class BoundaryReport:
    """Residuals of the shortcut boundary conditions for one rescaling."""

    residuals: dict
    tol: float
    passed: bool

    def __str__(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'} (tol={self.tol:g})"]
        lines += [f"  {name}: {value:.3e}" for name, value in self.residuals.items()]
        return "\n".join(lines)


def check_boundary(rf) -> BoundaryReport:
    """Verify f(0)=0, f(tau/a)=tau, df(0)=df(tau/a)=1 and df >= 1 on a 257-point grid."""
    h, tau = rf.horizon, rf.tau
    grid = np.linspace(0.0, h, 257)
    df_min = float(np.min(rf.df(grid)))
    residuals = {
        "f(0)": abs(float(rf.f(0.0))),
        "f(horizon)-tau": abs(float(rf.f(h)) - tau),
        "df(0)-1": abs(float(rf.df(0.0)) - 1.0),
        "df(horizon)-1": abs(float(rf.df(h)) - 1.0),
        "df_min_below_1": max(0.0, 1.0 - df_min),
    }
    passed = all(v < BOUNDARY_TOL for v in residuals.values())
    return BoundaryReport(residuals=residuals, tol=BOUNDARY_TOL, passed=passed)


def require_boundary(rf) -> None:
    """Raise ValueError unless ``rf`` passes :func:`check_boundary`."""
    report = check_boundary(rf)
    if not report.passed:
        raise ValueError(f"rescaling fails boundary conditions:\n{report}")
