"""Exact SU(2) stepping and time-ordered propagation for two-level systems.

A Hamiltonian is held as one callable returning its four real coefficients
on the Pauli basis,

    H(t) = d0(t)*I + dx(t)*sx + dy(t)*sy + dz(t)*sz ,

all from a single evaluation at t (a float array of any shape).  Each
returned value may be a scalar or an array that broadcasts to
t.shape + batch: momentum-mode axes trail the time axes, so a per-mode
value carries t's axes first (e.g. built from ``t[..., None]``).  One step
of length dt is the closed-form exponential

    exp(-i H dt / hbar) = e^{-i d0 dt/hbar} [cos(|d| dt/hbar) I
                          - i sin(|d| dt/hbar) (d/|d|).sigma] ,

evaluated at the interval midpoint; the composed product is exactly unitary
per step and globally second-order accurate, and every operation broadcasts
over the trailing mode axes.  The time-rescaled form df(s) * H(f(s)) is
again one such callable, evaluating f and df once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rescaling import check_boundary

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY2",
    "PauliHamiltonian",
    "UnitarityError",
    "su2_exponential",
    "step_exact",
    "propagate",
    "propagate_sampled",
    "evolve_states",
    "time_rescaled",
    "rescaled_propagate",
    "evolve_state",
    "unitarity_defect",
    "norm_defect",
]

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: |d|*dt/hbar below which the sin/cos Taylor branch is used
_SMALL_ANGLE = 1e-14

#: soft cap on (steps x modes) worth of 2x2 matrices built at once
_BLOCK_ELEMS = 1 << 19


class UnitarityError(RuntimeError):
    """Composed propagator drifted off the unitary group beyond tolerance."""

    def __init__(self, defect: float, tol: float):
        super().__init__(
            f"unitarity defect {defect:.3e} exceeds {tol:.1e}; "
            "the stepping is too coarse for these coefficients"
        )
        self.defect = defect
        self.tol = tol


def _align_tail(x, like):
    """Append singleton axes to x so it broadcasts against ``like``."""
    x = np.asarray(x)
    extra = np.ndim(like) - x.ndim
    return x.reshape(x.shape + (1,) * extra) if extra > 0 else x


@dataclass(frozen=True)
class PauliHamiltonian:
    """H(t) = d0*I + dx*sx + dy*sy + dz*sz from one coefficient callable.

    ``terms(t)`` receives a float array t and returns (d0, dx, dy, dz), each
    a scalar or an array broadcasting to t.shape + batch, with any batch
    (momentum-mode) axes after the time axes.  :meth:`coeffs` broadcasts
    the four values against each other and against t.
    """

    terms: Callable

    @classmethod
    def constant(cls, d0=0.0, dx=0.0, dy=0.0, dz=0.0) -> "PauliHamiltonian":
        return cls(lambda t: (d0, dx, dy, dz))

    def coeffs(self, t):
        """(d0, dx, dy, dz) at t as broadcast views of shape t.shape + batch."""
        t = np.asarray(t, dtype=float)
        vals = [np.asarray(v, dtype=float) for v in self.terms(t)]
        return tuple(np.broadcast_arrays(_align_tail(t, max(vals, key=np.ndim)), *vals)[1:])

    def matrix(self, t):
        """Dense (..., 2, 2) Hamiltonian matrix at t."""
        d0, dx, dy, dz = self.coeffs(t)
        out = np.zeros(d0.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = d0 + dz
        out[..., 1, 1] = d0 - dz
        out[..., 0, 1] = dx - 1j * dy
        out[..., 1, 0] = dx + 1j * dy
        return out


def su2_exponential(d0, dx, dy, dz, dt, hbar: float = 1.0):
    """exp(-i (d0*I + d.sigma) dt / hbar) in closed form, elementwise."""
    d0, dx, dy, dz = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (d0, dx, dy, dz))
    )
    with np.errstate(invalid="ignore", over="ignore"):
        nd = np.sqrt(dx * dx + dy * dy + dz * dz)
        x = nd * dt / hbar
        small = x < _SMALL_ANGLE
        # sin(x)/|d| == (dt/hbar) sinc(x); Taylor branch avoids 0/0 at |d| -> 0
        nd_safe = np.where(small, 1.0, nd)
        cos_x = np.where(small, 1.0 - 0.5 * x * x, np.cos(x))
        sin_over_d = np.where(small, (dt / hbar) * (1.0 - x * x / 6.0), np.sin(x) / nd_safe)
        phase = np.exp(-1j * d0 * dt / hbar)
    out = np.empty(np.shape(cos_x) + (2, 2), dtype=complex)
    out[..., 0, 0] = phase * (cos_x - 1j * sin_over_d * dz)
    out[..., 1, 1] = phase * (cos_x + 1j * sin_over_d * dz)
    out[..., 0, 1] = phase * (-1j * sin_over_d * (dx - 1j * dy))
    out[..., 1, 0] = phase * (-1j * sin_over_d * (dx + 1j * dy))
    return out


def step_exact(h: PauliHamiltonian, t_mid, dt: float, hbar: float = 1.0):
    """One midpoint step exp(-i H(t_mid) dt / hbar)."""
    if not dt > 0.0:
        raise ValueError(f"step length must be positive, got {dt}")
    d0, dx, dy, dz = h.coeffs(t_mid)
    if not all(np.all(np.isfinite(v)) for v in (d0, dx, dy, dz)):
        raise ValueError(f"non-finite Hamiltonian coefficients at t = {t_mid}")
    return su2_exponential(d0, dx, dy, dz, dt, hbar=hbar)


def _ordered_product(mats):
    """Product mats[-1] @ ... @ mats[0] by pairwise reduction (fixed order)."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            head, tail = mats[:-1], mats[-1:]
            mats = np.concatenate([np.matmul(head[1::2], head[0::2]), tail], axis=0)
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _midpoint_blocks(h, t0, dt, start, stop, hbar):
    """Yield products of midpoint steps for step indices [start, stop)."""
    probe = h.coeffs(np.array([t0 + 0.5 * dt]))[0]
    batch = int(np.prod(probe.shape[1:], dtype=int)) if probe.ndim > 1 else 1
    block = max(1, min(stop - start, _BLOCK_ELEMS // max(1, batch)))
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        ts = t0 + (np.arange(lo, hi, dtype=float) + 0.5) * dt
        steps = su2_exponential(*h.coeffs(ts), dt, hbar=hbar)
        yield _ordered_product(steps)


def propagate(h: PauliHamiltonian, t0: float, t1: float, n_steps: int,
              hbar: float = 1.0, unitarity_tol: float = 1e-8):
    """Time-ordered propagator U(t1 <- t0) from n_steps midpoint exponentials."""
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    dt = (t1 - t0) / n_steps
    U = None
    for block in _midpoint_blocks(h, t0, dt, 0, n_steps, hbar):
        U = block if U is None else block @ U
    defect = unitarity_defect(U)
    if defect > unitarity_tol:
        raise UnitarityError(defect, unitarity_tol)
    return U


def propagate_sampled(h: PauliHamiltonian, t0: float, t1: float, n_steps: int,
                      sample_steps: Sequence[int], hbar: float = 1.0):
    """Cumulative propagators U(t_k <- t0) at the given step indices.

    Returns (times, us) with us[j] = U(t0 + sample_steps[j]*dt <- t0).
    """
    idx = _checked_samples(sample_steps, n_steps)
    dt = (t1 - t0) / n_steps
    batch = np.shape(h.coeffs(np.asarray(t0 + 0.5 * dt))[0])
    U = np.broadcast_to(IDENTITY2, batch + (2, 2)).copy()
    us = []
    prev = 0
    for k in idx:
        for block in _midpoint_blocks(h, t0, dt, prev, k, hbar):
            U = block @ U
        prev = k
        us.append(U)
    times = t0 + np.asarray(idx, dtype=float) * dt
    return times, np.array(us)


def evolve_states(h: PauliHamiltonian, t0: float, t1: float, n_steps: int,
                  psi0, sample_steps: Sequence[int], hbar: float = 1.0):
    """Evolve spinor batch psi0 (..., 2), recording at the given step indices."""
    idx = _checked_samples(sample_steps, n_steps)
    dt = (t1 - t0) / n_steps
    psi = np.array(psi0, dtype=complex)
    out = []
    prev = 0
    for k in idx:
        for block in _midpoint_blocks(h, t0, dt, prev, k, hbar):
            psi = np.einsum("...ij,...j->...i", block, psi)
        prev = k
        out.append(psi.copy())
    times = t0 + np.asarray(idx, dtype=float) * dt
    return times, np.array(out)


def _checked_samples(sample_steps, n_steps):
    idx = [int(k) for k in sample_steps]
    if any(k < 0 or k > n_steps for k in idx) or sorted(idx) != idx:
        raise ValueError("sample steps must be ascending indices in [0, n_steps]")
    return idx


def time_rescaled(h: PauliHamiltonian, rf) -> PauliHamiltonian:
    """The substituted Hamiltonian df(s) * H(f(s)) on the contracted window."""

    def terms(s):
        vals = h.coeffs(rf.f(s))
        fd = _align_tail(rf.df(s), vals[0])
        return tuple(fd * v for v in vals)

    return PauliHamiltonian(terms)


def rescaled_propagate(h: PauliHamiltonian, rf, n_steps: int, hbar: float = 1.0,
                       unitarity_tol: float = 1e-8):
    """Propagate df(s)*H(f(s)) over [0, tau/a]; equals U(tau <- 0) of H exactly.

    The rescaling must satisfy the shortcut boundary conditions; they are
    re-verified here so that hand-built rescalings cannot silently break the
    change-of-variables identity.
    """
    report = check_boundary(rf)
    if not report.passed:
        raise ValueError(f"rescaling fails boundary conditions:\n{report}")
    return propagate(time_rescaled(h, rf), 0.0, rf.horizon, n_steps,
                     hbar=hbar, unitarity_tol=unitarity_tol)


def evolve_state(u, spinor):
    """Apply U to a two-component state (batched over leading axes)."""
    return np.einsum("...ij,...j->...i", np.asarray(u), np.asarray(spinor, dtype=complex))


def unitarity_defect(u) -> float:
    """Largest singular value of U^dag U - I, maximized over any batch."""
    u = np.asarray(u)
    if not np.all(np.isfinite(u.view(float))):
        return float("inf")
    gram = np.einsum("...ji,...jk->...ik", u.conj(), u) - IDENTITY2
    return float(np.max(np.linalg.svd(gram, compute_uv=False)))


def norm_defect(spinor) -> float:
    """Max deviation of the spinor norm from 1 over any batch."""
    s = np.asarray(spinor)
    norms = np.sqrt(np.sum(np.abs(s) ** 2, axis=-1))
    return float(np.max(np.abs(norms - 1.0)))
