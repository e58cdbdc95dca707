"""Exact SU(2) stepping and time-ordered propagation for two-level systems.

A Hamiltonian is held as one callable returning its four real coefficients
on the Pauli basis,

    H(t) = d0(t)*I + dx(t)*sx + dy(t)*sy + dz(t)*sz ,

all from a single evaluation at t (a float array of any shape).  Each
returned value may be a scalar or an array that broadcasts to
t.shape + batch: momentum-mode axes trail the time axes, so a per-mode
value carries t's axes first (e.g. built from ``t[..., None]``).  Units
have hbar = 1 throughout the library; laboratory knobs, hbar among them,
enter only through :func:`~dirac_rescale.iontrap.physical_units_map`.  One
step of length dt is the closed-form exponential

    exp(-i H dt) = e^{-i d0 dt} [cos(|d| dt) I - i sin(|d| dt) (d/|d|).sigma] ,

Every propagator steps with the commutator-free fourth-order Magnus step
(CF4; Blanes & Moan 2006, Alvermann & Fehske 2011), which composes two
such exponentials,

    exp(-i dt (a2 H1 + a1 H2)) exp(-i dt (a1 H1 + a2 H2)) ,

with H1, H2 at the Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) dt and
a1, a2 = 1/4 +- sqrt(3)/6.  The product is exactly unitary per step, its
error falls as dt^4, and every operation broadcasts over the trailing mode
axes.  The time-rescaled form df(s) * H(f(s)) is again one such callable,
evaluating f and df once per call.

Inside the module a step is held as a real unit quaternion
(cos x, sin x d/|d|), x = |d| dt, plus the scalar phase d0 dt.
Steps are composed with the Hamilton product in plain real arithmetic (the
phases add), by a fixed-order pairwise reduction over blocks of a fixed
number of steps, so a mode's result is bitwise the same alone or inside
any batch.  The unitarity check is |q|^2 - 1 of the composed quaternion.
Complex (..., 2, 2) matrices are built only at the API boundary, once per
call: for the propagators returned, or to apply to spinors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY2",
    "PauliHamiltonian",
    "UnitarityError",
    "su2_exponential",
    "propagate",
    "propagate_sampled",
    "evolve_states",
    "time_rescaled",
    "rescaled_propagate",
    "unitarity_defect",
    "norm_defect",
]

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: |d|*dt below which the sin/cos Taylor branch is used
_SMALL_ANGLE = 1e-14

#: steps composed per block; fixed, so a mode's result does not depend on its batch
_BLOCK_STEPS = 1 << 12

#: largest |q|^2 - 1 accepted for a composed product
_UNITARITY_TOL = 1e-8

#: CF4 nodes (1/2 -+ sqrt(3)/6) as a column, and its weights 1/4 +- sqrt(3)/6
_CF4_NODES = np.array([[0.5 - np.sqrt(3.0) / 6.0], [0.5 + np.sqrt(3.0) / 6.0]])
_CF4_A1 = 0.25 + np.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - np.sqrt(3.0) / 6.0


class UnitarityError(RuntimeError):
    """Composed propagator drifted off the unitary group beyond tolerance."""

    def __init__(self, defect: float, tol: float):
        if np.isfinite(defect):
            cause = "the stepping is too coarse for these coefficients"
        else:
            cause = "the coefficients times the time step left float range"
        super().__init__(f"unitarity defect {defect:.3e} exceeds {tol:.1e}; {cause}")
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


def _su2_step(d0, dx, dy, dz, dt):
    """Records (cos x, sin(x) d/|d|, d0 dt) of steps, x = |d| dt.

    A record is a real array with the five components (w, vx, vy, vz, phase)
    on axis 0: the unit quaternion w - i v.sigma and the scalar phase of
    e^{-i phase} (w I - i v.sigma), so the step needs no complex arithmetic.
    """
    d0, dx, dy, dz = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (d0, dx, dy, dz))
    )
    out = np.empty((5,) + dx.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        nd = np.sqrt(dx * dx + dy * dy + dz * dz)
        x = nd * dt
        out[0] = np.cos(x)
        sin_over_d = np.sin(x) / nd
        small = x < _SMALL_ANGLE
        if np.any(small):
            # sin(x)/|d| == dt sinc(x); Taylor branch avoids 0/0 at |d| -> 0
            np.copyto(out[0, ...], 1.0 - 0.5 * x * x, where=small)
            sin_over_d = np.where(small, dt * (1.0 - x * x / 6.0), sin_over_d)
        np.multiply(sin_over_d, dx, out=out[1, ...])
        np.multiply(sin_over_d, dy, out=out[2, ...])
        np.multiply(sin_over_d, dz, out=out[3, ...])
        out[4] = d0 * dt
    return out


def _compose(a, b, out=None):
    """Records of a after b: Hamilton product of the quaternions, phases added.

    w = wa wb - va.vb and v = wa vb + wb va + va x vb, in plain real
    arithmetic, so each entry is the same whatever the batch around it.
    """
    aw, ax, ay, az, ap = a
    bw, bx, by, bz, bp = b
    if out is None:
        out = np.empty((5,) + np.broadcast_shapes(np.shape(aw), np.shape(bw)))
    np.subtract(aw * bw, ax * bx + ay * by + az * bz, out=out[0, ...])
    np.add(aw * bx + bw * ax, ay * bz - az * by, out=out[1, ...])
    np.add(aw * by + bw * ay, az * bx - ax * bz, out=out[2, ...])
    np.add(aw * bz + bw * az, ax * by - ay * bx, out=out[3, ...])
    np.add(ap, bp, out=out[4, ...])
    return out


def _to_matrix(u):
    """Complex (..., 2, 2) matrices e^{-i phase} (w I - i v.sigma) of records u.

    Built from real products: numpy's complex product of two scalars (a
    batch of one) can round differently from its array loop.
    """
    w, x, y, z, phase = u
    c, s = np.cos(phase), np.sin(phase)
    out = np.empty(np.shape(w) + (2, 2), dtype=complex)
    re, im = out.real, out.imag
    re[..., 0, 0], im[..., 0, 0] = c * w - s * z, -(c * z + s * w)
    re[..., 0, 1], im[..., 0, 1] = -(c * y + s * x), s * y - c * x
    re[..., 1, 0], im[..., 1, 0] = c * y - s * x, -(c * x + s * y)
    re[..., 1, 1], im[..., 1, 1] = c * w + s * z, c * z - s * w
    return out


def su2_exponential(d0, dx, dy, dz, dt):
    """exp(-i (d0*I + d.sigma) dt) in closed form, elementwise."""
    return _to_matrix(_su2_step(d0, dx, dy, dz, dt))


def _ordered_product(steps):
    """Record of steps[:, -1] ... steps[:, 0] by pairwise reduction (fixed order).

    ``steps`` holds records (5, n_steps, *batch), the step axis second.
    """
    while (n := steps.shape[1]) > 1:
        m = n // 2
        out = np.empty((5, m + n % 2) + steps.shape[2:])
        _compose(steps[:, 1::2], steps[:, 0:2 * m:2], out=out[:, :m])
        if n % 2:
            out[:, m] = steps[:, -1]
        steps = out
    return steps[:, 0]


def _cf4_records(h, t0, dt, lo, hi):
    """Records (5, hi - lo, *batch) of CF4 steps lo .. hi - 1.

    One coefficient call on the (2, n) grid of both nodes; each step is the
    exponential of a2 H1 + a1 H2 after that of a1 H1 + a2 H2.
    """
    ts = t0 + (np.arange(lo, hi, dtype=float) + _CF4_NODES) * dt
    coeffs = h.coeffs(ts)
    first = _su2_step(*(_CF4_A1 * c[0] + _CF4_A2 * c[1] for c in coeffs), dt)
    second = _su2_step(*(_CF4_A2 * c[0] + _CF4_A1 * c[1] for c in coeffs), dt)
    return _compose(second, first)


def _checked_args(t0, t1, n_steps, sample_steps):
    """Step length and sample indices, validated once at every entry point."""
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not operator.index(n_steps) >= 1:
        raise ValueError("n_steps must be at least 1")
    idx = [int(k) for k in sample_steps]
    if any(k < 0 or k > n_steps for k in idx) or sorted(idx) != idx:
        raise ValueError("sample steps must be ascending indices in [0, n_steps]")
    return (t1 - t0) / n_steps, idx


def _sampled_records(h, t0, t1, n_steps, sample_steps):
    """Sample times and the records (5, n_samples, *batch) of U(t0 + k*dt <- t0)
    at each sample index k.

    CF4 steps are built and composed in blocks of _BLOCK_STEPS from the
    previous sample, and each sampled record must be unit to
    _UNITARITY_TOL (NaN fails the check).
    """
    dt, idx = _checked_args(t0, t1, n_steps, sample_steps)
    u = np.zeros((5,) + np.shape(h.coeffs(t0 + 0.5 * dt)[0]))
    u[0] = 1.0
    records = np.empty((5, len(idx)) + u.shape[1:])
    prev = 0
    # inf or NaN from coefficients too large for the step (a2 < 0 makes inf - inf,
    # huge phases overflow as they add) is left to the unitarity check
    with np.errstate(invalid="ignore", over="ignore"):
        for i, k in enumerate(idx):
            for lo in range(prev, k, _BLOCK_STEPS):
                steps = _cf4_records(h, t0, dt, lo, min(lo + _BLOCK_STEPS, k))
                u = _compose(_ordered_product(steps), u)
            prev = k
            w, x, y, z, phase = u
            # 0 * phase is NaN for a non-finite phase, so the check fails on it too
            defect = float(np.max(np.abs(w * w + x * x + y * y + z * z - 1.0) + 0.0 * phase))
            if not defect <= _UNITARITY_TOL:
                raise UnitarityError(defect, _UNITARITY_TOL)
            records[:, i] = u
    return t0 + np.asarray(idx, dtype=float) * dt, records


def propagate(h: PauliHamiltonian, t0: float, t1: float, n_steps: int):
    """Time-ordered propagator U(t1 <- t0) from n_steps CF4 steps."""
    _, records = _sampled_records(h, t0, t1, n_steps, [n_steps])
    return _to_matrix(records[:, 0])


def propagate_sampled(h: PauliHamiltonian, t0: float, t1: float, n_steps: int,
                      sample_steps: Sequence[int]):
    """Cumulative propagators U(t_k <- t0) at the given step indices.

    Returns (times, us) with us[j] = U(t0 + sample_steps[j]*dt <- t0).
    """
    times, records = _sampled_records(h, t0, t1, n_steps, sample_steps)
    return times, _to_matrix(records)


def evolve_states(h: PauliHamiltonian, t0: float, t1: float, n_steps: int,
                  psi0, sample_steps: Sequence[int]):
    """Evolve spinor batch psi0 (..., 2), recording at the given step indices."""
    times, records = _sampled_records(h, t0, t1, n_steps, sample_steps)
    # the sample axis leads, ahead of the batch axes of both U and psi0
    return times, np.einsum("s...ij,...j->s...i", _to_matrix(records), psi0)


def time_rescaled(h: PauliHamiltonian, rf) -> PauliHamiltonian:
    """The substituted Hamiltonian df(s) * H(f(s)) on the contracted window."""

    def terms(s):
        vals = h.coeffs(rf.f(s))
        fd = _align_tail(rf.df(s), vals[0])
        return tuple(fd * v for v in vals)

    return PauliHamiltonian(terms)


def rescaled_propagate(h: PauliHamiltonian, rf, n_steps: int):
    """Propagate df(s)*H(f(s)) over [0, tau/a]; equals U(tau <- 0) of H exactly."""
    return propagate(time_rescaled(h, rf), 0.0, rf.horizon, n_steps)


def unitarity_defect(u) -> float:
    """Largest singular value of U^dag U - I, maximized over any batch."""
    u = np.asarray(u)
    if not np.all(np.isfinite(u)):
        return float("inf")
    gram = np.einsum("...ji,...jk->...ik", u.conj(), u) - IDENTITY2
    return float(np.max(np.linalg.svd(gram, compute_uv=False)))


def norm_defect(spinor) -> float:
    """Max deviation of the spinor norm from 1 over any batch."""
    s = np.asarray(spinor)
    norms = np.sqrt(np.sum(np.abs(s) ** 2, axis=-1))
    return float(np.max(np.abs(norms - 1.0)))
