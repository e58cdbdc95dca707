"""Exact SU(2) stepping and time-ordered propagation for two-level systems.

A Hamiltonian is held as one callable returning its four real coefficients
on the Pauli basis,

    H(t) = d0(t)*I + dx(t)*sx + dy(t)*sy + dz(t)*sz ,

all from a single evaluation at t (a float array of any shape).  Each
returned value is a scalar or an array for t.shape + batch, momentum-mode
axes trailing the time axes, aligned at the right against the value with
the most axes.  A per-mode value may leave out t's axes: when every value
has fewer axes than t, all are per mode.  A value with exactly as many
axes as t, none having more, is read as per time, so a per-mode (m,) value
at a 1-D t, or (m1, m2) at a propagation's (2, n) t, needs another value
that carries t's axes (e.g. built from ``t[..., None]``).  Units
have hbar = 1 throughout the library; laboratory knobs, hbar among them,
enter only through :func:`~dirac_rescale.iontrap.physical_units_map`.  One
step of length dt is the closed-form exponential

    exp(-i H dt) = e^{-i d0 dt} [cos(|d| dt) I - i sin(|d| dt) (d/|d|).sigma] .

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
phases add).  The coefficients are evaluated each at its own shape (a term
constant in time or across modes, or zero, keeps size 1 on those axes;
:meth:`PauliHamiltonian.coeffs` broadcasts them for callers outside), and
the steps and products write their rows in place into preallocated
records, which never share memory with their inputs; each entry has the
bits it has when every term is broadcast up front.  A propagation walks
its window in pieces: each segment between two samples is cut every
_BLOCK_STEPS steps from its start, as the walk reaches it, so the memory
held before the first step does not grow with the step count.  A piece
is reduced by a fixed-order pairwise tree that depends only on its length,
and the piece products are chained in order, so a mode's result is
bitwise the same alone or inside any batch.
One records build serves a run of whole pieces of at most 2 * _BLOCK_STEPS
step-modes (one step of one batch element), or one longer piece alone,
which bounds the temporaries; its pieces of one length are reduced in one
call.  The unitarity check is |q|^2 - 1 of each sampled quaternion.
Complex (..., 2, 2) matrices are built only at the API boundary, once per
call: for the propagators returned, or to apply to spinors.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
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

#: |d|*dt below which sin(x)/|d| is taken as dt (cos(x) is 1.0 there already)
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
    a scalar or an array for t.shape + batch, with any batch (momentum-mode)
    axes after the time axes, aligned at the right; if all have fewer axes
    than t, all are per mode (the module docstring has the one ambiguous
    case).  :meth:`coeffs` broadcasts the four values against each other
    and against t.
    """

    terms: Callable

    @classmethod
    def constant(cls, d0=0.0, dx=0.0, dy=0.0, dz=0.0) -> "PauliHamiltonian":
        return cls(lambda t: (d0, dx, dy, dz))

    def _aligned_terms(self, t):
        """shape = t.shape + batch and (d0, dx, dy, dz) at t, each at its own shape.

        Each value gets leading unit axes up to len(shape), so it indexes like
        a coefficient of that shape, but it is not broadcast: a term constant
        in time or across modes keeps size 1 on those axes.
        """
        t = np.asarray(t, dtype=float)
        vals = [np.asarray(v, dtype=float) for v in self.terms(t)]
        if max(v.ndim for v in vals) < t.ndim:
            # no term carries t's axes, so each is per mode: t's axes go in front
            vals = [v.reshape((1,) * t.ndim + v.shape) for v in vals]
        shape = np.broadcast_shapes(_align_tail(t, max(vals, key=np.ndim)).shape,
                                    *(v.shape for v in vals))
        return shape, tuple(v.reshape((1,) * (len(shape) - v.ndim) + v.shape) for v in vals)

    def coeffs(self, t):
        """(d0, dx, dy, dz) at t as broadcast views of shape t.shape + batch."""
        shape, vals = self._aligned_terms(t)
        return tuple(np.broadcast_to(v, shape) for v in vals)

    def matrix(self, t):
        """Dense (..., 2, 2) matrix d0*I + dx*sx + dy*sy + dz*sz at t, on the PAULI_* basis."""
        return sum(c[..., None, None] * s
                   for c, s in zip(self.coeffs(t), (IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z)))


def _su2_step(d0, dx, dy, dz, dt, out=None):
    """Records (cos x, sin(x) d/|d|, d0 dt) of steps, x = |d| dt.

    A record is a real array with the five components (w, vx, vy, vz, phase)
    on axis 0: the unit quaternion w - i v.sigma and the scalar phase of
    e^{-i phase} (w I - i v.sigma), so the step needs no complex arithmetic.
    The coefficients may each have their own shape; the records take the
    shape they broadcast to, written row by row into ``out`` (allocated if
    None), whose vx, vy, vz rows hold |d|, x and sin(x)/|d| until they take
    their own values.  ``out`` must not share memory with a coefficient.
    """
    d0, dx, dy, dz = (np.asarray(v, dtype=float) for v in (d0, dx, dy, dz))
    if out is None:
        out = np.empty((5,) + np.broadcast_shapes(d0.shape, dx.shape, dy.shape, dz.shape))
    # out[i, ...] is a view also when the records are 0-d
    w, vx, vy, vz, phase = (out[i, ...] for i in range(5))
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(dx, dx, out=vx)
        np.multiply(dy, dy, out=vy)
        np.add(vx, vy, out=vx)
        np.multiply(dz, dz, out=vy)
        np.add(vx, vy, out=vx)
        nd = np.sqrt(vx, out=vx)
        x = np.multiply(nd, dt, out=vy)
        np.cos(x, out=w)
        sin_over_d = np.divide(np.sin(x, out=vz), nd, out=vz)
        # sin(x)/|d| == dt sinc(x), which rounds to dt at small |x| (dt < 0 steps
        # backwards); avoids 0/0 at |d| -> 0
        np.copyto(sin_over_d, dt, where=np.abs(x, out=vx) < _SMALL_ANGLE)
        np.multiply(sin_over_d, dx, out=vx)
        np.multiply(sin_over_d, dy, out=vy)
        np.multiply(sin_over_d, dz, out=vz)
        np.multiply(d0, dt, out=phase)
    return out


def _compose(a, b, out=None):
    """Records of a after b: Hamilton product of the quaternions, phases added.

    w = wa wb - va.vb and v = wa vb + wb va + va x vb, in plain real
    arithmetic, so each entry is the same whatever the batch around it.
    The rows are written into ``out`` (allocated if None), its w and phase
    rows serving as scratch until they are written last; ``out`` must not
    share memory with a or b.
    """
    aw, ax, ay, az, ap = a
    bw, bx, by, bz, bp = b
    if out is None:
        out = np.empty((5,) + np.broadcast_shapes(np.shape(aw), np.shape(bw)))
    # out[i, ...] is a view also when the records are 0-d
    w, x, y, z, phase = (out[i, ...] for i in range(5))
    for row, (p, q, r, s, f, g, h, k) in (
            (x, (aw, bx, bw, ax, ay, bz, az, by)),
            (y, (aw, by, bw, ay, az, bx, ax, bz)),
            (z, (aw, bz, bw, az, ax, by, ay, bx))):
        # row = (p q + r s) + (f g - h k), w and phase as the two scratch rows
        np.add(np.multiply(p, q, out=row), np.multiply(r, s, out=w), out=row)
        np.subtract(np.multiply(f, g, out=w), np.multiply(h, k, out=phase), out=w)
        np.add(row, w, out=row)
    # w = wa wb - ((ax bx + ay by) + az bz), the dot product summed in w
    np.multiply(ax, bx, out=w)
    np.add(w, np.multiply(ay, by, out=phase), out=w)
    np.add(w, np.multiply(az, bz, out=phase), out=w)
    np.subtract(np.multiply(aw, bw, out=phase), w, out=w)
    np.add(ap, bp, out=phase)
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
    exponential of a2 H1 + a1 H2 after that of a1 H1 + a2 H2.  The terms
    and their node weights keep their own shapes (c[-1] is c[0] for a term
    constant in time); the step records take the whole (n, *batch) shape,
    so a constant H still gets its step axis.  The two step records are one
    buffer, freed on return: only the product's five rows stay held.
    """
    ts = t0 + (np.arange(lo, hi, dtype=float) + _CF4_NODES) * dt
    shape, terms = h._aligned_terms(ts)
    first, second = np.empty((2, 5) + shape[1:])
    _su2_step(*(_CF4_A1 * c[0] + _CF4_A2 * c[-1] for c in terms), dt, out=first)
    _su2_step(*(_CF4_A2 * c[0] + _CF4_A1 * c[-1] for c in terms), dt, out=second)
    return _compose(second, first)


def _checked_args(t0, t1, n_steps, sample_steps):
    """Step length and sample indices, validated once at every entry point."""
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not operator.index(n_steps) >= 1:
        raise ValueError("n_steps must be at least 1")
    idx = [operator.index(k) for k in sample_steps]
    if any(k < 0 or k > n_steps for k in idx) or sorted(idx) != idx:
        raise ValueError("sample steps must be ascending indices in [0, n_steps]")
    return (t1 - t0) / n_steps, idx


def _even_sample_steps(name, count, n_steps, least):
    """``count`` distinct step indices round(j * n_steps / (count - 1)), or [n_steps] for one."""
    if not least <= count <= n_steps + 1:
        raise ValueError(f"{name}: must be in [{least}, n_steps + 1 = {n_steps + 1}], got {count}")
    return [int(round(j * n_steps / (count - 1))) for j in range(count)] if count > 1 else [n_steps]


def _sampled_records(h, t0, t1, n_steps, sample_steps):
    """Sample times and the records (5, n_samples, *batch) of U(t0 + k*dt <- t0)
    at each sample index k.

    Each segment between two samples is cut into pieces every _BLOCK_STEPS
    steps from its start, as the walk reaches it, so the memory held before
    the first step does not grow with n_steps.  One records build covers a
    run of whole pieces of at most 2 * _BLOCK_STEPS step-modes (one step of
    one batch element), or one longer piece alone; within it the pieces of one
    length share their pairwise tree, so they are reduced in one call.  The
    piece products are chained in order, so each record has the bits of its
    segments reduced one at a time.  Every record must be unit to
    _UNITARITY_TOL (NaN fails the check); UnitarityError carries the defect
    of the first sample that is not.
    """
    dt, idx = _checked_args(t0, t1, n_steps, sample_steps)
    u = np.zeros((5,) + h._aligned_terms(t0 + 0.5 * dt)[0])
    if not u[0].size:
        raise ValueError("h: its batch is empty, so there is no mode to propagate")
    u[0] = 1.0
    records = np.empty((5, len(idx)) + u.shape[1:])
    records[:, :bisect_right(idx, 0)] = u[:, None]
    budget = 2 * _BLOCK_STEPS // u[0].size
    ends = (min(lo + _BLOCK_STEPS, k) for prev, k in zip([0] + idx, idx)
            for lo in range(prev, k, _BLOCK_STEPS))
    # the pieces tile [0, idx[-1]], so each starts where the one before ended
    lo, hi = 0, next(ends, None)
    # inf or NaN from coefficients too large for the step (a2 < 0 makes inf - inf,
    # huge phases overflow as they add) is left to the unitarity check
    with np.errstate(invalid="ignore", over="ignore"):
        while hi is not None:
            # one build: whole pieces within budget steps of lo, the first always
            cuts = [lo, hi]
            while (hi := next(ends, None)) is not None and hi - lo <= budget:
                cuts.append(hi)
            steps = _cf4_records(h, t0, dt, lo, cuts[-1])
            starts, stops = np.array(cuts[:-1]) - lo, np.array(cuts[1:]) - lo
            lengths = stops - starts
            products = np.empty((5, lengths.size) + steps.shape[2:])
            # a set, not np.unique, which imports numpy.ma (1.4 MiB) on first use
            for n in set(lengths.tolist()):
                at = np.flatnonzero(lengths == n)
                if stops[at[-1]] - starts[at[0]] == at.size * n:
                    # side by side: a view, so a long piece is not copied
                    group = steps[:, starts[at[0]]:stops[at[-1]]]
                    group = group.reshape((5, at.size, n) + steps.shape[2:])
                else:
                    group = steps[:, np.add.outer(starts[at], np.arange(n))]
                products[:, at] = _ordered_product(group.swapaxes(1, 2))
            # the next build need not find these records still held
            del steps, group
            for end, product in zip(cuts[1:], products.swapaxes(0, 1)):
                u = _compose(product, u)
                records[:, bisect_left(idx, end):bisect_right(idx, end)] = u[:, None]
            lo = cuts[-1]
        w, x, y, z, phase = records
        # 0 * phase is NaN for a non-finite phase, so the check fails on it too
        defect = np.abs(w * w + x * x + y * y + z * z - 1.0) + 0.0 * phase
        defect = np.max(defect, axis=tuple(range(1, defect.ndim)))
    failed = np.flatnonzero(~(defect <= _UNITARITY_TOL))
    if failed.size:
        raise UnitarityError(float(defect[failed[0]]), _UNITARITY_TOL)
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
        _, vals = h._aligned_terms(rf.f(s))
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
