"""Norm functionals: weighted L2, Sobolev, Lebesgue, mixed space-time norms,
and the Muckenhoupt A_p constant of a weight."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import bessel_potential
from .spectral import Field, _build_table, _multiply, boundary_gate

__all__ = [
    "weighted_l2",
    "sobolev",
    "lebesgue",
    "mixed_norm",
    "ap_constant",
    "ApConstant",
    "power_weight",
]


def weighted_l2(f: Field, m: float, *, bracket: bool = False, check_gate: bool = True) -> float:
    """Weighted norm ( integral |x|^(2m) |f|^2 dx )^(1/2).

    With ``bracket=True`` the Japanese bracket <x> = (1+x^2)^(1/2) replaces
    |x|.  The exponent convention is explicit: the integrand carries the
    weight to the power 2m.  A boundary-gate violation warns but does not
    fail; the weight amplifies exactly the region the gate inspects.
    """
    if m < 0:
        raise ValueError(f"weight exponent must be >= 0, got m={m}")
    if check_gate:
        boundary_gate(f, warn=True, context="weighted_l2")
    g = f.grid
    w = (1.0 + g.x**2) ** m if bracket else np.abs(g.x) ** (2.0 * m)
    return float(np.sqrt(g.h * np.sum(w * np.abs(f.values) ** 2)))


def sobolev(f: Field, s: float) -> float:
    """H^s norm || (1+xi^2)^(s/2) fhat ||, computed via the Bessel potential."""
    js = bessel_potential(f, s)
    return float(np.sqrt(f.grid.h * np.sum(np.abs(js.values) ** 2)))


def lebesgue(f: Field, p: float) -> float:
    """L^p norm; p = inf gives the lattice max norm."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got p={p}")
    g = f.grid
    return float((g.h * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def mixed_norm(traj, p_x: float, q_t: float, order: str = "x-then-t", deriv=None) -> float:
    """Mixed space-time norm of a trajectory with an optional derivative
    multiplier applied to every snapshot.

    ``order='x-then-t'`` composes ( int_0^T ||D u(t)||_px^qt dt )^(1/qt);
    ``order='t-then-x'`` takes the time norm at every node first, realizing
    sup_x ( int_0^T |D u(x,t)|^2 dt )^(1/2) style functionals for p_x = inf.
    Time integration is the trapezoid rule on the snapshot times, so the two
    orders agree exactly when p_x = q_t = 2.
    """
    times = np.asarray(traj.times, dtype=float)
    if len(times) == 0:
        raise ValueError("mixed norm of an empty trajectory")
    if order not in ("x-then-t", "t-then-x"):
        raise ValueError(f"unknown order {order!r}")
    snaps = traj.snapshots
    if deriv is not None:
        # one table for every snapshot: they share one grid
        table = _build_table(snaps[0].grid, deriv)
        snaps = [_multiply(s, table) for s in snaps]
    if len(times) == 1:
        # degenerate: just the spatial norm of the lone snapshot
        return lebesgue(snaps[0], p_x)

    dt = np.diff(times)
    tw = np.zeros(len(times))
    tw[:-1] += 0.5 * dt
    tw[1:] += 0.5 * dt

    if order == "x-then-t":
        vals = np.array([lebesgue(s, p_x) for s in snaps])
        if q_t == np.inf:
            return float(np.max(vals))
        return float((np.sum(tw * vals**q_t)) ** (1.0 / q_t))

    stack = np.stack([np.abs(s.values) for s in snaps], axis=0)  # (nt, nx)
    if q_t == np.inf:
        per_node = np.max(stack, axis=0)
    else:
        per_node = (np.sum(tw[:, None] * stack**q_t, axis=0)) ** (1.0 / q_t)
    grid = snaps[0].grid
    if p_x == np.inf:
        return float(np.max(per_node))
    return float((grid.h * np.sum(per_node**p_x)) ** (1.0 / p_x))


class ApConstant(NamedTuple):
    value: float
    lo: float
    hi: float


def ap_constant(w: Field, p: float) -> ApConstant:
    """Muckenhoupt A_p constant over dyadic subintervals of [-L, L).

    Computes sup_Q (avg_Q w) (avg_Q w^(1-p'))^(p-1) over the dyadic
    partitions at every scale >= 2h (n is a power of two, so each interval
    holds an exact number of nodes).  Restricting to dyadic intervals loses
    at most a bounded factor against the full interval sup; refinement
    trends are what the verdicts assert.  Returns the sup and the interval
    attaining it.
    """
    if not (1.0 < p < np.inf):
        raise ValueError(f"A_p requires p in (1, inf), got p={p}")
    vals = w.values.real
    if np.max(np.abs(w.values.imag)) > 0 or np.min(vals) <= 0:
        raise ValueError("A_p weight must be strictly positive and real")
    g = w.grid
    n = g.n
    pprime = p / (p - 1.0)
    dual = vals ** (1.0 - pprime)

    best = -np.inf
    best_iv = (-g.length, g.length)
    levels = int(np.log2(n))  # intervals at level j have n / 2^j nodes
    for j in range(0, levels):
        m = n >> j
        a = vals.reshape(-1, m).mean(axis=1)
        bvec = dual.reshape(-1, m).mean(axis=1)
        prod = a * bvec ** (p - 1.0)
        k = int(np.argmax(prod))
        if prod[k] > best:
            best = float(prod[k])
            width = 2.0 * g.length / (1 << j)
            best_iv = (-g.length + k * width, -g.length + (k + 1) * width)
    return ApConstant(best, best_iv[0], best_iv[1])


def power_weight(grid, alpha: float) -> Field:
    """The weight |x|^alpha sampled on the grid.

    The origin node takes the exact cell average
    (1/h) int_{-h/2}^{h/2} |x|^alpha dx = (h/2)^alpha / (alpha+1), the
    quadrature-consistent regularization of the singular value (finite for
    every alpha > -1).  alpha = 0 gives the constant weight 1 exactly.
    """
    if alpha <= -1:
        raise ValueError(f"power weight needs alpha > -1 to be locally integrable, got {alpha}")
    if alpha == 0:
        return Field(grid, np.ones(grid.n))
    x = grid.x
    w = np.zeros(grid.n)
    nz = x != 0.0
    w[nz] = np.abs(x[nz]) ** alpha
    w[~nz] = (grid.h / 2.0) ** alpha / (alpha + 1.0)
    return Field(grid, w)
