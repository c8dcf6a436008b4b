"""Norm functionals: weighted L2, Sobolev, Lebesgue, and the Muckenhoupt A_p
constant of a weight."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import bessel_potential
from .spectral import Field

__all__ = [
    "weighted_l2",
    "sobolev",
    "lebesgue",
    "ap_constant",
    "ApConstant",
    "power_weight",
]


def weighted_l2(f: Field, m: float, *, bracket: bool = False) -> float:
    """Weighted norm ( integral |x|^(2m) |f|^2 dx )^(1/2).

    With ``bracket=True`` the Japanese bracket <x> = (1+x^2)^(1/2) replaces
    |x|.  The exponent convention is explicit: the integrand carries the
    weight to the power 2m.  No boundary gate runs here, though the weight
    amplifies exactly the region it inspects: callers run
    :func:`dispersivelab.spectral.boundary_gate` where a field enters.
    """
    if m < 0:
        raise ValueError(f"weight exponent must be >= 0, got m={m}")
    g = f.grid
    w = (1.0 + g.x**2) ** m if bracket else np.abs(g.x) ** (2.0 * m)
    return float(np.sqrt(g.h * np.sum(w * np.abs(f.values) ** 2)))


def sobolev(f: Field, s: float) -> float:
    """H^s norm || (1+xi^2)^(s/2) fhat ||, computed via the Bessel potential."""
    js = bessel_potential(f, s)
    return float(np.sqrt(f.grid.h * np.sum(np.abs(js.values) ** 2)))


def lebesgue(f: Field, p: float) -> float:
    """L^p norm; p = inf gives the lattice max norm."""
    return float(_lebesgue_rows(f.values, f.grid.h, p))


def _lebesgue_rows(values: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm of lattice samples with spacing h along the last axis of
    ``values``: the formula of :func:`lebesgue`, one norm per row."""
    if p == np.inf:
        return np.max(np.abs(values), axis=-1)
    if p < 1:
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got p={p}")
    integrals = h * np.sum(np.abs(values) ** p, axis=-1)
    # the root number by number: numpy's array power and its scalar power
    # can round differently in the last bit
    return np.array([s ** (1.0 / p) for s in integrals.flat]).reshape(np.shape(integrals))


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
    every alpha > -1).  alpha = 0 gives the constant weight 1 exactly; an
    alpha that is not finite or not above -1 raises ValueError.
    """
    if not (np.isfinite(alpha) and alpha > -1):
        raise ValueError(
            f"power weight needs a finite alpha > -1 to be locally integrable, got alpha={alpha}"
        )
    if alpha == 0:
        return Field(grid, np.ones(grid.n))
    x = grid.x
    w = np.zeros(grid.n)
    nz = x != 0.0
    w[nz] = np.abs(x[nz]) ** alpha
    w[~nz] = (grid.h / 2.0) ** alpha / (alpha + 1.0)
    return Field(grid, w)
