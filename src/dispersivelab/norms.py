"""Norm functionals: weighted L2, Sobolev, Lebesgue, and the Muckenhoupt A_p
constant of a weight."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import _bessel_table
from .spectral import Field, _one_row, _per_row, _table_norm

__all__ = [
    "weighted_l2",
    "sobolev",
    "lebesgue",
    "ap_constant",
    "ApConstant",
    "power_weight",
]


def weighted_l2(f: Field, m: float, *, bracket: bool = False) -> float:
    """Weighted norm ( integral |x|^(2m) |f|^2 dx )^(1/2); m = 0 gives the
    L^2 norm.

    With ``bracket=True`` the Japanese bracket <x> = (1+x^2)^(1/2) replaces
    |x|.  The exponent convention is explicit: the integrand carries the
    weight to the power 2m.  No boundary gate runs here, though the weight
    amplifies exactly the region it inspects: callers run
    :func:`dispersivelab.spectral.boundary_gate` where a field enters.  A
    weight that overflows on the cell raises ValueError.
    """
    if not (np.isfinite(m) and m >= 0):
        raise ValueError(f"weight exponent must be finite and >= 0, got m={m}")
    g = f.grid
    density = np.abs(f.values) ** 2
    if m != 0.0:  # at m = 0 the weight is 1.0 at every node, and 1.0 * y is y
        with np.errstate(over="ignore"):
            w = (1.0 + g.x**2) ** m if bracket else np.abs(g.x) ** (2.0 * m)
        _require_finite(w, f"{'<x>' if bracket else '|x|'}^(2m)", g, f"m={m}")
        density *= w
    return _per_row(f, np.sqrt(g.h * np.sum(density, axis=-1)))


def sobolev(f: Field, s: float) -> float:
    """H^s norm || (1+xi^2)^(s/2) fhat ||, the L^2 norm of the Bessel
    potential J^s f read off its spectrum (``spectral._table_norm``)."""
    return _table_norm(f, _bessel_table(f.grid, s))


def lebesgue(f: Field, p: float) -> float:
    """L^p norm; p = inf gives the lattice max norm."""
    return _per_row(f, _lebesgue_rows(f.values, f.grid.h, p))


def _lebesgue_rows(values: np.ndarray, h: float, p: float, weight=None) -> np.ndarray:
    """L^p norm of lattice samples with spacing h along the last axis of
    ``values``: the formula of :func:`lebesgue`, one norm per row; a
    ``weight`` (finite p only) multiplies |values|^p in the integrand.  A
    nonzero row whose |values|^p leaves the float range raises ValueError."""
    if p == np.inf:
        return np.max(np.abs(values), axis=-1)
    if not p >= 1:  # NaN fails it too
        raise ValueError(f"Lebesgue exponent must satisfy p >= 1 or p = inf, got p={p}")
    with np.errstate(over="ignore", invalid="ignore"):  # the range error raised below
        powers = np.abs(values) ** p
        integrals = h * np.sum(powers if weight is None else weight * powers, axis=-1)
    lost = ~(np.isfinite(integrals) & (integrals > 0.0))
    if lost.any() and np.any(values[lost] * (1.0 if weight is None else weight)):
        raise _range_error(p)
    return _powers(integrals, 1.0 / p)


def _range_error(p: float) -> ValueError:
    """The error of an L^p norm whose |f|^p leaves the float range."""
    return ValueError(f"|f|^p leaves the float range at the Lebesgue exponent p={p:g}")


def _spectral_l2(f: Field, table, fhat=None):
    """``lebesgue(m(D) f, 2)``, m the one multiplier of ``table``, read off
    the spectrum of f (``spectral._table_norm``, ``fhat`` as it takes it)
    with no inverse transform.  A norm that leaves the float range raises
    lebesgue's ValueError, with no RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):  # the range error raised below
        norms = _table_norm(f, table, fhat)
    if not np.isfinite(norms).all():
        raise _range_error(2.0)
    return norms


def _powers(values, e) -> np.ndarray:
    """Each of ``values`` to the power ``e``, number by number: numpy's array
    power and Python's scalar power can round differently in the last bit."""
    return np.array([float(v) ** e for v in np.ravel(values)]).reshape(np.shape(values))


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
    _one_row(w, "ap_constant")
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
    alpha that is not finite or not above -1, or whose weight overflows on
    the cell, raises ValueError.
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
    with np.errstate(over="ignore"):
        w[nz] = np.abs(x[nz]) ** alpha
    _require_finite(w, "|x|^alpha", grid, f"alpha={alpha}")
    w[~nz] = (grid.h / 2.0) ** alpha / (alpha + 1.0)
    return Field(grid, w)


def _require_finite(w: np.ndarray, weight: str, grid, exponent: str) -> None:
    """Raise ValueError, naming the exponent and the cell, unless the samples
    ``w`` of ``weight`` are finite."""
    if not np.isfinite(w).all():
        raise ValueError(
            f"the weight {weight} overflows on the cell L={grid.length:g}, got {exponent}"
        )
