"""Periodic spectral substrate: grid, fields, multipliers, quadrature.

Conventions used throughout the package:

* the spatial domain is the uniform lattice x_j = -L + j*h, j = 0..n-1,
  h = 2L/n, on the periodic cell [-L, L);
* frequencies are angular, xi_k = pi*k/L with k = -n/2..n/2-1, stored in
  FFT order.  With this convention |xi| is the symbol of the half-order
  Laplacian stack (D^b has symbol |xi|^b, d/dx has symbol i*xi) and
  D^b o D^c = D^(b+c) holds exactly on the lattice;
* operators act on the raw FFT pair: fhat_k = sum_j f_j exp(-2 pi i jk/n)
  and its inverse.  The trapezoid approximation of the line transform at
  xi_k is h * exp(i xi_k L) * fhat_k, but that factor cancels between the
  forward and the inverse transform, so a multiplier m(xi) acts as
  ifft(m(xi_k) fhat_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "apply_multiplier",
    "integrate",
    "boundary_gate",
    "real_values",
]

BOUNDARY_FRACTION = 0.1    # outer fraction of the cell inspected by the gate
BOUNDARY_TOL = 1e-10       # max |f| there must stay below tol * max |f|
REAL_TOL = 1e-10           # imaginary residue tolerated on a real model's field


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with its dual frequency lattice."""

    n: int
    length: float  # half-length L of the cell [-L, L)

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not (self.length > 0 and np.isfinite(self.length)):
            raise ValueError(f"half-length must be positive and finite, got L={self.length}")

    @property
    def h(self) -> float:
        return 2.0 * self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return -self.length + self.h * np.arange(self.n)

    @cached_property
    def xi(self) -> np.ndarray:
        # 2*pi*fftfreq(n, h) = pi*k/L in FFT order; index n/2 is the lone
        # Nyquist mode at -pi*n/(2L).
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @property
    def xi_max(self) -> float:
        return np.pi * (self.n // 2) / self.length

    @cached_property
    def _tables(self) -> dict:
        # multiplier tables of the package's operators, by operator and
        # parameter; see _table
        return {}

    def _table(self, key, symbol) -> "_Table":
        """The table of ``symbol`` (a callable of xi) stored under ``key``,
        built on first use and never replaced.  Threads sharing the grid may
        at worst build the same table twice."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _build_table(self, symbol)
        return table

    def refine(self) -> "Grid":
        """Same cell, twice the resolution."""
        return Grid(2 * self.n, self.length)


@dataclass
class Field:
    """Complex samples of a function bound to a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field samples must be finite")
        self.values = vals

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, np.asarray(fn(grid.x), dtype=np.complex128))

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(self.values.imag)) == 0.0)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __add__(self, other):
        if isinstance(other, Field):
            return Field(self.grid, self.values + other.values)
        return Field(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, Field):
            return Field(self.grid, self.values - other.values)
        return Field(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, Field):
            return Field(self.grid, self.values * other.values)
        return Field(self.grid, self.values * other)

    __rmul__ = __mul__


class _Table(NamedTuple):
    """A multiplier sampled on a grid's frequency lattice (read-only), with
    its detected symmetry.  A table may hold several multipliers, one per
    row along its last axis; ``odd`` and ``hermitian`` then hold one flag
    per row (a numpy bool for a single multiplier)."""

    values: np.ndarray
    odd: np.ndarray        # m(-xi) = -m(xi): the Nyquist mode is zeroed
    hermitian: np.ndarray  # m(-xi) = conj(m(xi)): a real input stays real


def _build_table(g: Grid, m) -> _Table:
    """Evaluate ``m`` (a callable of xi, or an array whose last axis has
    length n) on the lattice, reject a non-finite value and detect the
    symmetry of each row to 1e-13 of its max|m|."""
    mvals = np.asarray(m(g.xi) if callable(m) else m, dtype=np.complex128)
    if mvals.ndim == 0 or mvals.shape[-1] != g.n:
        raise ValueError(f"multiplier must have {g.n} values, got shape {mvals.shape}")
    bad = ~np.isfinite(mvals)
    if np.any(bad):
        k = int(np.nonzero(bad)[-1][0])
        raise ValueError(
            f"multiplier is not finite at xi={g.xi[k]:.6g} (index {k}); "
            "singular multipliers must define m there explicitly"
        )
    tol = 1e-13 * np.max(np.abs(mvals), axis=-1)
    zero = mvals[..., 0]
    pos = mvals[..., 1 : g.n // 2]
    neg = mvals[..., -1 : g.n // 2 : -1]
    odd = np.abs(zero) <= tol
    if np.any(odd):  # no scan when m(0) rules out every row
        odd &= np.max(np.abs(pos + neg), axis=-1) <= tol
    hermitian = (np.abs(zero.imag) <= tol) & (np.max(np.abs(pos - np.conj(neg)), axis=-1) <= tol)
    # a read-only view: the caller's own array stays writeable
    mvals = mvals.view()
    mvals.flags.writeable = False
    return _Table(mvals, odd, hermitian)


def _apply_table(table: _Table, fhat: np.ndarray, real: bool) -> np.ndarray:
    """Samples of the multiplier applied to raw FFT coefficients ``fhat``
    (left unchanged) of an input that is ``real`` or not; a table of several
    rows gives one row of samples per multiplier."""
    # a flag indexes its own row, and a single table's numpy bool indexes
    # the whole of it
    out = table.values * fhat
    out[..., out.shape[-1] // 2][table.odd] = 0.0
    result = np.fft.ifft(out)
    if real:
        result.imag[table.hermitian] = 0.0
    return result


def _multiply(f: Field, table: _Table) -> Field:
    """``f`` under a table built on its grid."""
    return Field(f.grid, _apply_table(table, np.fft.fft(f.values), f.is_real))


def apply_multiplier(f: Field, m) -> Field:
    """Apply a frequency multiplier m(xi) to a field.

    ``m`` is a callable evaluated on the grid's frequency lattice or a
    precomputed array of length n, applied on the raw FFT pair.

    The symbol's symmetry is detected on the lattice, to 1e-13 of max|m|, on
    every call:

    * an odd multiplier (m(-xi) = -m(xi)) gets its Nyquist mode zeroed, since
      that frequency has no positive partner on the lattice and would
      otherwise break realness of real inputs;
    * a real input under a Hermitian multiplier (m(-xi) = conj(m(xi)), real
      at xi = 0) gives a real output.  This is the one realness rule of the
      operators and the linear groups.

    The package's own operators follow the same rules through tables their
    grid builds once per symbol (``Grid._table``), so they skip the
    evaluation and the scans on a repeated call; the linear groups build
    their phases on each call (``propagators._group_scan``).
    """
    return _multiply(f, _build_table(f.grid, m))


def real_values(f: Field, what: str) -> np.ndarray:
    """The real part of a field that ``what`` (a gKdV or BO computation)
    requires to be real.  An imaginary residue up to REAL_TOL of max|f| is
    dropped; a larger one raises ValueError naming ``what`` and the residue.
    This is the one realness rule of the real models."""
    scale = float(np.max(np.abs(f.values))) or 1.0
    residue = float(np.max(np.abs(f.values.imag))) / scale
    if residue > REAL_TOL:
        raise ValueError(
            f"{what} requires a real field: its imaginary part is {residue:.3g} "
            f"of max|u|, above the {REAL_TOL:g} tolerance"
        )
    return f.values.real


def integrate(f: Field) -> complex:
    """Trapezoid rule h*sum f(x_j); spectrally accurate for smooth periodic f."""
    return complex(f.grid.h * np.sum(f.values))


def boundary_gate(f: Field) -> tuple[bool, float]:
    """Check that a field is negligible on the outer 10% of the cell.

    Returns ``(ok, ratio)`` where ratio = max |f| on |x| >= 0.9 L divided by
    the global max.  Whole-line norms computed on the periodic cell are only
    meaningful when the gate passes.
    """
    g = f.grid
    mags = np.abs(f.values)
    peak = float(np.max(mags))
    if peak == 0.0:
        return True, 0.0
    outer = np.abs(g.x) >= (1.0 - BOUNDARY_FRACTION) * g.length
    ratio = float(np.max(mags[outer]) / peak)
    return ratio < BOUNDARY_TOL, ratio


def _require_gate(f: Field, what: str) -> float:
    """The gate ratio of ``f``, the field that ``what`` names, where it enters
    a measurement.  A field that fails the gate raises ValueError naming it,
    its cell and the ratio: the one wording of that error."""
    ok, ratio = boundary_gate(f)
    if not ok:
        raise ValueError(
            f"{what} fails the boundary gate on the cell L={f.grid.length:g}: "
            f"outer-cell ratio {ratio:.2e} >= {BOUNDARY_TOL:.0e}"
        )
    return ratio
