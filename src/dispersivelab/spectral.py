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

Every FFT of the package goes through the four private transforms below
(``_fft``, ``_ifft``, ``_rfft``, ``_irfft``).  They call numpy's pocketfft
gufuncs, the kernels under ``np.fft.*``, directly, so each result is
bitwise the ``np.fft`` one without that wrapper's per-call overhead, and
each takes an optional ``out``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

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
# Samples in one batched array of rows (256 kB of complex values: 4 rows at
# n = 4096, 2 at n = 8192).  One FFT call over 4 rows at n = 4096 costs 0.6x
# as much per row as single-row calls; at 2**15 a check's few live blocks
# took more peak memory than its former list of one row per member.
BLOCK_SAMPLES = 2**14


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with its dual frequency lattice."""

    n: int
    length: float  # half-length L of the cell [-L, L)

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not (0.0 < self.h < np.inf and np.isfinite(self.xi_max)):  # NaN fails it too
            raise ValueError(f"half-length must give a finite lattice, 0 < 2L/n and pi*n/(2L) "
                             f"< inf, got L={self.length}, n={self.n}")

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
    def _outer(self) -> tuple:
        """``(head, tail)``: the outer cell |x| >= (1 - BOUNDARY_FRACTION) L
        of the gate is ``x[:head]`` and ``x[tail:]``, since x increases."""
        outer = np.abs(self.x) >= (1.0 - BOUNDARY_FRACTION) * self.length
        return int(np.argmin(outer)), self.n - int(np.argmin(outer[::-1]))

    def refine(self) -> "Grid":
        """Same cell, twice the resolution."""
        return Grid(2 * self.n, self.length)


def _fft(a: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.fft(a)`` along the last axis, written into ``out`` if given."""
    return _pocketfft.fft(a, 1.0, out=np.empty(a.shape, complex) if out is None else out)


def _ifft(a: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.ifft(a)`` along the last axis, written into ``out`` if given."""
    out = np.empty(a.shape, complex) if out is None else out
    return _pocketfft.ifft(a, 1.0 / a.shape[-1], out=out)


def _rfft(a: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.rfft(a)`` of real rows of even length along the last axis,
    written into ``out`` if given."""
    shape = a.shape[:-1] + (a.shape[-1] // 2 + 1,)
    return _pocketfft.rfft_n_even(a, 1.0, out=np.empty(shape, complex) if out is None else out)


def _irfft(a: np.ndarray, n: int, out=None) -> np.ndarray:
    """``np.fft.irfft(a, n)`` along the last axis, written into ``out`` (n
    real samples per row) if given."""
    out = np.empty(a.shape[:-1] + (n,)) if out is None else out
    return _pocketfft.irfft(a, 1.0 / n, out=out)


def _row_blocks(count: int, n: int) -> list:
    """Slices that cut ``count`` rows of ``n`` samples into blocks of at most
    BLOCK_SAMPLES samples, and at least one row, each."""
    rows = max(1, BLOCK_SAMPLES // n)
    return [slice(start, min(start + rows, count)) for start in range(0, count, rows)]


@dataclass
class Field:
    """Complex samples of a function bound to a grid: one row of n samples,
    or a block of k rows, shape (k, n).  Every function of a field acts on a
    block row by row; one that reduces a field to numbers returns a Python
    number for one row and one value per row for a block (``_per_row``)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim not in (1, 2) or vals.shape[-1] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("field samples must be finite")
        self.values = vals

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, np.asarray(fn(grid.x), dtype=np.complex128))

    @property
    def is_real(self) -> bool:
        return _per_row(self, _real_rows(self.values))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def _combine(self, op, other) -> "Field":
        """The field of ``op(self.values, other)``, ``other`` a Field on the
        same grid (else ValueError) or an array."""
        if isinstance(other, Field):
            if other.grid is not self.grid and other.grid != self.grid:
                raise ValueError(
                    f"fields on two grids do not combine: {self.grid} and {other.grid}"
                )
            other = other.values
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._combine(np.add, other)

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __mul__(self, other):
        return self._combine(np.multiply, other)

    __rmul__ = __mul__


class _Table(NamedTuple):
    """A multiplier sampled on a grid's frequency lattice (read-only), with
    its detected symmetry.  A table may hold several multipliers, one per
    row along its last axis; ``odd`` and ``hermitian`` then hold one flag
    per row (a 0-d array for a single multiplier)."""

    values: np.ndarray
    odd: np.ndarray        # m(-xi) = -m(xi): the Nyquist mode is zeroed
    hermitian: np.ndarray  # m(-xi) = conj(m(xi)): a real input stays real

    def rows(self, index) -> "_Table":
        """The multipliers of the rows that ``index`` selects."""
        return _Table(self.values[index], self.odd[index], self.hermitian[index])


# Every stored table of the package's operators, by (n, L, key), oldest
# first.  Their values hold at most _STORE_BYTES together (the refine
# battery's 20 tables hold 2.36 MiB, its real ones as float64), so a sweep
# over many grids or parameters holds a bounded amount.
_STORE_BYTES = 2**24
_store: dict = {}
_store_lock = threading.Lock()


def _table(grid: Grid, key, build, *args) -> _Table:
    """The table ``build(grid, *args)`` of every grid of ``grid``'s size and
    cell, stored under ``(grid.n, grid.length, key)``: built on first use
    and never replaced.  A table is held at the width of its values
    (``_narrowed``).  The oldest tables are dropped before a new one is
    inserted, so the store holds at most _STORE_BYTES of values; a larger
    table is returned unstored.  Threads may at worst build the same table
    twice."""
    stored = (grid.n, grid.length, key)
    with _store_lock:
        table = _store.get(stored)
    if table is None:
        table = _narrowed(build(grid, *args))
        size = table.values.nbytes
        with _store_lock:
            if stored not in _store and size <= _STORE_BYTES:
                while sum(t.values.nbytes for t in _store.values()) + size > _STORE_BYTES:
                    del _store[next(iter(_store))]
                _store[stored] = table
    return table


def _narrowed(table: _Table) -> _Table:
    """``table`` with its values as read-only float64 when every imaginary
    part is +0.0, else ``table`` itself.  Applied to complex coefficients,
    a float value is cast to ``x+0j`` before the complex multiply, so every
    product keeps its bits.  A -0.0 imaginary part keeps a table complex:
    the cast would make it +0.0, which can flip the sign of a zero in the
    product."""
    imag = table.values.imag
    if imag.any() or np.signbit(imag).any():
        return table
    values = table.values.real.copy()
    values.flags.writeable = False
    return table._replace(values=values)


_SINGULAR = "singular multipliers must define m there explicitly"


def _build_table(g: Grid, m, cause: str = _SINGULAR) -> _Table:
    """Evaluate ``m`` (a callable of xi, or an array whose last axis has
    length n) on the lattice, reject a non-finite value (the error ends in
    ``cause``) and detect the symmetry of each row to 1e-13 of its max|m|."""
    with np.errstate(over="ignore"):  # an overflow is the non-finite value named below
        mvals = np.asarray(m(g.xi) if callable(m) else m, dtype=np.complex128)
    if mvals.ndim == 0 or mvals.shape[-1] != g.n or mvals.size == 0:
        raise ValueError(f"multiplier must have {g.n} values, got shape {mvals.shape}")
    _require_finite_symbol(g, mvals, cause)
    # the scans run on blocks of rows, which bounds their temporaries
    rows = mvals.reshape(-1, g.n)
    flags = [_symmetry(rows[block]) for block in _row_blocks(len(rows), g.n)]
    odd, hermitian = (np.concatenate(f).reshape(mvals.shape[:-1]) for f in zip(*flags))
    return _frozen(mvals, odd, hermitian)


def _mirror(half: np.ndarray, n: int, conjugate: bool) -> np.ndarray:
    """Rows on the half lattice ``xi[: n/2 + 1]`` extended to the whole
    FFT-ordered lattice of n modes: m(-xi) is conj(m(xi)) when
    ``conjugate``, else m(xi)."""
    mirror = half[..., n // 2 - 1 : 0 : -1]
    return np.concatenate([half, mirror.conj() if conjugate else mirror], axis=-1)


def _mirrored_table(g: Grid, half: np.ndarray, conjugate: bool) -> _Table:
    """The table of rows ``half``, finite or not, on the half lattice
    ``xi[: n/2 + 1]``, mirrored here onto the rest (``_mirror``) by the
    ``conjugate`` that its flags read.  The finiteness test and the flags
    read the half alone and are bitwise those of _build_table's scan: the
    mirror repeats the half or its conjugates, so max|m| is the half's; a
    conjugated mirror makes pos - conj(neg) exactly 0, an even one exactly
    2i Im(pos); and the odd test forms pos + neg as the scan does.  A
    non-finite value raises ValueError as for a singular multiplier
    (``_require_finite_symbol`` with ``_SINGULAR``)."""
    tol = 1e-13 * np.max(np.abs(half), axis=-1)
    if not np.isfinite(tol).all():  # a non-finite value, or one whose |m| overflows
        _require_finite_symbol(g, half, _SINGULAR)
    zero, pos = half[..., 0], half[..., 1 : g.n // 2]
    odd = np.abs(zero) <= tol
    if np.any(odd):
        odd &= np.max(np.abs(pos + (np.conj(pos) if conjugate else pos)), axis=-1) <= tol
    hermitian = np.abs(zero.imag) <= tol
    if not conjugate:
        hermitian &= 2.0 * np.max(np.abs(pos.imag), axis=-1) <= tol
    return _frozen(_mirror(half, g.n, conjugate), odd, hermitian)


def _require_finite_symbol(g: Grid, mvals: np.ndarray, cause: str) -> None:
    """Raise ValueError at the first non-finite value of ``mvals``, a table's
    rows or their heads, naming its frequency and index and then ``cause``."""
    bad = ~np.isfinite(mvals)
    if np.any(bad):
        k = int(np.argwhere(bad)[0][-1])
        raise ValueError(f"multiplier is not finite at xi={g.xi[k]:.6g} (index {k}); {cause}")


def _frozen(mvals: np.ndarray, odd, hermitian) -> _Table:
    """The table of ``mvals`` as a read-only view, so the caller's own array
    stays writeable, with its flags as arrays of the row shape."""
    mvals = mvals.view()
    mvals.flags.writeable = False
    return _Table(mvals, np.asarray(odd), np.asarray(hermitian))


def _symmetry(rows: np.ndarray) -> tuple:
    """The odd and the Hermitian flag of each of ``rows``, multipliers on the
    lattice, to 1e-13 of the row's max|m|."""
    n = rows.shape[-1]
    tol = 1e-13 * np.max(np.abs(rows), axis=-1)
    zero = rows[:, 0]
    pos = rows[:, 1 : n // 2]
    neg = rows[:, -1 : n // 2 : -1]
    odd = np.abs(zero) <= tol
    if np.any(odd):  # no scan when m(0) rules out every row
        odd &= np.max(np.abs(pos + neg), axis=-1) <= tol
    hermitian = (np.abs(zero.imag) <= tol) & (np.max(np.abs(pos - np.conj(neg)), axis=-1) <= tol)
    return odd, hermitian


def _real_rows(values: np.ndarray) -> np.ndarray:
    """One flag per row of ``values``: its imaginary parts are all zero."""
    return ~values.imag.any(axis=-1)


def _product(table: _Table, fhat: np.ndarray) -> tuple:
    """``table.values * fhat`` in a new buffer, with the Nyquist mode of
    each row under an odd multiplier zeroed, and zeros of the product's row
    shape.  The table's values are complex or float64 (``_narrowed``).  The
    table's rows and the input's rows pair up by broadcasting: one
    multiplier acts on every input row, and one input row gives one row of
    coefficients per multiplier."""
    out = table.values * fhat
    # ORed into the flags, zeros of the output's row shape spread a table's
    # one flag over every row
    rows = np.zeros(out.shape[:-1], dtype=bool)
    out[..., out.shape[-1] // 2][table.odd | rows] = 0.0
    return out, rows


def _apply_table(table: _Table, fhat: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Samples of the multiplier applied to raw FFT coefficients ``fhat``
    (left unchanged) of input rows, ``real`` holding one flag per row, the
    rows paired as :func:`_product` pairs them.  The product is
    inverse-transformed in place."""
    out, rows = _product(table, fhat)
    _ifft(out, out)
    out.imag[table.hermitian & real | rows] = 0.0
    return out


def _spectrum(f: Field) -> np.ndarray:
    """The raw FFT coefficients of ``f``'s rows, for a caller that applies
    several tables to one field (``_multiply``, ``_table_norm``)."""
    return _fft(f.values)


def _multiply(f: Field, table: _Table, fhat=None) -> Field:
    """``f``, one row or a block, under a table built on its grid; ``fhat``
    is f's ``_spectrum`` when the caller holds it."""
    fhat = _fft(f.values) if fhat is None else fhat
    return Field(f.grid, _apply_table(table, fhat, _real_rows(f.values)))


def _table_norm(f: Field, table: _Table, fhat=None):
    """The L^2 norm sqrt(h sum_j |g_j|^2) of each row of ``g = m(D) f``, the
    one multiplier of a table built on f's grid, read off g's coefficients
    by discrete Parseval, h sum_j |g_j|^2 = (h/n) sum_k |ghat_k|^2, with no
    inverse transform; ``fhat`` is f's ``_spectrum`` when the caller holds
    it.  It is ``weighted_l2(_multiply(f, table), 0.0)`` to a few ulps
    wherever the output stands above roundoff.  For a real row under a
    Hermitian table the kernel drops its output's imaginary part, which
    under the package's tables (their Nyquist value is real or zeroed) is
    the forward transform's roundoff times the table, and this norm keeps
    it.  The coefficients are scaled by 1/n, an exact power of two,
    before they are squared: then none exceeds the mean of |g_j|, so a
    norm whose samples' squares stay in the float range stays finite.  The
    product is formed in one buffer and reduced in place."""
    n = f.grid.n
    ghat, _ = _product(table, _fft(f.values) if fhat is None else fhat)
    parts = ghat.view(np.float64)  # the real and imaginary parts of each row
    scale = 1.0 / n
    parts *= scale
    np.square(parts, out=parts)
    return _per_row(f, np.sqrt(f.grid.h / n * np.sum(parts, axis=-1)) / scale)


def _multiply_rows(f: Field, count: int, table_of):
    """``count`` multipliers applied to every row of ``f``, yielded in
    batches of shape ``(rows, *f.values.shape)`` of at most BLOCK_SAMPLES
    samples (``_row_blocks``): one forward FFT of f, then each slice
    ``block`` of the multipliers under its table ``table_of(block)``
    (e.g. ``table.rows``) by the rules of :func:`apply_multiplier`."""
    fhat = _fft(f.values)
    real = _real_rows(f.values)
    paired = (slice(None),) + (None,) * (f.values.ndim - 1)
    # an empty block takes one batch
    for block in _row_blocks(count, max(f.values.size, 1)):
        yield _apply_table(table_of(block).rows(paired), fhat, real)


def apply_multiplier(f: Field, m) -> Field:
    """Apply a frequency multiplier m(xi) to a field, or to each row of a
    block.

    ``m`` is a callable evaluated on the grid's frequency lattice or a
    precomputed array of length n, applied on the raw FFT pair.

    The symbol's symmetry is detected on the lattice, to 1e-13 of max|m|, on
    every call:

    * an odd multiplier (m(-xi) = -m(xi)) gets its Nyquist mode zeroed, since
      that frequency has no positive partner on the lattice and would
      otherwise break realness of real inputs;
    * a real input under a Hermitian multiplier (m(-xi) = conj(m(xi)), real
      at xi = 0) gives a real output; in a block the rule holds row by row.
      This is the one realness rule of the operators and the linear groups.

    The package's own operators follow the same rules through tables with
    the same flags, kept in one store (``_table``) or built on the half
    lattice and mirrored, their flags read off that half with no scan
    (``_mirrored_table``).  One multiplier is applied here: an array of any
    shape other than (n,) raises ValueError.
    """
    table = _build_table(f.grid, m)
    if table.values.ndim != 1:  # stacks of multipliers go through _multiply_rows
        raise ValueError(f"multiplier must have {f.grid.n} values, got shape {table.values.shape}")
    return _multiply(f, table)


def real_values(f: Field, what: str) -> np.ndarray:
    """The real part of a field that ``what`` (a gKdV or BO computation)
    requires to be real.  An imaginary residue up to REAL_TOL of max|f| is
    dropped, row by row; a larger one raises ValueError naming ``what`` and
    the largest residue.  This is the one realness rule of the real models."""
    scale = np.max(np.abs(f.values), axis=-1)
    residue = np.max(np.abs(f.values.imag), axis=-1) / np.where(scale == 0.0, 1.0, scale)
    if np.any(residue > REAL_TOL):
        raise ValueError(
            f"{what} requires a real field: its imaginary part is {np.max(residue):.3g} "
            f"of max|u|, above the {REAL_TOL:g} tolerance"
        )
    return f.values.real


def integrate(f: Field) -> complex:
    """Trapezoid rule h*sum f(x_j); spectrally accurate for smooth periodic f."""
    return _per_row(f, f.grid.h * np.sum(f.values, axis=-1))


def boundary_gate(f: Field) -> tuple[bool, float]:
    """Check that a field is negligible on the outer 10% of the cell.

    Returns ``(ok, ratio)`` where ratio = max |f| on |x| >= 0.9 L divided by
    the global max (0 for a zero field), one of each per row of a block.
    The outer cell is read as the two end slices that the grid finds once
    (``Grid._outer``).  Whole-line norms computed on the periodic cell are
    only meaningful when the gate passes.
    """
    head, tail = f.grid._outer
    mags = np.abs(f.values)
    peak = np.max(mags, axis=-1)
    outer = np.max(mags[..., :head], axis=-1)
    if tail < f.grid.n:  # a grid of n <= 16 has no outer points at x > 0
        outer = np.maximum(outer, np.max(mags[..., tail:], axis=-1))
    # a zero row has a zero outer max: 0 / inf
    ratio = _per_row(f, outer / np.where(peak == 0.0, np.inf, peak))
    return ratio < BOUNDARY_TOL, ratio


def _per_row(f: Field, values):
    """``values``, one per row of ``f``, as a reduction of ``f`` returns
    them: a Python number for one row, the array for a block."""
    return values.item() if f.values.ndim == 1 else values


def _one_row(f: Field, what: str) -> None:
    """Raise ValueError naming ``what`` when ``f`` is a block of rows: a
    function that takes one field as a weight, or one field into a
    measurement, never reads a block."""
    if f.values.ndim != 1:
        raise ValueError(f"{what} takes one field, got a block of shape {f.values.shape}")


def _require_gate(f: Field, what: str) -> float:
    """The gate ratio of ``f``, the one field that ``what`` names, where it
    enters a measurement.  A block, or a field that fails the gate, raises
    ValueError naming it (with its cell and the ratio: the one wording of
    that error)."""
    _one_row(f, what)
    ok, ratio = boundary_gate(f)
    if not ok:
        raise _gate_error(f.grid, what, ratio)
    return ratio


def _gate_error(g: Grid, what: str, ratio: float) -> ValueError:
    """The error of a field, named by ``what``, whose gate ``ratio`` on the
    grid ``g`` fails: the one wording of that error."""
    return ValueError(
        f"{what} fails the boundary gate on the cell L={g.length:g}: "
        f"outer-cell ratio {ratio:.2e} >= {BOUNDARY_TOL:.0e}"
    )
