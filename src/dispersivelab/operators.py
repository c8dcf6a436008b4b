"""Linear and nonlinear operators on fields.

Hilbert transform, homogeneous and inhomogeneous fractional derivatives,
the pointwise square-function derivative, Littlewood-Paley blocks, and the
three vector-field operators that commute with the model linear flows.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    Field,
    _Bands,
    _Table,
    _banded,
    _build_table,
    _fft,
    _ifft,
    _multiply,
    _multiply_bands,
    _per_row,
    _table,
)

__all__ = [
    "hilbert",
    "derivative",
    "riesz_deriv",
    "bessel_potential",
    "stein_deriv",
    "stein_l2_norm",
    "lp_block",
    "lp_block_range",
    "lp_linf_l1",
    "gamma_schrodinger",
    "gamma_airy",
    "gamma_bo",
    "gamma_t_min",
]


def hilbert(f: Field) -> Field:
    """Hilbert transform, multiplier -i*sgn(xi) with sgn(0) = 0.

    The mean mode is annihilated and the Nyquist mode zeroed (odd
    multiplier), so real input gives real output and H o H = -identity on
    mean-free, Nyquist-free fields.
    """
    return _multiply(f, _table(f.grid, "hilbert", _build_table, lambda xi: -1j * np.sign(xi)))


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative d^order/dx^order, multiplier (i*xi)^order.  An
    ``order`` whose multiplier overflows on the lattice raises ValueError
    naming it and the overflow."""
    if order < 0 or order != int(order):
        raise ValueError(f"derivative order must be a nonnegative integer, got order={order}")
    if order == 0:
        return f.copy()
    return _multiply(f, _derivative_table(f.grid, order))


def _derivative_table(grid, order: int) -> _Table:
    """The stored table of (i xi)^order, order >= 1, on the grid."""
    symbol, cause = (lambda xi: (1j * xi) ** order), f"derivative overflows there at order={order}"
    return _table(grid, ("derivative", order), _build_table, symbol, cause)


def riesz_deriv(f: Field, b: float) -> Field:
    """Homogeneous fractional derivative D^b, multiplier |xi|^b.

    |0|^b is 0 for b > 0 and 1 for b = 0, so D^0 is the identity and the
    composition law D^b o D^c = D^(b+c) holds exactly on the lattice.
    Angular-frequency convention: under the cycles-per-length convention the
    symbol reads (2 pi |xi|)^b; the two agree after rescaling x, and the
    angular form keeps the composition law exact here.  A ``b`` whose
    multiplier overflows on the lattice raises ValueError naming it and the
    overflow.
    """
    if not (b >= 0 and np.isfinite(b)):
        raise ValueError(f"order must be finite and >= 0, got b={b}")
    if b == 0:
        return f.copy()
    return _multiply(f, _riesz_table(f.grid, b))


def _riesz_table(grid, b: float) -> _Table:
    """The stored table of |xi|^b, b > 0, on the grid."""
    cause = f"riesz_deriv overflows there at b={b:g}"
    return _table(grid, ("riesz_deriv", b), _build_table, lambda xi: np.abs(xi) ** b, cause)


def bessel_potential(f: Field, s: float) -> Field:
    """Bessel potential J^s, multiplier (1 + xi^2)^(s/2); J^s o J^-s = id.
    An ``s`` whose multiplier overflows on the lattice raises ValueError
    naming ``s`` and the overflow."""
    return _multiply(f, _bessel_table(f.grid, s))


def _bessel_table(grid, s: float) -> _Table:
    """The stored table of (1 + xi^2)^(s/2) on the grid; a non-finite ``s``
    raises ValueError."""
    if not np.isfinite(s):
        raise ValueError(f"order must be finite, got s={s}")
    return _table(
        grid,
        ("bessel_potential", s),
        _build_table,
        lambda xi: (1.0 + xi**2) ** (s / 2.0),
        f"bessel_potential overflows there at s={s:g}",
    )


# Offset cells per side that stein_deriv sums directly; the rest go through
# an FFT convolution.
_NEAR_CELLS = 8


# a sum that leaves the float range is named before the result is formed
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def stein_deriv(f: Field, b: float, *, tail: str = "decay") -> Field:
    """Pointwise square-function fractional derivative of order b in (0, 1).

    Evaluates ( integral over y of |f(x)-f(y)|^2 / |x-y|^(1+2b) dy )^(1/2)
    with midpoint-offset quadrature y = x +- (j+1/2)h, which never touches
    the singular diagonal; the samples f(x +- (j+1/2)h) are the band-limited
    interpolant of f on the half-offset lattice.  The first quadrature cell
    carries the analytic correction (1/(2-2b) - 2^(2b-1)) h^(2-2b) |f'(x)|^2
    per side: the midpoint rule misweights the |x-y|^(1-2b) behaviour of the
    integrand there (the deficiency vanishes at b = 1/2).  The quadrature
    covers |x-y| < L; the far tail is completed in closed form using
    2*int_L^inf r^(-1-2b) dr = L^(-2b)/b:

    * ``tail='decay'``: f is read as zero beyond the cell and the tail adds
      |f(x)|^2 * L^(-2b)/b, exact in the limit of fields that vanish off the
      cell (the boundary gate's regime);
    * ``tail='stationary'``: f is read periodically and the tail adds
      (|f(x)-mu|^2 + var) * L^(-2b)/b with mu, var the cell mean and variance
      of f, suited to non-decaying fields whose fluctuations decorrelate at
      long range (unimodular chirps, constants).

    The quadrature costs O(n log n).  The first 8 offset cells per side are
    summed directly.  The far cells j >= 8 are summed as FFT convolutions of
    the staggered samples s with the kernel h / r^(1+2b), expanding

        |f(x) - s|^2 = |f(x) - c|^2 + |s - c|^2 - 2 Re conj(f(x) - c) (s - c)

    about the cell mean c of s: centring keeps the expansion free of
    cancellation where the result is near zero (a constant gives exactly 0).
    The convolutions are circular of length n for ``'stationary'`` and of
    length 2n, padded with samples that read as zero, for ``'decay'``.

    Output is the nonnegative real field, row by row for a block; summation
    order is fixed, so the result is deterministic.  A sum that leaves the
    float range, as on a cell so small that h^(-2b) overflows, raises
    ValueError naming L and b.
    """
    if not (0.0 < b < 1.0):
        raise ValueError(f"square-function order must lie in (0,1), got b={b}")
    if tail not in ("decay", "stationary"):
        raise ValueError(f"unknown tail mode {tail!r}")
    g = f.grid
    n, h, L = g.n, g.h, g.length
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(L) ** (-2.0 * b) / b):
            raise ValueError(f"the square-function tail L^(-2b)/b overflows at L={L:g}, b={b:g}")
    half = n // 2
    vals = f.values
    rows = vals.shape[:-1]
    fhat = _fft(vals)
    stag = _ifft(np.exp(1j * g.xi * h / 2.0) * fhat)
    # the first-cell correction, formed here so that fhat goes before the
    # far field and added after it, in the summation order below
    fprime = _ifft((1j * g.xi) * fhat)
    del fhat
    cell = (1.0 / (2.0 - 2.0 * b) - 2.0 ** (2.0 * b - 1.0)) * h ** (2.0 - 2.0 * b)
    first_cell = 2.0 * cell * np.abs(fprime) ** 2
    del fprime
    weights = h / ((np.arange(half) + 0.5) * h) ** (1.0 + 2.0 * b)

    # near cells: stag read through k pad samples per side, so that
    # ext[k + m] is the staggered sample at index m
    k = min(_NEAR_CELLS, half)
    if tail == "decay":
        pad = np.zeros(rows + (k,), dtype=complex)
        ext = np.concatenate([pad, stag, pad], axis=-1)
    else:
        ext = np.concatenate([stag[..., n - k :], stag, stag[..., :k]], axis=-1)
    acc = np.zeros(vals.shape, dtype=float)
    for j in range(k):
        dplus = vals - ext[..., k + j : k + j + n]
        dminus = vals - ext[..., k - j - 1 : k - j - 1 + n]
        acc += weights[j] * (np.abs(dplus) ** 2 + np.abs(dminus) ** 2)
    del ext, dplus, dminus

    if half > k:
        c = np.mean(stag, axis=-1, keepdims=True)
        size = 2 * n if tail == "decay" else n
        # kernel by index offset d between sample and node: offset d >= 0 is
        # cell j = d, offset d < 0 is cell j = -d - 1
        kern = np.zeros(size)
        kern[k:half] = weights[k:]
        kern[size - half : size - k] = weights[k:][::-1]
        # s and |s|^2 stacked in one buffer, transformed in place
        both = np.empty((2,) + rows + (size,), dtype=complex)
        s = both[0]
        s[...] = -c  # samples outside the cell read as 0
        s[..., :n] = stag - c
        both[1] = np.abs(s) ** 2
        _fft(both, both)
        both *= np.conj(_fft(kern))
        _ifft(both, both)
        far_s, far_sq = both[0, ..., :n], both[1, ..., :n].real
        v = vals - c
        acc += 2.0 * weights[k:].sum() * np.abs(v) ** 2
        acc += far_sq - 2.0 * (np.conj(v) * far_s).real
        del both, far_s, far_sq, v

    acc += first_cell

    if tail == "decay":
        acc += np.abs(vals) ** 2 * L ** (-2.0 * b) / b
    else:
        mu = np.mean(vals, axis=-1, keepdims=True)
        var = np.mean(np.abs(vals - mu) ** 2, axis=-1, keepdims=True)
        acc += (np.abs(vals - mu) ** 2 + var) * L ** (-2.0 * b) / b
    if not np.isfinite(acc).all():
        raise ValueError(f"the square function overflows on the cell L={L:g} at b={b:g}")
    return Field(g, np.sqrt(np.maximum(acc, 0.0)))


def stein_l2_norm(f: Field, b: float) -> float:
    """L^2 norm over the whole line of the square-function derivative.

    Even for a field vanishing off the cell, Dcal^b f (x)^2 carries the
    algebraic tail  integral |f(y)|^2 |x-y|^(-1-2b) dy ~ |x|^(-1-2b)
    outside the cell, which a cell-bounded norm misses at relative size
    ~ L^(-2b).  The missing mass has the closed form

        (1/2b) integral |f(y)|^2 [ (L-y)^(-2b) + (L+y)^(-2b) ] dy,

    exact when f vanishes off the cell; it is added here.
    """
    g = f.grid
    inner = stein_deriv(f, b)
    cell = g.h * np.sum(inner.values.real**2, axis=-1)
    # clamp the boundary nodes, where (L +- y) vanishes; gate-passing fields
    # carry no mass there
    dplus = np.maximum(g.length - g.x, g.h / 2.0)
    dminus = np.maximum(g.length + g.x, g.h / 2.0)
    outer = (
        g.h
        / (2.0 * b)
        * np.sum(np.abs(f.values) ** 2 * (dplus ** (-2.0 * b) + dminus ** (-2.0 * b)), axis=-1)
    )
    return _per_row(f, np.sqrt(cell + outer))


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks
#
# eta is built from the e^{-1/x} mollifier: smooth, supported in [1/2, 2],
# with sum over N of eta(|xi|/2^N) = 1 for xi != 0.

def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        bb = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + bb)


def _eta(s: np.ndarray) -> np.ndarray:
    # eta(s) = Phi(s) - Phi(2s) with Phi = 1 on (-inf,1], 0 on [2,inf)
    return _smoothstep(2.0 * s - 1.0) - _smoothstep(s - 1.0)


def lp_block_range(grid) -> range:
    """Dyadic indices N whose blocks meet the grid's frequency lattice,
    pi/L <= |xi| <= xi_max: from floor(log2(pi/L)), whose band
    2^(N-1) < |xi| < 2^(N+1) holds pi/L, to ceil(log2 xi_max), whose band
    holds xi_max.  The symbol of every other block is exactly 0 there."""
    n_lo = int(np.floor(np.log2(np.pi / grid.length)))
    n_hi = int(np.ceil(np.log2(grid.xi_max)))
    return range(n_lo, n_hi + 1)


def _lp_bands(grid, b: float = 0.0) -> _Bands:
    """The blocks of ``lp_block_range(grid)`` composed with D^b, a row per
    block, each held on its band (``spectral._banded``): eta(|xi|/2^N)
    |xi|^b, the blocks themselves at b = 0, evaluated on the frequencies of
    the band 1/2 < |xi|/2^N < 2 in the half lattice, where |xi| increases,
    and mirrored evenly; off the band eta is exactly 0.  Every row is
    Hermitian, and odd only where it vanishes off the Nyquist mode."""
    axi = np.abs(grid.xi[: grid.n // 2 + 1])
    bands = []
    for N in lp_block_range(grid):
        lo = np.searchsorted(axi, 2.0 ** (N - 1), side="right")
        hi = np.searchsorted(axi, 2.0 ** (N + 1), side="left")
        bands.append((lo, hi, _eta(axi[lo:hi] / 2.0**N) * axi[lo:hi] ** b))
    return _banded(grid, bands)


def _lp_table(grid, b: float = 0.0) -> _Bands:
    """The stored table of ``_lp_bands(grid, b)``."""
    return _table(grid, ("lp_blocks", b), _lp_bands, b)


def lp_block(f: Field, N: int) -> Field:
    """Littlewood-Paley block Q_N: smooth restriction to |xi| ~ 2^N, the band
    of the stored blocks (``_lp_table``) for N in ``lp_block_range``, applied
    by ``spectral._multiply_bands``.  Off that range the symbol is exactly 0
    on the lattice, and Q_N f is the zero field."""
    if not (float(N).is_integer() and abs(N) <= 60):  # NaN and inf fail it too
        raise ValueError(f"dyadic index must be an integer with |N| <= 60, got N={N}")
    N = int(N)
    blocks = lp_block_range(f.grid)
    if N not in blocks:
        return Field(f.grid, np.zeros(f.values.shape))
    row = slice(N - blocks.start, N - blocks.start + 1)
    (out,) = _multiply_bands(f, 1, lambda _: _lp_table(f.grid).take(row))
    return Field(f.grid, out[0])


def lp_linf_l1(f: Field) -> float:
    """sup_x sum_N |Q_N f (x)|, the L^inf l^1_N block norm, from one forward
    FFT of f; the blocks are applied on their bands in batches of rows
    (``spectral._multiply_bands``) and summed in the order of N
    (``_lp_sum``)."""
    return _lp_sum(f, _lp_table(f.grid))


def _lp_deriv_linf_l1(f: Field, b: float) -> float:
    """sup_x sum_N |Q_N D^b f (x)|, the L^inf l^1_N block norm of D^b f, b > 0,
    from one forward FFT of f under the stored table of the blocks composed
    with |xi|^b (``_lp_table``).  It is ``lp_linf_l1(riesz_deriv(f, b))``
    without the transforms of D^b f; the two differ by the rounding of the
    composed symbol, a few ulps of each block."""
    return _lp_sum(f, _lp_table(f.grid, b))


def _lp_sum(f: Field, table: _Bands) -> float:
    """sup_x sum over the rows m of ``table`` of |m(D) f (x)|, per row of f:
    one forward FFT of f, the rows applied in batches, and their magnitudes
    summed in the table's row order."""
    total = np.zeros(f.values.shape, dtype=float)
    for mags in map(np.abs, _multiply_bands(f, len(table.bands), table.take)):
        for row in mags:
            total += row
    return _per_row(f, np.max(total, axis=-1))


# ---------------------------------------------------------------------------
# Vector fields

def gamma_t_min(grid) -> float:
    """Smallest |t| at which the quadratic phase exp(i x^2 / 4t) is
    resolvable on the lattice (local wavelength at |x| = L exceeds 4h)."""
    return grid.length * grid.h / np.pi


def _require_time(t: float) -> None:
    """Raise ValueError naming a time ``t`` of a vector field that is not finite."""
    if not np.isfinite(t):
        raise ValueError(f"vector-field time must be finite, got t={t}")


def gamma_schrodinger(f: Field, t: float, b: float) -> Field:
    """Vector field of the free Schroedinger group, fractional order b in [0, 1].

    b = 0 is the identity and b = 1 the first-order field x + 2it d/dx, both
    valid for every t.  For 0 < b < 1 the operator is the conjugated
    fractional derivative exp(i x^2/4t) (2|t|)^b D^b exp(-i x^2/4t), which
    requires |t| >= gamma_t_min(grid) so the quadratic phase is resolved.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"vector-field order must lie in [0,1], got b={b}")
    _require_time(t)
    g = f.grid
    if b == 0.0:
        return f.copy()
    if b == 1.0:
        return Field(g, g.x * f.values) + (2j * t) * derivative(f, 1)
    tmin = gamma_t_min(g)
    if abs(t) < tmin:
        raise ValueError(
            f"|t|={abs(t):.3g} below the phase-resolvability bound {tmin:.3g} "
            "for the fractional path"
        )
    phase = np.exp(1j * g.x**2 / (4.0 * t))
    inner = Field(g, np.conj(phase) * f.values)
    frac = riesz_deriv(inner, b)
    return Field(g, (2.0 * abs(t)) ** b * phase * frac.values)


def gamma_airy(f: Field, t: float) -> Field:
    """Vector field commuting with the Airy group exp(it xi^3): x - 3t d^2/dx^2."""
    _require_time(t)
    return Field(f.grid, f.grid.x * f.values) - (3.0 * t) * derivative(f, 2)


def gamma_bo(f: Field, t: float) -> Field:
    """Vector field commuting with the Benjamin-Ono group: x - 2t H d/dx."""
    _require_time(t)
    return Field(f.grid, f.grid.x * f.values) - (2.0 * t) * hilbert(derivative(f, 1))
