"""Linear and nonlinear operators on fields.

Hilbert transform, homogeneous and inhomogeneous fractional derivatives,
the pointwise square-function derivative, Littlewood-Paley blocks, and the
three vector-field operators that commute with the model linear flows.
"""

from __future__ import annotations

import numpy as np

from .spectral import Field, apply_multiplier

__all__ = [
    "hilbert",
    "derivative",
    "riesz_deriv",
    "bessel_potential",
    "stein_deriv",
    "lp_block",
    "lp_block_range",
    "lp_reconstruct",
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
    return apply_multiplier(f, lambda xi: -1j * np.sign(xi), zero_nyquist=True)


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral derivative d^order/dx^order, multiplier (i*xi)^order."""
    if order < 0 or order != int(order):
        raise ValueError(f"derivative order must be a nonnegative integer, got {order}")
    if order == 0:
        return f.copy()
    return apply_multiplier(
        f, lambda xi: (1j * xi) ** order, zero_nyquist=(order % 2 == 1)
    )


def riesz_deriv(f: Field, b: float) -> Field:
    """Homogeneous fractional derivative D^b, multiplier |xi|^b.

    |0|^b is 0 for b > 0 and 1 for b = 0, so D^0 is the identity and the
    composition law D^b o D^c = D^(b+c) holds exactly on the lattice.
    Angular-frequency convention: under the cycles-per-length convention the
    symbol reads (2 pi |xi|)^b; the two agree after rescaling x, and the
    angular form keeps the composition law exact here.
    """
    if not (b >= 0 and np.isfinite(b)):
        raise ValueError(f"order must be finite and >= 0, got b={b}")
    if b == 0:
        return f.copy()
    return apply_multiplier(f, lambda xi: np.abs(xi) ** b)


def bessel_potential(f: Field, s: float) -> Field:
    """Bessel potential J^s, multiplier (1 + xi^2)^(s/2); J^s o J^-s = id."""
    if not np.isfinite(s):
        raise ValueError(f"order must be finite, got s={s}")
    return apply_multiplier(f, lambda xi: (1.0 + xi**2) ** (s / 2.0))


# Offset cells per side that stein_deriv sums directly; the rest go through
# an FFT convolution.
_NEAR_CELLS = 8


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

    Output is the nonnegative real field; summation order is fixed, so the
    result is deterministic.
    """
    if not (0.0 < b < 1.0):
        raise ValueError(f"square-function order must lie in (0,1), got b={b}")
    if tail not in ("decay", "stationary"):
        raise ValueError(f"unknown tail mode {tail!r}")
    g = f.grid
    n, h, L = g.n, g.h, g.length
    half = n // 2
    vals = f.values
    fhat = np.fft.fft(vals)
    stag = np.fft.ifft(np.exp(1j * g.xi * h / 2.0) * fhat)
    weights = h / ((np.arange(half) + 0.5) * h) ** (1.0 + 2.0 * b)

    # near cells: stag read through k pad samples per side, so that
    # ext[k + m] is the staggered sample at index m
    k = min(_NEAR_CELLS, half)
    if tail == "decay":
        pad = np.zeros(k, dtype=complex)
        ext = np.concatenate([pad, stag, pad])
    else:
        ext = np.concatenate([stag[n - k :], stag, stag[:k]])
    acc = np.zeros(n, dtype=float)
    for j in range(k):
        dplus = vals - ext[k + j : k + j + n]
        dminus = vals - ext[k - j - 1 : k - j - 1 + n]
        acc += weights[j] * (np.abs(dplus) ** 2 + np.abs(dminus) ** 2)

    if half > k:
        c = np.mean(stag)
        size = 2 * n if tail == "decay" else n
        # kernel by index offset d between sample and node: offset d >= 0 is
        # cell j = d, offset d < 0 is cell j = -d - 1
        kern = np.zeros(size)
        kern[k:half] = weights[k:]
        kern[size - half : size - k] = weights[k:][::-1]
        s = np.full(size, -c)  # samples outside the cell read as 0
        s[:n] = stag - c
        both = np.fft.ifft(np.fft.fft([s, np.abs(s) ** 2]) * np.conj(np.fft.fft(kern)))
        far_s, far_sq = both[0, :n], both[1, :n].real
        v = vals - c
        acc += 2.0 * weights[k:].sum() * np.abs(v) ** 2
        acc += far_sq - 2.0 * (np.conj(v) * far_s).real

    fprime = np.fft.ifft((1j * g.xi) * fhat)
    cell = (1.0 / (2.0 - 2.0 * b) - 2.0 ** (2.0 * b - 1.0)) * h ** (2.0 - 2.0 * b)
    acc += 2.0 * cell * np.abs(fprime) ** 2

    if tail == "decay":
        acc += np.abs(vals) ** 2 * L ** (-2.0 * b) / b
    else:
        mu = np.mean(vals)
        var = float(np.mean(np.abs(vals - mu) ** 2))
        acc += (np.abs(vals - mu) ** 2 + var) * L ** (-2.0 * b) / b
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
    cell = g.h * float(np.sum(inner.values.real**2))
    # clamp the boundary nodes, where (L +- y) vanishes; gate-passing fields
    # carry no mass there
    dplus = np.maximum(g.length - g.x, g.h / 2.0)
    dminus = np.maximum(g.length + g.x, g.h / 2.0)
    outer = (
        g.h
        / (2.0 * b)
        * float(np.sum(np.abs(f.values) ** 2 * (dplus ** (-2.0 * b) + dminus ** (-2.0 * b))))
    )
    return float(np.sqrt(cell + outer))


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
    """Dyadic indices N whose blocks meet the grid's frequency lattice."""
    xi_min = np.pi / grid.length
    n_lo = int(np.floor(np.log2(xi_min))) - 1
    n_hi = int(np.ceil(np.log2(grid.xi_max))) + 1
    return range(n_lo, n_hi + 1)


def lp_block(f: Field, N: int) -> Field:
    """Littlewood-Paley block Q_N: smooth restriction to |xi| ~ 2^N."""
    if abs(N) > 60:
        raise ValueError(f"dyadic index out of the representable range: N={N}")
    scale = 2.0 ** N
    return apply_multiplier(f, lambda xi: _eta(np.abs(xi) / scale).astype(complex))


def lp_reconstruct(f: Field) -> Field:
    """Sum of Q_N f over the lattice-relevant range; equals f minus its mean."""
    out = np.zeros(f.grid.n, dtype=complex)
    for N in lp_block_range(f.grid):
        out += lp_block(f, N).values
    return Field(f.grid, out)


def lp_linf_l1(f: Field) -> float:
    """sup_x sum_N |Q_N f (x)|, the L^inf l^1_N block norm."""
    total = np.zeros(f.grid.n, dtype=float)
    for N in lp_block_range(f.grid):
        total += np.abs(lp_block(f, N).values)
    return float(np.max(total))


# ---------------------------------------------------------------------------
# Vector fields

def gamma_t_min(grid) -> float:
    """Smallest |t| at which the quadratic phase exp(i x^2 / 4t) is
    resolvable on the lattice (local wavelength at |x| = L exceeds 4h)."""
    return grid.length * grid.h / np.pi


def gamma_schrodinger(f: Field, t: float, b: float) -> Field:
    """Vector field of the free Schroedinger group, fractional order b in [0, 1].

    b = 0 is the identity and b = 1 the first-order field x + 2it d/dx, both
    valid for every t.  For 0 < b < 1 the operator is the conjugated
    fractional derivative exp(i x^2/4t) (2|t|)^b D^b exp(-i x^2/4t), which
    requires |t| >= gamma_t_min(grid) so the quadratic phase is resolved.
    """
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"vector-field order must lie in [0,1], got b={b}")
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
    return Field(f.grid, f.grid.x * f.values) - (3.0 * t) * derivative(f, 2)


def gamma_bo(f: Field, t: float) -> Field:
    """Vector field commuting with the Benjamin-Ono group: x - 2t H d/dx."""
    return Field(f.grid, f.grid.x * f.values) - (2.0 * t) * hilbert(derivative(f, 1))
