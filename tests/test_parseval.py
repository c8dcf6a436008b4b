"""The L^2 norm of an operator's output read off its spectrum.

``spectral._table_norm(f, table)`` gives ||m(D) f||_2 of each row by discrete
Parseval, h sum_j |g_j|^2 = (h/n) sum_k |ghat_k|^2, with no inverse
transform.  It is held here to the path it replaces, the kernel's samples
under ``weighted_l2(., 0.0)``, on every kind of stored table: the Hilbert
transform, the derivatives of orders 1-3, D^b at b = 1/2 and 3/2, the
Bessel potentials at s = +1 and -1, and each row of the Littlewood-Paley
stacks, plain and composed with D^(1/2).  The fields are a real row, a
complex row and the (2, n) block of the two, at n in {8, 512, 4096}.

The tolerance, 8 eps relative, was fixed before the deviation was measured
(at most 1.7 eps in a first survey of these cases).  The reducer scales the
coefficients by 1/n before it squares them, so near the float range a
norm whose physical form is finite stays finite, with no warning.
"""

import warnings

import numpy as np
import pytest

from dispersivelab.norms import weighted_l2
from dispersivelab.operators import (
    _bessel_table,
    _derivative_table,
    _lp_table,
    _riesz_table,
    lp_block_range,
)
from dispersivelab.spectral import (
    Field,
    Grid,
    _build_table,
    _multiply,
    _spectrum,
    _table,
    _table_norm,
)

from .test_tables import dense_bands, table_rows

EPS = np.finfo(float).eps
TOL = 8 * EPS


def _hilbert_table(grid):
    return _table(grid, "hilbert", _build_table, lambda xi: -1j * np.sign(xi))


def _tables(grid):
    """(name, table) of every stored kind, one multiplier each."""
    yield "hilbert", _hilbert_table(grid)
    for order in (1, 2, 3):
        yield f"derivative({order})", _derivative_table(grid, order)
    for b in (0.5, 1.5):
        yield f"riesz({b:g})", _riesz_table(grid, b)
    for s in (1.0, -1.0):
        yield f"bessel({s:g})", _bessel_table(grid, s)
    for b in (0.0, 0.5):
        stack = dense_bands(_lp_table(grid, b))
        for row, N in enumerate(lp_block_range(grid)):
            yield f"lp({b:g}, N={N})", table_rows(stack, row)


def _fields(grid, seed=7):
    """A real row, a complex row and the block of the two."""
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(grid.n)
    cplx = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return {"real": Field(grid, real), "complex": Field(grid, cplx),
            "block": Field(grid, np.stack([real, cplx]))}


@pytest.mark.parametrize("kind", ["real", "complex", "block"])
@pytest.mark.parametrize("n", [8, 512, 4096])
def test_table_norm_equals_the_norm_of_the_kernel_output(n, kind):
    grid = Grid(n, 10.0)
    f = _fields(grid)[kind]
    wrong = []
    for name, table in _tables(grid):
        want = np.atleast_1d(weighted_l2(_multiply(f, table), 0.0))
        got = np.atleast_1d(_table_norm(f, table))
        if not np.all(np.abs(got - want) <= TOL * want):
            wrong.append((name, got.tolist(), want.tolist()))
    assert not wrong


@pytest.mark.parametrize("n", [8, 512])
def test_table_norm_takes_the_callers_spectrum_and_reduces_per_row(n):
    grid = Grid(n, 10.0)
    fields = _fields(grid)
    table = _riesz_table(grid, 0.5)
    block = fields["block"]
    fhat = _spectrum(block)
    kept = fhat.copy()
    norms = _table_norm(block, table, fhat)
    assert fhat.tobytes() == kept.tobytes()  # the caller's spectrum is left unchanged
    assert isinstance(norms, np.ndarray) and norms.shape == (2,)
    assert norms.tolist() == [_table_norm(fields[k], table) for k in ("real", "complex")]
    assert isinstance(_table_norm(fields["real"], table), float)


@pytest.mark.parametrize("name", ["hilbert", "derivative(1)", "derivative(3)"])
def test_an_odd_table_annihilates_the_nyquist_mode(name):
    """The Nyquist mode has no partner on the lattice: an odd multiplier
    zeroes it, in the kernel and in the norm alike."""
    grid = Grid(64, 10.0)
    table = dict(_tables(grid))[name]
    nyquist = Field(grid, (-1.0) ** np.arange(grid.n))
    assert weighted_l2(_multiply(nyquist, table), 0.0) == 0.0
    assert _table_norm(nyquist, table) == 0.0


@pytest.mark.parametrize("shape", ["gaussian", "white"])
@pytest.mark.parametrize("n", [512, 4096])
def test_a_norm_finite_in_physical_form_stays_finite_near_the_float_range(n, shape):
    """A field scaled so that its output's squared samples sum to 1e307:
    the physical norm is finite, and so is the reducer's, with no warning,
    while the unscaled coefficients' squares leave the float range."""
    grid = Grid(n, 10.0)
    unit = (np.exp(-grid.x**2) if shape == "gaussian"
            else np.random.default_rng(3).standard_normal(n))
    table = _hilbert_table(grid) if shape == "white" else _bessel_table(grid, -1.0)
    samples = _multiply(Field(grid, unit), table).values
    amplitude = np.sqrt(1e307 / np.sum(np.abs(samples) ** 2))
    f = Field(grid, amplitude * unit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = weighted_l2(_multiply(f, table), 0.0)
        got = _table_norm(f, table)
    assert np.isfinite(want) and abs(got - want) <= TOL * want
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(np.abs(table.values * _spectrum(f)) ** 2))
