import re

import numpy as np
import pytest

from dispersivelab.spectral import (
    Field,
    Grid,
    _fft,
    _ifft,
    _irfft,
    _rfft,
    apply_multiplier,
    boundary_gate,
    integrate,
)

def random_band_limited(grid, seed=0, kmax=3.0, width=2.0, real=False):
    rng = np.random.default_rng(seed)
    x = grid.x
    env = np.exp(-((x / width) ** 2))
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(6):
        k = rng.uniform(0.3, kmax)
        a = rng.normal() + (0.0 if real else 1j * rng.normal())
        b = rng.normal() + (0.0 if real else 1j * rng.normal())
        vals += a * np.cos(k * x) + b * np.sin(k * x)
    return Field(grid, env * vals)


def test_grid_invariants():
    g = Grid(64, 10.0)
    assert g.h == pytest.approx(20.0 / 64)
    assert np.all(np.diff(g.x) > 0)
    np.testing.assert_allclose(np.diff(g.x), g.h, rtol=0, atol=1e-14)
    # symmetric frequency lattice except the lone Nyquist mode
    xi = np.sort(g.xi)
    assert xi[0] == pytest.approx(-np.pi * 32 / 10.0)
    assert np.max(g.xi) == pytest.approx(np.pi * 31 / 10.0)


@pytest.mark.parametrize("n", [7, 12, 100])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        Grid(n, 10.0)


@pytest.mark.parametrize("L", [np.nan, np.inf, -1.0, 0.0, 5e-324, 1e-310, 1e308])
def test_grid_rejects_a_cell_without_a_finite_lattice(L):
    """L is not a positive finite number, h = 2L/n underflows to 0 or
    overflows, or pi*n/(2L) overflows: the lattice would hold inf or nan."""
    want = (f"half-length must give a finite lattice, 0 < 2L/n and pi*n/(2L) < inf, "
            f"got L={L}, n=512")
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        Grid(512, L)
    g = Grid(512, 1e-300)  # the smallest of these cells keeps a finite lattice
    assert np.isfinite(g.xi).all() and np.isfinite(g.x).all()


def test_field_rejects_non_finite():
    g = Grid(64, 10.0)
    vals = np.ones(64, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, vals)


def test_field_arithmetic_is_samplewise():
    # each arm of +, - and * on a Field or a scalar acts on the samples
    g = Grid(64, 10.0)
    f, h = random_band_limited(g, seed=1), random_band_limited(g, seed=2)
    cases = [
        (f + h, f.values + h.values), (f + 2.0, f.values + 2.0),
        (f - h, f.values - h.values), (f - 2.0, f.values - 2.0),
        (f * h, f.values * h.values), (f * 2.0, f.values * 2.0), (2.0 * f, 2.0 * f.values),
    ]
    for got, want in cases:
        assert got.grid is g
        np.testing.assert_array_equal(got.values, want)


def test_multiplier_identity():
    g = Grid(128, 10.0)
    f = random_band_limited(g, seed=3)
    out = apply_multiplier(f, lambda xi: np.ones_like(xi))
    np.testing.assert_allclose(out.values, f.values, atol=1e-14)


def test_multiplier_derivative_of_mode():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.sin(w * x))
    out = apply_multiplier(f, lambda xi: 1j * xi)
    expected = w * np.cos(w * g.x)
    np.testing.assert_allclose(out.values.real, expected, atol=1e-12)
    np.testing.assert_allclose(out.values.imag, 0.0, atol=1e-14)


def test_multiplier_against_direct_dft_sum():
    # |xi|^(1/2) on a Gaussian, oracle is the O(n^2) DFT summation
    g = Grid(256, 12.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    out = apply_multiplier(f, lambda xi: np.sqrt(np.abs(xi)))
    k = np.arange(g.n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / g.n)
    fhat = dft @ f.values
    m = np.sqrt(np.abs(g.xi))
    oracle = np.conj(dft.T) @ (m * fhat) / g.n
    assert np.max(np.abs(out.values - oracle)) <= 1e-10


def test_multiplier_linearity_and_composition():
    g = Grid(256, 10.0)
    f1 = random_band_limited(g, seed=4)
    f2 = random_band_limited(g, seed=5)
    m1 = lambda xi: np.abs(xi) ** 0.3
    m2 = lambda xi: np.exp(-0.1j * xi**2)
    lin = apply_multiplier(Field(g, 2.0 * f1.values + f2.values), m1)
    ref = 2.0 * apply_multiplier(f1, m1).values + apply_multiplier(f2, m1).values
    assert np.max(np.abs(lin.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    comp = apply_multiplier(apply_multiplier(f1, m2), m1)
    both = apply_multiplier(f1, lambda xi: m1(xi) * m2(xi))
    assert np.max(np.abs(comp.values - both.values)) <= 1e-12 * np.max(np.abs(both.values))


def test_multiplier_rejects_non_finite():
    g = Grid(64, 10.0)
    f = random_band_limited(g, seed=6)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="xi"):
            apply_multiplier(f, lambda xi: 1.0 / xi)


def test_integrate_constant():
    g = Grid(128, 10.0)
    assert integrate(Field(g, np.ones(g.n))) == pytest.approx(20.0)


def test_integrate_odd_mode_vanishes():
    g = Grid(128, 10.0)
    f = Field.from_function(g, lambda x: np.sin(np.pi * x / g.length))
    assert abs(integrate(f)) < 1e-13


def test_integrate_gaussian():
    g = Grid(512, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    assert integrate(f).real == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_boundary_gate():
    g = Grid(256, 10.0)
    ok, ratio = boundary_gate(Field.from_function(g, lambda x: np.exp(-(x**2))))
    assert ok and ratio < 1e-10
    # the wide field peaks at the node x = 0, and the outer tenth |x| >= 9
    # starts at the node x = -9.0625
    wide = Field.from_function(g, lambda x: np.exp(-((x / 8.0) ** 2)))
    ok, ratio = boundary_gate(wide)
    assert not ok and ratio == np.exp(-((9.0625 / 8.0) ** 2))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 4096])
@pytest.mark.parametrize("L", [1.0, 3.0, 20.0])
def test_boundary_gate_end_slices_are_the_outer_mask(n, L):
    """The gate reads the outer cell as the grid's two end slices; its ratio
    is bitwise the one of the |x| >= 0.9 L mask, on one row and on a block."""
    g = Grid(n, L)
    block = np.stack([random_band_limited(g, seed, width=L / 3).values for seed in range(3)])
    block[1, 0] = 5.0  # the outer max at x = -L
    block[2, -1] = 7.0  # the outer max at x = L - h, where that node is outer
    mags = np.abs(block)
    mask = np.abs(g.x) >= 0.9 * g.length
    want = np.max(mags[:, mask], axis=-1) / np.max(mags, axis=-1)
    ok, ratio = boundary_gate(Field(g, block))
    assert ratio.tobytes() == want.tobytes() and np.array_equal(ok, want < 1e-10)
    for row, value in zip(block, want):
        assert boundary_gate(Field(g, row))[1] == value


# each door transform, its np.fft counterpart, the output's last-axis length
# and dtype for n input samples, and the input dtypes it is tested on
DOOR = {
    "fft": (_fft, np.fft.fft, lambda n: n, complex, (float, complex)),
    "ifft": (_ifft, np.fft.ifft, lambda n: n, complex, (float, complex)),
    "rfft": (_rfft, np.fft.rfft, lambda n: n // 2 + 1, complex, (float,)),
    "irfft": (
        lambda a, out=None: _irfft(a, 2 * (a.shape[-1] - 1), out),
        np.fft.irfft,
        lambda n: 2 * (n - 1),
        float,
        (float, complex),
    ),
}


@pytest.mark.parametrize("name", sorted(DOOR))
@pytest.mark.parametrize("n", [8, 512, 4096])
@pytest.mark.parametrize("rows", [(), (3,)], ids=["row", "block"])
def test_fft_door_is_bitwise_numpy_fft(name, n, rows):
    # the door calls numpy's private pocketfft gufuncs; this pins them to
    # the public transforms, bit for bit, with and without ``out``
    door, public, length, out_dtype, in_dtypes = DOOR[name]
    rng = np.random.default_rng(n + len(rows))
    if name == "irfft":
        n = n // 2 + 1  # a half spectrum of 2(n - 1) samples
    for dtype in in_dtypes:
        a = rng.standard_normal(rows + (n,))
        if dtype is complex:
            a = a + 1j * rng.standard_normal(rows + (n,))
        expected = public(a)
        first, second = door(a), door(a)
        assert first.dtype == expected.dtype == out_dtype
        assert np.array_equal(first, expected) and np.array_equal(second, expected)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, a)
        out = np.full(rows + (length(n),), np.nan, dtype=out_dtype)
        assert door(a, out=out) is out
        assert np.array_equal(out, expected)
