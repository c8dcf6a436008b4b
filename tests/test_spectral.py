import numpy as np
import pytest

from dispersivelab.spectral import (
    Field,
    Grid,
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


def test_field_rejects_non_finite():
    g = Grid(64, 10.0)
    vals = np.ones(64, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, vals)


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
