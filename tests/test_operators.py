import numpy as np
import pytest

from dispersivelab.operators import (
    stein_l2_norm,
    bessel_potential,
    derivative,
    gamma_airy,
    gamma_bo,
    gamma_schrodinger,
    gamma_t_min,
    hilbert,
    lp_block,
    lp_block_range,
    lp_linf_l1,
    riesz_deriv,
    stein_deriv,
)
from dispersivelab.spectral import Field, Grid

from .test_spectral import random_band_limited


def l2(field):
    return float(np.sqrt(field.grid.h * np.sum(np.abs(field.values) ** 2)))


# ----------------------------------------------------------------- Hilbert

def test_hilbert_on_single_modes():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    cos = Field.from_function(g, lambda x: np.cos(w * x))
    sin = Field.from_function(g, lambda x: np.sin(w * x))
    np.testing.assert_allclose(hilbert(cos).values.real, sin.values.real, atol=1e-13)
    np.testing.assert_allclose(hilbert(sin).values.real, -cos.values.real, atol=1e-13)


def test_hilbert_squared_is_minus_identity():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=7)
    # remove mean and Nyquist mode first
    fhat = np.fft.fft(f.values)
    fhat[0] = 0.0
    fhat[g.n // 2] = 0.0
    f = Field(g, np.fft.ifft(fhat))
    twice = hilbert(hilbert(f))
    assert np.max(np.abs(twice.values + f.values)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("grid", [Grid(8, 1.0), Grid(512, 20.0), Grid(8192, 160.0)], ids=lambda g: f"n{g.n}")
def test_odd_operators_annihilate_nyquist_mode(grid):
    # (-1)^j is the lone Nyquist mode, which odd symbols must zero; complex,
    # so that the realness rule cannot zero it instead
    nyq = Field(grid, (1.0 + 1.0j) * (-1.0) ** np.arange(grid.n))
    assert np.max(np.abs(hilbert(nyq).values)) <= 1e-12
    for order in range(1, 6):
        out = derivative(nyq, order).values
        if order % 2:
            assert np.max(np.abs(out)) <= 1e-12 * grid.xi_max**order
        else:
            np.testing.assert_allclose(out, (1j * grid.xi[grid.n // 2]) ** order * nyq.values)


def _pv_hilbert_oracle(fn, x, R=40.0, m=400000):
    # principal-value quadrature with epsilon excision; the excised value
    # behaves like I0 + a*eps + c*eps^3, so three epsilons pin I0
    def excised(eps):
        y = np.linspace(eps, R, m)
        vals = (fn(x - y) - fn(x + y)) / y
        return np.trapezoid(vals, y) / np.pi

    e = np.array([0.04, 0.02, 0.01])
    i = np.array([excised(v) for v in e])
    coeffs = np.linalg.solve(np.stack([np.ones(3), e, e**3], axis=1), i)
    return coeffs[0]


def test_hilbert_gaussian_matches_pv_quadrature():
    # the periodic Hilbert transform converges to the line operator with an
    # O(x/L^2) gap, so the line oracle needs a wide cell
    g = Grid(32768, 1000.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    hf = hilbert(f)
    fn = lambda x: np.exp(-(x**2))
    for target in (-1.5, -0.3, 0.5, 2.0):
        j = int(np.argmin(np.abs(g.x - target)))
        oracle = _pv_hilbert_oracle(fn, g.x[j])
        assert abs(hf.values[j].real - oracle) <= 1e-6


def test_hilbert_real_to_real():
    g = Grid(128, 10.0)
    f = random_band_limited(g, seed=8, real=True)
    assert np.max(np.abs(hilbert(f).values.imag)) == 0.0


REAL_TO_REAL = {
    "hilbert": hilbert,
    **{f"derivative{k}": (lambda f, k=k: derivative(f, k)) for k in (1, 2, 3, 4)},
    "riesz_deriv": lambda f: riesz_deriv(f, 0.5),
    "bessel_potential": lambda f: bessel_potential(f, -1.5),
}


@pytest.mark.parametrize("grid", [Grid(512, 20.0), Grid(1024, 160.0)], ids=["n512", "n1024"])
@pytest.mark.parametrize("name", [*REAL_TO_REAL, "lp_block"])
def test_real_to_real_operators_keep_real_fields_real(grid, name):
    f = Field.from_function(grid, lambda x: np.exp(-(x**2)))
    if name == "lp_block":
        assert all(lp_block(f, N).is_real for N in lp_block_range(grid))
    else:
        assert REAL_TO_REAL[name](f).is_real


# ------------------------------------------------------ fractional derivatives

def test_riesz_second_order_on_mode():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.exp(1j * w * x))
    out = riesz_deriv(f, 2.0)
    np.testing.assert_allclose(out.values, w**2 * f.values, atol=1e-13)
    # D^2 = -d^2/dx^2 on a single mode
    np.testing.assert_allclose(out.values, -derivative(f, 2).values, atol=1e-13)


def test_riesz_order_one_on_sine():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.sin(w * x))
    out = riesz_deriv(f, 1.0)
    np.testing.assert_allclose(out.values.real, w * np.sin(w * g.x), atol=1e-13)


def test_riesz_half_order_against_dft_sum():
    g = Grid(256, 12.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    out = riesz_deriv(f, 0.5)
    k = np.arange(g.n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / g.n)
    oracle = np.conj(dft.T) @ (np.abs(g.xi) ** 0.5 * (dft @ f.values)) / g.n
    assert np.max(np.abs(out.values - oracle)) <= 1e-10


def test_riesz_composition():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=9)
    lhs = riesz_deriv(riesz_deriv(f, 0.3), 0.45)
    rhs = riesz_deriv(f, 0.75)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * np.max(np.abs(rhs.values))


def test_riesz_zero_is_identity():
    g = Grid(64, 10.0)
    f = random_band_limited(g, seed=10)
    np.testing.assert_allclose(riesz_deriv(f, 0.0).values, f.values, atol=0)


def test_bessel_potential():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    mode = Field.from_function(g, lambda x: np.exp(1j * w * x))
    out = bessel_potential(mode, 2.0)
    np.testing.assert_allclose(out.values, (1 + w**2) * mode.values, atol=1e-13)
    f = random_band_limited(g, seed=11)
    round_trip = bessel_potential(bessel_potential(f, -1.0), 1.0)
    assert np.max(np.abs(round_trip.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    np.testing.assert_allclose(bessel_potential(f, 0.0).values, f.values, atol=1e-15)


# ------------------------------------------------------------- square function

def test_stein_constant_vanishes():
    g = Grid(256, 10.0)
    f = Field(g, np.full(g.n, 2.0 + 1.0j))
    out = stein_deriv(f, 0.5, tail="stationary")
    assert np.max(out.values.real) <= 1e-12


def test_stein_nonnegative_real():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=12, real=True)
    out = stein_deriv(f, 0.5)
    assert np.max(np.abs(out.values.imag)) == 0.0
    assert np.min(out.values.real) >= 0.0


def test_stein_rejects_bad_order():
    g = Grid(64, 10.0)
    f = random_band_limited(g, seed=13)
    for b in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            stein_deriv(f, b)


def _stein_loop_oracle(f, b, tail):
    # the direct O(n^2) sum over every offset cell, one shifted vector op per
    # cell; stein_deriv must reproduce it to ORACLE_TOL relative to its peak
    g = f.grid
    n, h, L = g.n, g.h, g.length
    half = n // 2
    stag = np.fft.ifft(np.exp(1j * g.xi * g.h / 2.0) * np.fft.fft(f.values))
    if tail == "decay":
        plus_pad = np.concatenate([stag, np.zeros(half, dtype=complex)])
        minus_pad = np.concatenate([np.zeros(half, dtype=complex), stag])
    else:
        plus_pad = np.concatenate([stag, stag[:half]])
        minus_pad = np.concatenate([stag[half:], stag])
    vals = f.values
    acc = np.zeros(n, dtype=float)
    offsets = (np.arange(half) + 0.5) * h
    weights = h / offsets ** (1.0 + 2.0 * b)
    for j in range(half):
        dplus = vals - plus_pad[j : j + n]
        dminus = vals - minus_pad[half - j - 1 : half - j - 1 + n]
        acc += weights[j] * (np.abs(dplus) ** 2 + np.abs(dminus) ** 2)
    fprime = np.fft.ifft((1j * g.xi) * np.fft.fft(vals))
    cell = (1.0 / (2.0 - 2.0 * b) - 2.0 ** (2.0 * b - 1.0)) * h ** (2.0 - 2.0 * b)
    acc += 2.0 * cell * np.abs(fprime) ** 2
    if tail == "decay":
        acc += np.abs(vals) ** 2 * L ** (-2.0 * b) / b
    else:
        mu = np.mean(vals)
        var = float(np.mean(np.abs(vals - mu) ** 2))
        acc += (np.abs(vals - mu) ** 2 + var) * L ** (-2.0 * b) / b
    return np.sqrt(np.maximum(acc, 0.0))


ORACLE_TOL = 1e-12  # |fast - loop| <= ORACLE_TOL * max(loop), fixed before the switch


def _oracle_field(g, tail, real):
    if tail == "decay":
        # nonzero mean and nonzero edge values exercise the decay padding
        f = random_band_limited(g, seed=g.n, real=real)
        return f + (0.3 if real else 0.3 - 0.2j)
    chirp = np.exp(0.5j * g.x**2)
    return Field(g, chirp.real if real else chirp)


def _assert_matches_oracle(g, b, tail, real):
    f = _oracle_field(g, tail, real)
    loop = _stein_loop_oracle(f, b, tail)
    fast = stein_deriv(f, b, tail=tail).values
    assert np.max(np.abs(fast.imag)) == 0.0
    assert np.max(np.abs(fast.real - loop)) <= ORACLE_TOL * np.max(loop)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("tail", ["decay", "stationary"])
@pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [8, 16, 512, 2048])
def test_stein_matches_loop_oracle(n, b, tail, real):
    # n = 8 and 16 have n/2 <= 8 offset cells per side
    _assert_matches_oracle(Grid(n, 20.0), b, tail, real)


def test_stein_matches_loop_oracle_n8192():
    _assert_matches_oracle(Grid(8192, 20.0), 0.75, "stationary", False)


def _stein_oracle_gaussian(x, b, L=60.0, m=400000):
    # fine midpoint quadrature of the square-function integral for exp(-x^2)
    r = (np.arange(m) + 0.5) * (L / m)
    w = (L / m) / r ** (1.0 + 2.0 * b)
    fx = np.exp(-(x**2))
    dplus = fx - np.exp(-((x + r) ** 2))
    dminus = fx - np.exp(-((x - r) ** 2))
    acc = np.sum(w * (dplus**2 + dminus**2)) + fx**2 * L ** (-2.0 * b) / b
    return np.sqrt(acc)


@pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
def test_stein_gaussian_against_quadrature_oracle(b):
    g = Grid(512, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    out = stein_deriv(f, b)
    for target in (0.0, 0.7, 1.8):
        j = int(np.argmin(np.abs(g.x - target)))
        oracle = _stein_oracle_gaussian(g.x[j], b)
        assert abs(out.values[j].real - oracle) <= 5e-3 * oracle


def test_stein_riesz_l2_ratio_is_field_independent():
    # || Dcal^b f ||_2 / || D^b f ||_2 should not depend on f
    g = Grid(512, 20.0)
    b = 0.5
    gauss = Field.from_function(g, lambda x: np.exp(-(x**2)))
    cal = stein_l2_norm(gauss, b) / l2(riesz_deriv(gauss, b))
    ratios = []
    for seed in range(8):
        f = random_band_limited(g, seed=100 + seed, width=1.5)
        ratios.append(stein_l2_norm(f, b) / l2(riesz_deriv(f, b)))
    spread = (max(ratios) - min(ratios)) / cal
    assert spread < 0.01
    # the constant is the known one: C(1/2)^2 = 4*int_0^inf (1-cos s)/s^2 ds = 2*pi
    assert cal == pytest.approx(np.sqrt(2.0 * np.pi), rel=0.005)


# --------------------------------------------------------------- LP blocks

def test_lp_single_mode_locality():
    g = Grid(256, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.exp(1j * w * x))
    hot = [N for N in lp_block_range(g) if l2(lp_block(f, N)) > 1e-12 * l2(f)]
    # |xi| = w sits in at most the two blocks whose support covers it
    assert 1 <= len(hot) <= 2
    for N in hot:
        assert 2.0 ** (N - 1) <= w <= 2.0 ** (N + 1)


def test_lp_reconstruction():
    g = Grid(512, 15.0)
    f = random_band_limited(g, seed=14)
    mean = np.mean(f.values)
    rec = sum(lp_block(f, N).values for N in lp_block_range(g))
    err = np.max(np.abs(rec - (f.values - mean)))
    assert err <= 1e-10 * np.max(np.abs(f.values))


def test_lp_blocks_almost_orthogonal():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=15)
    rng = lp_block_range(g)
    for N in list(rng)[:: max(1, len(rng) // 4)]:
        for M in rng:
            if abs(N - M) >= 2:
                out = lp_block(lp_block(f, N), M)
                assert np.max(np.abs(out.values)) <= 1e-13 * np.max(np.abs(f.values))


def test_lp_linf_l1_finite():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=16)
    assert np.isfinite(lp_linf_l1(f))


# ------------------------------------------------------------- vector fields

def test_gamma_schrodinger_t_zero_is_weight():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=17)
    out = gamma_schrodinger(f, 0.0, 1.0)
    np.testing.assert_allclose(out.values, g.x * f.values, atol=1e-12)


def test_gamma_schrodinger_b_zero_identity():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=18)
    np.testing.assert_allclose(gamma_schrodinger(f, 0.7, 0.0).values, f.values, atol=0)


def test_gamma_schrodinger_fractional_needs_resolvable_phase():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=19)
    with pytest.raises(ValueError, match="resolvability"):
        gamma_schrodinger(f, 0.5 * gamma_t_min(g), 0.5)


def test_gamma_airy_on_mode():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.exp(1j * w * x))
    out = gamma_airy(f, 1.0)
    expected = g.x * f.values + 3.0 * w**2 * f.values
    np.testing.assert_allclose(out.values, expected, atol=1e-12)
    np.testing.assert_allclose(gamma_airy(f, 0.0).values, g.x * f.values, atol=1e-13)


def test_gamma_bo_on_cosine():
    g = Grid(128, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.cos(w * x))
    t = 0.4
    out = gamma_bo(f, t)
    # H d/dx cos(wx) = H(-w sin) = w cos, so gamma = x cos - 2tw cos
    expected = g.x * np.cos(w * g.x) - 2.0 * t * w * np.cos(w * g.x)
    np.testing.assert_allclose(out.values.real, expected, atol=1e-12)
    np.testing.assert_allclose(gamma_bo(f, 0.0).values.real, g.x * f.values.real, atol=1e-13)
