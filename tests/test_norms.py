import numpy as np
import pytest

from dispersivelab.norms import (
    ap_constant,
    lebesgue,
    power_weight,
    sobolev,
    weighted_l2,
)
from dispersivelab.spectral import Field, Grid

from .test_spectral import random_band_limited


def test_weighted_l2_m_zero_is_l2():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=20)
    assert weighted_l2(f, 0.0) == pytest.approx(lebesgue(f, 2.0), rel=1e-14)


def test_weighted_l2_kills_origin_bump():
    g = Grid(512, 10.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2) * 16))
    assert weighted_l2(f, 3.0) < 0.2 * lebesgue(f, 2.0)


def test_weighted_l2_gaussian_moment():
    # int x^2 exp(-2x^2) dx = sqrt(pi/2)/4
    g = Grid(1024, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    expected = np.sqrt(np.sqrt(np.pi / 2.0) / 4.0)
    assert weighted_l2(f, 1.0) == pytest.approx(expected, abs=1e-12)


def test_weighted_l2_bracket_variant():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=21)
    assert weighted_l2(f, 1.0, bracket=True) >= weighted_l2(f, 1.0)


def test_sobolev_s_zero_and_single_mode():
    g = Grid(128, 10.0)
    f = random_band_limited(g, seed=22)
    assert sobolev(f, 0.0) == pytest.approx(lebesgue(f, 2.0), rel=1e-13)
    w = np.pi / g.length
    mode = Field.from_function(g, lambda x: np.exp(1j * w * x))
    s = 1.3
    assert sobolev(mode, s) == pytest.approx(
        lebesgue(mode, 2.0) * (1 + w**2) ** (s / 2), rel=1e-12
    )


def test_sobolev_monotone_in_s():
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=23)
    norms = [sobolev(f, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))


def test_lebesgue_sup_norm_and_p2():
    g = Grid(512, 10.0)
    f = Field.from_function(g, lambda x: np.sin(np.pi * x / g.length))
    assert lebesgue(f, np.inf) == pytest.approx(1.0, abs=g.h**2)
    r = random_band_limited(g, seed=24)
    assert lebesgue(r, 2.0) == pytest.approx(weighted_l2(r, 0.0), rel=1e-14)
    with pytest.raises(ValueError):
        lebesgue(r, 0.5)


def test_lebesgue_p4_gaussian():
    # ||exp(-x^2)||_4 = (int exp(-4x^2))^(1/4) = (sqrt(pi)/2)^(1/4)
    g = Grid(1024, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)))
    assert lebesgue(f, 4.0) == pytest.approx((np.sqrt(np.pi) / 2.0) ** 0.25, rel=1e-12)


def test_ap_constant_of_one():
    g = Grid(256, 10.0)
    res = ap_constant(Field(g, np.ones(g.n)), 2.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_ap_constant_lower_bound_and_homogeneity():
    g = Grid(256, 10.0)
    w = Field(g, 1.0 + 0.5 * np.sin(np.pi * g.x / g.length) ** 2)
    r1 = ap_constant(w, 2.5)
    assert r1.value >= 1.0
    r2 = ap_constant(Field(g, 7.0 * w.values), 2.5)
    assert r2.value == pytest.approx(r1.value, rel=1e-13)


def test_ap_constant_rejects_bad_weight():
    g = Grid(64, 10.0)
    with pytest.raises(ValueError):
        ap_constant(Field(g, np.ones(g.n) - 2.0), 2.0)


@pytest.mark.parametrize("alpha", [-1.0, np.nan, -np.inf])
def test_power_weight_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match=f"got alpha={alpha}$"):
        power_weight(Grid(64, 10.0), alpha)


def test_ap_power_weight_dichotomy():
    # alpha = 1/2 lies inside the A_2 range (-1, 1): stable under refinement;
    # alpha = 3/2 lies outside: the constant must grow
    vals = {}
    for n in (512, 1024):
        g = Grid(n, 10.0)
        vals[n] = {
            0.5: ap_constant(power_weight(g, 0.5), 2.0).value,
            1.5: ap_constant(power_weight(g, 1.5), 2.0).value,
        }
    stable = vals[1024][0.5] / vals[512][0.5]
    growing = vals[1024][1.5] / vals[512][1.5]
    assert abs(stable - 1.0) <= 0.10
    assert growing >= 1.3


def test_ap_maximizer_near_origin_for_singular_weight():
    g = Grid(512, 10.0)
    res = ap_constant(power_weight(g, 1.5), 2.0)
    assert res.lo <= 0.0 <= res.hi
