"""Fewer bytes, the same bits: stored tables held at the width of their
values, the multiplier kernel's in-place inverse transform, and the order
in which ``stein_deriv`` forms and drops its temporaries.

A stored table whose imaginary parts are all +0.0 is held as read-only
float64 values with the flags it was built with; applied to complex
coefficients it gives the bits of the complex table.  A -0.0 imaginary part
keeps a table complex, and so does a group phase.  ``_apply_table`` and ``stein_deriv`` are held
bitwise (tolerance 0) to the bodies they replace, kept here as oracles, and
each allocates at most 3/4 of its oracle's traced peak.
"""

import tracemalloc

import numpy as np
import pytest

from dispersivelab import spectral
from dispersivelab.operators import (
    _NEAR_CELLS,
    _lp_deriv_linf_l1,
    _lp_stack,
    bessel_potential,
    derivative,
    hilbert,
    lp_linf_l1,
    riesz_deriv,
    stein_deriv,
)
from dispersivelab.propagators import EquationSpec, _group_table, linear_group
from dispersivelab.spectral import (
    Field,
    Grid,
    _apply_table,
    _build_table,
    _fft,
    _ifft,
    _real_rows,
)


@pytest.fixture
def store(monkeypatch):
    """An empty table store for the test, so that its first call builds."""
    monkeypatch.setattr(spectral, "_store", {})
    return spectral._store


def _field(grid, rows, real, seed=11):
    rng = np.random.default_rng(seed)
    shape = (rows, grid.n) if rows > 1 else (grid.n,)
    vals = rng.standard_normal(shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(shape)
    return Field(grid, vals)


def _traced_peak(fn) -> int:
    """The peak of the bytes traced while ``fn()`` runs, after one warm call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (key, operator, the table it stores, built without the store)
REAL_TABLES = [
    (("riesz_deriv", 0.5), lambda f: riesz_deriv(f, 0.5),
     lambda g: _build_table(g, lambda xi: np.abs(xi) ** 0.5)),
    (("bessel_potential", 1.0), lambda f: bessel_potential(f, 1.0),
     lambda g: _build_table(g, lambda xi: (1.0 + xi**2) ** 0.5)),
    (("lp_blocks", 0.0), lp_linf_l1, lambda g: _lp_stack(g)),
    (("lp_blocks", 0.5), lambda f: _lp_deriv_linf_l1(f, 0.5), lambda g: _lp_stack(g, 0.5)),
]


@pytest.mark.parametrize("n", [8, 512, 4096])
@pytest.mark.parametrize(
    "key, op, build", REAL_TABLES, ids=["riesz_deriv", "bessel_potential", "lp", "lp_deriv"]
)
def test_stored_real_table_is_read_only_float64(key, op, build, n, store):
    grid = Grid(n, 20.0)
    op(_field(grid, 1, real=True))
    stored, built = store[(n, 20.0, key)], build(grid)
    assert stored.values.dtype == np.float64 and not stored.values.flags.writeable
    assert stored.odd.tobytes() == built.odd.tobytes() and stored.odd.shape == built.odd.shape
    assert stored.hermitian.tobytes() == built.hermitian.tobytes()
    assert stored.values.astype(complex).tobytes() == built.values.tobytes()


def test_tables_with_signed_or_nonzero_imaginary_parts_stay_complex(store):
    """A table whose imaginary parts are all zero but one -0.0 stays complex,
    as do the Hilbert transform's, the odd derivatives' and every group
    phase, which no store holds.  The even derivatives' (i xi)^order has
    only +0.0 imaginary parts and is held as float64."""
    grid = Grid(64, 10.0)
    signed = grid.xi.astype(complex)
    signed.imag[grid.xi < 0] = -0.0
    assert not signed.imag.any() and np.signbit(signed.imag).any()
    table = spectral._table(grid, "signed zeros", _build_table, signed)
    assert table.values.dtype == np.complex128
    assert table.values.tobytes() == signed.tobytes()
    f = _field(grid, 1, real=True)
    hilbert(f)
    for order in (1, 2, 3, 4):
        derivative(f, order)
    assert store[(64, 10.0, "signed zeros")] is table
    assert store[(64, 10.0, "hilbert")].values.dtype == np.complex128
    for order, dtype in zip((1, 2, 3, 4), (np.complex128, np.float64) * 2):
        assert store[(64, 10.0, ("derivative", order))].values.dtype == dtype
    held = dict(store)
    for spec in (EquationSpec.nls(), EquationSpec.gkdv(), EquationSpec.bo()):
        assert _group_table(grid, spec, 0.5).values.dtype == np.complex128
        linear_group(f, spec, 0.5)
    assert store == held


def _apply_table_oracle(table, fhat, real):
    """``_apply_table`` with the out-of-place inverse transform."""
    out = table.values * fhat
    rows = np.zeros(out.shape[:-1], dtype=bool)
    out[..., out.shape[-1] // 2][table.odd | rows] = 0.0
    result = _ifft(out)
    result.imag[table.hermitian & real | rows] = 0.0
    return result


# an odd table, an odd and Hermitian one, a Hermitian float one, and a
# stack of Hermitian float rows
KERNEL_TABLES = {
    "derivative(1)": lambda g: _build_table(g, lambda xi: 1j * xi),
    "hilbert": lambda g: _build_table(g, lambda xi: -1j * np.sign(xi)),
    "riesz_deriv(0.5)": lambda g: spectral._narrowed(_build_table(g, lambda xi: np.abs(xi) ** 0.5)),
    "lp_blocks": lambda g: spectral._narrowed(_lp_stack(g)),
}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("name", KERNEL_TABLES)
def test_apply_table_in_place_inverse_equals_out_of_place(name, real, rows):
    grid = Grid(512, 20.0)
    table = KERNEL_TABLES[name](grid)
    f = _field(grid, rows, real)
    fhat = _fft(f.values)
    kept = fhat.copy()
    flags = _real_rows(f.values)
    if table.values.ndim == 2 and rows > 1:  # each table row meets every input row
        table = table.rows((slice(None), None))
    got = _apply_table(table, fhat, flags)
    assert fhat.tobytes() == kept.tobytes()
    wide = table._replace(values=table.values.astype(complex))  # as the store held it
    assert got.tobytes() == _apply_table_oracle(wide, fhat, flags).tobytes()


def test_apply_table_allocates_one_output():
    grid = Grid(4096, 20.0)
    table = KERNEL_TABLES["hilbert"](grid)
    f = _field(grid, 4, real=False)
    fhat, flags = _fft(f.values), _real_rows(f.values)
    peak = _traced_peak(lambda: _apply_table(table, fhat, flags))
    assert peak <= 0.75 * _traced_peak(lambda: _apply_table_oracle(table, fhat, flags))


def _stein_oracle(f, b, tail):
    """The body of ``stein_deriv`` before it dropped its temporaries early."""
    g = f.grid
    n, h, L = g.n, g.h, g.length
    half = n // 2
    vals = f.values
    rows = vals.shape[:-1]
    fhat = _fft(vals)
    stag = _ifft(np.exp(1j * g.xi * h / 2.0) * fhat)
    weights = h / ((np.arange(half) + 0.5) * h) ** (1.0 + 2.0 * b)
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
    if half > k:
        c = np.mean(stag, axis=-1, keepdims=True)
        size = 2 * n if tail == "decay" else n
        kern = np.zeros(size)
        kern[k:half] = weights[k:]
        kern[size - half : size - k] = weights[k:][::-1]
        s = np.empty(rows + (size,), dtype=complex)
        s[...] = -c
        s[..., :n] = stag - c
        both = _ifft(_fft(np.stack([s, np.abs(s) ** 2])) * np.conj(_fft(kern)))
        far_s, far_sq = both[0, ..., :n], both[1, ..., :n].real
        v = vals - c
        acc += 2.0 * weights[k:].sum() * np.abs(v) ** 2
        acc += far_sq - 2.0 * (np.conj(v) * far_s).real
    fprime = _ifft((1j * g.xi) * fhat)
    cell = (1.0 / (2.0 - 2.0 * b) - 2.0 ** (2.0 * b - 1.0)) * h ** (2.0 - 2.0 * b)
    acc += 2.0 * cell * np.abs(fprime) ** 2
    if tail == "decay":
        acc += np.abs(vals) ** 2 * L ** (-2.0 * b) / b
    else:
        mu = np.mean(vals, axis=-1, keepdims=True)
        var = np.mean(np.abs(vals - mu) ** 2, axis=-1, keepdims=True)
        acc += (np.abs(vals - mu) ** 2 + var) * L ** (-2.0 * b) / b
    return np.sqrt(np.maximum(acc, 0.0)).astype(complex)


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("tail", ["decay", "stationary"])
@pytest.mark.parametrize("n", [8, 512, 4096])
def test_stein_deriv_equals_the_oracle_bitwise(n, tail, real, rows):
    f = _field(Grid(n, 20.0), rows, real)
    for b in (0.25, 0.75):
        assert stein_deriv(f, b, tail=tail).values.tobytes() == _stein_oracle(f, b, tail).tobytes()


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("tail", ["decay", "stationary"])
def test_stein_deriv_peak_below_the_oracle(tail, rows):
    f = _field(Grid(4096, 20.0), rows, real=False)
    peak = _traced_peak(lambda: stein_deriv(f, 0.25, tail=tail))
    assert peak <= 0.75 * _traced_peak(lambda: _stein_oracle(f, 0.25, tail))
