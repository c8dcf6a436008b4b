"""Row blocks against the row-by-row path they replace.

A ``Field`` may hold a block of rows, shape (k, n).  Every operator built on
the multiplier kernel, the linear groups, and every function that reduces a
field to numbers must give each row of a block the bits that the same call
gives that row alone, with the realness rule applied row by row: a block may
mix real and complex rows.  A reduction of one row returns Python numbers.
Blocks come from the corpus realizer, cut at ``BLOCK_SAMPLES`` samples, so
the grids below leave a partial last block.  ``lp_linf_l1`` applies the rows
of one stacked table in blocks; it is held to the per-table loop it replaced
(``_lp_loop_oracle``).  Tolerance: 0, compared as bytes.
"""

import numpy as np
import pytest

from dispersivelab.corpus import NAMED_FIELDS, Corpus
from dispersivelab.laws import invariants, moment
from dispersivelab.norms import lebesgue, sobolev, weighted_l2
from dispersivelab.operators import (
    _eta,
    bessel_potential,
    derivative,
    hilbert,
    lp_block,
    lp_block_range,
    lp_linf_l1,
    riesz_deriv,
    stein_deriv,
    stein_l2_norm,
)
from dispersivelab.propagators import EquationSpec, linear_group
from dispersivelab.spectral import (
    BLOCK_SAMPLES,
    Field,
    Grid,
    _apply_table,
    _build_table,
    apply_multiplier,
    boundary_gate,
    integrate,
    real_values,
)

# each (name, operator, Hermitian symbol); the symbols cover odd and
# Hermitian, Hermitian only, odd only, and neither
OPERATORS = [
    ("hilbert", hilbert, True),
    ("derivative(1)", lambda f: derivative(f, 1), True),
    ("derivative(2)", lambda f: derivative(f, 2), True),
    ("riesz_deriv(0.5)", lambda f: riesz_deriv(f, 0.5), True),
    ("bessel_potential(-1)", lambda f: bessel_potential(f, -1.0), True),
    ("lp_block(2)", lambda f: lp_block(f, 2), True),
    ("sign", lambda f: apply_multiplier(f, np.sign), False),
    ("one-sided", lambda f: apply_multiplier(f, lambda xi: 1.0 + 1j * xi * (xi > 0)), False),
    ("linear_group(nls)", lambda f: linear_group(f, EquationSpec.nls(), 0.3), False),
    ("linear_group(gkdv)", lambda f: linear_group(f, EquationSpec.gkdv(), 0.3), True),
    ("linear_group(bo)", lambda f: linear_group(f, EquationSpec.bo(), -0.7), True),
]

# rows per block: 8 at n = 2048 (13 members: 8 + 5), 2 at n = 8192 (6 x 2 + 1)
GRIDS = [Grid(2048, 20.0), Grid(8192, 20.0)]


def _mixed_block(grid):
    """Real and complex rows alternating, a real row first."""
    rand = [m.realize(grid).values for m in Corpus(seed=5, size=2).members[:2]]
    named = [m.realize(grid).values for m in NAMED_FIELDS.values()]
    return Field(grid, np.stack([named[0], rand[0], named[1], rand[1], named[2]]))


def _assert_rows_match(name, op, hermitian, block):
    out = op(block).values
    assert out.shape == block.values.shape, name
    for i, row in enumerate(block.values):
        want = op(Field(block.grid, row)).values
        assert out[i].tobytes() == want.tobytes(), f"{name}: row {i}"
        if hermitian and not row.imag.any():
            assert not out[i].imag.any(), f"{name}: real row {i} turned complex"


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
def test_corpus_blocks_hold_the_members_rows(grid):
    corpus = Corpus(size=10)
    blocks = list(corpus.realize(grid))
    rows = max(1, BLOCK_SAMPLES // grid.n)
    sizes = [len(b.values) for b in blocks]
    assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] < rows
    values = np.concatenate([b.values for b in blocks])
    for row, m in zip(values, corpus.members, strict=True):
        assert row.tobytes() == m.realize(grid).values.tobytes(), m.name


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("name, op, hermitian", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_operator_on_blocks_matches_rows(grid, name, op, hermitian):
    blocks = [_mixed_block(grid), *Corpus(size=10).realize(grid)]
    for block in blocks:
        _assert_rows_match(name, op, hermitian, block)


def _real(f):
    """The real part of each row of ``f``, for the functions of real models."""
    return Field(f.grid, f.values.real)


# each function that reduces a field to numbers, with the arguments that
# cover its branches; real_values reads rows whose imaginary residue, zero
# or below REAL_TOL, it drops
REDUCERS = {
    "integrate": integrate,
    "boundary_gate": boundary_gate,
    "real_values": lambda f: real_values(
        Field(f.grid, f.values.real + 1e-12j * f.values.imag), "a test"
    ),
    "Field.is_real": lambda f: f.is_real,
    "moment": lambda f: (moment(f, 0), moment(f, 3)),
    "invariants": lambda f: (
        invariants(f, EquationSpec.nls()),
        invariants(_real(f), EquationSpec.gkdv(k=2)),
        invariants(_real(f), EquationSpec.bo()),
    ),
    "weighted_l2": lambda f: (weighted_l2(f, 0.0), weighted_l2(f, 1.5, bracket=True)),
    "sobolev": lambda f: sobolev(f, 2.0),
    "lebesgue": lambda f: (lebesgue(f, 1.0), lebesgue(f, 3.0), lebesgue(f, np.inf)),
    "stein_deriv": lambda f: (stein_deriv(f, 0.5), stein_deriv(f, 0.3, tail="stationary")),
    "stein_l2_norm": lambda f: stein_l2_norm(f, 0.5),
    "lp_linf_l1": lp_linf_l1,
}


def _leaves(result) -> list:
    """The values in a reducer's result, its tuples and dicts flattened in
    order."""
    if isinstance(result, dict):
        result = tuple(result.values())
    if isinstance(result, tuple):
        return [leaf for item in result for leaf in _leaves(item)]
    return [result]


def _arrays(result) -> list:
    return [np.asarray(v.values if isinstance(v, Field) else v) for v in _leaves(result)]


@pytest.mark.parametrize("name", REDUCERS)
def test_reducer_on_blocks_matches_rows(name):
    reduce = REDUCERS[name]
    for grid in (Grid(512, 20.0), *GRIDS):
        block = _mixed_block(grid)
        out = _arrays(reduce(block))
        for i, row in enumerate(block.values):
            want = _arrays(reduce(Field(grid, row)))
            got = [a[i].tobytes() for a in out]
            assert got == [w.tobytes() for w in want], f"{name}: n={grid.n}, row {i}"


def test_reducer_of_an_empty_block_returns_no_values():
    empty = Field(Grid(512, 20.0), np.zeros((0, 512)))
    for name, reduce in REDUCERS.items():
        assert all(len(a) == 0 for a in _arrays(reduce(empty))), name


def test_reducer_of_one_row_returns_python_numbers():
    grid = Grid(512, 20.0)
    for name, reduce in REDUCERS.items():
        if name in ("real_values", "stein_deriv"):  # these return samples
            continue
        for row in _mixed_block(grid).values:
            for leaf in _leaves(reduce(Field(grid, row))):
                assert type(leaf) in (float, complex, bool), f"{name}: {type(leaf)}"


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_multi_row_table_matches_its_rows(real):
    """One input under a table of several multipliers, each row with its own
    symmetry flags: odd and Hermitian, odd only, Hermitian only, neither."""
    grid = Grid(512, 20.0)
    f = _mixed_block(grid).values[0 if real else 1]
    symbols = [
        lambda xi: -1j * np.sign(xi),
        np.sign,
        lambda xi: (1j * xi) ** 2,
        lambda xi: np.exp(-1j * 0.3 * xi**2),
    ]
    table = _build_table(grid, np.stack([s(grid.xi) for s in symbols]))
    assert table.odd.tolist() == [True, True, False, False]
    assert table.hermitian.tolist() == [True, False, True, False]
    out = _apply_table(table, np.fft.fft(f), ~f.imag.any())
    for row, symbol in zip(out, symbols, strict=True):
        assert row.tobytes() == apply_multiplier(Field(grid, f), symbol).values.tobytes()


def _lp_loop_oracle(f):
    """lp_linf_l1 before its tables were stacked: one table per block N,
    applied and summed one at a time."""
    fhat = np.fft.fft(f.values)
    total = np.zeros(f.grid.n)
    for N in lp_block_range(f.grid):
        table = _build_table(f.grid, lambda xi: _eta(np.abs(xi) / 2.0**N).astype(complex))
        total += np.abs(_apply_table(table, fhat, f.is_real))
    return float(np.max(total))


# 13 tables in one partial block, 15 in blocks of 4 (a partial last one),
# 16 in blocks of 2
@pytest.mark.parametrize("n,L", [(1024, 20.0), (4096, 20.0), (8192, 20.0)])
def test_lp_linf_l1_matches_per_table_loop(n, L):
    grid = Grid(n, L)
    block = _mixed_block(grid)
    for row in block.values:
        f = Field(grid, row)
        assert lp_linf_l1(f).hex() == _lp_loop_oracle(f).hex()
