"""Stored multiplier tables and the linear-group scan against the per-call
path.

The package's operators apply tables that one process-wide store
(``spectral._table``) builds once per grid size, cell and symbol and never
replaces; ``apply_multiplier`` evaluates and scans its symbol on every
call.  Both must give the same bits (tolerance 0) on the first call, which
builds the table, and on a repeated call, which reuses it.  The linear
groups store no table: ``linear_group`` is ``apply_multiplier`` under the
group phase.  The time scan ``_group_scan`` advances its phase by the group
law, so its row at t is ``linear_group`` at t to a relative L^2 error of at
most theta_max * eps (theta_max = max|t omega(xi)| over the scan), its
first row is bitwise ``linear_group`` at t0, and a real field stays exactly
real under the gKdV and BO phases.  An ``lp_block`` off ``lp_block_range``
equals its symbol, 0 on the lattice, under ``apply_multiplier`` in value.
``apply_multiplier`` itself is held to the single-function form it had
before the build and the application were split (``_old_apply_multiplier``).

The group-phase tables (``_group_table``) and the Littlewood-Paley blocks
(``_lp_bands``), plain or composed with |xi|^b and each held on its band,
take their symmetry flags from their construction; each, the blocks
expanded to dense rows (``dense_bands``), is held to ``_build_table``'s
scan of the same values at tolerance 0, and the block norm summed on the
bands to the sum of the dense rows under the multiplier kernel at
tolerance 0.  Every batch of the time scan, formed on bands by the
stacked kernel, is held bitwise to the dense path it replaced
(``_dense_scan``).  The block
norm of D^b f summed under the composed blocks is held to
``lp_linf_l1(riesz_deriv(f, b))`` at 1e-14 relative.
"""

import sys
import threading

import numpy as np
import pytest

from dispersivelab import spectral
from dispersivelab.operators import (
    _eta,
    _lp_deriv_linf_l1,
    _lp_bands,
    _lp_sum,
    bessel_potential,
    derivative,
    hilbert,
    lp_block,
    lp_block_range,
    lp_linf_l1,
    riesz_deriv,
)
from dispersivelab.propagators import (
    GROUP_PHASE_TOL,
    EquationSpec,
    _group_scan,
    _group_table,
    linear_group,
)
from dispersivelab.spectral import BLOCK_SAMPLES, Field, Grid, _build_table, apply_multiplier

GRIDS = [(8, 1.0), (512, 20.0), (4096, 20.0)]
MODELS = [EquationSpec.nls(), EquationSpec.gkdv(), EquationSpec.bo()]


def _field(grid, real, seed=3):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n)
    if not real:
        vals = vals + 1j * rng.standard_normal(grid.n)
    return Field(grid, vals)


def _same_bits(got: Field, want: Field) -> bool:
    return got.values.tobytes() == want.values.tobytes()


def _stored(grid) -> list:
    """The keys of the tables that the store holds for ``grid``'s size and cell."""
    return [key for n, L, key in spectral._store if (n, L) == (grid.n, grid.length)]


@pytest.fixture
def store(monkeypatch):
    """An empty table store for the test, so that its first call builds."""
    monkeypatch.setattr(spectral, "_store", {})
    return spectral._store


def _operator_cases(grid):
    """(name, operator, the same symbol as a callable of xi)."""
    yield "hilbert", hilbert, lambda xi: -1j * np.sign(xi)
    for order in range(1, 6):
        yield (
            f"derivative({order})",
            lambda f, o=order: derivative(f, o),
            lambda xi, o=order: (1j * xi) ** o,
        )
    for b in (0.25, 0.5, 1.5):
        yield f"riesz_deriv({b})", lambda f, b=b: riesz_deriv(f, b), lambda xi, b=b: np.abs(xi) ** b
    for s in (-1.0, 2.0):
        yield (
            f"bessel_potential({s})",
            lambda f, s=s: bessel_potential(f, s),
            lambda xi, s=s: (1.0 + xi**2) ** (s / 2.0),
        )
    for N in lp_block_range(grid):
        yield (
            f"lp_block({N})",
            lambda f, N=N: lp_block(f, N),
            lambda xi, N=N: _eta(np.abs(xi) / 2.0**N).astype(complex),
        )


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n,L", GRIDS)
def test_operator_tables_match_apply_multiplier(n, L, real, store):
    grid = Grid(n, L)
    f = _field(grid, real)
    for name, op, symbol in _operator_cases(grid):
        want = apply_multiplier(f, symbol)
        assert _same_bits(op(f), want), f"{name}: first call"
        assert _same_bits(op(f), want), f"{name}: cache hit"


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n,L", GRIDS)
def test_linear_group_tables_match_apply_multiplier(n, L, real):
    grid = Grid(n, L)
    f = _field(grid, real)
    # repeated times, and 0.0 and -0.0 in both orders: the gKdV phases at
    # the two zeros differ in the sign of zero
    times = [0.0, 0.0, 0.3, 0.3, -1.7, -1.7, -0.0, 0.0, -0.0]
    for spec in MODELS:
        for t in times:
            want = apply_multiplier(f, lambda xi: spec.group_phase(xi, t))
            assert _same_bits(linear_group(f, spec, t), want), f"{spec.model} at t={t!r}"


# (t0, dt, count) with counts of 1, 16, 17 and 129: at n = 4096 (4 rows per
# block) the last two end in a partial block; t0 = 0.0 and -0.0 both start
# a scan, and one scan runs backwards
SCANS = [(-0.0, 0.1, 1), (0.0, 0.1, 16), (-1.7, 3.0 / 16.0, 17), (0.0, 4.0 / 128.0, 129),
         (-0.0, -0.05, 129)]
OMEGA = {"nls": lambda xi: xi**2, "gkdv": lambda xi: np.abs(xi) ** 3, "bo": lambda xi: xi**2}


@pytest.mark.parametrize(
    "spec,real",
    [
        (EquationSpec.nls(), True),
        (EquationSpec.nls(), False),
        (EquationSpec.gkdv(), True),
        (EquationSpec.bo(), True),
    ],
    ids=["nls-real", "nls-complex", "gkdv", "bo"],
)
@pytest.mark.parametrize("n,L", GRIDS)
def test_group_scan_rows_match_linear_group(n, L, spec, real):
    """Every row of a time scan is ``linear_group`` at its time to a relative
    L^2 error of theta_max * eps, the rounding of the angle t*omega(xi) in
    the per-time phase (broadband data reads up to 0.41 of it); row 0 is
    bitwise ``linear_group`` at t0, which at t0 = +-0 is the identity
    multiplier, exactly 1; and a real field stays exactly real wherever the
    phase is Hermitian: at t = +-0 for NLS and at every t for gKdV and BO."""
    grid = Grid(n, L)
    f = _field(grid, real)
    eps = np.finfo(float).eps
    for t0, dt, count in SCANS:
        blocks = [rows.copy() for rows in _group_scan(f, spec, t0, dt, count)]
        assert all(1 <= len(rows) <= max(1, BLOCK_SAMPLES // n) for rows in blocks)
        rows = np.concatenate(blocks)
        assert rows.shape == (count, n)
        times = t0 + dt * np.arange(count)
        theta_max = np.max(np.abs(times)) * np.max(OMEGA[spec.model](grid.xi))
        assert rows[0].tobytes() == linear_group(f, spec, t0).values.tobytes()
        if t0 == 0.0:
            assert (_group_table(grid, spec, t0).values == 1.0).all()
            assert np.array_equal(rows[0], apply_multiplier(f, np.ones(n)).values)
        for t, row in zip(times, rows):
            want = linear_group(f, spec, t).values
            err = np.linalg.norm(row - want) / np.linalg.norm(f.values)
            assert err <= theta_max * eps, f"{spec.model} at t={t!r}: {err:.3g}"
            if real and (spec.is_real or t == 0.0):
                assert not row.imag.any(), f"{spec.model} at t={t!r}"


@pytest.mark.parametrize("spec", MODELS, ids=["nls", "gkdv", "bo"])
@pytest.mark.parametrize("n,rows", [(4096, 2), (2048, 3)])
def test_group_scan_of_a_block_pairs_every_time_with_every_row(n, rows, spec):
    """On a block of k rows the scan yields batches (times, k, n) of at most
    BLOCK_SAMPLES samples, every time applied to every row: each (time,
    row) pair is ``linear_group`` of that row at that time to the scan's
    theta_max * eps, and the first time is bitwise ``linear_group`` of the
    block at t0."""
    grid = Grid(n, 20.0)
    block = Field(grid, np.stack([_field(grid, True, seed=seed).values for seed in range(rows)]))
    t0, dt, count = -1.7, 3.0 / 16.0, 5
    batches = [rows.copy() for rows in _group_scan(block, spec, t0, dt, count)]
    assert all(1 <= len(b) and b.size <= BLOCK_SAMPLES for b in batches)
    scan = np.concatenate(batches)
    assert scan.shape == (count, rows, n)
    assert scan[0].tobytes() == linear_group(block, spec, t0).values.tobytes()
    times = t0 + dt * np.arange(count)
    theta_max = np.max(np.abs(times)) * np.max(OMEGA[spec.model](grid.xi))
    eps = np.finfo(float).eps
    for t, samples in zip(times, scan):
        for f, got in zip(block.values, samples, strict=True):
            want = linear_group(Field(grid, f), spec, t).values
            err = np.linalg.norm(got - want) / np.linalg.norm(f)
            assert err <= theta_max * eps, f"{spec.model} at t={t!r}: {err:.3g}"


def _dense_scan(f, spec, t0, dt, count):
    """The batches of ``_group_scan`` formed by the dense path: each block of
    half-lattice phase rows, advanced by the same recurrence, mirrored into
    a table on the whole lattice (``_mirrored_table``), every table row
    paired with every input row, then ``_apply_table``."""
    g, n = f.grid, f.grid.n
    phase = spec._half_phase(g.xi, np.float64(t0))
    step = spec._half_phase(g.xi, np.float64(dt)) if count > 1 else None
    fhat, real = spectral._fft(f.values), spectral._real_rows(f.values)
    paired = (slice(None),) + (None,) * (f.values.ndim - 1)
    for block in spectral._row_blocks(count, max(f.values.size, 1)):
        half = np.empty((block.stop - block.start, n // 2 + 1), dtype=complex)
        for j, row in zip(range(block.start, block.stop), half):
            if j:
                phase = step * phase
            row[:] = phase
        table = table_rows(spectral._mirrored_table(g, half, spec.is_real), paired)
        yield spectral._apply_table(table, fhat, real)


@pytest.mark.parametrize("kind", ["real", "complex", "block"])
@pytest.mark.parametrize("spec", MODELS, ids=["nls", "gkdv", "bo"])
@pytest.mark.parametrize("n,L", GRIDS)
def test_group_scan_batches_equal_the_dense_path_bitwise(n, L, spec, kind):
    """Every batch of a time scan, its shape and every byte, is the dense
    path's (``_dense_scan``): the NLS even mirror and the gKdV and BO
    conjugate mirror, on a real, a complex and a 2-row block field, over
    ``SCANS`` (partial blocks, t0 = +-0, a backwards scan) and the edge
    counts 0, which yields no batch, and 1."""
    grid = Grid(n, L)
    real, cplx = _field(grid, True), _field(grid, False, seed=4)
    f = {"real": real, "complex": cplx,
         "block": Field(grid, np.stack([real.values, cplx.values]))}[kind]
    for t0, dt, count in SCANS + [(0.5, 0.1, 0), (0.5, -0.25, 1)]:
        got = [rows.copy() for rows in _group_scan(f, spec, t0, dt, count)]
        want = list(_dense_scan(f, spec, t0, dt, count))
        assert len(got) == len(want) == len(spectral._row_blocks(count, f.values.size))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (t0, dt, count)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n,L", GRIDS)
def test_lp_sums_match_per_block_sum(n, L, real):
    grid = Grid(n, L)
    f = _field(grid, real)
    norm = np.zeros(n)
    for N in lp_block_range(grid):
        norm += np.abs(lp_block(f, N).values)
    assert lp_linf_l1(f) == float(np.max(norm))


@pytest.mark.parametrize(
    "n,L", [(8, 1.0), (64, 10.0), (256, 3.0), (512, 20.0), (1024, 40.0), (2048, 160.0), (4096, 20.0)]
)
def test_lp_block_off_its_range_is_the_old_table_path_in_value(n, L, store):
    """Off ``lp_block_range`` the block symbol is 0 on the lattice: Q_N f is
    the zero field of f's shape, equal in value (not in the sign of zero)
    to the symbol applied per row, the path these N took before."""
    grid = Grid(n, L)
    block = Field(grid, np.stack([_field(grid, True).values, _field(grid, False).values]))
    off = [N for N in range(-60, 61) if N not in lp_block_range(grid)]
    assert off[0] == -60 and off[-1] == 60
    for N in off:
        got = lp_block(block, N).values
        assert got.shape == block.values.shape and not got.any()
        for row, got_row in zip(block.values, got, strict=True):
            old = apply_multiplier(Field(grid, row), lambda xi: _eta(np.abs(xi) / 2.0**N).astype(complex))
            assert np.array_equal(got_row, old.values), f"N={N}"
    assert store == {}  # no table per N


def _old_apply_multiplier(f, m):
    """apply_multiplier as one function, before the table was split off."""
    g = f.grid
    mvals = np.asarray(m(g.xi) if callable(m) else m, dtype=np.complex128)
    tol = 1e-13 * np.max(np.abs(mvals))
    pos = mvals[1 : g.n // 2]
    neg = mvals[-1 : g.n // 2 : -1]
    out = mvals * np.fft.fft(f.values)
    if abs(mvals[0]) <= tol and np.max(np.abs(pos + neg)) <= tol:
        out[g.n // 2] = 0.0
    result = np.fft.ifft(out)
    if f.is_real and abs(mvals[0].imag) <= tol and np.max(np.abs(pos - np.conj(neg))) <= tol:
        result = result.real.astype(np.complex128)
    return Field(g, result)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_apply_multiplier_matches_single_function_form(real):
    grid = Grid(512, 20.0)
    f = _field(grid, real)
    symbols = [
        lambda xi: -1j * np.sign(xi),            # odd and Hermitian
        lambda xi: 1j * xi,                      # odd and Hermitian
        lambda xi: np.exp(-1j * 0.3 * xi**2),    # Hermitian only
        lambda xi: 1.0 + 1j * xi * (xi > 0),     # neither
        lambda xi: np.sign(xi),                  # odd, not Hermitian
    ]
    for symbol in symbols:
        assert _same_bits(apply_multiplier(f, symbol), _old_apply_multiplier(f, symbol))
    array = np.exp(1j * 0.7 * grid.xi * np.abs(grid.xi))
    assert _same_bits(apply_multiplier(f, array), _old_apply_multiplier(f, array))
    assert array.flags.writeable  # the caller's array is never frozen


def test_linear_group_stores_no_table(store):
    grid = Grid(256, 20.0)
    f = _field(grid, real=True)
    for t in np.linspace(-2.0, 2.0, 30):
        for spec in MODELS:
            linear_group(f, spec, t)
            list(_group_scan(f, spec, t, -2.0 * t, 2))
    assert store == {}


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_group_time_must_be_finite(t):
    f = _field(Grid(64, 10.0), real=True)
    for spec in MODELS:
        with pytest.raises(ValueError, match=f"group time must be finite, got t={t}"):
            linear_group(f, spec, t)
        for scan in ((t, 0.5, 3), (0.0, t, 3), (0.0, 0.5 * t, 3)):
            with pytest.raises(ValueError, match=f"group time must be finite, got t={t}"):
                list(_group_scan(f, spec, *scan))


def test_cached_tables_are_read_only(store):
    grid = Grid(64, 10.0)
    f = _field(grid, real=True)
    hilbert(f)
    derivative(f, 2)
    linear_group(f, EquationSpec.bo(), 0.5)
    lp_linf_l1(f)
    _lp_deriv_linf_l1(f, 0.5)
    assert _stored(grid) == ["hilbert", ("derivative", 2), ("lp_blocks", 0.0), ("lp_blocks", 0.5)]
    for table in store.values():
        with pytest.raises(ValueError):
            table.values[0] = 0.0


def test_grids_of_one_size_and_two_cells_get_their_own_tables(store):
    """Two cells of the same n have different lattices: each grid reads its
    own cell's tables, the Littlewood-Paley stacks holding different numbers
    of blocks, and every operator gives the bits of its symbol there."""
    grids = [Grid(64, 10.0), Grid(64, 20.0)]
    for grid in grids * 2:  # the second pass reads the stored tables
        f = _field(grid, real=False)
        for name, op, symbol in _operator_cases(grid):
            assert _same_bits(op(f), apply_multiplier(f, symbol)), (grid.length, name)
        want = lp_linf_l1(riesz_deriv(f, 0.5))
        assert abs(_lp_deriv_linf_l1(f, 0.5) - want) <= 1e-14 * want, grid.length
    assert _stored(grids[0]) == _stored(grids[1]) and len(store) == 2 * len(_stored(grids[0]))


def _run_six_threads(work) -> None:
    """Run ``work(k)`` for k = 0..5 in threads switching every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def test_threads_sharing_a_grid_get_their_own_tables(store):
    """Threads applying one group at different t, and operators at different
    parameters, on one grid (as sweep workers may) each get their own
    symbol's result.  Operator tables are built on first use and never
    replaced; group phases are built per call and never stored."""
    grid = Grid(64, 10.0)
    f = _field(grid, real=False)
    failures = []

    def work(k):
        spec = EquationSpec.bo()
        try:
            for i in range(100):
                t = 0.01 * (k + 1) * (1 + i % 5)
                want = apply_multiplier(f, lambda xi: spec.group_phase(xi, t))
                if not _same_bits(linear_group(f, spec, t), want):
                    failures.append(("linear_group", spec.model, t))
                b = 0.25 * (1 + (k + i) % 4)
                riesz = apply_multiplier(f, lambda xi: np.abs(xi) ** b)
                if not _same_bits(riesz_deriv(f, b), riesz):
                    failures.append(("riesz_deriv", b))
        except Exception as exc:  # a thread's exception would otherwise pass unseen
            failures.append(repr(exc))

    _run_six_threads(work)
    assert failures == []


def test_threads_sharing_the_lp_store_get_their_own_tables(monkeypatch, store):
    """Six threads summing the block norm of D^b, and applying D^b, over
    (n, L, b) keys whose tables hold more bytes than the store keeps, on
    fresh grids, each get their own key's result, and the store never
    holds more bytes than its bound."""
    keys = [(n, 10.0, b) for n in (64, 128, 256) for b in (0.25, 0.5, 0.75)]
    want = {key: _lp_deriv_linf_l1(_field(Grid(*key[:2]), real=False), key[2]) for key in keys}
    bound = sum(table.values.nbytes for table in store.values()) // 4
    monkeypatch.setattr(spectral, "_STORE_BYTES", bound)
    failures = []

    def work(k):
        try:
            for i in range(60):
                n, L, b = key = keys[(k + i) % len(keys)]
                f = _field(Grid(n, L), real=False)
                if _lp_deriv_linf_l1(f, b) != want[key]:
                    failures.append(("lp", key))
                riesz = apply_multiplier(f, lambda xi: np.abs(xi) ** b)
                if not _same_bits(riesz_deriv(f, b), riesz):
                    failures.append(("riesz_deriv", key))
                with spectral._store_lock:
                    held = sum(table.values.nbytes for table in spectral._store.values())
                if held > bound:
                    failures.append(("store bytes", held))
        except Exception as exc:  # a thread's exception would otherwise pass unseen
            failures.append(repr(exc))

    _run_six_threads(work)
    assert failures == []


class _LockCheckedStore(dict):
    """A table store that records each insert or delete made while the
    store's lock is free."""

    def __init__(self):
        super().__init__()
        self.unlocked = []

    def __setitem__(self, key, table):
        if not spectral._store_lock.locked():
            self.unlocked.append(("insert", key))
        super().__setitem__(key, table)

    def __delitem__(self, key):
        if not spectral._store_lock.locked():
            self.unlocked.append(("delete", key))
        super().__delitem__(key)


def test_the_store_changes_only_under_its_lock(monkeypatch):
    """Every insert and every eviction happens under the store's lock: the
    thread test above meets an unlocked insert only by chance."""
    store = _LockCheckedStore()
    monkeypatch.setattr(spectral, "_store", store)
    grid = Grid(64, 10.0)
    f = _field(grid, real=False)
    riesz_deriv(f, 0.5)
    monkeypatch.setattr(spectral, "_STORE_BYTES", store[(64, 10.0, ("riesz_deriv", 0.5))].values.nbytes)
    riesz_deriv(f, 0.25)  # evicts the first table
    assert list(store) == [(64, 10.0, ("riesz_deriv", 0.25))]
    assert store.unlocked == []


def _same_table(got, want) -> bool:
    """Two tables with the same value bits and the same flags, row by row."""
    return (
        got.values.tobytes() == want.values.tobytes()
        and got.values.shape == want.values.shape
        and np.array_equal(got.odd, want.odd)
        and np.array_equal(got.hermitian, want.hermitian)
        and got.odd.shape == want.odd.shape
    )


@pytest.mark.parametrize("n", [8, 512, 4096])
@pytest.mark.parametrize("spec", MODELS, ids=lambda spec: spec.model)
def test_group_table_flags_equal_the_scan(spec, n):
    """The flags of a group-phase table, read off its half lattice, are the
    scan's: at t = L^2/pi the NLS phase exp(-i pi k^2) is real on the
    lattice in exact arithmetic, so the NLS Hermitian flag turns on the
    rounding of each grid."""
    for L in (1.0, 20.0, 40.0):
        grid = Grid(n, L)
        times = [0.0, -0.0, 0.5, -0.5, 2.0, L * L / np.pi]
        for t in times:
            want = _build_table(grid, spec.group_phase(grid.xi, t))
            assert _same_table(_group_table(grid, spec, t), want), (L, t)
        column = np.array(times)[:, None]
        want = _build_table(grid, spec.group_phase(grid.xi, column))
        assert _same_table(_group_table(grid, spec, column), want), L


def test_group_table_hermitian_flag_is_not_constant():
    """The NLS flag takes both values over the tested times (so the oracle
    above sees both), and the gKdV and BO flags are always on."""
    grid = Grid(8, 1.0)
    flags = {bool(_group_table(grid, EquationSpec.nls(), t).hermitian) for t in (0.5, 1.0 / np.pi)}
    assert flags == {True, False}
    for spec in MODELS[1:]:
        assert bool(_group_table(grid, spec, 0.5).hermitian)
        assert not bool(_group_table(grid, spec, 0.5).odd)


@pytest.mark.parametrize("t", [1e308, -1e308, 1e306])
def test_huge_group_time_raises_the_scan_error(t):
    """A time whose angles t*omega(xi) overflow, or round by more than
    GROUP_PHASE_TOL, is not resolvable: the table, a column of times,
    linear_group and the scan from either end raise one error, naming the
    model, the time and the rounding."""
    grid = Grid(64, 10.0)
    f = _field(grid, real=True)
    for spec in MODELS:
        want = f"the {spec.model} group phase at t={t:g} is not resolvable on the lattice |xi| <= "
        for call in (
            lambda: _group_table(grid, spec, t),
            lambda: _group_table(grid, spec, np.array([[0.5], [t]])),
            lambda: linear_group(f, spec, t),
            lambda: list(_group_scan(f, spec, 0.0, t, 2)),
            lambda: list(_group_scan(f, spec, t, 0.5, 2)),
        ):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value).startswith(want), spec.model
            assert str(got.value).endswith(f" rad, above {GROUP_PHASE_TOL:g}")


@pytest.mark.parametrize("spec", MODELS, ids=lambda spec: spec.model)
def test_group_time_bound_sits_at_the_phase_tolerance(spec):
    """The largest resolvable |t| is GROUP_PHASE_TOL / (max|omega(xi)| eps):
    a time 1% inside it builds its table, 1% beyond it raises, both signs
    and in a column, and t = 0 is resolvable on every finite lattice."""
    grid = Grid(512, 20.0)
    xi = grid.xi_max
    omega = xi**3 if spec.model == "gkdv" else xi**2
    t_max = GROUP_PHASE_TOL / (omega * np.finfo(float).eps)
    for sign in (1.0, -1.0):
        _group_table(grid, spec, sign * 0.99 * t_max)
        with pytest.raises(ValueError, match=f"^the {spec.model} group phase at t="):
            _group_table(grid, spec, sign * 1.01 * t_max)
        with pytest.raises(ValueError, match="is not resolvable"):
            _group_table(grid, spec, np.array([[0.0], [sign * 1.01 * t_max]]))
    _group_table(grid, spec, 0.0)


def _old_lp_rows(grid, blocks):
    """The Littlewood-Paley rows as they were built before: eta of the whole
    lattice, one row per N of ``blocks``."""
    out = np.empty((len(blocks), grid.n), dtype=complex)
    for row, N in zip(out, blocks):
        row[:] = _eta(np.abs(grid.xi) / 2.0**N)
    return out


def dense_bands(bands):
    """The rows of a banded table expanded to the lattice: each band
    mirrored onto -xi (conjugated when the table is), 0 elsewhere, with
    the table's flags."""
    half = np.zeros((len(bands.bands), bands.n // 2 + 1), bands.values.dtype)
    for row, (lo, hi, v) in zip(half, bands.bands):
        row[lo:hi] = v
    return spectral._frozen(spectral._mirror(half, bands.n, bands.conjugate), bands.odd,
                            bands.hermitian)


def table_rows(table, index):
    """The multipliers of the rows of a dense table that ``index`` selects,
    with their flags."""
    return table._replace(values=table.values[index], odd=table.odd[index],
                          hermitian=table.hermitian[index])


def _dense(bands):
    """The rows of a banded table expanded to the lattice, complex as
    ``_build_table`` holds them."""
    table = dense_bands(bands)
    return table._replace(values=table.values.astype(complex))


# every grid the checks and the tests use, the refine battery's, and an n = 8
# cell whose top block meets the lattice at the Nyquist mode alone
LP_GRIDS = [
    (8, 1.0), (8, 4.0 * np.pi / 2.4), (16, 3.0), (64, 10.0), (256, 3.0), (512, 10.0),
    (512, 20.0), (1024, 20.0), (1024, 40.0), (2048, 160.0), (4096, 20.0), (4096, 40.0),
    (8192, 10.0), (8192, 30.0), (8192, 160.0),
]


@pytest.mark.parametrize("n,L", LP_GRIDS)
def test_lp_stack_equals_the_scan_of_the_old_rows(n, L):
    grid = Grid(n, L)
    blocks = lp_block_range(grid)
    assert _same_table(_dense(_lp_bands(grid)), _build_table(grid, _old_lp_rows(grid, blocks)))
    # the rows the range dropped at each end are 0 on the lattice
    ends = range(blocks.start - 1, blocks.stop + 1, len(blocks) + 1)
    assert not _old_lp_rows(grid, ends).any()


def test_lp_stack_odd_only_where_a_row_vanishes_off_nyquist():
    grid = Grid(8, 4.0 * np.pi / 2.4)  # |xi| = 0.6 k: the top band (2, 8) holds 2.4 alone
    table = _lp_bands(grid)
    top = dense_bands(table).values[-1]
    assert np.flatnonzero(top).tolist() == [grid.n // 2]
    assert table.odd.tolist() == [False] * (len(table.odd) - 1) + [True]
    assert table.hermitian.all()


@pytest.mark.parametrize("n,L", GRIDS)
def test_no_lp_row_is_all_zero(n, L):
    rows = dense_bands(_lp_bands(Grid(n, L))).values
    assert rows.any(axis=-1).all()


@pytest.mark.parametrize("b", [0.25, 0.5])
@pytest.mark.parametrize("n,L", LP_GRIDS)
def test_lp_deriv_stack_equals_the_scan_of_the_composed_rows(n, L, b):
    grid = Grid(n, L)
    rows = _old_lp_rows(grid, lp_block_range(grid)) * np.abs(grid.xi) ** b
    assert _same_table(_dense(_lp_bands(grid, b)), _build_table(grid, rows))


# the default and the refine grids of commutator_leibniz
@pytest.mark.parametrize("n,L", [(512, 20.0), (1024, 20.0), (4096, 20.0), (8192, 20.0)])
def test_lp_deriv_sum_matches_the_sum_of_d_alpha(n, L):
    """The composed table skips the transforms of D^b f: the two sums differ
    by the rounding of the composed symbol (up to 2.9 eps measured on these
    grids), held here to 1e-14 relative, row by row of a block of real,
    complex and Gaussian rows, for several b on one grid."""
    grid = Grid(n, L)
    rows = [_field(grid, True).values, _field(grid, False, seed=4).values, np.exp(-grid.x**2)]
    block = Field(grid, np.stack(rows))
    for b in (0.25, 0.5, 0.75):
        got = _lp_deriv_linf_l1(block, b)
        want = lp_linf_l1(riesz_deriv(block, b))
        assert np.all(np.abs(got - want) <= 1e-14 * want), b
        one = Field(grid, block.values[0])
        assert abs(_lp_deriv_linf_l1(one, b) - got[0]) <= 1e-14 * got[0]


def _dense_lp_sum(f, bands):
    """The block norm of ``_lp_sum`` from the dense rows of ``bands``, each
    applied by the one-multiplier kernel (``spectral._multiply``)."""
    table = dense_bands(bands)
    total = np.zeros(f.values.shape)
    for r in range(len(table.values)):
        total += np.abs(spectral._multiply(f, table_rows(table, r)).values)
    return np.max(total, axis=-1)


@pytest.mark.parametrize("b", [0.0, 0.5])
@pytest.mark.parametrize("n,L", LP_GRIDS)
def test_lp_sum_on_the_bands_equals_the_dense_rows(n, L, b):
    """The band kernel gives the bits of the dense rows, on every grid's
    partial batches and on the n = 8 grid whose odd top row holds the
    Nyquist mode alone: a real, a complex and a block field."""
    grid = Grid(n, L)
    bands = _lp_bands(grid, b)
    real, cplx = _field(grid, True), _field(grid, False, seed=4)
    for f in (real, cplx, Field(grid, np.stack([real.values, cplx.values]))):
        assert np.asarray(_lp_sum(f, bands)).tobytes() == _dense_lp_sum(f, bands).tobytes()
