"""Work the refine battery must not repeat, pinned as call counts.

Timings on a shared 2-vCPU VM drift by 2x between processes, so these guards
count calls instead: the group phases and symmetry scans of a group-phase
time scan, the group phases and forward transforms of ``weighted_free``, the
forward transforms of ``gn`` and the inverse ones of ``interpolation``, whose
L^2 norms are read off spectra, the inverse transforms of ``lp_linf_l1``, the
builds of the operator tables that one process-wide store keeps across ops
(``spectral._table``), and the command-line parser, built once per process.
Each count is deterministic.
"""

import argparse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from dispersivelab import cli, operators, spectral
from dispersivelab.checks import CHECKS, run_check
from dispersivelab.operators import _lp_deriv_linf_l1, lp_block_range, lp_linf_l1, riesz_deriv
from dispersivelab.propagators import EquationSpec
from dispersivelab.spectral import Field, Grid


def _counting(monkeypatch, owner, name, weight=lambda *args, **kwargs: 1):
    """Replace ``owner.name`` by a wrapper that adds ``weight(*args)`` to
    the returned count on each call."""
    count = [0]
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        count[0] += weight(*args, **kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return count


def test_refine_strichartz_scans_no_table(monkeypatch):
    """A strichartz op at n = 4096 applies 2 x 129 group phases in 66 blocks
    of times from 4 evaluated phases, U(0) and U(dt) per scale, and none of
    their tables is scanned for its symmetry."""
    scans = _counting(monkeypatch, spectral, "_symmetry")
    phases = _counting(monkeypatch, EquationSpec, "_half_phase")
    report = run_check("strichartz", {"n": 4096})
    assert report.verdict == "pass"
    assert phases[0] == 4 and scans[0] == 0


def test_refine_weighted_free_builds_one_group_table_per_level(monkeypatch):
    """At n = 4096 the 23 members fill 6 blocks, and 12 at n = 8192: one
    group phase per level, and one forward FFT per block for U(t) and D^b."""
    phases = _counting(monkeypatch, EquationSpec, "_half_phase")
    ffts = _counting(monkeypatch, spectral, "_fft")
    report = run_check("weighted_free", {"n": 4096})
    assert report.verdict == "pass" and report.notes["t_adjusted"] == 0.0
    assert phases[0] == 2
    assert ffts[0] == 6 + 12


def test_refine_gn_takes_one_forward_fft_per_block_for_both_norms(monkeypatch):
    """At p = q = 2 the norms of D^alpha f and D^beta f are read off one
    spectrum: the 13 members fill 4 blocks at n = 4096 and 7 at n = 8192,
    and the three dilations one block, so 12 forward FFTs."""
    ffts = _counting(monkeypatch, spectral, "_fft")
    report = run_check("gn", {"n": 4096})
    assert report.verdict == "pass" and report.corpus_size == 13
    assert ffts[0] == 4 + 7 + 1


def test_interpolation_takes_no_inverse_transform(monkeypatch):
    """Both J norms are read off spectra, so no sample of J^s f is formed."""
    inverses = _counting(monkeypatch, spectral, "_ifft")
    ffts = _counting(monkeypatch, spectral, "_fft")
    report = run_check("interpolation", {"n": 4096})
    assert report.verdict == "pass"
    assert inverses[0] == 0 and ffts[0] > 0


def test_cli_builds_its_parser_once_per_process(monkeypatch, tmp_path):
    """A second op registers no argparse action: the parser is kept."""
    assert cli.main(["check", "scaling", "--out", str(tmp_path)]) == 0
    registers = _counting(monkeypatch, argparse.ArgumentParser, "register")
    builds = _counting(monkeypatch, argparse.ArgumentParser, "__init__")
    assert cli.main(["check", "scaling", "--param", "a=13", "--out", str(tmp_path)]) == 0
    assert cli.main(["check", "scaling", "--out", str(tmp_path)]) == 0
    assert registers[0] == 0 and builds[0] == 0
    assert (tmp_path / "checks.csv").read_text().splitlines()[1].startswith("scaling,L=160;a=9;")


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n,L", [(512, 20.0), (4096, 20.0)])
def test_lp_linf_l1_transforms_each_block_once(monkeypatch, n, L, rows):
    grid = Grid(n, L)
    rng = np.random.default_rng(5)
    f = Field(grid, rng.standard_normal((rows, n)) if rows > 1 else rng.standard_normal(n))
    transforms = _counting(monkeypatch, spectral, "_ifft", lambda a, out=None: a.size // a.shape[-1])
    lp_linf_l1(f)
    assert transforms[0] == len(lp_block_range(grid)) * rows


def test_lp_block_range_at_refine():
    """At n = 4096, L = 20 the lattice holds |xi| from pi/20 = 2^-2.67 to
    321.7 = 2^8.33: the blocks N = -3 .. 9 meet it, and no others."""
    assert lp_block_range(Grid(4096, 20.0)) == range(-3, 10)


def _table_builds(monkeypatch):
    """The count of the operator tables built from here on: every stored
    table is ``_build_table`` of a symbol or the Littlewood-Paley bands."""
    builds = _counting(monkeypatch, operators, "_build_table")
    stacks = _counting(monkeypatch, operators, "_lp_bands")
    return lambda: builds[0] + stacks[0]


def _lp_keys(store) -> list:
    """The store's keys of Littlewood-Paley tables, sorted."""
    return sorted(key for key in store if key[2][0] == "lp_blocks")


# the refine battery: every check but persistence one level up, leibniz at
# n = 1024, where its square function costs seconds at 4096
REFINE_BATTERY = [(name, {"n": 1024 if name == "leibniz" else 4096}) for name in CHECKS
                  if name != "persistence"]


def test_a_second_refine_battery_round_builds_no_table(monkeypatch):
    """Each refine op builds new grids from ``n``, and every grid of a size
    and cell reads the same stored tables: after the first round of the
    battery, which builds them all, a second round builds none."""
    monkeypatch.setattr(spectral, "_store", {})
    builds = _table_builds(monkeypatch)
    first = [asdict(run_check(name, params)) for name, params in REFINE_BATTERY]
    assert builds() > 0
    held = sum(table.values.nbytes for table in spectral._store.values())
    assert held <= spectral._STORE_BYTES  # the whole battery is kept
    assert held <= 2.4 * 2**20  # its real tables held as float64
    built, kept = builds(), list(spectral._store)
    second = [asdict(run_check(name, params)) for name, params in REFINE_BATTERY]
    assert builds() == built
    assert second == first and list(spectral._store) == kept


def test_commutator_leibniz_ops_build_the_lp_table_once_per_grid(monkeypatch):
    """Two refine commutator_leibniz ops (n = 4096 and its refinement 8192)
    build the table of the blocks of D^alpha once per grid: 2 tables."""
    monkeypatch.setattr(spectral, "_store", {})
    builds = _counting(monkeypatch, operators, "_lp_bands")
    reports = [run_check("commutator_leibniz", {"n": 4096}) for _ in range(2)]
    assert [r.verdict for r in reports] == ["pass", "pass"]
    assert asdict(reports[0]) == asdict(reports[1])
    assert builds[0] == 2
    assert _lp_keys(spectral._store) == [
        (4096, 20.0, ("lp_blocks", 0.5)), (8192, 20.0, ("lp_blocks", 0.5))
    ]


def test_large_grids_build_their_lp_table_once(monkeypatch):
    """At n = 2^16 and its refinement 2^17 the banded tables of the blocks of
    D^alpha (0.5 and 1 MiB) fit the store: repeated block norms build each
    grid's table once, and the store keeps both."""
    monkeypatch.setattr(spectral, "_store", {})
    builds = _counting(monkeypatch, operators, "_lp_bands")
    grids = [Grid(2**16, 20.0), Grid(2**17, 20.0)]
    for grid in grids * 3:
        _lp_deriv_linf_l1(Field(grid, np.exp(-grid.x**2)), 0.5)
    assert builds[0] == 2
    assert _lp_keys(spectral._store) == [(g.n, 20.0, ("lp_blocks", 0.5)) for g in grids]


def test_a_sweep_past_the_byte_bound_keeps_the_newest_tables(monkeypatch):
    """A sweep over more orders b than the store holds tables of the blocks
    of D^b at n = 8192 (64 kB each, float64 on their bands) keeps the
    newest ones, never holds more bytes than its bound, and builds a key
    dropped from it again."""
    monkeypatch.setattr(spectral, "_store", {})
    grid = Grid(8192, 20.0)
    f = Field(grid, np.exp(-grid.x**2))
    _lp_deriv_linf_l1(f, 0.05)
    size = spectral._store[(8192, 20.0, ("lp_blocks", 0.05))].values.nbytes
    monkeypatch.setattr(spectral, "_store", {})
    builds = _counting(monkeypatch, operators, "_lp_bands")
    kept = spectral._STORE_BYTES // size
    orders = [0.05 * (i + 1) for i in range(kept + 2)]
    for b in orders:
        _lp_deriv_linf_l1(f, b)
        held = sum(table.values.nbytes for table in spectral._store.values())
        assert held <= spectral._STORE_BYTES
    assert list(spectral._store) == [(8192, 20.0, ("lp_blocks", b)) for b in orders[-kept:]]
    assert builds[0] == len(orders)
    _lp_deriv_linf_l1(f, orders[0])
    assert builds[0] == len(orders) + 1
    assert (grid.n, grid.length, ("lp_blocks", orders[1])) not in spectral._store


def test_a_table_larger_than_the_bound_is_not_stored(monkeypatch):
    """A table of more bytes than the store holds is built on each call and
    returned unstored; the tables held stay."""
    monkeypatch.setattr(spectral, "_store", {})
    monkeypatch.setattr(spectral, "_STORE_BYTES", 64)
    f = Field(Grid(8, 1.0), np.arange(8.0))
    riesz_deriv(f, 0.5)
    assert spectral._store[(8, 1.0, ("riesz_deriv", 0.5))].values.nbytes == 64
    builds = _table_builds(monkeypatch)
    kept = dict(spectral._store)
    assert len(kept) == 1
    for _ in range(2):
        riesz_deriv(Field(Grid(16, 1.0), np.arange(16.0)), 0.5)
    assert builds() == 2 and spectral._store == kept


def test_sweep_with_two_jobs_over_two_alphas_gives_the_serial_reports(monkeypatch):
    """Two worker threads, as ``sweep --jobs 2`` runs them, each building
    and reading its own order's tables in the shared store, report what a
    serial run reports."""
    alphas = (0.25, 0.5)
    monkeypatch.setattr(spectral, "_store", {})
    serial = [asdict(run_check("commutator_leibniz", {"alpha": a})) for a in alphas]
    monkeypatch.setattr(spectral, "_store", {})
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [asdict(r) for r in pool.map(
            lambda a: run_check("commutator_leibniz", {"alpha": a}), alphas
        )]
    assert threaded == serial
    assert _lp_keys(spectral._store) == [
        (n, 20.0, ("lp_blocks", a)) for n in (512, 1024) for a in alphas
    ]
