"""Work the refine battery must not repeat, pinned as call counts.

Timings on a shared 2-vCPU VM drift by 2x between processes, so these guards
count calls instead: the group phases and symmetry scans of a group-phase
time scan, the group phases and forward transforms of ``weighted_free``, the
inverse transforms of ``lp_linf_l1``, and the builds of the Littlewood-Paley
tables of D^alpha kept across ``commutator_leibniz`` ops.  Each count is
deterministic.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from dispersivelab import operators, spectral
from dispersivelab.checks import run_check
from dispersivelab.operators import _lp_deriv_linf_l1, lp_block_range, lp_linf_l1
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
    phases = _counting(monkeypatch, EquationSpec, "group_phase")
    report = run_check("strichartz", {"n": 4096})
    assert report.verdict == "pass"
    assert phases[0] == 4 and scans[0] == 0


def test_refine_weighted_free_builds_one_group_table_per_level(monkeypatch):
    """At n = 4096 the 23 members fill 6 blocks, and 12 at n = 8192: one
    group phase per level, and one forward FFT per block for U(t) and D^b."""
    phases = _counting(monkeypatch, EquationSpec, "group_phase")
    ffts = _counting(monkeypatch, spectral, "_fft")
    report = run_check("weighted_free", {"n": 4096})
    assert report.verdict == "pass" and report.notes["t_adjusted"] == 0.0
    assert phases[0] == 2
    assert ffts[0] == 6 + 12


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


def test_commutator_leibniz_ops_build_the_lp_table_once_per_grid(monkeypatch):
    """Two refine commutator_leibniz ops (n = 4096 and its refinement 8192)
    build the table of the blocks of D^alpha once per grid: 2 tables."""
    monkeypatch.setattr(operators, "_lp_store", {})
    builds = _counting(monkeypatch, operators, "_lp_stack")
    reports = [run_check("commutator_leibniz", {"n": 4096}) for _ in range(2)]
    assert [r.verdict for r in reports] == ["pass", "pass"]
    assert asdict(reports[0]) == asdict(reports[1])
    assert builds[0] == 2
    assert sorted(operators._lp_store) == [(4096, 20.0, 0.5), (8192, 20.0, 0.5)]


def test_lp_store_stays_within_its_bound(monkeypatch):
    """A sweep over more (n, L, b) keys than the bound keeps the newest
    ones, and a key dropped from the store is built again."""
    monkeypatch.setattr(operators, "_lp_store", {})
    builds = _counting(monkeypatch, operators, "_lp_stack")
    keys = [(n, L, b) for n, L in [(64, 10.0), (128, 10.0), (64, 20.0)] for b in (0.25, 0.5)]
    assert len(keys) > operators._LP_STORE_KEYS
    for n, L, b in keys:
        _lp_deriv_linf_l1(Field(Grid(n, L), np.exp(-Grid(n, L).x ** 2)), b)
        assert len(operators._lp_store) <= operators._LP_STORE_KEYS
    assert list(operators._lp_store) == keys[-operators._LP_STORE_KEYS :]
    assert builds[0] == len(keys)
    n, L, b = keys[0]
    _lp_deriv_linf_l1(Field(Grid(n, L), np.exp(-Grid(n, L).x ** 2)), b)
    assert builds[0] == len(keys) + 1


def test_sweep_with_two_jobs_over_two_alphas_gives_the_serial_reports(monkeypatch):
    """Two worker threads, as ``sweep --jobs 2`` runs them, each building
    and reading its own order's tables in the shared store, report what a
    serial run reports."""
    alphas = (0.25, 0.5)
    monkeypatch.setattr(operators, "_lp_store", {})
    serial = [asdict(run_check("commutator_leibniz", {"alpha": a})) for a in alphas]
    monkeypatch.setattr(operators, "_lp_store", {})
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = [asdict(r) for r in pool.map(
            lambda a: run_check("commutator_leibniz", {"alpha": a}), alphas
        )]
    assert threaded == serial
    assert len(operators._lp_store) == 4
