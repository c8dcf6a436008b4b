"""Work the refine battery must not repeat, pinned as call counts.

Timings on a shared 2-vCPU VM drift by 2x between processes, so these guards
count calls instead: the symmetry scans of a group-phase time scan, the group
phases and forward transforms of ``weighted_free``, and the inverse
transforms of ``lp_linf_l1``.  Each count is deterministic.
"""

import numpy as np
import pytest

from dispersivelab import checks, spectral
from dispersivelab.checks import run_check
from dispersivelab.operators import lp_block_range, lp_linf_l1
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
    of times, and none of their tables is scanned for its symmetry."""
    scans = _counting(monkeypatch, spectral, "_symmetry")
    tables = _counting(monkeypatch, checks, "_group_scan")
    report = run_check("strichartz", {"n": 4096})
    assert report.verdict == "pass"
    assert tables[0] == 2 and scans[0] == 0


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
