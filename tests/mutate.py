"""Mutation suite: each row breaks the package in one known way, and the tests
the row names must catch it.

Run from the repository root:

    PYTHONPATH=src python -m tests.mutate

Each row of ``MUTANTS`` holds a file under ``src/dispersivelab``, an exact
snippet of it, the snippet that replaces it, and a test selection (pytest
node ids or files).  First the union of every selection runs on an unmutated
copy and must pass.  Then, for each row, ``src/``, ``tests/`` and
``pyproject.toml`` (the pytest settings) are copied to a temporary directory,
the row is applied, and its selection runs in one pytest process, stopping at
the first failure.  The mutant is killed when a test fails and survives when
all pass.

It prints the kill matrix as one JSON document: per row, whether it was
killed, the first failing test, and the wall time.  It exits 0 when every
mutant not listed as equivalent is killed, 1 when one survives, and 2 on an
error: a stale row (its snippet is not found exactly once), a selection that
collects no tests, or a baseline that fails.  A run takes 120-160 s on a
2-vCPU x86_64 VM (Python 3.11, numpy 2.4).

Rows marked ``equivalent`` change no output that any test can see, so they
are expected to survive and do not fail the run:

* the dealias mask with ``<`` for ``<=``: under the mask's 1e-12 slack the
  two differ only at a frequency exactly 1e-12 above the cutoff, which no
  tested grid has; the same mask without the slack is a killed row;
* ``linear_group`` passed ``t + 0.0``: it drops the sign of a zero time,
  and the phases at +0 and -0 give the same output bits on these fields.

Mutants named in the project's history that are listed differently here:

* LP blocks with ``real=False``: that code is gone.  The Littlewood-Paley
  norm and the group scan apply their bands through one kernel,
  ``spectral._multiply_bands``, whose ``real = False`` row is run once
  against each caller's tests;
* the Nyquist sign flip (the gKdV/BO half spectrum with +xi_max at index
  n/2) was equivalent once.  The bin's imaginary part, which ``irfft``
  ignores, is carried from step to step and mixed into the real part by the
  next phase, and the half-spectrum oracle test at dealias 1 kills it.

pytest does not collect this module.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "dispersivelab"


class Mutant(NamedTuple):
    name: str
    file: str            # a module of the package, e.g. "spectral.py"
    old: str             # must occur exactly once in the file
    new: str
    selection: tuple     # pytest node ids or test files
    equivalent: bool = False


MUTANTS = (
    Mutant(
        "rk4_weights_scaled",
        "propagators.py",
        "np.multiply(dt / 6.0, n1, out=n1)",
        "np.multiply(dt / 6.0 * (1 + 1e-6), n1, out=n1)",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "stein_weights_scaled",
        "operators.py",
        "weights = h / ((np.arange(half) + 0.5) * h) ** (1.0 + 2.0 * b)",
        "weights = (1 + 1e-6) * h / ((np.arange(half) + 0.5) * h) ** (1.0 + 2.0 * b)",
        ("tests/test_operators.py",),
    ),
    Mutant(
        "gkdv_power_off_by_one",
        "propagators.py",
        "for _ in range(p - 2):",
        "for _ in range(p - 1):",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "gkdv_multiplier_without_power",
        "propagators.py",
        "self.multiplier = -(1j * xi) * mask / float(self.power)",
        "self.multiplier = -(1j * xi) * mask",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "dealias_mask_without_slack",
        "propagators.py",
        "mask = (np.abs(xi) <= cfg.dealias * grid.xi_max + 1e-12)",
        "mask = (np.abs(xi) < cfg.dealias * grid.xi_max)",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "odd_flag_false",
        "spectral.py",
        "    return _frozen(mvals, odd, hermitian)\n\n\ndef _mirror(",
        "    return _frozen(mvals, odd & False, hermitian)\n\n\ndef _mirror(",
        ("tests/test_operators.py", "tests/test_tables.py"),
    ),
    Mutant(
        "corpus_anchors_at_block_starts",
        "corpus.py",
        "anchors = np.concatenate((starts[1 : half + 1], starts[half:]))",
        "anchors = np.concatenate((starts[:half], starts[half:]))",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "weighted_free_three_halvings",
        "checks.py",
        "for adjusted in range(4):",
        "for adjusted in range(3):",
        ("tests/test_cli.py::test_bad_check_parameter_names_check_and_cause",),
    ),
    Mutant(
        "multiply_bands_real_false_scan",
        "spectral.py",
        "    real = _real_rows(f.values)\n    paired = (slice(None),) + (None,) * (f.values.ndim - 1)\n",
        "    real = np.zeros(f.values.shape[:-1], bool)\n"
        "    paired = (slice(None),) + (None,) * (f.values.ndim - 1)\n",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "multiply_bands_real_false",
        "spectral.py",
        "    real = _real_rows(f.values)\n    paired = (slice(None),) + (None,) * (f.values.ndim - 1)\n",
        "    real = np.zeros(f.values.shape[:-1], bool)\n"
        "    paired = (slice(None),) + (None,) * (f.values.ndim - 1)\n",
        ("tests/test_blocks.py::test_lp_linf_l1_matches_per_table_loop",),
    ),
    Mutant(
        "real_rows_from_row_0",
        "spectral.py",
        "return ~values.imag.any(axis=-1)",
        "return np.full(values.shape[:-1], not values.reshape(-1, values.shape[-1])[0]"
        ".imag.any())",
        ("tests/test_blocks.py",),
    ),
    Mutant(
        "row_blocks_skip_partial_last",
        "spectral.py",
        "for start in range(0, count, rows)]",
        "for start in range(0, count - count % rows or count, rows)]",
        ("tests/test_blocks.py", "tests/test_tables.py"),
    ),
    Mutant(
        "per_row_without_item",
        "spectral.py",
        "return values.item() if f.values.ndim == 1 else values",
        "return values",
        ("tests/test_blocks.py",),
    ),
    Mutant(
        "real_projection_only_if_all_rows_hermitian",
        "spectral.py",
        "out.imag[table.hermitian & real | rows] = 0.0",
        "out.imag[np.all(table.hermitian) & real | rows] = 0.0",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "nls_mirror_shifted",
        "spectral.py",
        "half[..., n // 2 - 1 : 0 : -1]",
        "half[..., n // 2 : 1 : -1]",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "bo_domains_snapshot_minus_2",
        "checks.py",
        "for i in (0, -1))",
        "for i in (0, -2))",
        ("tests/test_checks.py::test_bo_domain_comparison_matches_one_experiment_per_cell",),
    ),
    Mutant(
        "worst_drops_last_block",
        "checks.py",
        "for fields in zip(*blocks))",
        "for fields in list(zip(*blocks))[:-1])",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "gamma_identity_ungated",
        "checks.py",
        '    _require_gate(flow, f"the free flow U(t)f at t={t:g}")\n',
        "",
        ("tests/test_cli.py::test_bad_check_parameter_names_check_and_cause",),
    ),
    Mutant(
        "kato_phi_on_any_grid",
        "laws.py",
        "if phi.grid is not g and phi.grid != g:",
        "if False:",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "kato_any_model",
        "laws.py",
        'if traj.spec.model != "gkdv":',
        "if False:",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "kato_phi_real_part",
        "laws.py",
        'pv = real_values(phi, "the weight phi of the weighted-energy identity")',
        "pv = phi.values.real",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "field_arithmetic_across_grids",
        "spectral.py",
        "if other.grid is not self.grid and other.grid != self.grid:",
        "if False:",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "invariant_report_of_no_snapshots",
        "laws.py",
        "    if not traj.snapshots:\n        cause",
        "    if False:\n        cause",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "group_phase_conjugate_dropped",
        "spectral.py",
        "mirror.conj() if conjugate else mirror",
        "mirror",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "stepper_power_hard_coded",
        "propagators.py",
        "self.power = spec.k + 1",
        "self.power = 2",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "stable_without_zero_guard",
        "checks.py",
        "(b == 0 if a == 0 else abs(b / a - 1.0) <= STABILITY_TOL)",
        "abs(b / a - 1.0) <= STABILITY_TOL",
        ("tests/test_cli.py::test_degenerate_check_gets_a_verdict",),
    ),
    Mutant(
        "weight_overflow_unchecked",
        "norms.py",
        "    if not np.isfinite(w).all():",
        "    if False:",
        ("tests/test_public_raises.py",),
    ),
    Mutant(
        "solve_diagnostics_unprobed",
        "cli.py",
        '        args["diagnostics"](args["u0"], 0.0)\n',
        "",
        ("tests/test_cli.py::test_cli_input_errors_exit_2",),
    ),
    Mutant(
        "gamma_identity_weighted_side_ungated",
        "checks.py",
        "    if b == 1.0:\n        _require_gate(rhs,",
        "    if False:\n        _require_gate(rhs,",
        ("tests/test_cli.py::test_bad_check_parameter_names_check_and_cause",),
    ),
    Mutant(
        "dealias_mask_strict",
        "propagators.py",
        "mask = (np.abs(xi) <= cfg.dealias * grid.xi_max + 1e-12)",
        "mask = (np.abs(xi) < cfg.dealias * grid.xi_max + 1e-12)",
        ("tests/test_propagators.py",),
        equivalent=True,
    ),
    Mutant(
        "nyquist_sign_flip",
        "propagators.py",
        "xi = xi[: n // 2 + 1]",
        "xi = np.abs(xi[: n // 2 + 1])",
        ("tests/test_propagators.py",),
    ),
    Mutant(
        "linear_group_t_plus_zero",
        "propagators.py",
        "return _multiply(f, _group_table(f.grid, spec, t))",
        "return _multiply(f, _group_table(f.grid, spec, t + 0.0))",
        ("tests/test_tables.py", "tests/test_propagators.py"),
        equivalent=True,
    ),
    Mutant(
        "nls_group_hermitian_forced",
        "spectral.py",
        "    if not conjugate:\n        hermitian &=",
        "    if False:\n        hermitian &=",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "group_odd_forced",
        "spectral.py",
        "<= tol\n    return odd, hermitian\n\n\ndef _banded(",
        "<= tol\n    return odd | True, hermitian\n\n\ndef _banded(",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "mirror_with_not_conjugate",
        "spectral.py",
        "_frozen(_mirror(half, g.n, conjugate),",
        "_frozen(_mirror(half, g.n, not conjugate),",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "multiply_bands_unpaired",
        "spectral.py",
        "paired = (slice(None),) + (None,) * (f.values.ndim - 1)\n",
        "paired = (slice(None),)\n",
        ("tests/test_tables.py::test_group_scan_of_a_block_pairs_every_time_with_every_row",),
    ),
    Mutant(
        "grid_lattice_unchecked",
        "spectral.py",
        "        if not (0.0 < self.h < np.inf and np.isfinite(self.xi_max)):",
        "        if False:",
        ("tests/test_spectral.py::test_grid_rejects_a_cell_without_a_finite_lattice",),
    ),
    Mutant(
        "step_count_unchecked",
        "propagators.py",
        "    if not np.isfinite(T / dt):",
        "    if False:",
        ("tests/test_propagators.py::test_evolve_rejects_a_step_count_that_is_not_finite",),
    ),
    Mutant(
        "lp_range_drops_top_row",
        "operators.py",
        "n_hi = int(np.ceil(np.log2(grid.xi_max)))",
        "n_hi = int(np.ceil(np.log2(grid.xi_max))) - 1",
        ("tests/test_tables.py", "tests/test_operators.py"),
    ),
    Mutant(
        "block_gate_skips_last_row",
        "corpus.py",
        "        if not ok.all():",
        "        if not ok[:-1].all():",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "gate_tail_slice_dropped",
        "spectral.py",
        "    if tail < f.grid.n:",
        "    if False:",
        ("tests/test_spectral.py",),
    ),
    Mutant(
        "weighted_free_deriv_row_is_the_flow",
        "checks.py",
        "+ t**b * _table_norm(f, deriv, fhat)",
        "+ t**b * _table_norm(f, group, fhat)",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "persistence_diagnostics_unprobed",
        "checks.py",
        "    rows = [diagnostics(first, 0.0)]\n    times = list(np.linspace(0.0, T, snapshots))\n"
        "    traj = evolve(u0, spec, cfg, T, snapshot_times=times)\n",
        "    times = list(np.linspace(0.0, T, snapshots))\n"
        "    traj = evolve(u0, spec, cfg, T, snapshot_times=times)\n    rows = [diagnostics(first, 0.0)]\n",
        ("tests/test_checks.py::test_persistence_probes_its_diagnostics_before_the_march",),
    ),
    Mutant(
        "scan_step_at_twice_dt",
        "propagators.py",
        "step = spec._half_phase(g.xi, dt)",
        "step = spec._half_phase(g.xi, 2 * dt)",
        ("tests/test_tables.py::test_group_scan_rows_match_linear_group",),
    ),
    Mutant(
        "scan_first_row_not_u_t0",
        "propagators.py",
        "phase = spec._half_phase(g.xi, t0)",
        "phase = spec._half_phase(g.xi, t0 + dt)",
        ("tests/test_tables.py::test_group_scan_rows_match_linear_group",),
    ),
    Mutant(
        "lp_deriv_table_without_riesz",
        "operators.py",
        "bands.append((lo, hi, _eta(axi[lo:hi] / 2.0**N) * axi[lo:hi] ** b))",
        "bands.append((lo, hi, _eta(axi[lo:hi] / 2.0**N)))",
        ("tests/test_tables.py::test_lp_deriv_sum_matches_the_sum_of_d_alpha",),
    ),
    Mutant(
        "lp_store_key_ignores_b",
        "operators.py",
        'return _table(grid, ("lp_blocks", b), _lp_bands, b)',
        'return _table(grid, "lp_blocks", _lp_bands, b)',
        ("tests/test_tables.py::test_lp_deriv_sum_matches_the_sum_of_d_alpha",),
    ),
    Mutant(
        "lp_mirror_band_shifted",
        "spectral.py",
        "mirror = slice(n - stop + 1, n - start + 1)",
        "mirror = slice(n - stop, n - start)",
        ("tests/test_tables.py::test_lp_sum_on_the_bands_equals_the_dense_rows",),
    ),
    Mutant(
        "lp_bands_keep_nyquist_under_odd_rows",
        "spectral.py",
        "        out[..., top][table.odd] = 0.0\n",
        "",
        ("tests/test_tables.py::test_lp_sum_on_the_bands_equals_the_dense_rows",),
    ),
    Mutant(
        "band_conjugate_mirror_dropped",
        "spectral.py",
        "np.multiply(w.conj() if table.conjugate else w,",
        "np.multiply(w if table.conjugate else w,",
        ("tests/test_tables.py::test_group_scan_batches_equal_the_dense_path_bitwise",),
    ),
    Mutant(
        "band_zero_mode_mirrored",
        "spectral.py",
        "start, stop = max(lo, 1), min(hi, top)",
        "start, stop = lo, min(hi, top)",
        ("tests/test_tables.py::test_group_scan_batches_equal_the_dense_path_bitwise",),
    ),
    Mutant(
        "half_flags_hermitian_test_inverted",
        "spectral.py",
        "    if not conjugate:\n        hermitian &=",
        "    if conjugate:\n        hermitian &=",
        # the bit gate's dense path reads the same rule; the full scan pins it
        ("tests/test_tables.py::test_group_scan_batches_equal_the_dense_path_bitwise",
         "tests/test_tables.py::test_group_table_flags_equal_the_scan"),
    ),
    Mutant(
        "lp_store_unbounded",
        "spectral.py",
        "while sum(t.values.nbytes for t in _store.values()) + size > _STORE_BYTES:",
        "while False:",
        ("tests/test_call_counts.py::test_a_sweep_past_the_byte_bound_keeps_the_newest_tables",),
    ),
    Mutant(
        "store_key_drops_length",
        "spectral.py",
        "stored = (grid.n, grid.length, key)",
        "stored = (grid.n, key)",
        ("tests/test_tables.py::test_grids_of_one_size_and_two_cells_get_their_own_tables",),
    ),
    Mutant(
        "store_inserts_before_evicting",
        "spectral.py",
        "                while sum(t.values.nbytes for t in _store.values()) + size > _STORE_BYTES:\n"
        "                    del _store[next(iter(_store))]\n"
        "                _store[stored] = table\n",
        "                _store[stored] = table\n"
        "                while sum(t.values.nbytes for t in _store.values()) + size > _STORE_BYTES:\n"
        "                    del _store[next(iter(_store))]\n",
        ("tests/test_call_counts.py::test_a_sweep_past_the_byte_bound_keeps_the_newest_tables",),
    ),
    Mutant(
        "store_insert_unlocked",
        "spectral.py",
        "        with _store_lock:\n            if stored not in _store",
        "        if True:\n            if stored not in _store",
        ("tests/test_tables.py::test_the_store_changes_only_under_its_lock",
         "tests/test_tables.py::test_threads_sharing_the_lp_store_get_their_own_tables"),
    ),
    Mutant(
        "narrow_ignores_sign_bit",
        "spectral.py",
        " or imag.any() or np.signbit(imag).any():",
        " or imag.any():",
        ("tests/test_bytes.py::test_tables_with_signed_or_nonzero_imaginary_parts_stay_complex",),
    ),
    Mutant(
        "narrowed_table_writeable",
        "spectral.py",
        "    values.flags.writeable = False\n    return table._replace(values=values)",
        "    return table._replace(values=values)",
        ("tests/test_bytes.py::test_stored_real_table_is_read_only_float64",),
    ),
    Mutant(
        "domain_end_closed",
        "checks.py",
        '@_check(b="(0, 1)", pairs="[0, inf)")',
        '@_check(b="[0, 1)", pairs="[0, inf)")',
        ("tests/test_cli.py::test_bad_check_parameter_names_check_and_cause",),
    ),
    Mutant(
        "work_bound_dropped",
        "checks.py",
        '"pairs": MAX_MEMBERS, ',
        "",
        ("tests/test_checks.py::test_work_bound_raises_one_message_both_ways",),
    ),
    Mutant(
        "degree_bound_dropped",
        "checks.py",
        ',\n         "k": MAX_DEGREE}',
        "}",
        ("tests/test_checks.py::test_work_bound_raises_one_message_both_ways",),
    ),
    Mutant(
        "symbol_int_overflow_unguarded",
        "checks.py",
        "except OverflowError:  # an int order beyond the float range",
        "except ():",
        ("tests/test_cli.py::test_bad_check_parameter_names_check_and_cause",),
    ),
    Mutant(
        "declared_params_unmerged",
        "checks.py",
        "report.params = {**declared, **report.params}",
        "report.params = dict(report.params)",
        ("tests/test_checks.py::test_declaration_names_the_report",),
    ),
    Mutant(
        "failure_time_unnoted",
        "checks.py",
        '    if traj.failed:\n        notes["failure_time"]',
        '    if False:\n        notes["failure_time"]',
        ("tests/test_checks.py::test_persistence_notes_the_failure_time",),
    ),
    Mutant(
        "stein_first_cell_before_far_field",
        "operators.py",
        "    del ext, dplus, dminus\n",
        "    del ext, dplus, dminus\n    acc += first_cell\n    first_cell = 0.0\n",
        ("tests/test_bytes.py::test_stein_deriv_equals_the_oracle_bitwise",),
    ),
    Mutant(
        "weighted_free_gate_any_row",
        "checks.py",
        "ok &= bool(passed.all())",
        "ok &= bool(passed.any())",
        ("tests/test_checks.py::test_weighted_free_gates_every_flow_of_a_level",),
    ),
    Mutant(
        "realize_blocks_drops_scale",
        "corpus.py",
        "sample = _sampled(m, grid, scale)",
        "sample = _sampled(m, grid)",
        ("tests/test_corpus.py::test_realize_gates_the_member",),
    ),
    Mutant(
        "solve_failure_uncaught",
        "cli.py",
        "    try:\n        traj = evolve(**_evolve_arguments(cfg))\n    except ValueError as exc:",
        "    if True:\n        traj = evolve(**_evolve_arguments(cfg))\n    if False:",
        ("tests/test_cli.py::test_invariant_overflowing_after_t0_is_a_solver_failure",
         "tests/test_hostile_inputs.py::test_diverging_solve_is_a_solver_failure"),
    ),
    Mutant(
        "parseval_nyquist_kept_under_odd_tables",
        "spectral.py",
        "out[..., out.shape[-1] // 2][table.odd | rows] = 0.0",
        "out[..., out.shape[-1] // 2][table.odd & False | rows] = 0.0",
        ("tests/test_parseval.py",),
    ),
    Mutant(
        "parseval_factor_h_for_h_over_n",
        "spectral.py",
        "np.sqrt(f.grid.h / n * np.sum(parts, axis=-1))",
        "np.sqrt(f.grid.h * np.sum(parts, axis=-1))",
        ("tests/test_parseval.py",),
    ),
    Mutant(
        "parseval_coefficients_unscaled",
        "spectral.py",
        "    scale = 1.0 / n\n",
        "    scale = 1.0\n",
        ("tests/test_parseval.py",),
    ),
)


class MutationError(Exception):
    pass


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _check_rows() -> None:
    """Raise on a stale row: one whose snippet does not occur exactly once in
    its file."""
    for m in MUTANTS:
        count = (ROOT / PACKAGE / m.file).read_text().count(m.old)
        if count != 1:
            raise MutationError(f"{m.name}: stale row, its snippet occurs {count}x in {m.file}")


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / PACKAGE / mutant.file
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def _pytest(dest: Path, selection, stop_first: bool) -> tuple:
    """The exit code of pytest over ``selection`` in ``dest`` and the id of
    its first failing test (None when none failed)."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
    argv += ["-x", *selection] if stop_first else selection
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    proc = subprocess.run(argv, cwd=dest, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, (failed[0] if failed else None)


def _check_exit(code: int, what: str) -> None:
    """Raise on a pytest exit code that is neither all-passed (0) nor
    some-failed (1): 5 collects no tests, 2-4 are usage or collection errors."""
    if code == 5:
        raise MutationError(f"{what}: the selection collects no tests")
    if code not in (0, 1):
        raise MutationError(f"{what}: pytest exited {code}")


def run() -> dict:
    start = time.perf_counter()
    _check_rows()
    union = sorted({s for m in MUTANTS for s in m.selection})
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        code, failed = _pytest(Path(tmp), union, stop_first=False)
    _check_exit(code, "baseline")
    if code:
        raise MutationError(f"baseline: the unmutated selections fail ({failed})")
    rows = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _copy_tree(Path(tmp))
            _apply(Path(tmp), mutant)
            code, failed = _pytest(Path(tmp), mutant.selection, stop_first=True)
        _check_exit(code, mutant.name)
        rows.append({
            "name": mutant.name,
            "file": mutant.file,
            "equivalent": mutant.equivalent,
            "killed": code == 1,
            "killed_by": failed,
            "seconds": round(time.perf_counter() - began, 2),
        })
    survivors = [r["name"] for r in rows if not r["killed"] and not r["equivalent"]]
    seconds = round(time.perf_counter() - start, 1)
    return {"mutants": rows, "survivors": survivors, "seconds": seconds}


def main() -> int:
    try:
        matrix = run()
    except MutationError as exc:
        print(f"mutation error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(matrix, indent=1))
    return 1 if matrix["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
