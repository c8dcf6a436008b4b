"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale throughout (n <= 2048).  One assertion is known to encode a
tolerance the periodic discretization cannot attain at this scale; it is
kept faithful to its target and fails with quantified diagnostics rather
than being loosened:

* criterion 4 (fractional vector-field conjugation at 1e-6): the identity is
  exact for the line operators, but fractionally-weighted data evolves with
  algebraic |x|^(-1-b) dispersion tails whose periodic wrap floors the
  residual near 1e-1 at n=1024, L=20 (still 3e-2 at n=2048, L=40; the floor
  decays like ~1/L, so 1e-6 needs L ~ 1e6).

Criterion 9 (the A_2 dichotomy at alpha=3/2) asserts that the weighted
Hilbert ratio grows at least at the [w]_{A_2}^(1/2) rate, sqrt(ap_growth),
and that each measured ratio stays below the exact discrete operator norm:
the largest singular value of W^(1/2) H W^(-1/2), computed densely.  That
norm grows only ~1.205x per refinement at n=512 -> 1024, L=10 (limit
2^(1/4) ~ 1.19) while the A_2 constant grows ~1.42x: the norm itself does
not grow linearly in [w]_{A_2} there, and a faithful estimate of it cannot
grow 1.3x.
"""

import time

import numpy as np
import pytest

from dispersivelab.checks import (
    bo_domain_comparison,
    check_ap_hilbert,
    check_chirp_stein,
    check_commutator_hilbert,
    check_commutator_leibniz,
    check_gamma_identity,
    check_gn,
    check_interpolation,
    check_leibniz,
    check_strichartz,
    check_weighted_free,
    persistence_experiment,
)
from dispersivelab.corpus import Corpus, gaussian, gaussian_deriv
from dispersivelab.laws import invariant_report, kato_residual, moment
from dispersivelab.norms import power_weight
from dispersivelab.operators import (
    gamma_airy,
    gamma_bo,
    gamma_schrodinger,
    hilbert,
    riesz_deriv,
    stein_l2_norm,
)
from dispersivelab.propagators import (
    EquationSpec,
    StepperConfig,
    evolve,
    linear_group,
)
from dispersivelab.spectral import Field, Grid


def conclude(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def l2(f: Field) -> float:
    return float(np.sqrt(f.grid.h * np.sum(np.abs(f.values) ** 2)))


def band_limited(grid, seed, real=False):
    rng = np.random.default_rng(seed)
    env = np.exp(-((grid.x / 1.5) ** 2))
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(5):
        k = rng.uniform(0.3, 3.0)
        a = rng.normal() + (0.0 if real else 1j * rng.normal())
        vals += a * np.exp(1j * k * grid.x) if not real else a * np.cos(k * grid.x + rng.uniform(0, 6.28))
    return Field(grid, env * vals)


def test_criterion_1_free_propagator_oracle():
    start = time.time()
    g = Grid(1024, 20.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    t = 1.0
    out = linear_group(u0, EquationSpec.nls(), t)
    sigma = 1.0 + 4j * t
    exact = np.exp(-(g.x**2) / sigma) / np.sqrt(sigma)
    err = np.sqrt(g.h * np.sum(np.abs(out.values - exact) ** 2)) / l2(u0)
    elapsed = time.time() - start
    conclude(1, err <= 1e-8 and elapsed < 1.0, f"relative L2 error {err:.3e} in {elapsed:.2f}s")


def test_criterion_2_unitarity_and_group_law():
    g = Grid(256, 15.0)
    worst_unit = 0.0
    worst_group = 0.0
    for spec in (EquationSpec.nls(), EquationSpec.gkdv(k=1), EquationSpec.bo()):
        for seed in range(50):
            f = band_limited(g, seed=1000 + seed, real=spec.is_real)
            n0 = l2(f)
            worst_unit = max(worst_unit, abs(l2(linear_group(f, spec, 0.8)) / n0 - 1.0))
            ab = linear_group(linear_group(f, spec, 0.35), spec, 0.45)
            once = linear_group(f, spec, 0.8)
            worst_group = max(worst_group, l2(ab - once) / n0)
    ok = worst_unit <= 1e-12 and worst_group <= 1e-12
    conclude(2, ok, f"norm drift {worst_unit:.2e}, group-law residual {worst_group:.2e}")


def test_criterion_3_vector_field_commutation():
    g = Grid(1024, 40.0)
    f = Field.from_function(g, lambda x: np.exp(-((x / 6.0) ** 2)) * np.cos(2.5 * x))
    t = 0.3
    h2 = float(np.sqrt(g.h * np.sum(np.abs(
        np.fft.ifft((1 + g.xi**2) * np.fft.fft(f.values))) ** 2)))
    cases = {
        "schrodinger": (EquationSpec.nls(), lambda u: gamma_schrodinger(u, t, 1.0)),
        "airy": (EquationSpec.gkdv(k=1), lambda u: gamma_airy(u, t)),
        "bo": (EquationSpec.bo(), lambda u: gamma_bo(u, t)),
    }
    residuals = {}
    for name, (spec, gam) in cases.items():
        lhs = linear_group(Field(g, g.x * f.values), spec, t)
        rhs = gam(linear_group(f, spec, t))
        residuals[name] = l2(lhs - rhs) / h2
    ok = all(v <= 1e-8 for v in residuals.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in residuals.items())
    conclude(3, ok, detail)


def test_criterion_4_fractional_conjugation_identity():
    # Known failure at desk scale: see the module docstring.  The integer
    # cross-route agreement passes at 1e-10; the fractional residuals sit at
    # the periodic-wrap floor instead of 1e-6.
    rep1 = check_gamma_identity(b=1.0, t=0.5)
    results = {1.0: rep1.residual_max}
    ok = rep1.residual_max <= 1e-10
    for b in (0.25, 0.5, 0.75):
        rep = check_gamma_identity(b=b, t=0.5)
        results[b] = rep.residual_max
        ok = ok and rep.residual_max <= 1e-6
    detail = ", ".join(f"b={b}: {r:.2e}" for b, r in sorted(results.items()))
    conclude(4, ok, detail + " (targets: 1e-6 fractional, 1e-10 integer)")


def test_criterion_5_stein_riesz_equivalence():
    start = time.time()
    g = Grid(1024, 20.0)
    b = 0.5
    cal_field = Field.from_function(g, gaussian)
    cal = stein_l2_norm(cal_field, b) / l2(riesz_deriv(cal_field, b))
    fields = [m.realize(g) for m in Corpus(size=20).members[:20]]
    ratios = [stein_l2_norm(f, b) / l2(riesz_deriv(f, b)) for f in fields]
    spread = (max(ratios) - min(ratios)) / cal
    elapsed = time.time() - start
    ok = spread < 0.01 and elapsed < 60.0
    conclude(
        5,
        ok,
        f"C(1/2)={cal:.6f} (analytic sqrt(2 pi)={np.sqrt(2*np.pi):.6f}), "
        f"spread {100*spread:.3f}% over 20 fields in {elapsed:.1f}s",
    )


def _drift_run(spec, u0_fn, amp, n=512, L=20.0, steps=1000, dt=1e-3):
    g = Grid(n, L)
    u0 = Field(g, amp * np.asarray(u0_fn(g.x), dtype=complex))
    T = steps * dt
    traj = evolve(u0, spec, StepperConfig(dt=dt), T, snapshot_times=[0.0, T])
    return u0, traj


def test_criterion_6_conservation():
    details = []
    ok = True
    for k in (1, 2):
        _, traj = _drift_run(EquationSpec.gkdv(k=k), gaussian, 0.8)
        drift = invariant_report(traj).max_drift("I2")
        details.append(f"gKdV k={k} I2 {drift:.2e}")
        ok = ok and drift <= 1e-9
    _, traj = _drift_run(EquationSpec.bo(), gaussian_deriv, 0.8)
    rep = invariant_report(traj)
    drift = rep.max_drift("I2")
    mean_final = max(abs(moment(s, 0)) for s in traj.snapshots)
    details.append(f"BO I2 {drift:.2e} mean {mean_final:.2e}")
    ok = ok and drift <= 1e-9 and mean_final <= 1e-10
    _, traj = _drift_run(EquationSpec.nls(a=3.0, mu=1), gaussian, 1.0)
    rep = invariant_report(traj)
    mass_d, energy_d = rep.max_drift("mass"), rep.max_drift("energy")
    details.append(f"NLS mass {mass_d:.2e} energy {energy_d:.2e}")
    ok = ok and mass_d <= 1e-10 and energy_d <= 1e-6
    conclude(6, ok, "; ".join(details))


def test_criterion_7_kato_identity():
    g = Grid(256, 15.0)
    u0 = Field(g, 0.8 * np.exp(-(g.x**2)).astype(complex))
    spec = EquationSpec.gkdv(k=1)
    cfg = StepperConfig(dt=1e-3)
    phi = Field.from_function(g, lambda x: (1.0 + x**2) ** 0.25)

    def max_residual(dt_snap):
        times = [i * dt_snap for i in range(9)]
        traj = evolve(u0, spec, cfg, times[-1], snapshot_times=times)
        return float(np.max(np.abs(kato_residual(traj, phi))))

    r_coarse = max_residual(0.04)
    r_fine = max_residual(0.02)
    order = float(np.log2(r_coarse / r_fine))

    times = [i * 0.04 for i in range(9)]
    traj = evolve(u0, spec, cfg, times[-1], snapshot_times=times)
    flat = Field(g, np.ones(g.n))
    res_flat = kato_residual(traj, flat)
    rep = invariant_report(traj)
    i2_drift = rep.max_drift("I2")
    centered = (rep.values["I2"][2:] - rep.values["I2"][:-2]) / (2 * 0.04)
    same = float(np.max(np.abs(res_flat - centered)))
    ok = 1.7 <= order <= 2.3 and i2_drift <= 1e-9 and same <= 1e-12
    conclude(
        7,
        ok,
        f"order fit {order:.2f}, flat-weight I2 drift {i2_drift:.2e}, "
        f"residual/centered-difference gap {same:.2e}",
    )


def test_criterion_8_inequality_stability_suite():
    reports = {
        "chirp": check_chirp_stein(t=0.5, b=0.5),
        "weighted_free": check_weighted_free(t=0.5, b=0.5),
        "leibniz": check_leibniz(b=0.5),
        "gn": check_gn(alpha=0.5, beta=1.0, p=2.0, q=2.0, r=2.0),
        "interpolation": check_interpolation(a=1.0, b=1.0, theta=0.5),
        "commutator_lp": check_commutator_leibniz(alpha=0.5, p=2.0),
        "calderon": check_commutator_hilbert(l=1, m=0, p=2.0),
        "calderon_ext": check_commutator_hilbert(l=1, m=1, p=2.0),
    }
    stable = all(r.verdict == "pass" for r in reports.values())

    # exact degenerate cases at 1e-8
    endpoint0 = check_interpolation(a=1.0, b=1.0, theta=0.0)
    endpoint1 = check_interpolation(a=1.0, b=1.0, theta=1.0)
    degenerate = (
        abs(endpoint0.worst_ratio - 1.0) <= 1e-8
        and abs(endpoint1.worst_ratio - 1.0) <= 1e-8
        and reports["leibniz"].notes["pointwise_slack_min"] >= -1e-8
        and reports["commutator_lp"].residual_max <= 1e-8
        and reports["calderon"].residual_max <= 1e-8
    )
    detail = "; ".join(
        f"{k}: {r.verdict} (c={r.fitted_constant:.3g})" for k, r in reports.items()
    )
    conclude(8, stable and degenerate, detail)


def _weighted_hilbert_norm(grid: Grid, alpha: float) -> float:
    """Exact L^2(|x|^alpha) operator norm of the discrete Hilbert transform:
    the largest singular value of W^(1/2) H W^(-1/2), with H assembled from
    `hilbert` applied to the unit vectors."""
    eye = np.eye(grid.n, dtype=complex)
    H = np.column_stack([hilbert(Field(grid, eye[:, j])).values for j in range(grid.n)])
    s = np.sqrt(power_weight(grid, alpha).values.real)
    return float(np.linalg.norm(s[:, None] * H / s[None, :], 2))


def test_criterion_9_ap_dichotomy():
    flat = check_ap_hilbert(alpha=0.0, p=2.0)
    inside = check_ap_hilbert(alpha=0.5, p=2.0)
    outside = check_ap_hilbert(alpha=1.5, p=2.0)
    ap_c = outside.refinement_trend[:2]
    ratio_c = outside.refinement_trend[2:]
    ap_growth = ap_c[1] / ap_c[0]
    ratio_growth = ratio_c[1] / ratio_c[0]
    coarse = Grid(outside.params["n"], outside.params["L"])
    sigma = [_weighted_hilbert_norm(g, 1.5) for g in (coarse, coarse.refine())]
    ok = (
        flat.verdict == "pass"
        and flat.worst_ratio <= 1.0 + 1e-10
        and abs(flat.fitted_constant - 1.0) <= 1e-12
        and inside.verdict == "pass"
        and ap_growth >= 1.3
        and ratio_growth >= np.sqrt(ap_growth)
        and all(r <= s * (1.0 + 1e-10) for r, s in zip(ratio_c, sigma))
    )
    conclude(
        9,
        ok,
        f"alpha=0 ratio {flat.worst_ratio:.12f}; alpha=1/2 stable; alpha=3/2 "
        f"A_2 growth {ap_growth:.3f}x (target >= 1.3x), Hilbert ratio growth "
        f"{ratio_growth:.4f}x (target >= sqrt(A_2 growth) = {np.sqrt(ap_growth):.4f}x), "
        f"ratios {ratio_c[0]:.3f}, {ratio_c[1]:.3f} <= operator norms "
        f"{sigma[0]:.3f}, {sigma[1]:.3f} (growth {sigma[1] / sigma[0]:.4f}x)",
    )


def test_criterion_10_strichartz_scaling():
    rep = check_strichartz(q=8.0, p=4.0, T=4.0)
    unit = check_strichartz(q=np.inf, p=2.0, T=2.0)
    ok = (
        rep.verdict == "pass"
        and rep.residual_max <= 0.05
        and abs(unit.worst_ratio - 1.0) <= 1e-12
    )
    conclude(
        10,
        ok,
        f"(8,4) scaling deviation {100*rep.residual_max:.3f}%, "
        f"(inf,2) ratio {unit.worst_ratio:.12f}",
    )


def test_criterion_11_persistence(tmp_path):
    details = []
    g = Grid(512, 20.0)
    cfg = StepperConfig(dt=1e-3)

    u0 = Field.from_function(g, gaussian)
    rep_nls, _ = persistence_experiment(
        EquationSpec.nls(a=3.0, mu=1), u0, s=2.0, m=1.5, T=1.0, cfg=cfg
    )
    details.append(f"NLS m=1.5 growth {rep_nls.worst_ratio:.3f}x -> {rep_nls.verdict}")

    u0k = Field(g, 0.8 * np.exp(-(g.x**2)).astype(complex))
    rep_gkdv, _ = persistence_experiment(
        EquationSpec.gkdv(k=2), u0k, s=0.25, m=0.25, T=1.0, cfg=cfg
    )
    details.append(f"gKdV k=2 m=1/4 growth {rep_gkdv.worst_ratio:.3f}x -> {rep_gkdv.verdict}")

    # report-only emissions: decay exponent above the regularity, and the
    # BO two-domain sensitivity diagnostic
    rep_over, traj_over = persistence_experiment(
        EquationSpec.nls(a=3.0, mu=1), u0, s=0.5, m=1.5, T=0.5, cfg=cfg, snapshots=6
    )
    from dispersivelab.cli import _write_trajectory

    _write_trajectory(traj_over, str(tmp_path), "overweight")
    curves = [p.name for p in tmp_path.iterdir() if p.suffix == ".dat"]
    rep_bo = bo_domain_comparison(T=0.5, n=512, cfg=StepperConfig(dt=1e-3))
    details.append(
        f"report-only: m>s verdict {rep_over.verdict} ({len(curves)} curves), "
        f"BO domain sensitivity r=2: {rep_bo.notes['sensitivity_r2']:.2e}, "
        f"r=3: {rep_bo.notes['sensitivity_r3']:.2e}"
    )
    ok = (
        rep_nls.verdict == "pass"
        and rep_gkdv.verdict == "pass"
        and rep_over.verdict == "report-only"
        and rep_bo.verdict == "report-only"
        and len(curves) > 0
    )
    conclude(11, ok, "; ".join(details))
