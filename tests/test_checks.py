import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from dispersivelab.checks import (
    CHECKS,
    CheckReport,
    bo_domain_comparison,
    check_ap_hilbert,
    check_chirp_stein,
    check_commutator_hilbert,
    check_commutator_leibniz,
    check_gamma_identity,
    check_gn,
    check_interpolation,
    check_leibniz,
    check_scaling,
    check_strichartz,
    check_weighted_free,
    gn_theta,
    persistence_experiment,
    run_check,
)
from dispersivelab.corpus import Corpus, gaussian, gaussian_deriv
from dispersivelab.propagators import EquationSpec, StepperConfig
from dispersivelab.spectral import Field, Grid

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_corpus_reproducible_and_gated():
    g = Grid(512, 20.0)
    a = Corpus(seed=123, size=5)
    b = Corpus(seed=123, size=5)
    assert [m.name for m in a.members] == [m.name for m in b.members]
    for fa, fb in zip(a.realize(g), b.realize(g)):
        np.testing.assert_array_equal(fa.values, fb.values)
    c = Corpus(seed=124, size=5)
    assert any(
        np.max(np.abs(fa.values - fc.values)) > 1e-12
        for fa, fc in zip(a.realize(g), c.realize(g))
    )


def test_check_report_rejects_bad_verdict():
    with pytest.raises(ValueError):
        CheckReport("x", {}, 1, 1.0, 1.0, 0.0, [], "maybe")


def test_chirp_stein_fit_stable_and_t_robust():
    base = check_chirp_stein(t=0.125, b=0.5)
    assert base.verdict == "pass"
    scaled = check_chirp_stein(t=0.5, b=0.5)  # 4x the base time
    assert scaled.verdict == "pass"
    # the fitted constant is t-independent up to 10%
    assert abs(scaled.fitted_constant / base.fitted_constant - 1.0) <= 0.10


def test_chirp_stein_other_order():
    rep = check_chirp_stein(t=0.25, b=0.9)
    assert rep.verdict == "pass"


def test_chirp_stein_unresolvable_rejected():
    with pytest.raises(ValueError, match="unresolvable"):
        check_chirp_stein(t=50.0, b=0.5, grid=Grid(256, 15.0))


def test_weighted_free_passes_and_t_zero_degenerate():
    rep = check_weighted_free(t=0.5, b=0.5, corpus=Corpus(size=8))
    assert rep.verdict == "pass"
    # t = 0: lhs equals the third term of the bound exactly
    g = Grid(512, 20.0)
    f = Field.from_function(g, gaussian)
    from dispersivelab.norms import weighted_l2

    lhs = weighted_l2(f, 0.5)
    rhs = weighted_l2(f, 0.5)
    assert lhs / rhs == pytest.approx(1.0, abs=1e-14)


def test_weighted_free_halves_t_to_the_gated_flows():
    # t=2 clears the gate after two halvings and measures the t=0.5 flows
    default, halved = check_weighted_free(), check_weighted_free(t=2.0)
    assert halved.notes == {"t_adjusted": 2.0}
    assert dataclasses.replace(halved, notes={}) == dataclasses.replace(default, notes={})


def test_gamma_identity_integer_and_zero_orders():
    rep1 = check_gamma_identity(b=1.0, t=0.5)
    assert rep1.verdict == "pass" and rep1.residual_max <= 1e-10
    rep0 = check_gamma_identity(b=0.0, t=0.5)
    assert rep0.verdict == "pass" and rep0.residual_max <= 1e-12


def test_gamma_identity_fractional_reports_periodization_floor():
    # the fractional conjugation identity holds on the line; on the periodic
    # cell both routes differ by the wrapped algebraic dispersion tails, so
    # the residual sits far above the line-identity tolerance
    rep = check_gamma_identity(b=0.5, t=0.5)
    assert rep.verdict == "fail"
    assert 1e-3 <= rep.residual_max <= 1.0


def test_leibniz_pointwise_and_l2():
    rep = check_leibniz(b=0.5, pairs=6)
    assert rep.verdict == "pass"
    assert rep.notes["pointwise_slack_min"] >= -1e-8
    assert np.isfinite(rep.notes["riesz_variant_ratio"])


def test_leibniz_constant_factor_degenerate():
    # g identically one: the square-function of the product equals that of f
    from dispersivelab.operators import stein_deriv

    g = Grid(512, 20.0)
    f = Field.from_function(g, gaussian)
    one = Field(g, np.ones(g.n))
    lhs = stein_deriv(Field(g, f.values * one.values), 0.5)
    d_f = stein_deriv(f, 0.5)
    np.testing.assert_allclose(lhs.values.real, d_f.values.real, atol=1e-12)


def test_gn_theta_resolution():
    assert gn_theta(0.5, 1.0, 2.0, 2.0, 2.0) == pytest.approx(0.5)
    assert gn_theta(0.5, 1.0, 8.0, 2.0, 2.0) == pytest.approx(0.875)
    with pytest.raises(ValueError):
        gn_theta(0.5, 1.0, 2.0, 2.0, 4.0)  # theta = 1/3 < alpha/beta


def test_gn_alpha_zero_identity_case():
    # alpha = 0 with p = r and theta = 0 reduces to an exact identity
    g = Grid(512, 20.0)
    f = Field.from_function(g, gaussian)
    from dispersivelab.norms import lebesgue

    theta = gn_theta(0.0, 1.0, 2.0, 2.0, 2.0)
    assert theta == pytest.approx(0.0, abs=1e-14)
    ratio = lebesgue(f, 2.0) / lebesgue(f, 2.0)
    assert ratio == 1.0


def test_gn_check_scale_invariant():
    rep = check_gn(alpha=0.5, beta=1.0, p=2.0, q=2.0, r=2.0, corpus=Corpus(size=6))
    assert rep.verdict == "pass"
    assert rep.notes["scale_deviation"] <= 0.05


def test_interpolation_endpoints_exact():
    for theta in (0.0, 1.0):
        rep = check_interpolation(a=1.0, b=1.0, theta=theta, corpus=Corpus(size=4))
        assert rep.verdict == "pass"
        assert abs(rep.worst_ratio - 1.0) <= 1e-12


def test_interpolation_midpoint():
    rep = check_interpolation(a=1.0, b=1.0, theta=0.5, corpus=Corpus(size=6))
    assert rep.verdict == "pass"


def test_commutator_leibniz_passes():
    rep = check_commutator_leibniz(alpha=0.5, p=2.0, corpus=Corpus(size=6))
    assert rep.verdict == "pass"
    assert rep.residual_max == 0.0  # constant-f degenerate case


@pytest.mark.parametrize("l,m", [(1, 0), (1, 1), (0, 1)])
def test_commutator_hilbert_cases(l, m):
    rep = check_commutator_hilbert(l=l, m=m, p=2.0, corpus=Corpus(size=6))
    assert rep.verdict == "pass"


def test_ap_hilbert_dichotomy():
    flat = check_ap_hilbert(alpha=0.0, p=2.0)
    assert flat.verdict == "pass"
    assert flat.worst_ratio <= 1.0 + 1e-10
    inside = check_ap_hilbert(alpha=0.5, p=2.0)
    assert inside.verdict == "pass"
    outside = check_ap_hilbert(alpha=1.5, p=2.0)
    assert outside.notes["ap_growth"] >= 1.3
    assert outside.notes["ratio_growth"] > 1.0
    assert outside.verdict == "pass"


def test_strichartz_admissible_and_scaling():
    rep = check_strichartz(q=8.0, p=4.0, T=4.0)
    assert rep.verdict == "pass"
    assert rep.residual_max <= 0.05
    unit = check_strichartz(q=np.inf, p=2.0, T=2.0)
    assert unit.verdict == "pass"
    assert unit.worst_ratio == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="2/q"):
        check_strichartz(q=4.0, p=4.0)


def test_scaling_check():
    exact = check_scaling(a=5.0)
    assert exact.verdict == "pass"
    frac = check_scaling(a=9.0)
    assert frac.verdict == "pass"
    with pytest.raises(ValueError, match="out of scope"):
        check_scaling(a=3.0)


def test_persistence_regime_pass_and_report_only():
    g = Grid(256, 20.0)
    u0 = Field.from_function(g, gaussian)
    spec = EquationSpec.nls(a=3.0, mu=1)
    cfg = StepperConfig(dt=2e-3)
    rep, traj = persistence_experiment(spec, u0, s=2.0, m=1.5, T=0.4, cfg=cfg, snapshots=5)
    assert rep.verdict == "pass"
    assert rep.worst_ratio <= 10.0
    assert "smoothing_proxy" in traj.diagnostics
    rep2, _ = persistence_experiment(spec, u0, s=0.5, m=1.5, T=0.2, cfg=cfg, snapshots=3)
    assert rep2.verdict == "report-only"


def test_persistence_m_zero_is_mass():
    g = Grid(256, 20.0)
    u0 = Field.from_function(g, gaussian)
    spec = EquationSpec.nls(a=3.0, mu=1)
    rep, traj = persistence_experiment(
        spec, u0, s=1.0, m=0.0, T=0.2, cfg=StepperConfig(dt=2e-3), snapshots=3
    )
    series = traj.diagnostics["weighted_0"]
    assert np.max(np.abs(series / series[0] - 1.0)) <= 1e-10


def test_bo_domain_comparison_report_only():
    rep = bo_domain_comparison(T=0.2, n=256, cfg=StepperConfig(dt=2e-3))
    assert rep.verdict == "report-only"
    assert np.isfinite(rep.worst_ratio)
    with pytest.raises(ValueError, match="'gaussian_deriv' at scale=1 fails the boundary gate"):
        bo_domain_comparison(domains=(3.0, 20.0))


def test_bo_domain_comparison_matches_one_experiment_per_cell():
    # reference: one persistence experiment per (L, r), read at its ends
    cfg = StepperConfig(dt=2e-3)
    rep = bo_domain_comparison(T=0.2, n=256, cfg=cfg)
    growth = {}
    for L in (20.0, 40.0):
        u0 = Field.from_function(Grid(256, L), gaussian_deriv)
        for r in (2.0, 3.0):
            _, traj = persistence_experiment(EquationSpec.bo(), u0, s=3.0, m=r, T=0.2, cfg=cfg)
            series = traj.diagnostics[f"weighted_{r:g}"]
            growth[(L, r)] = float(series[-1] / max(series[0], 1e-300))
    assert rep.refinement_trend == [growth[key] for key in sorted(growth)]


def test_run_check_registry():
    rep = run_check("gamma_identity", {"b": 1.0, "t": 0.5})
    assert rep.check_id == "gamma_identity"
    with pytest.raises(ValueError, match="unknown check"):
        run_check("nonsense")
    with pytest.raises(ValueError, match=r"^gamma_identity: unknown parameters: \['zzz'\]$"):
        run_check("gamma_identity", {"zzz": 1.0})


def test_run_check_reads_the_signature():
    # n or L alone overrides one coordinate of the default grid
    assert run_check("scaling", {"n": 2048}).params["L"] == 160.0
    assert run_check("scaling", {"L": 80}).params["n"] == 1024
    # leibniz's pairs is a parameter like any other
    assert run_check("leibniz", {"pairs": 2}) == check_leibniz(pairs=2)
    # seed or corpus_size builds a fresh corpus, of 20 random members by default
    assert run_check("weighted_free", {"seed": 5}).corpus_size == 23
    assert run_check("ap_hilbert", {"seed": 5}).corpus_size == 20
    assert run_check("ap_hilbert", {"corpus_size": 4}) == check_ap_hilbert(corpus=Corpus(size=4))
    # a check without a corpus ignores the corpus keys, whatever their value
    assert run_check("chirp_stein", {"seed": "x", "corpus_size": 2.5}) == check_chirp_stein()
    # integral floats, as the CLI parses them, are coerced to int
    assert run_check("commutator_hilbert", {"l": 2.0, "m": 0.0}).params["l"] == 2


def _readme_table() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (\d+), ([\d.]+) \| (.*) \|$", readme, re.M)
    return {name: (params, int(n), float(length), corpus) for name, params, n, length, corpus in rows}


def test_readme_parameter_table_matches_signatures():
    table = _readme_table()
    assert sorted(table) == sorted(CHECKS)
    for name, fn in CHECKS.items():
        sig = inspect.signature(fn).parameters
        scalars = [
            f"`{key}: {type(p.default).__name__} = {p.default!r}`"
            for key, p in sig.items()
            if type(p.default) in (int, float, str)
        ]
        params, n, length, corpus = table[name]
        assert params == ", ".join(scalars), name
        grid = sig["grid"].default
        assert (n, length) == (grid.n, grid.length), name
        assert (corpus != "—") == ("corpus" in sig), name


def test_reports_bit_reproducible():
    a = run_check("leibniz", {"b": 0.5, "seed": 7, "corpus_size": 4})
    b = run_check("leibniz", {"b": 0.5, "seed": 7, "corpus_size": 4})
    assert a.worst_ratio == b.worst_ratio
    assert a.refinement_trend == b.refinement_trend
    assert a.notes == b.notes
