import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from dispersivelab.checks import (
    CHECKS,
    MAX_DEGREE,
    MAX_MEMBERS,
    MAX_N,
    MAX_STEPS,
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
from dispersivelab import checks
from dispersivelab.corpus import Corpus, gaussian, gaussian_deriv
from dispersivelab.operators import gamma_schrodinger
from dispersivelab.propagators import EquationSpec, StepperConfig
from dispersivelab.spectral import Field, Grid


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


def test_weighted_free_gates_every_flow_of_a_level():
    """A level clears the gate only when every member's flow does: at
    t = 0.75 and at its third halving of t = 6, 19 of the 23 flows clear it."""
    assert check_weighted_free(t=0.75).notes == {"t_adjusted": 1.0}
    with pytest.raises(ValueError, match=r"^the free flow at t=0\.75, three halvings of t=6, fails"):
        check_weighted_free(t=6.0)


def test_gamma_identity_integer_and_zero_orders():
    rep1 = check_gamma_identity(b=1.0, t=0.5)
    assert rep1.verdict == "pass" and rep1.residual_max <= 1e-10
    rep0 = check_gamma_identity(b=0.0, t=0.5)
    assert rep0.verdict == "pass" and rep0.residual_max <= 1e-12


@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_gamma_identity_applies_the_vector_field_at_every_order(monkeypatch, b):
    # one path: the left side is gamma_schrodinger(U(t) f) at b = 0 too
    import dispersivelab.checks as checks

    orders = []

    def spy(f, t, order):
        orders.append(order)
        return gamma_schrodinger(f, t, order)

    monkeypatch.setattr(checks, "gamma_schrodinger", spy)
    check_gamma_identity(b=b, t=0.5)
    assert orders == [b]


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


def test_leibniz_takes_the_riesz_variant_at_the_fine_level_only(monkeypatch):
    # the report-only D^b variant is noted at the refined grid, so the coarse
    # level computes none of it: its numerator's table and its denominator's
    # D^b are both taken at n = 512
    import dispersivelab.checks as checks

    sizes = []

    def spy(name):
        inner = getattr(checks, name)

        def spied(f_or_grid, b):
            sizes.append(getattr(f_or_grid, "grid", f_or_grid).n)
            return inner(f_or_grid, b)

        monkeypatch.setattr(checks, name, spied)

    spy("riesz_deriv")
    spy("_riesz_table")
    check_leibniz(b=0.5, grid=Grid(256, 20.0), pairs=2)
    assert sizes == [512, 512]


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
    # every theta solves the scaling relation (0 = theta * 0): theta = alpha / beta
    assert gn_theta(0.0, 0.25, 4.0, 2.0, 4.0) == 0.0
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


@pytest.mark.parametrize(
    "params, cause",
    [
        ({"s": 400.0}, "bessel_potential overflows there at s=400"),
        ({"m": 200.0}, "the weight |x|^(2m) overflows on the cell L=20, got m=200.0"),
        ({"model": "gkdv", "s": 400.0}, "bessel_potential overflows there at s=400"),
    ],
)
def test_persistence_probes_its_diagnostics_before_the_march(monkeypatch, params, cause):
    import dispersivelab.checks as checks

    def march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr(checks, "evolve", march)
    with pytest.raises(ValueError) as exc:
        run_check("persistence", params)
    assert str(exc.value).startswith("persistence: ") and str(exc.value).endswith(cause)


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
    # a check without a corpus checks the corpus keys, then drops them
    assert run_check("chirp_stein", {"seed": 7, "corpus_size": 2}) == check_chirp_stein()
    with pytest.raises(ValueError, match="chirp_stein: seed='x' is not an integer"):
        run_check("chirp_stein", {"seed": "x"})
    with pytest.raises(ValueError, match="chirp_stein: corpus_size=2.5 is not an integer"):
        run_check("chirp_stein", {"corpus_size": 2.5})
    # integral floats, as the CLI parses them, are coerced to int
    assert run_check("commutator_hilbert", {"l": 2.0, "m": 0.0}).params["l"] == 2


@pytest.mark.parametrize("name", list(CHECKS))
def test_declaration_names_the_report(name):
    """A report's id is its registered name, and its params hold the
    declared table at the values the check ran with: every keyword scalar,
    ``n`` and ``L``."""
    report = run_check(name)
    assert report.check_id == name
    table = checks._parameters(CHECKS[name])
    declared = {k: v for k, v in table.items() if k not in ("seed", "corpus_size")}
    assert {k: report.params[k] for k in declared} == declared


def test_report_params_tell_apart_what_ran():
    gkdv = {"model": "gkdv", "amplitude": 0.5, "T": 0.1}
    k2, k3 = (run_check("persistence", {**gkdv, "k": k}).params for k in (2, 3))
    assert k2 != k3 and (k2["k"], k3["k"]) == (2, 3) and k2["amplitude"] == 0.5
    assert check_leibniz(pairs=2).params["pairs"] == 2
    assert run_check("leibniz", {"pairs": 4}).params["pairs"] == 4


def test_persistence_experiment_params_tell_apart_what_ran():
    """A direct run names the spec's a, mu, k and the stepper's dt."""
    grid = Grid(256, 20.0)
    u0 = Field.from_function(grid, gaussian)
    k2, k3 = (
        persistence_experiment(EquationSpec.gkdv(k=k), u0, 2.0, 1.0, 0.1, StepperConfig(dt=dt))[0].params
        for k, dt in ((2, 1e-3), (3, 2e-3))
    )
    assert k2 != k3
    assert {key: k3[key] for key in ("model", "a", "mu", "k", "dt")} == {
        "model": "gkdv", "a": 3.0, "mu": 1, "k": 3, "dt": 2e-3
    }


def test_persistence_notes_the_failure_time():
    report = run_check("persistence", {"model": "gkdv", "k": 100, "amplitude": 2.0})
    assert report.verdict == "fail" and report.notes["failure_time"] == pytest.approx(1e-3)
    assert "failure_time" not in run_check("persistence", {"T": 0.1}).notes


def test_each_call_is_validated_once(monkeypatch):
    calls = []
    require = checks._require_domains
    monkeypatch.setattr(
        checks, "_require_domains", lambda fn, table: calls.append(fn) or require(fn, table)
    )
    run_check("scaling")
    assert calls == [CHECKS["scaling"]]
    check_scaling(a=5.0, grid=Grid(512, 160.0))
    assert calls == [CHECKS["scaling"]] * 2


def _outside(interval: str, integral: bool) -> list:
    """Values just outside ``interval``: each finite end when it is open,
    one past it when it is closed, and NaN for a float key."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    values = [lo if interval[0] == "(" else lo - 1.0] if np.isfinite(lo) else []
    values += [hi if interval[-1] == ")" else hi + 1.0] if np.isfinite(hi) else []
    return [int(v) for v in values] if integral else values + [np.nan]


DOMAIN_CASES = [
    (name, key, interval, value)
    for name, fn in CHECKS.items()
    for key, interval in fn.domains.items()
    for value in _outside(interval, isinstance(inspect.signature(fn).parameters[key].default, int))
]


@pytest.mark.parametrize("name, key, interval, value", DOMAIN_CASES)
def test_declared_domain_raises_one_message_both_ways(name, key, interval, value):
    """Every declared key of every check, just outside its interval, raises
    one message through run_check and through the check function."""
    with pytest.raises(ValueError) as direct:
        CHECKS[name](**{key: value})
    assert str(direct.value) == f"{key} must lie in {interval}, got {key}={value}"
    with pytest.raises(ValueError) as table:
        run_check(name, {key: value})
    assert str(table.value) == f"{name}: {direct.value}"


def _work_cases():
    """(check, key, run_check parameters, direct keyword arguments, value)
    of each work key one past its bound, for every check that reads it."""
    n, size = 2 * MAX_N, MAX_MEMBERS + 1
    corpus = Corpus(size=size)
    for name, fn in CHECKS.items():
        sig = inspect.signature(fn).parameters
        yield name, "n", {"n": n}, {"grid": Grid(n, sig["grid"].default.length)}, n
        if "corpus" in sig:
            yield name, "corpus_size", {"corpus_size": size}, {"corpus": corpus}, size
    yield "leibniz", "pairs", {"pairs": MAX_MEMBERS + 1}, {"pairs": MAX_MEMBERS + 1}, MAX_MEMBERS + 1
    T = 2 * MAX_STEPS * 1e-3  # at the default dt
    yield "persistence", "T/dt", {"T": T}, {"T": T}, T / 1e-3
    degree = {"model": "gkdv", "k": MAX_DEGREE + 1}
    yield "persistence", "k", degree, degree, MAX_DEGREE + 1


@pytest.mark.parametrize("name, key, params, kwargs, value", _work_cases())
def test_work_bound_raises_one_message_both_ways(name, key, params, kwargs, value):
    """A work key past its bound raises before the work it asks for, with
    one message through run_check and through the check function."""
    want = f"{key} must be at most {checks._WORK[key]}, got {key}={value}"
    with pytest.raises(ValueError) as direct:
        CHECKS[name](**kwargs)
    assert str(direct.value) == want
    with pytest.raises(ValueError) as table:
        run_check(name, params)
    assert str(table.value) == f"{name}: {want}"


def test_work_bounds_admit_the_values_in_use():
    """The refine battery's n = 4096 (its levels reach 8192), the corpus
    that a seed alone builds (20 members), leibniz's 10 pairs and
    persistence's 1000 steps and the gKdV degrees in use (up to 3) lie within
    the bounds, and a value at a bound is admitted."""
    assert MAX_N >= 8192 and MAX_MEMBERS >= 20 and MAX_STEPS >= 1000 and MAX_DEGREE >= 3
    checks._require_domains(CHECKS["leibniz"], {"n": MAX_N, "pairs": MAX_MEMBERS, "b": 0.5})
    checks._require_domains(CHECKS["persistence"], {"T": float(MAX_STEPS), "dt": 1.0, "k": MAX_DEGREE})


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
