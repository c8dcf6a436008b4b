import numpy as np
import pytest

from dispersivelab.corpus import gaussian_deriv
from dispersivelab.laws import (
    invariant_report,
    invariants,
    kato_residual,
    moment,
    standard_diagnostics,
)
from dispersivelab.operators import riesz_deriv, stein_l2_norm
from dispersivelab.propagators import EquationSpec, StepperConfig, evolve
from dispersivelab.spectral import Field, Grid, integrate


def test_invariants_zero_field():
    g = Grid(128, 10.0)
    zero = Field(g, np.zeros(g.n))
    for spec in (EquationSpec.nls(), EquationSpec.gkdv(k=2), EquationSpec.bo()):
        vals = invariants(zero, spec)
        assert all(v == 0.0 for v in vals.values())


def test_invariants_single_cosine_gkdv():
    g = Grid(256, 10.0)
    w = np.pi / g.length
    f = Field.from_function(g, lambda x: np.cos(w * x))
    vals = invariants(f, EquationSpec.gkdv(k=1))
    assert vals["I1"] == pytest.approx(0.0, abs=1e-12)
    assert vals["I2"] == pytest.approx(g.length, rel=1e-12)


def test_invariants_reject_complex_for_real_models():
    g = Grid(128, 10.0)
    f = Field(g, 1j * np.ones(g.n))
    for spec in (EquationSpec.gkdv(k=1), EquationSpec.bo()):
        with pytest.raises(ValueError, match="real"):
            invariants(f, spec)


def test_bo_i3_cross_route():
    # half-derivative term evaluated through the multiplier and through the
    # square function scaled by the equivalence constant C(1/2)^2 = 2 pi
    g = Grid(1024, 20.0)
    u = Field.from_function(g, lambda x: np.exp(-(x**2)))
    half = riesz_deriv(u, 0.5)
    route_multiplier = integrate(Field(g, np.abs(half.values) ** 2)).real
    route_square = stein_l2_norm(u, 0.5) ** 2 / (2.0 * np.pi)
    assert route_square == pytest.approx(route_multiplier, rel=0.01)
    vals = invariants(u, EquationSpec.bo())
    cubic = integrate(Field(g, u.values.real**3 / 3.0)).real
    assert vals["I3"] == pytest.approx(route_multiplier + cubic, rel=1e-12)


def _gkdv_trajectory(n_snaps=9, dt_snap=0.02, k=1, n=256, L=15.0, amp=0.8):
    g = Grid(n, L)
    u0 = Field.from_function(g, lambda x: amp * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-3)
    T = (n_snaps - 1) * dt_snap
    times = [i * dt_snap for i in range(n_snaps)]
    return g, evolve(u0, EquationSpec.gkdv(k=k), cfg, T, snapshot_times=times)


def test_kato_identity_constant_weight_collapses_to_mass():
    g, traj = _gkdv_trajectory()
    phi = Field(g, np.ones(g.n))
    res = kato_residual(traj, phi, k=1)
    rep = invariant_report(traj)
    i2 = rep.values["I2"]
    # residual equals the centered difference of I2, which drifts at 1e-9
    assert np.max(np.abs(res)) <= 1e-9 * abs(i2[0])
    dt = traj.times[1] - traj.times[0]
    centered = (i2[2:] - i2[:-2]) / (2 * dt)
    np.testing.assert_allclose(res, centered, atol=1e-12 * max(abs(i2[0]), 1.0))


def test_kato_identity_second_order_in_snapshot_spacing():
    g, coarse = _gkdv_trajectory(n_snaps=5, dt_snap=0.04)
    _, fine = _gkdv_trajectory(n_snaps=9, dt_snap=0.02)
    phi = Field.from_function(g, lambda x: (1.0 + x**2) ** 0.25)
    r_coarse = np.max(np.abs(kato_residual(coarse, phi, k=1)))
    r_fine = np.max(np.abs(kato_residual(fine, phi, k=1)))
    order = np.log2(r_coarse / r_fine)
    assert 1.7 <= order <= 2.3


def test_kato_identity_linear_variant():
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: 0.8 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-3, linear_only=True)
    times = [i * 0.02 for i in range(9)]
    traj = evolve(u0, EquationSpec.gkdv(k=1), cfg, times[-1], snapshot_times=times)
    phi = Field.from_function(g, lambda x: (1.0 + x**2) ** 0.25)
    res = kato_residual(traj, phi, k=1, nonlinear=False)
    # pure centered-difference error at this snapshot spacing
    assert np.max(np.abs(res)) <= 2e-2
    fine = evolve(u0, EquationSpec.gkdv(k=1), cfg, 0.08, snapshot_times=[i * 0.01 for i in range(9)])
    r_fine = np.max(np.abs(kato_residual(fine, phi, k=1, nonlinear=False)))
    order = np.log2(np.max(np.abs(res)) / r_fine)
    assert 1.7 <= order <= 2.3


def test_kato_residual_needs_enough_snapshots():
    g, traj = _gkdv_trajectory(n_snaps=2)
    phi = Field(g, np.ones(g.n))
    with pytest.raises(ValueError):
        kato_residual(traj, phi, k=1)


def test_moment_parity_and_gaussian():
    g = Grid(512, 20.0)
    odd = Field.from_function(g, lambda x: x * np.exp(-(x**2)))
    assert abs(moment(odd, 2)) <= 1e-13
    gauss = Field.from_function(g, lambda x: np.exp(-(x**2)))
    assert moment(gauss, 0).real == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    xg = Field.from_function(g, lambda x: x * np.exp(-(x**2)))
    assert moment(xg, 1).real == pytest.approx(np.sqrt(np.pi) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        moment(gauss, -1)


def test_moment_zero_equals_spectral_mean():
    from dispersivelab.spectral import to_spectral

    g = Grid(256, 10.0)
    f = Field.from_function(g, lambda x: np.exp(-(x**2)) * (1 + 0.5 * x))
    assert moment(f, 0) == pytest.approx(to_spectral(f).coeffs[0], rel=1e-12)


def test_bo_mean_preserved_with_zero_mean_data():
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: -2 * x * np.exp(-(x**2)))
    traj = evolve(
        u0,
        EquationSpec.bo(),
        StepperConfig(dt=1e-3),
        0.3,
        snapshot_times=[0.0, 0.1, 0.2, 0.3],
    )
    for snap in traj.snapshots:
        assert abs(moment(snap, 0)) <= 1e-10


def test_invariant_report_drift_small_over_run():
    g, traj = _gkdv_trajectory(n_snaps=5, dt_snap=0.05)
    rep = invariant_report(traj)
    assert rep.max_drift("I2") <= 1e-9
    assert rep.max_drift("I1") <= 1e-12
    assert rep.max_drift("I3") <= 1e-9


def test_bo_all_three_invariants_conserved():
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: -2 * x * np.exp(-(x**2)))
    traj = evolve(
        u0,
        EquationSpec.bo(),
        StepperConfig(dt=1e-3),
        0.5,
        snapshot_times=[0.0, 0.25, 0.5],
    )
    rep = invariant_report(traj)
    assert rep.max_drift("I2") <= 1e-9
    assert rep.max_drift("I3") <= 1e-9


def test_invariant_report_absolute_drift_for_zero_start():
    # gaussian_deriv has I1 = 0 exactly, so the computed I1(0) is roundoff
    # and its drift is reported as the absolute change, not divided by it
    g = Grid(2048, 20.0)
    u0 = Field.from_function(g, gaussian_deriv)
    traj = evolve(
        u0,
        EquationSpec.bo(),
        StepperConfig(dt=1e-3),
        0.2,
        snapshot_times=list(np.linspace(0.0, 0.2, 11)),
    )
    rep = invariant_report(traj)
    assert rep.kind == {"I1": "absolute", "I2": "relative", "I3": "relative"}
    assert rep.max_drift("I1") <= 1e-14
    np.testing.assert_array_equal(rep.drift["I1"], np.abs(rep.values["I1"] - rep.values["I1"][0]))
    assert rep.max_drift("I2") <= 1e-9
    assert rep.max_drift("I3") <= 1e-9


def test_standard_diagnostics_callback():
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    diag = standard_diagnostics(EquationSpec.nls(), s=1.0, m=0.5)
    traj = evolve(
        u0,
        EquationSpec.nls(),
        StepperConfig(dt=1e-3),
        0.1,
        snapshot_times=[0.0, 0.05, 0.1],
        diagnostics=diag,
    )
    assert set(traj.diagnostics) == {
        "mass",
        "energy",
        "sobolev_1",
        "weighted_0.5",
        "weighted_bracket_0.5",
    }
    assert len(traj.diagnostics["mass"]) == 3
