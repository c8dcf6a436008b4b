import numpy as np
import pytest

from dispersivelab import propagators
from dispersivelab.operators import gamma_airy, gamma_bo, gamma_schrodinger
from dispersivelab.propagators import (
    CFLWarning,
    EquationSpec,
    StepperConfig,
    check_times,
    evolve,
    linear_group,
)
from dispersivelab.spectral import Field, Grid

from .test_spectral import random_band_limited

ALL_SPECS = [EquationSpec.nls(a=3.0, mu=1), EquationSpec.gkdv(k=1), EquationSpec.bo()]


def l2(f):
    return float(np.sqrt(f.grid.h * np.sum(np.abs(f.values) ** 2)))


def h2norm(f):
    from dispersivelab.norms import sobolev

    return sobolev(f, 2.0)


def test_equation_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec.nls(a=1.0)
    with pytest.raises(ValueError):
        EquationSpec("nls", a=3.0, mu=2)
    with pytest.raises(ValueError):
        EquationSpec.gkdv(k=0)
    with pytest.raises(ValueError):
        EquationSpec("heat")


@pytest.mark.parametrize(
    "model, key, value",
    [("bo", "a", 5.0), ("bo", "k", 2), ("gkdv", "mu", -1), ("nls", "k", 3)],
)
def test_equation_spec_rejects_parameters_its_model_does_not_read(model, key, value):
    with pytest.raises(ValueError, match=f"{key}={value} is not read by the {model} model"):
        EquationSpec(model, **{key: value})
    # at its default the parameter is accepted
    assert EquationSpec(model, **{key: getattr(EquationSpec(model), key)}) == EquationSpec(model)


def test_equation_spec_critical_indices():
    assert EquationSpec.nls(a=5.0).s_critical == pytest.approx(0.0)
    assert EquationSpec.nls(a=9.0).s_critical == pytest.approx(0.25)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_linear_group_identity_at_zero(spec):
    g = Grid(256, 10.0)
    f = random_band_limited(g, seed=40, real=spec.is_real)
    out = linear_group(f, spec, 0.0)
    np.testing.assert_allclose(out.values, f.values, atol=1e-14)


@pytest.mark.parametrize("spec", [EquationSpec.gkdv(k=1), EquationSpec.bo(), EquationSpec.nls()])
def test_linear_group_keeps_real_fields_real(spec):
    # the gKdV and BO phases are Hermitian at every t, the NLS phase at t = 0
    times = (0.3, 1.7) if spec.is_real else (0.0,)
    for g in (Grid(512, 20.0), Grid(1024, 160.0)):
        f = Field.from_function(g, lambda x: np.exp(-(x**2)))
        for t in times:
            assert linear_group(f, spec, t).is_real, (g, t)


@pytest.mark.parametrize("model", ["gkdv", "bo"])
@pytest.mark.parametrize("n", [8, 512, 8192])
@pytest.mark.parametrize("length", [1.0, 20.0, 160.0])
def test_group_phase_exactly_hermitian(model, n, length):
    xi = Grid(n, length).xi
    for t in (-2.5, 1e-3, 0.3, 1.7, 40.0):
        m = EquationSpec(model).group_phase(xi, t)
        np.testing.assert_array_equal(m[1 : n // 2], np.conj(m[-1 : n // 2 : -1]))
        assert m[0] == 1.0


@pytest.mark.parametrize("n", [8, 512, 8192])
@pytest.mark.parametrize("length", [1.0, 20.0, 160.0])
def test_nls_group_phase_mirror_is_the_full_build(n, length):
    """The NLS phase, evaluated on the n/2 + 1 frequencies xi[: n/2 + 1] and
    mirrored, is bitwise exp(-i t xi^2) on the whole lattice, for one time
    and for a column of times alike."""
    xi = Grid(n, length).xi
    times = [0.0, -0.0, -2.5, 1e-3, 0.3, 1.7, 4.0, 40.0]
    spec = EquationSpec.nls()
    column = spec.group_phase(xi, np.array(times)[:, None])
    assert column.shape == (len(times), n)
    for t, row in zip(times, column):
        full = np.exp(-1j * t * xi**2)
        assert spec.group_phase(xi, t).tobytes() == full.tobytes(), t
        assert row.tobytes() == full.tobytes(), t


def test_nls_free_gaussian_closed_form():
    g = Grid(1024, 20.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    t = 1.0
    out = linear_group(u0, EquationSpec.nls(), t)
    sigma = 1.0 + 4j * t
    exact = np.exp(-(g.x**2) / sigma) / np.sqrt(sigma)
    err = np.sqrt(g.h * np.sum(np.abs(out.values - exact) ** 2))
    assert err / l2(u0) <= 1e-8


def test_bo_group_on_cosine_is_phase_translation():
    g = Grid(256, 10.0)
    w = 4 * np.pi / g.length
    u0 = Field.from_function(g, lambda x: np.cos(w * x))
    t = 0.7
    out = linear_group(u0, EquationSpec.bo(), t)
    exact = np.cos(w * g.x - t * w**2)
    np.testing.assert_allclose(out.values.real, exact, atol=1e-12)
    np.testing.assert_allclose(out.values.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_unitarity_and_group_law(spec):
    g = Grid(256, 10.0)
    for seed in range(10):
        f = random_band_limited(g, seed=50 + seed, real=spec.is_real)
        norm0 = l2(f)
        ut = linear_group(f, spec, 0.9)
        assert abs(l2(ut) / norm0 - 1.0) <= 1e-12
        uts = linear_group(linear_group(f, spec, 0.4), spec, 0.5)
        err = np.sqrt(g.h * np.sum(np.abs(uts.values - ut.values) ** 2))
        assert err <= 1e-12 * norm0


@pytest.mark.parametrize(
    "spec,gamma",
    [
        (EquationSpec.nls(), lambda f, t: gamma_schrodinger(f, t, 1.0)),
        (EquationSpec.gkdv(k=1), gamma_airy),
        (EquationSpec.bo(), gamma_bo),
    ],
)
def test_vector_field_commutes_with_group(spec, gamma):
    # U(t)(x f) = Gamma(t) U(t) f on Gaussian-class data.  The packet is
    # band-pass: the dispersive tails of U(t)f must die before the periodic
    # boundary, and the BO symbol xi|xi| has a kink at xi = 0 whose
    # interaction with fhat(0) != 0 leaves algebraic tails (zero-mean data).
    g = Grid(1024, 40.0)
    f = Field.from_function(g, lambda x: np.exp(-((x / 6.0) ** 2)) * np.cos(2.5 * x))
    t = 0.3
    lhs = linear_group(Field(g, g.x * f.values), spec, t)
    rhs = gamma(linear_group(f, spec, t), t)
    res = np.sqrt(g.h * np.sum(np.abs(lhs.values - rhs.values) ** 2))
    assert res <= 1e-8 * h2norm(f)


def one_step(u0, spec, cfg):
    """One integrating-factor RK4 step of the full equation."""
    return evolve(u0, spec, cfg, cfg.dt).snapshots[-1]


def test_zero_field_stays_zero():
    g = Grid(128, 10.0)
    cfg = StepperConfig(dt=1e-3)
    for spec in ALL_SPECS:
        out = one_step(Field(g, np.zeros(g.n)), spec, cfg)
        assert np.max(np.abs(out.values)) == 0.0


def test_constant_field_nls_ode_oracle():
    g = Grid(64, 10.0)
    spec = EquationSpec.nls(a=3.0, mu=1)
    c = 1.5
    dt = 1e-3
    out = one_step(Field(g, np.full(g.n, c)), spec, StepperConfig(dt=dt))
    exact = c * np.exp(-1j * spec.mu * c**2 * dt)
    assert np.max(np.abs(out.values - exact)) <= 10 * dt**5


def test_fourth_order_convergence_constant_field():
    g = Grid(64, 10.0)
    spec = EquationSpec.nls(a=3.0, mu=1)
    c, T = 1.5, 0.2
    errs = []
    for dt in (0.02, 0.01):
        cfg = StepperConfig(dt=dt)
        traj = evolve(Field(g, np.full(g.n, c)), spec, cfg, T)
        exact = c * np.exp(-1j * spec.mu * c**2 * T)
        errs.append(np.max(np.abs(traj.snapshots[-1].values - exact)))
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3


def test_time_reversibility_nls():
    # conjugation reverses time for NLS; round trip error is local O(dt^5)
    g = Grid(256, 15.0)
    spec = EquationSpec.nls(a=3.0, mu=-1)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)) * (1 + 0.2j))

    def round_trip(dt):
        cfg = StepperConfig(dt=dt)
        u1 = one_step(u0, spec, cfg)
        back = one_step(Field(g, np.conj(u1.values)), spec, cfg)
        return np.max(np.abs(np.conj(back.values) - u0.values))

    assert round_trip(5e-3) <= 100 * 5e-3**5
    assert round_trip(5e-3) / round_trip(2.5e-3) >= 16.0


def test_time_reversibility_gkdv():
    # reflection x -> -x reverses time for gKdV
    g = Grid(256, 15.0)
    spec = EquationSpec.gkdv(k=1)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))

    def reflect(vals):
        return np.roll(vals[::-1], 1)

    def round_trip(dt):
        cfg = StepperConfig(dt=dt)
        u1 = one_step(u0, spec, cfg)
        back = one_step(Field(g, reflect(u1.values)), spec, cfg)
        return np.max(np.abs(reflect(back.values) - u0.values))

    assert round_trip(2.5e-3) <= 2e-9
    assert round_trip(5e-3) / round_trip(2.5e-3) >= 16.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_small_data_run_matches_linear_group(spec):
    # the nonlinear term moves a run relative to the linear group by an
    # amount that scales with the amplitude (its square for NLS), here 1e-12
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: 1e-12 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-2)
    times = [0.0, 0.25, 0.5, 1.0]
    traj = evolve(u0, spec, cfg, 1.0, snapshot_times=times)
    for t, snap in zip(traj.times, traj.snapshots):
        exact = linear_group(u0, spec, t)
        err = np.sqrt(g.h * np.sum(np.abs(snap.values - exact.values) ** 2))
        assert err <= 1e-10 * l2(u0)


def _complex_if_rk4_oracle(u0, spec, cfg, steps):
    """The complex-FFT integrating-factor RK4 that gKdV and BO ran before
    they marched the rfft half spectrum: full-spectrum phases, the
    multiplier rebuilt on every call and the real part raised by ``**``."""
    xi = u0.grid.xi
    mask = (np.abs(xi) <= cfg.dealias * u0.grid.xi_max + 1e-12).astype(float)
    dt = cfg.dt
    E = spec.group_phase(xi, dt / 2.0)
    E2 = spec.group_phase(xi, dt)
    k = spec.k if spec.model == "gkdv" else 1

    def nonlinear_hat(u_hat):
        w = np.fft.ifft(u_hat).real ** (k + 1)
        return -(1j * xi) * mask * np.fft.fft(w) / (k + 1.0)

    u_hat = np.fft.fft(u0.values)
    for _ in range(steps):
        n1 = nonlinear_hat(u_hat)
        s1 = E * (u_hat + 0.5 * dt * n1)
        n2 = nonlinear_hat(s1)
        s2 = E * u_hat + 0.5 * dt * n2
        n3 = nonlinear_hat(s2)
        s3 = E2 * u_hat + dt * E * n3
        n4 = nonlinear_hat(s3)
        u_hat = E2 * u_hat + dt / 6.0 * (E2 * n1 + 2.0 * E * (n2 + n3) + n4)
    return np.fft.ifft(u_hat).real


@pytest.mark.parametrize(
    "spec",
    [EquationSpec.gkdv(k=k) for k in (1, 2, 3)] + [EquationSpec.bo()],
    ids=["gkdv1", "gkdv2", "gkdv3", "bo"],
)
@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_real_half_spectrum_matches_complex_oracle(spec, n, dealias):
    # seeded noise fills every mode, the Nyquist bin included, which
    # dealias = 1.0 lets the nonlinearity feed
    g = Grid(n, 20.0)
    rng = np.random.default_rng(7)
    vals = np.exp(-(g.x**2)) + 1e-3 * np.exp(-((g.x / 4.0) ** 2)) * rng.standard_normal(n)
    u0 = Field(g, vals)
    cfg = StepperConfig(dt=1e-3, dealias=dealias)
    steps = 200
    ref = _complex_if_rk4_oracle(u0, spec, cfg, steps)
    traj = evolve(u0, spec, cfg, steps * cfg.dt, snapshot_times=[steps * cfg.dt])
    out = traj.snapshots[-1]
    assert traj.times[-1] == pytest.approx(steps * cfg.dt) and out.is_real
    assert np.max(np.abs(out.values.real - ref)) <= 1e-13 * np.max(np.abs(vals))


def _if_rk4_oracle(g, values, spec, cfg, steps):
    """The stepper's integrating-factor RK4, written out of place on the
    public ``np.fft`` transforms: gKdV and BO march the rfft half spectrum,
    NLS the full one.  Returns the coefficients after ``steps`` steps."""
    n, xi = g.n, g.xi
    if spec.is_real:
        xi = xi[: n // 2 + 1]
        forward, inverse = np.fft.rfft, lambda u_hat: np.fft.irfft(u_hat, n)
    else:
        forward, inverse = np.fft.fft, np.fft.ifft
    mask = (np.abs(xi) <= cfg.dealias * g.xi_max + 1e-12).astype(float)
    dt = cfg.dt
    E = spec.group_phase(g.xi, dt / 2.0)[: xi.size]
    E2 = spec.group_phase(g.xi, dt)[: xi.size]
    if spec.model == "nls":
        multiplier = (-1j * spec.mu) * mask
    else:
        power = spec.k + 1 if spec.model == "gkdv" else 2
        multiplier = -(1j * xi) * mask / float(power)

    def nonlinear_hat(u_hat):
        u = inverse(u_hat)
        if spec.model == "nls":
            w = np.abs(u) ** (spec.a - 1.0) * u
        else:
            w = u * u
            for _ in range(power - 2):
                w *= u
        return multiplier * forward(w)

    u_hat = forward(values)
    for _ in range(steps):
        n1 = nonlinear_hat(u_hat)
        s1 = E * (u_hat + 0.5 * dt * n1)
        n2 = nonlinear_hat(s1)
        s2 = E * u_hat + 0.5 * dt * n2
        n3 = nonlinear_hat(s2)
        s3 = E2 * u_hat + dt * E * n3
        n4 = nonlinear_hat(s3)
        u_hat = E2 * u_hat + dt / 6.0 * (E2 * n1 + 2.0 * E * (n2 + n3) + n4)
    return u_hat


EXACT_SPECS = [
    EquationSpec.nls(a=3.0, mu=1),
    EquationSpec.nls(a=5.0, mu=-1),
    *(EquationSpec.gkdv(k=k) for k in (1, 2, 3)),
    EquationSpec.bo(),
]


@pytest.mark.parametrize(
    "spec", EXACT_SPECS, ids=["nls3", "nls5_focusing", "gkdv1", "gkdv2", "gkdv3", "bo"]
)
@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("dealias", [2.0 / 3.0, 1.0])
def test_stepper_is_bitwise_the_out_of_place_formula(spec, n, dealias):
    # the stepper forms its stages in place through the spectral FFT door;
    # after 200 steps its coefficients, and evolve's last snapshot, are
    # bitwise the formula on np.fft with every product in its written order
    g = Grid(n, 20.0)
    rng = np.random.default_rng(11)
    vals = np.exp(-(g.x**2)) + 1e-3 * np.exp(-((g.x / 4.0) ** 2)) * rng.standard_normal(n)
    if not spec.is_real:
        vals = vals * np.exp(1j * g.x)
    cfg = StepperConfig(dt=1e-3, dealias=dealias)
    steps = 200
    ref = _if_rk4_oracle(g, vals, spec, cfg, steps)
    stepper = propagators._Stepper(g, spec, cfg)
    u_hat = stepper.forward(vals)
    for _ in range(steps):
        u_hat = stepper.step(u_hat)
    assert np.array_equal(u_hat, ref)
    traj = evolve(Field(g, vals), spec, cfg, steps * cfg.dt, snapshot_times=[steps * cfg.dt])
    last = np.fft.irfft(ref, n) if spec.is_real else np.fft.ifft(ref)
    assert np.array_equal(traj.snapshots[-1].values, last)


@pytest.mark.parametrize("spec", [EquationSpec.nls(a=3.0, mu=1), EquationSpec.gkdv(k=2)])
def test_snapshots_own_their_samples(spec, monkeypatch):
    # the stepper reuses one inverse-transform buffer; no snapshot may be a
    # view of it, or of another snapshot
    made = []

    class Recorded(propagators._Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(propagators, "_Stepper", Recorded)
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    traj = evolve(u0, spec, StepperConfig(dt=1e-3), 0.01, snapshot_times=np.linspace(0, 0.01, 6))
    (stepper,) = made
    buffers = [v for v in vars(stepper).values() if isinstance(v, np.ndarray)]
    assert any(b is stepper._u for b in buffers)
    arrays = [snap.values for snap in traj.snapshots] + [u0.values]
    for i, a in enumerate(arrays[:-1]):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :] + buffers)
    # each step returns a new array, apart from its input and the buffers
    u_hat = stepper.forward(u0.values.real if spec.is_real else u0.values)
    following = stepper.step(u_hat)
    assert not any(np.shares_memory(following, b) for b in [u_hat] + buffers)


@pytest.mark.parametrize("spec", [EquationSpec.nls(a=3.0, mu=1), EquationSpec.gkdv(k=2)])
def test_block_run_rows_are_row_runs(spec):
    # the stepper's buffer takes the block's row shape
    g = Grid(256, 15.0)
    rows = np.stack([np.exp(-(g.x**2)), 0.5 * np.exp(-((g.x - 1.0) ** 2))])
    cfg = StepperConfig(dt=1e-3)
    block = evolve(Field(g, rows), spec, cfg, 0.01)
    for i, row in enumerate(rows):
        single = evolve(Field(g, row), spec, cfg, 0.01)
        for b, r in zip(block.snapshots, single.snapshots, strict=True):
            assert np.array_equal(b.values[i], r.values)


@pytest.mark.parametrize("spec", [EquationSpec.gkdv(k=1), EquationSpec.bo()])
def test_complex_data_for_real_model_rejected(spec):
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)) * (1 + 0.2j))
    cfg = StepperConfig(dt=1e-3)
    for run in (lambda: evolve(u0, spec, cfg, 0.01), lambda: one_step(u0, spec, cfg)):
        with pytest.raises(ValueError, match=f"the {spec.model} flow requires a real field") as exc:
            run()
        assert "0.196 of max|u|" in str(exc.value)


@pytest.mark.parametrize("spec", [EquationSpec.gkdv(k=1), EquationSpec.bo()])
def test_roundoff_imaginary_residue_evolves_real(spec):
    g = Grid(256, 15.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)) * (1 + 1e-17j))
    assert not u0.is_real
    traj = evolve(u0, spec, StepperConfig(dt=1e-3), 0.01, snapshot_times=[0.0, 0.005, 0.01])
    assert len(traj.snapshots) == 3 and all(s.is_real for s in traj.snapshots)
    np.testing.assert_array_equal(traj.snapshots[0].values, u0.values.real)


def test_evolve_t_zero_single_snapshot():
    g = Grid(128, 10.0)
    u0 = random_band_limited(g, seed=60)
    traj = evolve(u0, EquationSpec.nls(), StepperConfig(dt=1e-3), 0.0)
    assert len(traj.snapshots) == 1
    np.testing.assert_allclose(traj.snapshots[0].values, u0.values, atol=0)


def test_evolve_mass_conservation_nls():
    g = Grid(512, 20.0)
    spec = EquationSpec.nls(a=3.0, mu=1)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    traj = evolve(u0, spec, StepperConfig(dt=1e-3), 0.3, snapshot_times=[0.0, 0.3])
    m0 = l2(traj.snapshots[0]) ** 2
    m1 = l2(traj.snapshots[-1]) ** 2
    assert abs(m1 - m0) / m0 <= 1e-10


def test_evolve_snapshot_snapping_and_validation():
    g = Grid(128, 10.0)
    u0 = random_band_limited(g, seed=61)
    cfg = StepperConfig(dt=1e-2)
    traj = evolve(u0, EquationSpec.nls(), cfg, 0.5, snapshot_times=[0.0, 0.123, 0.5])
    assert traj.times[1] == pytest.approx(0.12)
    with pytest.raises(ValueError):
        evolve(u0, EquationSpec.nls(), cfg, 0.5, snapshot_times=[0.7])


def test_evolve_rejects_empty_snapshot_times():
    # an empty list would take zero steps and return an empty trajectory
    # with no failure marked; None keeps recording t = 0 and T
    g = Grid(64, 10.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    cfg = StepperConfig(dt=1e-2)
    for empty in ([], (), np.array([])):
        with pytest.raises(ValueError, match="snapshot_times is empty"):
            evolve(u0, EquationSpec.nls(), cfg, 0.1, snapshot_times=empty)
    assert evolve(u0, EquationSpec.nls(), cfg, 0.1).times == pytest.approx([0.0, 0.1])


@pytest.mark.parametrize("T", [4e-4, 5e-4])
def test_evolve_rejects_final_time_of_zero_steps(T):
    # round(T / dt) is 0: the run would record only t = 0 and report success
    g = Grid(64, 10.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match=f"T={T:g} rounds to zero steps of dt=0.001"):
        evolve(u0, EquationSpec.gkdv(k=1), StepperConfig(dt=1e-3), T)
    assert len(evolve(u0, EquationSpec.gkdv(k=1), StepperConfig(dt=1e-3), 6e-4).times) == 2


def test_evolve_rejects_a_step_count_that_is_not_finite():
    """T/dt overflows at the least subnormal dt; a finite count, however
    long the run, is the caller's to ask for."""
    g = Grid(64, 10.0)
    u0 = Field.from_function(g, lambda x: np.exp(-(x**2)))
    with pytest.raises(ValueError, match="T=1 takes no finite count of steps of dt=4.94066e-324"):
        evolve(u0, EquationSpec.nls(), StepperConfig(dt=5e-324), 1.0)
    check_times(1.0, [0.0, 1.0], 1e-300)


def test_cfl_warning():
    g = Grid(128, 10.0)
    u0 = Field.from_function(g, lambda x: 5.0 * np.exp(-(x**2)))
    with pytest.warns(CFLWarning):
        one_step(u0, EquationSpec.gkdv(k=1), StepperConfig(dt=0.1))


def _focusing_cfl_run():
    # max|u| grows from 3 under the focusing flow: dt passes the transport
    # heuristic at t = 0 and exceeds it 1.19x at t = 0.35
    g = Grid(256, 10.0)
    u0 = Field.from_function(g, lambda x: 3.0 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=0.007)
    spec = EquationSpec.nls(a=3.0, mu=-1)
    return evolve(u0, spec, cfg, 0.7, snapshot_times=np.linspace(0.0, 0.7, 11))


def test_cfl_checked_at_every_snapshot():
    with pytest.warns(CFLWarning) as caught:
        _focusing_cfl_run()
    assert len(caught) == 1
    assert "by 1.19x at t=0.35" in str(caught[0].message)


def test_evolve_failure_marker_on_blowup():
    # grossly unstable step size on the focusing quintic drives a NaN
    g = Grid(128, 10.0)
    spec = EquationSpec.nls(a=5.0, mu=-1)
    u0 = Field.from_function(g, lambda x: 40.0 * np.exp(-(x**2)))
    cfg = StepperConfig(dt=0.5)
    with pytest.warns(CFLWarning):
        traj = evolve(u0, spec, cfg, 50.0, snapshot_times=np.linspace(0, 50, 21))
    assert traj.failed
    assert traj.failure_time is not None


@pytest.mark.parametrize("model", ["nls", "gkdv", "bo"])
def test_phase_out_of_float_range_fails_the_first_step_without_a_warning(model):
    """On a cell so small that dt * omega(xi) overflows, the stepper's phases
    are not finite: the run ends at its first step with the failure marker,
    and no RuntimeWarning."""
    g = Grid(64, 1e-300)
    u0 = Field(g, np.exp(-(g.x**2)))
    with pytest.warns(CFLWarning) as caught:
        traj = evolve(u0, EquationSpec(model), StepperConfig(dt=1e-3), 0.01)
    assert traj.failure_time == 1e-3 and len(traj.snapshots) == 1
    assert all(issubclass(w.category, CFLWarning) for w in caught)


def test_kdv_soliton_profile_validated_then_preserved():
    # u = 12 kappa^2 sech^2(kappa (x - 4 kappa^2 t)) for u_t + u_xxx + u u_x = 0;
    # the profile/speed pair is validated by substituting into the equation
    # before any evolution is trusted
    g = Grid(1024, 20.0)
    kappa = 0.5
    speed = 4.0 * kappa**2
    prof = lambda y: 12.0 * kappa**2 / np.cosh(kappa * y) ** 2
    u0 = Field.from_function(g, prof)

    from dispersivelab.operators import derivative

    residual = (
        -speed * derivative(u0, 1).values
        + derivative(u0, 3).values
        + u0.values * derivative(u0, 1).values
    )
    res_norm = np.sqrt(g.h * np.sum(np.abs(residual) ** 2))
    assert res_norm <= 1e-4  # PDE residual oracle: the pair really solves it

    spec = EquationSpec.gkdv(k=1)
    cfg = StepperConfig(dt=5e-4)
    traj = evolve(u0, spec, cfg, 1.0, snapshot_times=[0.0, 1.0])
    exact = prof(g.x - speed * 1.0)
    err = np.sqrt(g.h * np.sum(np.abs(traj.snapshots[-1].values.real - exact) ** 2))
    assert err / l2(u0) <= 1e-5
