"""Model equations, exact linear groups, and the integrating-factor stepper.

Sign conventions, fixed here and used everywhere: with the transform
fhat(xi) = int f exp(-i xi x) dx,

* NLS      i u_t + u_xx = mu |u|^(a-1) u   has linear group exp(-i t xi^2),
* gKdV     u_t + u_xxx + u^k u_x = 0       has linear group exp(+i t xi^3),
* BO       u_t + H u_xx + u u_x = 0        has linear group exp(-i t xi|xi|).

The nonlinearities are advanced by a classical RK4 on the integrating-factor
transformed system, so the linear flow is exact and the splitting error sits
entirely in the nonlinear term.  gKdV and BO use the conservative form
-d/dx(u^(k+1))/(k+1), which keeps the discrete L^2 pairing skew-symmetric.

gKdV and BO are real flows: the stepper marches the rfft half spectrum of
a real field, and complex data for them is an error (see :func:`evolve`).
NLS marches the full complex spectrum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .spectral import Field, Grid, _apply_table, _build_table, real_values

__all__ = [
    "EquationSpec",
    "Trajectory",
    "StepperConfig",
    "CFLWarning",
    "check_times",
    "linear_group",
    "evolve",
]


class CFLWarning(UserWarning):
    """The step size exceeds the transport heuristic h / (pi max|u|)."""


@dataclass(frozen=True)
class EquationSpec:
    """One of the three model equations with its parameters."""

    model: str             # 'nls' | 'gkdv' | 'bo'
    a: float = 3.0         # NLS nonlinearity power, finite and > 1
    mu: int = 1            # NLS sign, +1 defocusing / -1 focusing
    k: int = 1             # gKdV nonlinearity degree, k >= 1

    def __post_init__(self):
        if self.model not in ("nls", "gkdv", "bo"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "nls":
            if not 1 < self.a < np.inf:
                raise ValueError(f"NLS power must satisfy 1 < a < inf, got a={self.a}")
            if self.mu not in (-1, 1):
                raise ValueError(f"NLS sign must be +-1, got mu={self.mu}")
        if self.model == "gkdv" and (self.k < 1 or self.k != int(self.k)):
            raise ValueError(f"gKdV degree must be a positive integer, got k={self.k}")
        # a parameter that the model does not read must keep its default
        read = {"nls": ("a", "mu"), "gkdv": ("k",), "bo": ()}[self.model]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in read and value != f.default:
                raise ValueError(f"{f.name}={value} is not read by the {self.model} model")

    @classmethod
    def nls(cls, a: float = 3.0, mu: int = 1) -> "EquationSpec":
        return cls("nls", a=a, mu=mu)

    @classmethod
    def gkdv(cls, k: int = 1) -> "EquationSpec":
        return cls("gkdv", k=k)

    @classmethod
    def bo(cls) -> "EquationSpec":
        return cls("bo")

    @property
    def is_real(self) -> bool:
        """gKdV and BO propagate real fields."""
        return self.model in ("gkdv", "bo")

    @property
    def s_critical(self) -> float:
        """NLS scaling-critical index 1/2 - 2/(a-1) in one dimension."""
        if self.model != "nls":
            raise ValueError("scaling index is defined for the NLS model")
        return 0.5 - 2.0 / (self.a - 1.0)

    def group_phase(self, xi: np.ndarray, t) -> np.ndarray:
        """Unitary multiplier of the linear group at time t on ``xi``, a
        grid's full FFT-ordered lattice; a column of times (shape (k, 1))
        gives one row per time.

        The NLS phase is even in xi and the lattice is symmetric but for its
        lone Nyquist mode, so the phase is evaluated on the n/2 + 1
        frequencies ``xi[: n/2 + 1]`` and mirrored: bitwise the full
        evaluation, at half the exponentials.  The gKdV and BO phases are
        evaluated in full: their conjugate mirror differs from it in the
        sign of an imaginary zero at t = 0."""
        if self.model == "nls":
            n = xi.shape[-1]
            half = np.exp(-1j * t * xi[: n // 2 + 1] ** 2)
            return np.concatenate([half, half[..., n // 2 - 1 : 0 : -1]], axis=-1)
        if self.model == "gkdv":
            # xi * xi * xi is exactly odd on the lattice (xi**3 is not), so
            # the phase is exactly Hermitian and keeps a real field real
            return np.exp(1j * t * (xi * xi * xi))
        return np.exp(-1j * t * xi * np.abs(xi))


@dataclass
class Trajectory:
    """Time-ordered snapshots of a solution with per-snapshot diagnostics."""

    spec: EquationSpec
    times: np.ndarray
    snapshots: list
    diagnostics: dict = field(default_factory=dict)
    failed: bool = False
    failure_time: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must have the same length")
        if len(self.snapshots) > 1:
            g0 = self.snapshots[0].grid
            if any(s.grid is not g0 and s.grid != g0 for s in self.snapshots):
                raise ValueError("all snapshots must share one grid")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    dealias: float = 2.0 / 3.0
    linear_only: bool = False   # zero the nonlinearity (consistency runs)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"step size must be positive, got dt={self.dt}")
        if not 0 < self.dealias <= 1:
            raise ValueError(f"dealias fraction must lie in (0, 1], got dealias={self.dealias}")


def linear_group(f: Field, spec: EquationSpec, t: float) -> Field:
    """Exact linear flow U(t) of the model's dispersive part: the group phase
    under the realness rule of :func:`apply_multiplier`.  The gKdV and BO
    phases, and every model's phase at t = 0, are Hermitian, so a real field
    stays real there.  This is the one-time scan of :func:`_group_scan`: the
    phase is built on each call and no table is stored on the grid."""
    return Field(f.grid, next(_group_scan(f, spec, [t]))[0])


SCAN_BLOCK = 16  # times per batched inverse FFT of a scan: 1 MB of phases at n = 4096


def _group_scan(f: Field, spec: EquationSpec, times):
    """Samples of U(t) f for every t in ``times``, yielded as blocks of up to
    SCAN_BLOCK rows, one row per time: one forward FFT of f, then for each
    block the group phases, the table rules of :func:`apply_multiplier`
    row by row and one batched inverse FFT.  Each row is bitwise
    ``apply_multiplier(f, lambda xi: spec.group_phase(xi, t)).values``.
    A time that is not finite raises ValueError naming it."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"group time must be finite, got t={times[~np.isfinite(times)][0]}")
    g = f.grid
    fhat = np.fft.fft(f.values)
    real = f.is_real
    for start in range(0, times.size, SCAN_BLOCK):
        phases = spec.group_phase(g.xi, times[start : start + SCAN_BLOCK, None])
        yield _apply_table(_build_table(g, phases), fhat, real)


class _Stepper:
    """Integrating-factor RK4 on the Fourier coefficients (Kassam-Trefethen,
    SIAM J. Sci. Comput. 26, 2005).

    gKdV and BO march the rfft half spectrum of a real field: ``xi``, the
    dealiasing mask and the half/full-step phases are sliced to
    ``[: n//2 + 1]``.  Index n//2 keeps xi = -xi_max, so the Nyquist bin
    evolves as in the full spectrum, whose real projection drops the same
    imaginary part that irfft ignores.  NLS marches the full complex
    spectrum.  Each model's nonlinear multiplier is built once here, and a
    linear-only step is the exact group phase ``E2 * u_hat``.
    """

    def __init__(self, grid: Grid, spec: EquationSpec, cfg: StepperConfig):
        self.grid = grid
        self.spec = spec
        self.cfg = cfg
        n = grid.n
        xi = grid.xi
        if spec.is_real:
            xi = xi[: n // 2 + 1]
            self.forward = np.fft.rfft
            self.inverse = lambda u_hat: np.fft.irfft(u_hat, n)
        else:
            self.forward, self.inverse = np.fft.fft, np.fft.ifft
        mask = (np.abs(xi) <= cfg.dealias * grid.xi_max + 1e-12).astype(float)
        dt = cfg.dt
        # group_phase takes the full lattice; a half spectrum keeps a copy of
        # its head, so the full phases are freed
        self.E = spec.group_phase(grid.xi, dt / 2.0)[: xi.size].copy()   # half-step linear flow
        self.E2 = spec.group_phase(grid.xi, dt)[: xi.size].copy()
        if spec.model == "nls":
            self.multiplier = (-1j * spec.mu) * mask
        else:
            self.power = spec.k + 1 if spec.model == "gkdv" else 2
            self.multiplier = -(1j * xi) * mask / float(self.power)
        self.step = self._linear_step if cfg.linear_only else self._rk4_step

    def nonlinear_hat(self, u_hat: np.ndarray) -> np.ndarray:
        u = self.inverse(u_hat)
        if self.spec.model == "nls":
            w = np.abs(u) ** (self.spec.a - 1.0) * u
        else:
            w = u * u
            for _ in range(self.power - 2):
                w *= u
        return self.multiplier * self.forward(w)

    def _linear_step(self, u_hat: np.ndarray) -> np.ndarray:
        return self.E2 * u_hat

    def _rk4_step(self, u_hat: np.ndarray) -> np.ndarray:
        dt, E, E2 = self.cfg.dt, self.E, self.E2
        n1 = self.nonlinear_hat(u_hat)
        s1 = E * (u_hat + 0.5 * dt * n1)
        n2 = self.nonlinear_hat(s1)
        s2 = E * u_hat + 0.5 * dt * n2
        n3 = self.nonlinear_hat(s2)
        s3 = E2 * u_hat + dt * E * n3
        n4 = self.nonlinear_hat(s3)
        return E2 * u_hat + dt / 6.0 * (E2 * n1 + 2.0 * E * (n2 + n3) + n4)

    def cfl_ratio(self, values: np.ndarray) -> float:
        """dt over the transport heuristic h / (pi max|u|); 0 for a linear-only run."""
        if self.cfg.linear_only:
            return 0.0
        return self.cfg.dt * np.pi * float(np.max(np.abs(values))) / self.grid.h


def check_times(T: float, snapshot_times, dt: float) -> None:
    """Raise ValueError unless T is finite and nonnegative, a positive T is
    at least one step of dt once rounded, and every snapshot time lies in
    [0, T]; the rule of :func:`evolve` and of solve configs."""
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"final time must be finite and nonnegative, got T={T}")
    if T > 0 and round(T / dt) == 0:
        raise ValueError(f"final time T={T:g} rounds to zero steps of dt={dt:g}")
    if not all(-1e-12 <= t <= T + 1e-12 for t in snapshot_times):
        times = ", ".join(f"{t:g}" for t in snapshot_times)
        raise ValueError(f"snapshot times must lie in [0, T={T:g}], got snapshots={times}")


def evolve(
    u0: Field,
    spec: EquationSpec,
    cfg: StepperConfig,
    T: float,
    snapshot_times=None,
    diagnostics=None,
) -> Trajectory:
    """March u0 to time T, recording snapshots and per-snapshot diagnostics.

    Snapshot times are snapped to the nearest step multiple (the actual
    times are stored); ``None`` records t = 0 and T, and an empty list is
    an error.  ``diagnostics`` is an optional callable
    ``(field, t) -> dict of named reals``.  A mid-run NaN truncates the
    trajectory and sets the failure marker instead of raising.

    gKdV and BO evolve real fields: data whose imaginary part exceeds
    1e-10 of max|u| raises ValueError, and below that the real part is
    evolved, so every snapshot is real.
    """
    if snapshot_times is None:
        snapshot_times = [0.0, T] if T > 0 else [0.0]
    elif len(snapshot_times) == 0:
        raise ValueError("snapshot_times is empty; pass None to record t = 0 and T")
    check_times(T, snapshot_times, cfg.dt)
    g = u0.grid
    values = real_values(u0, f"the {spec.model} flow") if spec.is_real else u0.values
    n_steps = int(round(T / cfg.dt)) if T > 0 else 0
    snap_steps = sorted({min(max(int(round(t / cfg.dt)), 0), n_steps) for t in snapshot_times})

    stepper = _Stepper(g, spec, cfg)
    u_hat = stepper.forward(values)
    # the transport heuristic at t = 0 and at every snapshot; one warning
    # names the worst violation
    cfl_worst, cfl_time = stepper.cfl_ratio(values), 0.0

    times, snaps, diag_rows = [], [], []
    failed = False
    failure_time = None
    step_idx = 0
    pending = list(snap_steps)

    def record(idx, fld):
        t = idx * cfg.dt
        times.append(t)
        snaps.append(fld)
        diag_rows.append(diagnostics(fld, t) if diagnostics is not None else {})

    if pending and pending[0] == 0:
        record(0, Field(g, np.array(values, dtype=complex)))
        pending.pop(0)
    while step_idx < n_steps and pending:
        u_hat = stepper.step(u_hat)
        step_idx += 1
        if not np.isfinite(u_hat).all():
            failed = True
            failure_time = step_idx * cfg.dt
            break
        if pending and pending[0] == step_idx:
            fld = Field(g, stepper.inverse(u_hat))
            record(step_idx, fld)
            pending.pop(0)
            ratio = stepper.cfl_ratio(fld.values)
            if ratio > cfl_worst:
                cfl_worst, cfl_time = ratio, step_idx * cfg.dt
    if cfl_worst > 1.0:
        warnings.warn(
            f"dt={cfg.dt:.3g} exceeds the transport heuristic h/(pi max|u|) "
            f"by {cfl_worst:.3g}x at t={cfl_time:.6g}",
            CFLWarning,
            stacklevel=2,
        )

    diag = {}
    if diag_rows and diag_rows[0]:
        for key in diag_rows[0]:
            diag[key] = np.array([row[key] for row in diag_rows])
    return Trajectory(
        spec=spec,
        times=np.array(times),
        snapshots=snaps,
        diagnostics=diag,
        failed=failed,
        failure_time=failure_time,
    )
