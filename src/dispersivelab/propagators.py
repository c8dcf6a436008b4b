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

from .spectral import (
    Field,
    Grid,
    _Table,
    _fft,
    _ifft,
    _irfft,
    _mirror,
    _mirrored_table,
    _multiply,
    _multiply_rows,
    _rfft,
    real_values,
)

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


_READS = {"nls": ("a", "mu"), "gkdv": ("k",), "bo": ()}  # the parameters each model reads
# A group time t is resolvable on a lattice when the rounding of its phase
# angles, |t| max|omega(xi)| eps (eps the double-precision epsilon), is at
# most this many radians; beyond it the phases, and U(t), are noise.
GROUP_PHASE_TOL = 1e-3
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class EquationSpec:
    """One of the three model equations with its parameters, each default stated only here."""

    model: str             # a key of _READS
    a: float = 3.0         # NLS nonlinearity power, finite and > 1
    mu: int = 1            # NLS sign, +1 defocusing / -1 focusing
    k: int = 1             # gKdV nonlinearity degree, k >= 1

    def __post_init__(self):
        if self.model not in _READS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "nls":
            if not 1 < self.a < np.inf:
                raise ValueError(f"NLS power must satisfy 1 < a < inf, got a={self.a}")
            if self.mu not in (-1, 1):
                raise ValueError(f"NLS sign must be +-1, got mu={self.mu}")
        if self.model == "gkdv" and (self.k < 1 or self.k != int(self.k)):
            raise ValueError(f"gKdV degree must be a positive integer, got k={self.k}")
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in _READS[self.model] and value != f.default:
                raise ValueError(f"{f.name}={value} is not read by the {self.model} model")

    @classmethod
    def nls(cls, **params) -> "EquationSpec":
        return cls("nls", **params)

    @classmethod
    def gkdv(cls, **params) -> "EquationSpec":
        return cls("gkdv", **params)

    @classmethod
    def bo(cls, **params) -> "EquationSpec":
        return cls("bo", **params)

    @property
    def is_real(self) -> bool:
        """gKdV and BO propagate real fields."""
        return self.model != "nls"

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

        It is evaluated on ``xi[: n/2 + 1]`` and extended to the mirrored
        rest by the model's symmetry: evenly for NLS, conjugated for the odd
        gKdV and BO relations, whose phases are so Hermitian by construction.
        At t != 0 that is bitwise the full evaluation (gKdV's x * x * x, not
        x**3, keeps the bits); at t = +-0 imaginary zeros may change sign."""
        return _mirror(self._half_phase(xi, t), xi.shape[-1], self.is_real)

    def _half_phase(self, xi: np.ndarray, t) -> np.ndarray:
        """``group_phase(xi, t)`` on the half lattice ``xi[: n/2 + 1]`` alone."""
        x = xi[: xi.shape[-1] // 2 + 1]
        if self.model == "nls":
            return np.exp(-1j * t * x**2)
        if self.model == "gkdv":
            return np.exp(1j * t * (x * x * x))
        return np.exp(-1j * t * x * np.abs(x))


@dataclass
class Trajectory:
    """Time-ordered snapshots of a solution with per-snapshot diagnostics."""

    spec: EquationSpec
    times: np.ndarray
    snapshots: list
    diagnostics: dict = field(default_factory=dict)
    failure_time: float | None = None   # time of the first non-finite step

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must have the same length")
        if len(self.snapshots) > 1:
            g0 = self.snapshots[0].grid
            if any(s.grid is not g0 and s.grid != g0 for s in self.snapshots):
                raise ValueError("all snapshots must share one grid")

    @property
    def failed(self) -> bool:
        """True when the run ended at ``failure_time`` on a non-finite step."""
        return self.failure_time is not None


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    dealias: float = 2.0 / 3.0

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError(f"step size must be positive and finite, got dt={self.dt}")
        if not 0 < self.dealias <= 1:
            raise ValueError(f"dealias fraction must lie in (0, 1], got dealias={self.dealias}")


def linear_group(f: Field, spec: EquationSpec, t: float) -> Field:
    """Exact linear flow U(t) of the model's dispersive part, applied to a
    field or to each row of a block: the group phase at the one time ``t``
    under the rules of :func:`apply_multiplier`, and bitwise its result.
    The phase's table (``_group_table``) is built on each call, with its
    flags from its construction, and never stored.  The gKdV and BO
    phases, and every model's phase at t = 0, are Hermitian, so a real field
    stays real there.  A ``t`` that is not one finite, resolvable time
    (``_group_times``) raises ValueError."""
    t = np.asarray(t, dtype=float)
    if t.ndim:
        raise ValueError(f"linear_group takes one time, got t of shape {t.shape}")
    return _multiply(f, _group_table(f.grid, spec, t))


def _group_table(g: Grid, spec: EquationSpec, times) -> _Table:
    """The table of ``spec.group_phase(g.xi, times)``, one row per time for a
    column of times, built on the half lattice and mirrored by the model's
    symmetry (``spectral._mirrored_table``): its finiteness test and flags
    read that half, bitwise a scan of the full table.  Every time must be
    finite and resolvable on ``g`` (``_group_times``), so every angle
    t*omega(xi) is finite."""
    times = _group_times(times, g, spec)
    return _mirrored_table(g, spec._half_phase(g.xi, times), spec.is_real)


def _group_times(times, g: Grid, spec: EquationSpec) -> np.ndarray:
    """``times`` as floats.  A time that is not finite, or whose phase is
    not resolvable on the lattice of ``g`` (the rounding of its angles,
    |t| max|omega(xi)| eps, above GROUP_PHASE_TOL radians), raises
    ValueError naming that time and the model."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"group time must be finite, got t={times[~np.isfinite(times)][0]}")
    t = float(times.flat[np.argmax(np.abs(times))]) if times.size else 0.0
    xi = g.xi_max  # |omega| peaks there: xi^2 (NLS, BO) or |xi|^3 (gKdV)
    rounding = abs(t) * (xi * xi * (xi if spec.model == "gkdv" else 1.0)) * _EPS
    if not rounding <= GROUP_PHASE_TOL:  # NaN (t = 0 on a lattice whose omega overflows) too
        raise ValueError(
            f"the {spec.model} group phase at t={t:g} is not resolvable on the lattice "
            f"|xi| <= {xi:g}: its angles round by {rounding:.3g} rad, above {GROUP_PHASE_TOL:g}"
        )
    return times


def _group_scan(f: Field, spec: EquationSpec, t0: float, dt: float, count: int):
    """Samples of U(t) f at the ``count`` times t = t0 + j*dt, yielded in
    batches of shape ``(times, *f.values.shape)`` from one forward FFT of f
    (``spectral._multiply_rows``): every time meets every row of a block.

    The phases advance by the group law U(t + dt) = U(dt) U(t): the exact
    phases of t0 and dt are evaluated once (``_half_phase``), and each later
    time takes one complex multiply per mode of the half lattice, mirrored
    as ``group_phase`` mirrors it (``spectral._mirrored_table``).  Hence
    the samples at t0 are bitwise ``linear_group(f, spec, t0)`` (at
    t0 = +-0 the phase is exactly 1), a real field stays exactly real under
    the gKdV and BO phases, and those at time j are
    ``linear_group(f, spec, t0 + j*dt)`` to a relative L^2 error of at most
    theta_max * eps (theta_max = max|t omega(xi)| over the scan, eps the
    double-precision epsilon), the rounding of the per-time angle; every
    time must be resolvable (``_group_times``)."""
    g, n = f.grid, f.grid.n
    t0, dt, _ = _group_times([t0, dt, t0 + (count - 1) * dt], g, spec)
    phase = spec._half_phase(g.xi, t0)
    step = spec._half_phase(g.xi, dt) if count > 1 else None

    def table_of(block):
        nonlocal phase
        half = np.empty((block.stop - block.start, n // 2 + 1), dtype=complex)
        for j, row in zip(range(block.start, block.stop), half):
            if j:
                phase = step * phase
            row[:] = phase
        return _mirrored_table(g, half, conjugate=spec.is_real)

    return _multiply_rows(f, count, table_of)


class _Stepper:
    """Integrating-factor RK4 on the Fourier coefficients (Kassam-Trefethen,
    SIAM J. Sci. Comput. 26, 2005).

    gKdV and BO march the rfft half spectrum of a real field: ``xi``, the
    dealiasing mask and the half/full-step phases are sliced to
    ``[: n//2 + 1]``.  Index n//2 keeps xi = -xi_max, so the Nyquist bin
    evolves as in the full spectrum, whose real projection drops the same
    imaginary part that irfft ignores.  NLS marches the full complex
    spectrum.  Each model's nonlinear multiplier, ``dt*E`` and ``2*E`` are
    built once here, and the inverse transform of each stage writes into
    one buffer of this instance.  The exact linear flow is
    :func:`linear_group`.
    """

    def __init__(self, grid: Grid, spec: EquationSpec, cfg: StepperConfig):
        self.grid = grid
        self.spec = spec
        self.cfg = cfg
        n = grid.n
        xi = grid.xi
        if spec.is_real:
            xi = xi[: n // 2 + 1]
            self.forward = _rfft
            self.inverse = lambda u_hat, out=None: _irfft(u_hat, n, out)
        else:
            self.forward, self.inverse = _fft, _ifft
        self._u = np.empty(n, float if spec.is_real else complex)
        mask = (np.abs(xi) <= cfg.dealias * grid.xi_max + 1e-12).astype(float)
        dt = cfg.dt
        phase = spec._half_phase if spec.is_real else spec.group_phase  # on xi's lattice
        # a phase that leaves the float range fails the first step (see evolve)
        with np.errstate(over="ignore", invalid="ignore"):
            self.E = phase(grid.xi, dt / 2.0)   # half-step linear flow
            self.E2 = phase(grid.xi, dt)
        self.dtE = dt * self.E
        self.twoE = 2.0 * self.E
        if spec.is_real:
            self.power = spec.k + 1
            self.multiplier = -(1j * xi) * mask / float(self.power)
        else:
            self.multiplier = (-1j * spec.mu) * mask

    def nonlinear_hat(self, u_hat: np.ndarray) -> np.ndarray:
        """The nonlinear term's coefficients, a new array on each call."""
        u = self._u
        if u.shape[:-1] != u_hat.shape[:-1]:  # a block of rows takes its own buffer
            u = self._u = np.empty(u_hat.shape[:-1] + u.shape[-1:], u.dtype)
        u = self.inverse(u_hat, u)
        if self.spec.model == "nls":
            w = np.abs(u) ** (self.spec.a - 1.0) * u
        else:
            w = _power(u, self.power)
        w_hat = self.forward(w)
        return np.multiply(self.multiplier, w_hat, out=w_hat)

    def step(self, u_hat: np.ndarray) -> np.ndarray:
        """One RK4 step from ``u_hat``, left unchanged, to a new array.  The
        stages are formed in place, each product with its operands in the
        order of the formula (complex multiplication is not bitwise
        commutative in numpy), so the step is bitwise

            s1 = E*(u_hat + dt/2*n1),  s2 = E*u_hat + dt/2*n2,
            s3 = E2*u_hat + dt*E*n3,
            E2*u_hat + dt/6*(E2*n1 + 2*E*(n2 + n3) + n4)."""
        dt, E = self.cfg.dt, self.E
        E2u = self.E2 * u_hat
        n1 = self.nonlinear_hat(u_hat)
        s = 0.5 * dt * n1
        np.add(u_hat, s, out=s)
        n2 = self.nonlinear_hat(np.multiply(E, s, out=s))
        np.multiply(0.5 * dt, n2, out=s)
        n3 = self.nonlinear_hat(np.add(E * u_hat, s, out=s))
        np.multiply(self.dtE, n3, out=s)
        n4 = self.nonlinear_hat(np.add(E2u, s, out=s))
        np.add(n2, n3, out=n2)
        np.multiply(self.twoE, n2, out=n2)
        np.multiply(self.E2, n1, out=n1)
        np.add(n1, n2, out=n1)
        np.add(n1, n4, out=n1)
        np.multiply(dt / 6.0, n1, out=n1)
        return np.add(E2u, n1, out=n1)

    def cfl_ratio(self, values: np.ndarray) -> float:
        """dt over the transport heuristic h / (pi max|u|)."""
        return self.cfg.dt * np.pi * float(np.max(np.abs(values))) / self.grid.h


def _power(u: np.ndarray, p: int) -> np.ndarray:
    """``u**p`` for an integer p >= 2 as the product ((u*u)*u)..., one
    multiply per factor: numpy's integer power calls pow for each sample."""
    w = u * u
    for _ in range(p - 2):
        w *= u
    return w


def check_times(T: float, snapshot_times, dt: float) -> None:
    """Raise ValueError unless T is finite and nonnegative, T/dt is finite
    (and not bounded), a positive T is at least one step of dt once rounded,
    and every snapshot time lies in [0, T]; the rule of :func:`evolve`."""
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"final time must be finite and nonnegative, got T={T}")
    if not np.isfinite(T / dt):
        raise ValueError(f"final time T={T:g} takes no finite count of steps of dt={dt:g}")
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
    ``(field, t) -> dict of named reals``, applied to the recorded
    snapshots after the march.  A step that yields a non-finite value ends
    the run: the trajectory keeps the snapshots before it and
    ``failure_time`` marks it, with no numpy warning and no raise.

    gKdV and BO evolve real fields: data whose imaginary part exceeds
    1e-10 of max|u| raises ValueError, and below that the real part is
    evolved, so every snapshot is real.
    """
    if snapshot_times is None:
        snapshot_times = [0.0, T]
    elif len(snapshot_times) == 0:
        raise ValueError("snapshot_times is empty; pass None to record t = 0 and T")
    check_times(T, snapshot_times, cfg.dt)
    g = u0.grid
    values = real_values(u0, f"the {spec.model} flow") if spec.is_real else u0.values
    n_steps = int(round(T / cfg.dt))
    snap_steps = sorted({min(max(int(round(t / cfg.dt)), 0), n_steps) for t in snapshot_times})

    stepper = _Stepper(g, spec, cfg)
    u_hat = stepper.forward(values)
    # the transport heuristic at t = 0 and at every snapshot; one warning
    # names the worst violation
    cfl_worst, cfl_time = stepper.cfl_ratio(values), 0.0
    times, snaps, failure_time, step = [], [], None, 0
    # an overflow or invalid value in a step reaches u_hat, where the
    # finiteness test ends the run: the failure marker is its one report
    with np.errstate(over="ignore", invalid="ignore"):
        for target in snap_steps:
            while step < target:
                u_hat = stepper.step(u_hat)
                step += 1
                if not np.isfinite(u_hat).all():
                    failure_time = step * cfg.dt
                    break
            if failure_time is not None:
                break
            t = step * cfg.dt
            fld = Field(g, stepper.inverse(u_hat) if step else np.array(values, dtype=complex))
            ratio = stepper.cfl_ratio(fld.values)
            if ratio > cfl_worst:
                cfl_worst, cfl_time = ratio, t
            times.append(t)
            snaps.append(fld)
    if cfl_worst > 1.0:
        warnings.warn(
            f"dt={cfg.dt:.3g} exceeds the transport heuristic h/(pi max|u|) "
            f"by {cfl_worst:.3g}x at t={cfl_time:.6g}",
            CFLWarning,
            stacklevel=2,
        )

    diag = {}
    if diagnostics is not None and snaps:
        rows = [diagnostics(fld, t) for fld, t in zip(snaps, times)]
        diag = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return Trajectory(
        spec=spec,
        times=np.array(times),
        snapshots=snaps,
        diagnostics=diag,
        failure_time=failure_time,
    )
