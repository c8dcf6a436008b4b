"""Conserved functionals, the weighted-energy identity, and moments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import sobolev, weighted_l2
from .operators import derivative, riesz_deriv
from .propagators import EquationSpec, Trajectory, _power
from .spectral import Field, _one_row, _per_row, integrate, real_values

__all__ = [
    "invariants",
    "InvariantReport",
    "invariant_report",
    "kato_residual",
    "moment",
    "standard_diagnostics",
]

def invariants(f: Field, spec: EquationSpec) -> dict:
    """The model's conserved functionals evaluated on one snapshot, or on
    each row of a block.

    NLS: mass int |u|^2 and energy int (|u_x|^2 + 2 mu/(a+1) |u|^(a+1)).
    gKdV: I1 = int u, I2 = int u^2,
          I3 = int ((u_x)^2 - 2 u^(k+2) / ((k+1)(k+2))).
    BO:   I1, I2 as above and I3 = int (|D^(1/2) u|^2 + u^3 / 3).

    The sign of the BO cubic term follows this package's conventions
    (H = -i sgn(xi), equation u_t + H u_xx + u u_x = 0):
    u_t = d/dx dE/du for E = -I3/2, so I3 is exactly conserved; under the
    opposite Hilbert-transform sign the cubic term flips.

    A density or an integral that overflows raises ValueError naming the
    model, the invariant and max|u|, with no numpy warning.
    """
    g = f.grid

    def total(name: str, dens: np.ndarray):
        """The integral of the density ``dens`` of the invariant ``name``."""
        value = integrate(Field(g, dens)).real if np.isfinite(dens).all() else np.inf
        if not np.isfinite(value).all():
            raise ValueError(
                f"the {spec.model} invariant {name} overflows at "
                f"max|u|={np.max(np.abs(f.values)):.3g}"
            )
        return value

    with np.errstate(over="ignore", invalid="ignore"):  # total names an overflow
        if spec.model == "nls":
            mass = total("mass", np.abs(f.values) ** 2)
            ux = derivative(f, 1)
            dens = np.abs(ux.values) ** 2 + (2.0 * spec.mu / (spec.a + 1.0)) * np.abs(
                f.values
            ) ** (spec.a + 1.0)
            return {"mass": mass, "energy": total("energy", dens)}

        u = real_values(f, f"{spec.model} invariants")
        rf = Field(g, u.astype(complex))
        i1 = total("I1", rf.values)
        i2 = total("I2", u**2)
        if spec.model == "gkdv":
            k = spec.k
            ux = derivative(rf, 1).values.real
            dens = ux**2 - 2.0 * _power(u, k + 2) / ((k + 1.0) * (k + 2.0))
        else:
            half = riesz_deriv(rf, 0.5).values
            dens = np.abs(half) ** 2 + _power(u, 3) / 3.0
        return {"I1": i1, "I2": i2, "I3": total("I3", dens)}


@dataclass
class InvariantReport:
    """Invariant values along a trajectory with their drifts from t = 0,
    one column per row of a block trajectory.

    The drift of a name is relative, |v(t) - v(0)| / |v(0)|, unless v(0) is
    at roundoff (|v(0)| <= EPS, e.g. I1 of mean-free data): a relative
    figure would then divide by noise, so the drift is the absolute change
    |v(t) - v(0)|.  ``kind`` records which of the two each name uses: a
    string for one row, a list of one per row for a block.
    """

    names: list
    values: dict      # name -> array over snapshots (by rows for a block)
    drift: dict       # name -> drift array over snapshots (by rows for a block)
    kind: dict        # name -> 'relative' | 'absolute', or a list of them per row

    EPS = 1e-14

    def max_drift(self, name: str):
        """The largest drift of ``name``: a Python number for one row, one
        value per row for a block."""
        worst = np.max(self.drift[name], axis=0)
        return worst.item() if worst.ndim == 0 else worst


def invariant_report(traj: Trajectory) -> InvariantReport:
    """The invariants of every snapshot of ``traj``, which needs at least one."""
    if not traj.snapshots:
        cause = f": its run failed at t={traj.failure_time:g}" if traj.failed else ""
        raise ValueError(f"invariant_report needs a snapshot, and the trajectory has none{cause}")
    rows = [invariants(s, traj.spec) for s in traj.snapshots]
    names = list(rows[0])
    values = {k: np.array([r[k] for r in rows]) for k in names}
    absolute = {k: np.abs(v[0]) <= InvariantReport.EPS for k, v in values.items()}
    kind = {
        k: np.where(a, "absolute", "relative").tolist() for k, a in absolute.items()
    }
    drift = {
        k: np.abs(v - v[0]) / np.where(absolute[k], 1.0, np.abs(v[0]))
        for k, v in values.items()
    }
    return InvariantReport(names, values, drift, kind)


def kato_residual(traj: Trajectory, phi: Field, *, nonlinear: bool = True) -> np.ndarray:
    """Residual of the weighted-energy identity along a gKdV trajectory.

    At every interior snapshot (uniform spacing dt) the centered difference
    of int u^2 phi is combined with the three spatial terms:

        d/dt int u^2 phi + 3 int (u_x)^2 phi' - int u^2 phi'''
                         - 2/(k+2) int u^(k+2) phi'  =  0.

    ``nonlinear=False`` drops the u^(k+2) term, the identity satisfied by
    the linear flow (:func:`dispersivelab.propagators.linear_group`).  The
    returned sequence decays like O(dt^2) from the time difference; the
    spatial terms are spectrally exact.  A block trajectory gives one
    residual column per row.  The degree k is ``traj.spec.k``, the model
    must be gKdV, and ``phi`` one real field on the trajectory's grid.
    """
    if traj.spec.model != "gkdv":
        raise ValueError(f"the weighted-energy identity is gKdV's, not {traj.spec.model}'s")
    _one_row(phi, "kato_residual")
    times = traj.times
    if len(times) < 3:
        raise ValueError("the residual needs at least 3 snapshots")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])

    g = traj.snapshots[0].grid
    if phi.grid is not g and phi.grid != g:
        raise ValueError(f"the weight phi is on {phi.grid}, the trajectory on {g}")
    k = traj.spec.k
    pv = real_values(phi, "the weight phi of the weighted-energy identity")
    phi1 = derivative(phi, 1).values.real
    phi3 = derivative(phi, 3).values.real

    weighted = []
    spatial = []
    for snap in traj.snapshots:
        u = real_values(snap, "the weighted-energy identity")
        ux = derivative(Field(g, u.astype(complex)), 1).values.real
        weighted.append(g.h * np.sum(u**2 * pv, axis=-1))
        term = 3.0 * g.h * np.sum(ux**2 * phi1, axis=-1) - g.h * np.sum(u**2 * phi3, axis=-1)
        if nonlinear:
            term -= (2.0 / (k + 2.0)) * g.h * np.sum(_power(u, k + 2) * phi1, axis=-1)
        spatial.append(term)
    weighted = np.array(weighted)
    spatial = np.array(spatial)
    ddt = (weighted[2:] - weighted[:-2]) / (2.0 * dt)
    return ddt + spatial[1:-1]


def moment(f: Field, j: int) -> complex:
    """j-th moment integral of x^j f(x); moment(f, 0) equals fhat(0).  No
    boundary gate runs here: callers run
    :func:`dispersivelab.spectral.boundary_gate` where a field enters."""
    if j < 0 or j != int(j):
        raise ValueError(f"moment order must be a nonnegative integer, got j={j}")
    g = f.grid
    return _per_row(f, g.h * np.sum(g.x**j * f.values, axis=-1))


def standard_diagnostics(spec: EquationSpec, s: float | None = None, m: float | None = None):
    """Diagnostics callback for :func:`dispersivelab.propagators.evolve`.

    Always records the invariants; optionally the H^s and |x|^m / <x>^m
    norms used by the persistence experiments.  A non-finite ``s``, or an
    ``m`` that is not finite and >= 0, raises ValueError here, before any
    step is taken.
    """
    if s is not None and not np.isfinite(s):
        raise ValueError(f"Sobolev index must be finite, got s={s}")
    if m is not None and not (np.isfinite(m) and m >= 0):
        raise ValueError(f"weight exponent must be finite and >= 0, got m={m}")

    def compute(fld: Field, t: float) -> dict:
        out = dict(invariants(fld, spec))
        if s is not None:
            out[f"sobolev_{s:g}"] = sobolev(fld, s)
        if m is not None:
            out[f"weighted_{m:g}"] = weighted_l2(fld, m)
            out[f"weighted_bracket_{m:g}"] = weighted_l2(fld, m, bracket=True)
        return out

    return compute
