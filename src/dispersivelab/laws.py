"""Conserved functionals, the weighted-energy identity, and moments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import sobolev, weighted_l2
from .operators import derivative, riesz_deriv
from .propagators import EquationSpec, Trajectory
from .spectral import Field, integrate, real_values

__all__ = [
    "invariants",
    "InvariantReport",
    "invariant_report",
    "kato_residual",
    "moment",
    "standard_diagnostics",
]

def invariants(f: Field, spec: EquationSpec) -> dict:
    """The model's conserved functionals evaluated on one snapshot.

    NLS: mass int |u|^2 and energy int (|u_x|^2 + 2 mu/(a+1) |u|^(a+1)).
    gKdV: I1 = int u, I2 = int u^2,
          I3 = int ((u_x)^2 - 2 u^(k+2) / ((k+1)(k+2))).
    BO:   I1, I2 as above and I3 = int (|D^(1/2) u|^2 + u^3 / 3).

    The sign of the BO cubic term follows this package's conventions
    (H = -i sgn(xi), equation u_t + H u_xx + u u_x = 0):
    u_t = d/dx dE/du for E = -I3/2, so I3 is exactly conserved; under the
    opposite Hilbert-transform sign the cubic term flips.
    """
    g = f.grid
    if spec.model == "nls":
        mass = float(np.real(integrate(Field(g, np.abs(f.values) ** 2))))
        ux = derivative(f, 1)
        dens = np.abs(ux.values) ** 2 + (2.0 * spec.mu / (spec.a + 1.0)) * np.abs(
            f.values
        ) ** (spec.a + 1.0)
        energy = float(np.real(integrate(Field(g, dens))))
        return {"mass": mass, "energy": energy}

    u = real_values(f, f"{spec.model} invariants")
    rf = Field(g, u.astype(complex))
    i1 = float(np.real(integrate(rf)))
    i2 = float(np.real(integrate(Field(g, u**2))))
    if spec.model == "gkdv":
        k = spec.k
        ux = derivative(rf, 1).values.real
        dens = ux**2 - 2.0 * u ** (k + 2) / ((k + 1.0) * (k + 2.0))
    else:
        half = riesz_deriv(rf, 0.5).values
        dens = np.abs(half) ** 2 + u**3 / 3.0
    i3 = float(np.real(integrate(Field(g, dens))))
    return {"I1": i1, "I2": i2, "I3": i3}


@dataclass
class InvariantReport:
    """Invariant values along a trajectory with their drifts from t = 0.

    The drift of a name is relative, |v(t) - v(0)| / |v(0)|, unless v(0) is
    at roundoff (|v(0)| <= EPS, e.g. I1 of mean-free data): a relative
    figure would then divide by noise, so the drift is the absolute change
    |v(t) - v(0)|.  ``kind`` records which of the two each name uses.
    """

    names: list
    values: dict      # name -> array over snapshots
    drift: dict       # name -> drift array over snapshots
    kind: dict        # name -> 'relative' | 'absolute'

    EPS = 1e-14

    def max_drift(self, name: str) -> float:
        return float(np.max(self.drift[name]))


def invariant_report(traj: Trajectory) -> InvariantReport:
    rows = [invariants(s, traj.spec) for s in traj.snapshots]
    names = list(rows[0])
    values = {k: np.array([r[k] for r in rows]) for k in names}
    kind = {
        k: "absolute" if abs(v[0]) <= InvariantReport.EPS else "relative"
        for k, v in values.items()
    }
    drift = {
        k: np.abs(v - v[0]) / (1.0 if kind[k] == "absolute" else abs(v[0]))
        for k, v in values.items()
    }
    return InvariantReport(names, values, drift, kind)


def kato_residual(
    traj: Trajectory, phi: Field, k: int, *, nonlinear: bool = True
) -> np.ndarray:
    """Residual of the weighted-energy identity along a gKdV trajectory.

    At every interior snapshot (uniform spacing dt) the centered difference
    of int u^2 phi is combined with the three spatial terms:

        d/dt int u^2 phi + 3 int (u_x)^2 phi' - int u^2 phi'''
                         - 2/(k+2) int u^(k+2) phi'  =  0.

    ``nonlinear=False`` drops the u^(k+2) term, the identity satisfied by
    linear-only runs.  The returned sequence decays like O(dt^2) from the
    time difference; the spatial terms are spectrally exact.
    """
    times = traj.times
    if len(times) < 3:
        raise ValueError("the residual needs at least 3 snapshots")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("snapshots must be uniformly spaced in time")
    dt = float(dts[0])

    g = phi.grid
    phi1 = derivative(phi, 1).values.real
    phi3 = derivative(phi, 3).values.real
    pv = phi.values.real

    weighted = []
    spatial = []
    for snap in traj.snapshots:
        u = real_values(snap, "the weighted-energy identity")
        ux = derivative(Field(g, u.astype(complex)), 1).values.real
        weighted.append(g.h * np.sum(u**2 * pv))
        term = 3.0 * g.h * np.sum(ux**2 * phi1) - g.h * np.sum(u**2 * phi3)
        if nonlinear:
            term -= (2.0 / (k + 2.0)) * g.h * np.sum(u ** (k + 2) * phi1)
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
        raise ValueError(f"moment order must be a nonnegative integer, got {j}")
    g = f.grid
    return complex(g.h * np.sum(g.x**j * f.values))


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
