"""Reproducible field corpora for the verification harness.

Members are analytic closures (Gaussian envelope x low-order polynomial x
random oscillations), so the same member can be realized on any grid, at a
dilated argument f(lambda x), or on a refined grid, which is what the
scale- and refinement-stability protocols need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, boundary_gate

__all__ = ["CorpusMember", "Corpus", "DEFAULT_SEED", "gaussian", "sech2", "gaussian_deriv"]

DEFAULT_SEED = 0x5EED


def gaussian(x):
    return np.exp(-(x**2))


def sech2(x):
    return 1.0 / np.cosh(x) ** 2


def gaussian_deriv(x):
    return -2.0 * x * np.exp(-(x**2))


@dataclass(frozen=True)
class CorpusMember:
    name: str
    fn: object            # callable x -> complex values

    def realize(self, grid, scale: float = 1.0, *, check_gate: bool = True) -> Field:
        """Sample the member, optionally dilated to f(scale * x)."""
        vals = np.asarray(self.fn(scale * grid.x), dtype=np.complex128)
        f = Field(grid, vals)
        if check_gate:
            ok, ratio = boundary_gate(f)
            if not ok:
                raise ValueError(
                    f"corpus member {self.name!r} fails the boundary gate "
                    f"(ratio {ratio:.2e}) on L={grid.length}, scale={scale}"
                )
        return f


def _random_member(rng, idx: int) -> CorpusMember:
    w = rng.uniform(1.0, 1.5)
    poly = rng.normal(size=3) * np.array([1.0, 0.5, 0.125])
    n_modes = 4
    ks = rng.uniform(0.3, 3.0, size=n_modes)
    amps = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)

    def fn(x, w=w, poly=poly, ks=ks, amps=amps):
        env = np.exp(-((x / w) ** 2))
        p = poly[0] + poly[1] * x + poly[2] * x**2
        osc = sum(a * np.exp(1j * k * x) for a, k in zip(amps, ks))
        return env * (1.0 + p) * (1.0 + osc)

    return CorpusMember(f"rand_cplx_{idx}", fn)


class Corpus:
    """Seeded corpus: ``size`` random band-limited members, then the named
    canonical fields."""

    def __init__(self, seed: int = DEFAULT_SEED, size: int = 20):
        self.seed = seed
        self.size = size
        rng = np.random.default_rng(seed)
        named = [CorpusMember(fn.__name__, fn) for fn in (gaussian, sech2, gaussian_deriv)]
        self.members = [_random_member(rng, i) for i in range(size)] + named

    def realize(self, grid):
        return [(m, m.realize(grid)) for m in self.members]

    def __len__(self):
        return len(self.members)
