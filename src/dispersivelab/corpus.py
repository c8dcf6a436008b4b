"""Reproducible field corpora for the verification harness.

A member can be realized on any grid, at a dilated argument f(lambda x), or
on a refined grid, which is what the scale- and refinement-stability
protocols need.  The named fields are plain functions of x, held in one
table, ``NAMED_FIELDS``; :func:`initial_data` scales one of them into the
initial data of a run or a check.  A random member is a parameter record
(Gaussian envelope x low-order polynomial x random oscillations) that is
sampled on the lattice: its oscillations cost a few complex exponentials per
block of points, not one per point and mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import Field, _require_gate

__all__ = [
    "CorpusMember",
    "WavePacket",
    "Corpus",
    "DEFAULT_SEED",
    "NAMED_FIELDS",
    "initial_data",
    "gaussian",
    "sech2",
    "gaussian_deriv",
]

DEFAULT_SEED = 0x5EED
_BLOCK = 64  # lattice points per block of a wave packet's phase tables


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

    def sample(self, grid, scale: float = 1.0) -> np.ndarray:
        """The member's values at the points ``scale * grid.x``."""
        return self.fn(scale * grid.x)

    def realize(self, grid, scale: float = 1.0) -> Field:
        """Sample the member, optionally dilated to f(scale * x).  A field
        that fails the boundary gate raises ValueError."""
        f = Field(grid, np.asarray(self.sample(grid, scale), dtype=np.complex128))
        _require_gate(f, f"corpus member {self.name!r} at scale={scale:g}")
        return f


# the named canonical fields, by name
NAMED_FIELDS = {
    fn.__name__: CorpusMember(fn.__name__, fn) for fn in (gaussian, sech2, gaussian_deriv)
}


def initial_data(name: str, grid, amplitude: float = 1.0) -> Field:
    """``amplitude`` times the named field on ``grid``.  It is not gated, since
    a solve takes any data; the checks gate a named field where it enters,
    through :meth:`CorpusMember.realize` or ``persistence_experiment``.  An
    unknown name or a non-finite amplitude raises ValueError."""
    if name not in NAMED_FIELDS:
        raise ValueError(f"unknown initial data {name!r}; available: {sorted(NAMED_FIELDS)}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got amplitude={amplitude}")
    return Field(grid, amplitude * np.asarray(NAMED_FIELDS[name].fn(grid.x), dtype=complex))


@dataclass(frozen=True, eq=False)
class WavePacket(CorpusMember):
    """The random member  e^{-(x/w)^2} (1 + p(x)) (1 + sum_m a_m e^{i k_m x}),
    p(x) = poly[0] + poly[1] x + poly[2] x^2, held as its parameters.

    It is sampled on lattices only.  The points x_j = scale (-L + j h) fall
    in blocks of B, each anchored at its end nearer x = 0: x_j = x_a + d h
    scale with |x_a| <= |x_j| and |d| <= B.  Each mode then factors as
    e^{i k x_a} e^{i k d h scale}: on each side of x = 0 the oscillation
    sum is a rank-4 product of an (n/2B x 4) and a (4 x B) table, n/B + 2B
    exponentials per mode in place of n, and no phase argument exceeds
    |k x_j|."""

    fn: None = field(default=None, init=False, repr=False)  # no function of x: see sample
    w: float
    poly: np.ndarray
    ks: np.ndarray
    amps: np.ndarray

    def sample(self, grid, scale: float = 1.0) -> np.ndarray:
        x = scale * grid.x
        block = min(_BLOCK, grid.n // 2)
        half = grid.n // (2 * block)          # blocks per side of x = 0
        starts = x[::block]                   # starts[half] = x_{n/2} = 0
        anchors = np.concatenate((starts[1 : half + 1], starts[half:]))
        hi = self.amps * np.exp(1j * np.multiply.outer(anchors, self.ks))
        steps = scale * grid.h * np.arange(-block, block)
        lo = np.exp(1j * np.multiply.outer(self.ks, steps))
        # left blocks step back from their right ends, right blocks forward
        osc = np.concatenate((hi[:half] @ lo[:, :block], hi[half:] @ lo[:, block:]))
        env = np.exp(-((x / self.w) ** 2))
        p = self.poly[0] + self.poly[1] * x + self.poly[2] * x**2
        return env * (1.0 + p) * (1.0 + osc.ravel())


def _random_member(rng, idx: int) -> WavePacket:
    w = rng.uniform(1.0, 1.5)
    poly = rng.normal(size=3) * np.array([1.0, 0.5, 0.125])
    n_modes = 4
    ks = rng.uniform(0.3, 3.0, size=n_modes)
    amps = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    return WavePacket(f"rand_cplx_{idx}", w=w, poly=poly, ks=ks, amps=amps)


class Corpus:
    """Seeded corpus: ``size`` random band-limited members, then the named
    canonical fields of ``NAMED_FIELDS``."""

    def __init__(self, seed: int = DEFAULT_SEED, size: int = 20):
        if size < 0:
            raise ValueError(f"corpus size must be nonnegative, got corpus_size={size}")
        if seed < 0:
            raise ValueError(f"corpus seed must be nonnegative, got seed={seed}")
        self.seed = seed
        self.size = size
        rng = np.random.default_rng(seed)
        self.members = [_random_member(rng, i) for i in range(size)] + list(NAMED_FIELDS.values())

    def realize(self, grid):
        """Every member's field on ``grid``, in member order."""
        return [m.realize(grid) for m in self.members]

    def __len__(self):
        return len(self.members)
