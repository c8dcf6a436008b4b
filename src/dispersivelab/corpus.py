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

from .spectral import Field, _gate_error, _row_blocks, boundary_gate

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
    with np.errstate(over="ignore"):  # cosh(x)^2 overflows to inf for |x| > ~355, where sech2 is 0
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
        """The member's field, optionally dilated to f(scale * x): the one
        row of :func:`_realize_blocks`, whose errors it raises."""
        return Field(grid, next(_realize_blocks([self], grid, scale)).values[0])

    def _gated_as(self, scale: float) -> str:
        """The member's name in a boundary-gate error at ``scale``."""
        return f"corpus member {self.name!r} at scale={scale:g}"


def _sampled(member: CorpusMember, grid, scale: float = 1.0) -> np.ndarray:
    """``member.sample(grid, scale)``, whose evaluation must stay in the
    float range: an overflow or invalid value in it, or a sample that is
    not finite, raises ValueError naming the member and the cell.  A member
    whose formula overflows to its exact value handles that itself
    (``sech2``)."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = member.sample(grid, scale)
            finite = np.isfinite(values).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValueError(
            f"{member._gated_as(scale)} leaves the float range on the cell L={grid.length:g}"
        )
    return values


# the named canonical fields, by name
NAMED_FIELDS = {
    fn.__name__: CorpusMember(fn.__name__, fn) for fn in (gaussian, sech2, gaussian_deriv)
}


def initial_data(name: str, grid, amplitude: float = 1.0) -> Field:
    """``amplitude`` times the named field on ``grid``.  It is not gated, since
    a solve takes any data; the checks gate a named field where it enters,
    through :func:`_realize_blocks` or ``persistence_experiment``.  An
    unknown name, a non-finite amplitude or a field that leaves the float
    range on the cell (``_sampled``) raises ValueError."""
    if name not in NAMED_FIELDS:
        raise ValueError(f"unknown initial data {name!r}; available: {sorted(NAMED_FIELDS)}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got amplitude={amplitude}")
    return Field(grid, amplitude * np.asarray(_sampled(NAMED_FIELDS[name], grid), dtype=complex))


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


def _require_corpus_keys(seed: int, size: int) -> None:
    """Raise ValueError naming a negative corpus seed or size."""
    if size < 0:
        raise ValueError(f"corpus size must be nonnegative, got corpus_size={size}")
    if seed < 0:
        raise ValueError(f"corpus seed must be nonnegative, got seed={seed}")


def _realize_blocks(members, grid, scale: float = 1.0):
    """The fields of ``members`` on ``grid``, dilated to f(scale * x), in
    member order, yielded as blocks of at most BLOCK_SAMPLES samples
    (``spectral._row_blocks``), so no block is held beyond its turn.  Each
    member is sampled into its row (``_sampled``), and the block is
    validated as one field and gated as one, a ratio per row: the one door
    where sampled data enters.  A member that is not n values or leaves
    the float range, and the first member that fails the gate, raise
    ValueError."""
    for block in _row_blocks(len(members), grid.n):
        values = np.empty((block.stop - block.start, grid.n), dtype=complex)
        for row, m in zip(values, members[block]):
            sample = _sampled(m, grid, scale)
            if np.shape(sample) != row.shape:  # a (1, n) sample would broadcast
                raise ValueError(f"expected {grid.n} samples, got shape {np.shape(sample)}")
            row[:] = sample
        f = Field(grid, values)
        ok, ratio = boundary_gate(f)
        if not ok.all():
            i = int(np.argmin(ok))
            raise _gate_error(grid, members[block][i]._gated_as(scale), ratio[i])
        yield f


class Corpus:
    """Seeded corpus: ``size`` random band-limited members, then the named
    canonical fields of ``NAMED_FIELDS``."""

    def __init__(self, seed: int = DEFAULT_SEED, size: int = 20):
        _require_corpus_keys(seed, size)
        self.seed = seed
        self.size = size
        rng = np.random.default_rng(seed)
        self.members = [_random_member(rng, i) for i in range(size)] + list(NAMED_FIELDS.values())

    def realize(self, grid):
        """Every member's field on ``grid``, in member order, as blocks of
        rows (see :func:`_realize_blocks`)."""
        return _realize_blocks(self.members, grid)

    def __len__(self):
        return len(self.members)
