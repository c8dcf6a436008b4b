"""The lattice sampler of the corpus's wave packets against the per-mode
closure it replaced, which stays here as the oracle, and the boundary gate
of a realized member."""

import numpy as np
import pytest

from dispersivelab.corpus import NAMED_FIELDS, Corpus, WavePacket
from dispersivelab.spectral import Grid

SAMPLER_TOL = 1e-14  # |lattice - closure| <= SAMPLER_TOL * max|closure|, fixed before the switch


def _closure_oracle(member: WavePacket):
    # the former member: one complex exponential per point and mode
    def fn(x, w=member.w, poly=member.poly, ks=member.ks, amps=member.amps):
        env = np.exp(-((x / w) ** 2))
        p = poly[0] + poly[1] * x + poly[2] * x**2
        osc = sum(a * np.exp(1j * k * x) for a, k in zip(amps, ks))
        return env * (1.0 + p) * (1.0 + osc)

    return fn


@pytest.mark.parametrize("seed", [0x5EED, 101, 987654])
@pytest.mark.parametrize("n", [8, 512, 8192])
def test_wave_packet_lattice_sampler_matches_closure(seed, n):
    packets = [m for m in Corpus(seed=seed, size=6).members if isinstance(m, WavePacket)]
    assert len(packets) == 6
    for length in (1.0, 20.0, 160.0):
        g = Grid(n, length)
        for scale in (0.5, 1.0, 2.0):
            for m in packets:
                want = _closure_oracle(m)(scale * g.x)
                got = m.sample(g, scale)
                assert got.shape == want.shape
                dev = np.max(np.abs(got - want))
                assert dev <= SAMPLER_TOL * np.max(np.abs(want)), (m.name, length, scale, dev)


def test_realize_gates_the_member():
    # the Gaussian reads 6.78e-4 of its peak on the outer tenth of [-3, 3) at n = 1024
    gauss = NAMED_FIELDS["gaussian"]
    with pytest.raises(
        ValueError,
        match=r"^corpus member 'gaussian' at scale=1 fails the boundary gate on the cell "
        r"L=3: outer-cell ratio 6\.78e-04 >= 1e-10$",
    ):
        gauss.realize(Grid(1024, 3.0))
    wide = Grid(256, 6.0)
    with pytest.raises(ValueError, match="'gaussian' at scale=0.5 fails the boundary gate"):
        gauss.realize(wide, scale=0.5)
    np.testing.assert_array_equal(gauss.realize(wide).values, np.exp(-(wide.x**2)))
