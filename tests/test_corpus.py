"""The lattice sampler of the corpus's wave packets against the per-mode
closure it replaced, which stays here as the oracle, and the boundary gate
of a realized member."""

import numpy as np
import pytest

from dispersivelab.corpus import (
    NAMED_FIELDS,
    Corpus,
    CorpusMember,
    WavePacket,
    _realize_blocks,
    initial_data,
    sech2,
)
from dispersivelab.spectral import BLOCK_SAMPLES, Grid

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


@pytest.mark.parametrize("n,L", [(512, 20.0), (4096, 20.0), (8192, 20.0)])
def test_realized_blocks_are_the_members_realized_one_by_one(n, L):
    grid = Grid(n, L)
    corpus = Corpus(seed=101, size=9)
    blocks = list(corpus.realize(grid))
    assert [len(b.values) for b in blocks[:-1]] == [BLOCK_SAMPLES // n] * (len(blocks) - 1)
    rows = np.concatenate([b.values for b in blocks])
    assert rows.shape == (len(corpus), n)
    for row, m in zip(rows, corpus.members):
        assert row.tobytes() == m.realize(grid).values.tobytes(), m.name


def _gate_error(member, grid) -> str:
    with pytest.raises(ValueError) as exc:
        member.realize(grid)
    return str(exc.value)


# on [-10, 10) the Gaussian and its derivative clear the gate and sech^2,
# 6e-8 of its peak at |x| = 9, does not
GAUSS, DERIV = NAMED_FIELDS["gaussian"], NAMED_FIELDS["gaussian_deriv"]
WIDE = [CorpusMember(f"wide_{i}", NAMED_FIELDS["sech2"].fn) for i in range(3)]


@pytest.mark.parametrize(
    "n, members",
    [
        (64, [GAUSS, DERIV, WIDE[0]]),                  # the last row of one block
        (64, [GAUSS, WIDE[1], DERIV, WIDE[2]]),          # the first of two failing rows
        (8192, [GAUSS, DERIV, GAUSS, WIDE[0]]),          # the last row of the second block
        (8192, [GAUSS, DERIV, WIDE[2], WIDE[1], GAUSS]),  # the first row of the second block
    ],
)
def test_block_gate_raises_the_first_failing_members_error(n, members):
    grid = Grid(n, 10.0)
    first = next(m for m in members if m.name.startswith("wide"))
    with pytest.raises(ValueError) as exc:
        list(_realize_blocks(members, grid))
    assert str(exc.value) == _gate_error(first, grid)
    assert str(exc.value).startswith(f"corpus member {first.name!r} at scale=1 fails")


@pytest.mark.parametrize(
    "fn, shape",
    [(lambda x: 1.0, "()"), (lambda x: x[:-1], "(63,)"), (lambda x: np.exp(-x[None] ** 2), "(1, 64)")],
    ids=["<lambda>0", "<lambda>1", "<lambda>2"],
)
def test_a_member_that_is_not_n_values_raises_its_own_error(fn, shape):
    """From either door, alone or inside a block: a (1, n) sample is not a
    block of one row either."""
    grid = Grid(64, 10.0)
    bad = CorpusMember("bad", fn)
    for door in (lambda: bad.realize(grid), lambda: list(_realize_blocks([GAUSS, bad, DERIV], grid))):
        with pytest.raises(ValueError) as exc:
            door()
        assert str(exc.value) == f"expected 64 samples, got shape {shape}"


def test_sech2_keeps_its_bits_where_cosh_overflows():
    """sech2 beyond |x| ~ 355, where cosh(x)^2 overflows to inf and its
    reciprocal to the exact 0, gives the samples of the plain formula with
    no RuntimeWarning."""
    x = np.array([0.0, 1.5, 355.0, 356.0, 710.0, 711.0, -400.0, -1e300])
    with np.errstate(over="ignore"):
        want = 1.0 / np.cosh(x) ** 2
    assert sech2(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
def test_field_out_of_float_range_names_the_cell(name):
    """A cell on which a field's formula overflows (x^2 beyond 1.8e308 for the
    Gaussian, the polynomial of a wave packet) raises the member's error,
    naming the cell, from every door a field enters by; sech2 handles its
    own overflow and samples to zeros."""
    grid = Grid(64, 1e300)
    want = f"corpus member {name!r} at scale=1 leaves the float range on the cell L=1e+300"
    member = NAMED_FIELDS[name]
    doors = (
        lambda: member.realize(grid),
        lambda: list(_realize_blocks([member], grid)),
        lambda: initial_data(name, grid),
    )
    for door in doors:
        if name == "sech2":
            door()
            continue
        with pytest.raises(ValueError) as exc:
            door()
        assert str(exc.value) == want
    packet = Corpus(size=1).members[0]
    with pytest.raises(ValueError, match=r"^corpus member 'rand_cplx_0' at scale=1 leaves the float"):
        list(_realize_blocks([packet], grid))
