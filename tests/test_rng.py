import random

import pytest

from bbt.rng import _LANES, _UNIT, BlockDraw, CounterRng, draw


def test_draw_is_pure():
    assert draw(42, 3, 17) == draw(42, 3, 17)


def test_streams_and_indices_decorrelate():
    values = {draw(42, stream, index) for stream in range(4) for index in range(4)}
    assert len(values) == 16


def test_range():
    assert all(0.0 <= draw(7, 0, i) < 1.0 for i in range(1000))


def test_counter_rng_matches_draw():
    rng = CounterRng(9, stream=2)
    assert [rng.random() for _ in range(5)] == [draw(9, 2, i) for i in range(5)]


@pytest.mark.parametrize("seed,stream", [(0, 0), (123456789, 7), (42, 1 << 40), ((1 << 64) + 5, 3)])
def test_counter_rng_is_bit_identical_to_draw(seed, stream):
    rng = CounterRng(seed, stream)
    assert [rng.random() for _ in range(1000)] == [draw(seed, stream, i) for i in range(1000)]


def test_rough_uniformity():
    n = 20000
    mean = sum(draw(1234, 0, i) for i in range(n)) / n
    assert abs(mean - 0.5) < 0.01


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5, -(2**70)])
@pytest.mark.parametrize("size", [1, _LANES - 1, _LANES, _LANES + 1])
def test_block_draw_lanes_are_bit_identical_to_draw(seed, size):
    rng = random.Random(size)
    # streams outside [0, 2**64) are masked to 64 bits, as draw() does
    special = [0, -3, 2**64 - 1, 2**64 + 7]
    streams = (special + [rng.getrandbits(66) for _ in range(size)])[:size]
    block = BlockDraw(seed, streams)
    # lanes kept once: a subset out of order; kept twice: a subset of that
    once = rng.sample(range(size), (size + 1) // 2)
    twice = rng.sample(range(len(once)), (len(once) + 1) // 2)
    kept_once = block.keep(once)
    for draws, drawn in (
        (block, streams),
        (kept_once, [streams[p] for p in once]),
        (kept_once.keep(twice), [streams[once[p]] for p in twice]),
    ):
        for tick in (0, 1, 2**63 + 5, 2**64 + 3):
            words = draws.words(tick)
            assert len(words) == len(drawn)
            got = [word * _UNIT for word in words]
            assert got == [draw(seed, stream, tick) for stream in drawn], (seed, size, tick)

