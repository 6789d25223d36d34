import pytest

from bbt.rng import CounterRng, draw


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
