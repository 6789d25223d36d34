"""Counter-based pseudo-random numbers for reproducible sampling.

Every draw is a pure function of ``(seed, stream, index)``, so independent
runs (and, if needed, workers) can compute draws without sharing state.
Mixing is the splitmix64 finalizer (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).

:func:`draw` and :class:`CounterRng` are the reference definition.
``bbt exec`` computes the same words inline, one loop for every run
(:meth:`bbt.classic.ClassicRuns.statuses`): run *r*'s draw at tick *t* is
``draw(seed, r, t)``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_UNIT = 1.0 / (1 << 53)


def _mix(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK64
    return x ^ (x >> 31)


def draw(seed: int, stream: int, index: int) -> float:
    """Uniform double in [0, 1) for draw ``index`` of ``stream`` under ``seed``."""
    word = _mix(_mix(_mix(seed & _MASK64) ^ (stream & _MASK64)) ^ (index & _MASK64))
    return (word >> 11) * _UNIT


class CounterRng:
    """``random()``-compatible source over one (seed, stream) pair.

    The first two mixing rounds of :func:`draw` depend on the seed and the
    stream only, so they are computed once here; every value equals
    ``draw(seed, stream, index)`` bit for bit.
    """

    __slots__ = ("seed", "stream", "index", "_base")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed
        self.stream = stream
        self.index = 0
        self._base = _mix(_mix(seed & _MASK64) ^ (stream & _MASK64))

    def random(self) -> float:
        word = _mix(self._base ^ (self.index & _MASK64))
        self.index += 1
        return (word >> 11) * _UNIT
