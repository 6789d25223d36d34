"""Counter-based pseudo-random numbers for reproducible sampling.

Every draw is a pure function of ``(seed, stream, index)``, so independent
runs (and, if needed, workers) can compute draws without sharing state.
Mixing is the splitmix64 finalizer (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).

:func:`draw` and :class:`CounterRng` are the reference definition.
:class:`BlockDraw` computes the same words for a block of streams at once,
one tick at a time: each stream's state is a 128-bit lane of one int, and
one finalizer over that int mixes every lane.  ``bbt exec`` reads its runs'
draws from it, :data:`_LANES` runs per block, packing anew the runs still
running as the others end (:meth:`bbt.classic.ClassicRuns.statuses`): run
*r*'s draw at tick *t* is ``draw(seed, r, t)`` in any block and packing.
"""

from __future__ import annotations

import sys

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


# Streams per block that ClassicRuns.statuses reads at a time.  A block runs
# tick by tick and mixes, at each tick one of its runs draws at, fewer than
# twice the lanes still running; it keeps one tick's words at a time.
# Larger blocks mean fewer big-int operations and fewer group steps per
# run, but more runs' states held at once.
_LANES = 512
# each lane is 16 bytes: the 64-bit state, then 64 bits of headroom
_LANE_ONE = (1).to_bytes(16, "little")
# the low 64-bit word of every lane, among a lane int's native 64-bit words
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


class BlockDraw:
    """The draws of a block of streams under one seed, one tick at a time.

    ``words(tick)[i] * _UNIT == draw(seed, streams[i], tick)`` bit for bit.
    Stream *i*'s state sits in bits ``[128 i, 128 i + 64)`` of one int, its
    lane.  Adding 64-bit values or multiplying one by a 64-bit constant
    stays inside a lane's 128 bits, and masking the low 64 bits of every
    lane after each step drops what a shift brings in from the next lane,
    so each step of the splitmix64 finalizer is one big-int operation on
    every lane at once.  The seed, the streams and the tick are masked to
    64 bits as in :func:`draw`.
    """

    __slots__ = ("_bases", "_ones", "_golden", "_mask", "_size")

    def __init__(self, seed: int, streams: list[int]):
        self._ones = ones = int.from_bytes(_LANE_ONE * len(streams), "little")
        self._golden = ones * _GOLDEN
        self._mask = ones * _MASK64
        self._size = 16 * len(streams)
        packed = int.from_bytes(
            b"".join([(stream & _MASK64).to_bytes(16, "little") for stream in streams]), "little"
        )
        # lane i: _mix(_mix(seed) ^ stream i), the CounterRng base of stream i
        self._bases = self._mix_lanes(packed ^ ones * _mix(seed & _MASK64))

    def _mix_lanes(self, x: int) -> int:
        """:func:`_mix` of every lane's low 64 bits, whatever lies above them.

        Each lane's bits 64-96 of the result are zero; its bits 97-127 hold
        the next lane's low bits.
        """
        golden, mask = self._golden, self._mask
        x = (x + golden) & mask
        x = ((x ^ (x >> 30)) & mask) * _MUL1 & mask
        x = ((x ^ (x >> 27)) & mask) * _MUL2 & mask
        return x ^ (x >> 31)

    def words(self, tick: int) -> list[int]:
        """The 53-bit word (``word >> 11``) of every stream's draw at ``tick``."""
        x = self._mix_lanes(self._bases ^ self._ones * (tick & _MASK64)) >> 11
        # a lane's low word after the shift takes its bits 11-74, and 64-74 are zero
        return memoryview(x.to_bytes(self._size, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()
