"""The annealer's random stream: numpy's `default_rng(seed)`, draw for draw,
in plain Python integers.

`Pcg64(seed).random()` and `.integers(n)` return exactly what
`numpy.random.default_rng(seed).random()` and `.integers(n)` return, in any
interleaving. The stream is built from the same three algorithms:

- seeding by numpy's SeedSequence (after O'Neill's randutils `seed_seq_fe`):
  the seed's 32-bit words are hashed into a four-word pool, and the pool is
  hashed into four 64-bit words, the 128-bit PCG state and increment;
- PCG64, the XSL-RR 128/64 member of O'Neill's family (M. E. O'Neill, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation", HMC-CS-2014-0905): a 128-bit LCG step, then the
  high and low halves xor-ed and rotated by the top six bits;
- bounded integers by Lemire's multiply-and-reject (D. Lemire, "Fast Random
  Integer Generation in an Interval", ACM TOMACS 29(1), 2019) over the 32-bit
  halves of each 64-bit output, low half first, the high half buffered for
  the next 32-bit draw, as numpy's `random_bounded_uint64_fill` does for a
  range below 2**32.

numpy keeps each bit generator's raw stream stable across releases, but not
`Generator`'s distribution algorithms (NEP 19), so owning these steps pins
every seeded trace. It also keeps `numpy.random`'s import out of a run, and
a bounded draw here takes about a third of `Generator.integers`'s time.
tests/test_rng.py checks the stream against numpy.
"""

from __future__ import annotations

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's default 128-bit multiplier

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): four 64-bit words."""
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # little-endian pairs of 32-bit words
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """numpy's `default_rng(seed)` stream for `random()` and `integers(n)`;
    seed is an int >= 0."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be >= 0")
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        self._state = (self._inc + (s_hi << 64 | s_lo)) * _MULTIPLIER + self._inc & _MASK128
        self._half = None   # the buffered high half of the last 64-bit output

    def _next64(self) -> int:
        state = self._state = self._state * _MULTIPLIER + self._inc & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * 2.0 ** -53

    def _next32(self) -> int:
        """The low half of a new 64-bit output, or the buffered high half."""
        half = self._half
        if half is None:
            word = self._next64()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        """An int in [0, n), n in [1, 2**32]; n = 1 draws nothing."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        if n == 1:
            return 0
        if n == 1 << 32:
            return self._next32()
        product = self._next32() * n
        if product & _MASK32 < n:
            threshold = ((1 << 32) - n) % n   # 2**32 mod n: the biased low products
            while product & _MASK32 < threshold:
                product = self._next32() * n
        return product >> 32
