"""Deterministic randomness: SplitMix64 streams and unbiased shuffles.

Every sampler in the package draws from a SplitMix64 stream seeded by a
documented mixing of (master_seed, stream_index), so identical inputs give
byte-identical samples on any machine and any interpreter version.  No
platform RNG is involved.

SplitMix64 is counter-based: a stream in state s yields as its k-th word
(k = 1, 2, ...) the finalizer of s + k*GOLDEN (mod 2**64), a pure function
of s and k.  So a Fisher-Yates shuffle draws all of its words in one numpy
uint64 expression and stays bit-identical to drawing them one by one with
`next64`.  A word x is rejected for bound b exactly when
x >= 2**64 - (2**64 mod b), as `randbelow` does; an accepted word gives
x mod b.  On the first rejected word the vectorized draw keeps the accepted
prefix, counts the rejected word as consumed and resumes from the next
bound, so the state always ends advanced by the number of words used.
`next64` and `randbelow` remain the scalar definition.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x):
    """SplitMix64 finalizer (Steele/Lea/Flood); a 64-bit bijective mixer."""
    x = (x + GOLDEN) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _words(state, count):
    """The next `count` words of a stream in `state`, as a uint64 array."""
    with np.errstate(over="ignore"):
        z = np.uint64(state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        z = (z ^ (z >> 30)) * np.uint64(_MIX1)
        z = (z ^ (z >> 27)) * np.uint64(_MIX2)
        return z ^ (z >> 31)


def derive_seed(master_seed, index):
    """Seed for stream `index` of a run keyed by `master_seed`.

    Fixed for all time: mix the master seed, add (index+1) strides of the
    SplitMix64 golden increment, and mix again.  Streams for distinct
    indices are independent for all practical purposes.
    """
    m = splitmix64(master_seed & MASK64)
    return splitmix64((m + (index + 1) * GOLDEN) & MASK64)


class SeedStream:
    """A SplitMix64 sequence with unbiased integer and shuffle helpers."""

    def __init__(self, seed):
        self._state = seed & MASK64

    def next64(self):
        word = splitmix64(self._state)
        self._state = (self._state + GOLDEN) & MASK64
        return word

    def randbelow(self, n):
        """Uniform integer in [0, n) by rejection; no modulo bias."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"randbelow needs 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next64()
            if x < limit:
                return x % n

    def _randbelow_array(self, bounds):
        """[randbelow(b) for b in bounds] as a uint64 array, drawn in bulk.

        `bounds` is a uint64 array of values >= 1.
        """
        out = np.empty(len(bounds), dtype=np.uint64)
        done = 0
        while done < len(bounds):
            b = bounds[done:]
            w = _words(self._state, len(b))
            rem = (-b) % b  # 2**64 mod b
            rejected = np.flatnonzero((rem != 0) & (w >= -rem))
            take = int(rejected[0]) if rejected.size else len(b)
            out[done:done + take] = w[:take] % b[:take]
            used = take + (1 if rejected.size else 0)
            self._state = (self._state + used * GOLDEN) & MASK64
            done += take
        return out

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        js = self._randbelow_array(np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n):
        """Uniform permutation of range(n) as a list: i -> perm[i]."""
        if n < 0:
            raise ValueError(f"permutation needs n >= 0, got {n}")
        return self.shuffle(list(range(n)))

    def single_cycle(self, n):
        """Uniform permutation with one cycle of length n (n >= 2), as a list.

        Shuffle an ordering and close it into a cycle; each of the (n-1)!
        n-cycles arises from exactly n orderings.
        """
        order = np.array(self.permutation(n), dtype=np.int64)
        pi = np.empty(n, dtype=np.int64)
        pi[order] = np.roll(order, -1)
        return pi.tolist()

    def perfect_matching(self, n):
        """Uniform fixed-point-free involution of range(n), n even, as a list."""
        if n % 2:
            raise ValueError(f"perfect_matching needs even n, got {n}")
        return _pair_up(self.permutation(n), 0)

    def near_perfect_matching(self, n):
        """Involution with one uniform fixed point and a matching on the rest,
        n odd, as a list."""
        if n % 2 == 0:
            raise ValueError(f"near_perfect_matching needs odd n, got {n}")
        return _pair_up(self.permutation(n), 1)


def _pair_up(order, start):
    """The involution fixing order[:start] and swapping order[i], order[i+1]
    for i = start, start+2, ...; as a list."""
    order = np.array(order, dtype=np.int64)
    mate = order.copy()
    mate[start::2], mate[start + 1::2] = order[start + 1::2], order[start::2]
    pi = np.empty_like(order)
    pi[order] = mate
    return pi.tolist()
