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

The swaps themselves (Durstenfeld's loop: for i = n-1, ..., 1 swap
positions i and j_i <= i) are resolved without the loop from n =
`_RESOLVE_MIN_N` on (`_resolve_swaps`).  Step i fixes position i and
writes its old content into position j_i.  Set j_0 = 0.  The content
c(i) of position i when step i runs is c(r(i)), where r(i) is the
smallest i' > i with j_i' = i; with no such step, c(i) = i.  The result
at i is c(s(i)), where s(i) is the smallest i' > i with j_i' = j_i; with
no such step, it is j_i.  One stable sort of the steps by target gives s
and r, and c follows by pointer doubling.  Below `_RESOLVE_MIN_N` the loop
(`_swap_loop`) is faster, since the resolution has about 20 us of fixed
cost; both give the same array.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# smallest n whose swaps are resolved by sorting rather than looped over
_RESOLVE_MIN_N = 600


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

    def permutation(self, n):
        """Uniform permutation of range(n) as an int64 array: i -> perm[i]."""
        if n < 0:
            raise ValueError(f"permutation needs n >= 0, got {n}")
        js = self._randbelow_array(np.arange(n, 1, -1, dtype=np.uint64)).astype(np.int64)
        swaps = _swap_loop if n < _RESOLVE_MIN_N else _resolve_swaps
        return swaps(n, js)

    def single_cycle(self, n):
        """Uniform permutation with one cycle of length n (n >= 2), as an
        int64 array.

        Shuffle an ordering and close it into a cycle; each of the (n-1)!
        n-cycles arises from exactly n orderings.
        """
        order = self.permutation(n)
        pi = np.empty(n, dtype=np.int64)
        pi[order] = np.roll(order, -1)
        return pi

    def perfect_matching(self, n):
        """Uniform fixed-point-free involution of range(n), n even, as an
        int64 array."""
        if n % 2:
            raise ValueError(f"perfect_matching needs even n, got {n}")
        return _pair_up(self.permutation(n), 0)

    def near_perfect_matching(self, n):
        """Involution with one uniform fixed point and a matching on the rest,
        n odd, as an int64 array."""
        if n % 2 == 0:
            raise ValueError(f"near_perfect_matching needs odd n, got {n}")
        return _pair_up(self.permutation(n), 1)


def _swap_loop(n, js):
    """Fisher-Yates on range(n): swap positions i and js[n-1-i] for
    i = n-1, ..., 1, in that order; an int64 array."""
    items = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), js.tolist()):
        items[i], items[j] = items[j], items[i]
    return np.array(items, dtype=np.int64)


def _resolve_swaps(n, js):
    """`_swap_loop(n, js)` without the loop (see the module docstring)."""
    steps = np.arange(n, dtype=np.int64)
    target = np.zeros(n, dtype=np.int64)  # j_i by step i, j_0 = 0
    target[1:] = js[::-1]
    # stable argsort by target, one 16-bit digit per pass (numpy sorts
    # uint16 keys by radix)
    order = np.argsort((target & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (n - 1) >> shift > 0:
        digit = ((target[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    by_target = target[order]
    # s: the next step with the same target; -1 for the last of a group
    after = np.full(n, -1, dtype=np.int64)
    np.copyto(after[:-1], order[1:], where=by_target[1:] == by_target[:-1])
    s = np.empty(n, dtype=np.int64)
    s[order] = after
    # r: the first step of group i other than i; a group i holds steps >= i
    counts = np.bincount(target, minlength=n)
    lead = order[np.minimum(np.cumsum(counts) - counts, n - 1)]
    r = np.where(lead == steps, s, lead)
    # c(i) = c(r(i)) down to a step no earlier step wrote into, c(i) = i
    c = np.where((counts > 0) & (r >= 0), r, steps)
    while True:
        hop = c[c]
        if np.array_equal(hop, c):
            break
        c = hop
    return np.where(s >= 0, c[s], target)


def _pair_up(order, start):
    """The involution fixing order[:start] and swapping order[i], order[i+1]
    for i = start, start+2, ...; as an int64 array."""
    mate = order.copy()
    mate[start::2], mate[start + 1::2] = order[start + 1::2], order[start::2]
    pi = np.empty_like(order)
    pi[order] = mate
    return pi
