"""Counting filter over a sliding window.

The paper's rolling update keeps, per symbol code c, the signed count
g[c] = occ_pattern(c) - occ_window(c) and the scalar
delta = sum_c |g[c]|.  delta is zero exactly when the current window is a
permutation of the pattern, which is a necessary condition for a match
under translocations and inversions.  Shifting the window by one position
updates delta in constant time.  CountState, init_counts, advance and
rolling_deltas implement it as the reference.

The search path runs scan_candidates instead: one vectorized pass per
pattern over a multiset fingerprint of every window, in the manner of
Karp and Rabin (1987) but with an order-free sum.  Each code gets a 64-bit
splitmix64 weight, and a window's fingerprint is the sum of its weights
modulo 2**64, read off a prefix-sum array built once per text.  A
permutation of the pattern always has the pattern's fingerprint; the rare
window that has it by collision is rejected by an exact sorted compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class CountState:
    """Signed per-code histogram g and its absolute sum delta for one window."""

    g: list[int]
    delta: int
    window_start: int

    def recompute_delta(self) -> int:
        """delta from scratch; used to cross-check the rolling update."""
        return sum(abs(v) for v in self.g)


def _as_code_list(seq) -> list[int]:
    if isinstance(seq, np.ndarray):
        return seq.tolist()
    return list(seq)


def init_counts(pattern: Sequence[int], text: Sequence[int], sigma: int | None = None) -> CountState:
    """Histogram state for the window starting at text position 0."""
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    if m > len(text):
        raise ValueError("pattern longer than text")
    p = _as_code_list(pattern)
    t = _as_code_list(text[:m])
    if sigma is None:
        sigma = max(max(p), max(t)) + 1
    g = [0] * sigma
    for c in p:
        g[c] += 1
    for c in t:
        g[c] -= 1
    return CountState(g=g, delta=sum(abs(v) for v in g), window_start=0)


def advance(state: CountState, outgoing: int, incoming: int) -> CountState:
    """Shift the window one position right: outgoing = t[s], incoming = t[s+m].

    Constant-time update of g and delta, in place.  When outgoing equals
    incoming nothing changes.
    """
    g = state.g
    state.delta -= abs(g[outgoing]) + abs(g[incoming])
    g[outgoing] += 1
    g[incoming] -= 1
    state.delta += abs(g[outgoing]) + abs(g[incoming])
    state.window_start += 1
    return state


def rolling_deltas(pattern: Sequence[int], text: Sequence[int],
                   sigma: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield (position, delta) for every window, via the rolling update."""
    m, n = len(pattern), len(text)
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return
    t = _as_code_list(text)
    if sigma is None:
        # The first window alone may miss the text's largest code.
        sigma = max(max(_as_code_list(pattern)), max(t)) + 1
    state = init_counts(pattern, t, sigma)
    yield 0, state.delta
    for s in range(n - m):
        advance(state, t[s], t[s + m])
        yield s + 1, state.delta


# splitmix64 constants (Steele, Lea and Flood 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Symbols weighed, or windows compared, per numpy call: the temporaries stay
# cache-sized, and the prefix is the only text-sized uint64 array.
_SLICE = 1 << 15


def _weights(codes: Sequence[int]) -> np.ndarray:
    """The splitmix64 mix of each code, as uint64: one 64-bit weight per symbol."""
    z = np.asarray(codes).astype(np.uint64)
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def fingerprint_prefix(codes: Sequence[int]) -> np.ndarray:
    """uint64 prefix sums of the symbol weights, wrapping on overflow.

    Entry k is the fingerprint of codes[:k], so the window codes[s:s+m] has
    fingerprint prefix[s+m] - prefix[s] (also wrapping).  A sum does not
    depend on order, so windows with equal histograms have equal
    fingerprints; the converse can fail, and scan_candidates checks it.
    """
    codes = np.asarray(codes)
    prefix = np.zeros(len(codes) + 1, dtype=np.uint64)
    for i in range(0, len(codes), _SLICE):
        prefix[1 + i:1 + i + _SLICE] = _weights(codes[i:i + _SLICE])
    np.cumsum(prefix[1:], out=prefix[1:])
    return prefix


def scan_candidates(pattern: Sequence[int], text: Sequence[int],
                    prefix: np.ndarray | None = None) -> np.ndarray:
    """All positions whose window is a permutation of the pattern, ascending.

    One vectorized pass keeps the windows whose fingerprint equals the
    pattern's; prefix is fingerprint_prefix(text), built here when not
    given.  Every hit is then confirmed by comparing its sorted symbols with
    the sorted pattern, so a fingerprint collision costs a sort but never
    adds a candidate, and the output is identical to the delta == 0
    positions of the rolling update.  Hits are confirmed at most n // m at a
    time, so the extra memory stays O(n) even when every window is a hit.
    """
    p = np.asarray(pattern)
    t = np.asarray(text)
    m, n = len(p), len(t)
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return np.empty(0, dtype=np.int64)
    if prefix is None:
        prefix = fingerprint_prefix(t)
    fingerprint = _weights(p).sum(dtype=np.uint64)
    count = n - m + 1
    hit = np.empty(count, dtype=bool)
    for i in range(0, count, _SLICE):
        j = min(i + _SLICE, count)
        np.equal(prefix[m + i:m + j] - prefix[i:j], fingerprint, out=hit[i:j])
    hits = np.flatnonzero(hit)
    windows = sliding_window_view(t, m)
    sorted_p = np.sort(p)
    step = max(1, n // m)
    confirmed = []
    for i in range(0, len(hits), step):
        part = hits[i:i + step]
        block = windows[part]
        block.sort(axis=1)
        confirmed.append(part[(block == sorted_p).all(axis=1)])
    return np.concatenate(confirmed) if confirmed else hits
