"""Counting filter over a sliding window.

The paper's rolling update keeps, per symbol code c, the signed count
g[c] = occ_pattern(c) - occ_window(c) and the scalar
delta = sum_c |g[c]|.  delta is zero exactly when the current window is a
permutation of the pattern, which is a necessary condition for a match
under translocations and inversions.  Shifting the window by one position
updates delta in constant time.  CountState, init_counts, advance and
rolling_deltas implement it as the reference.

The search path runs scan_candidates instead: it needs only symbol
equality, so it takes code points as they are and makes vectorized passes
over the pattern's distinct symbols, never one per text symbol.
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


def scan_candidates(pattern: Sequence[int], text: Sequence[int]) -> np.ndarray:
    """All positions whose window is a permutation of the pattern, ascending.

    Vectorized: one prefix-count pass per distinct pattern symbol keeps the
    windows that hold it exactly as often as the pattern does.  A length-m
    window that holds every pattern symbol at its pattern count holds m
    pattern symbols, so its histogram equals the pattern's.  Once at most
    n / m windows are left, their sorted symbols are compared with the
    sorted pattern instead, so the cost is O(n * d) for d distinct pattern
    symbols at worst and the extra memory stays O(n).  The output is
    identical to the delta == 0 positions of the rolling update.
    """
    p = np.asarray(pattern)
    t = np.asarray(text)
    m, n = len(p), len(t)
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return np.empty(0, dtype=np.int64)
    symbols, counts = np.unique(p, return_counts=True)
    # Higher counts first: a window matches a high count less often.
    order = np.argsort(-counts, kind="stable")
    cum = np.zeros(n + 1, dtype=np.int32)
    cand = None
    for c, k in zip(symbols[order], counts[order]):
        np.cumsum(t == c, dtype=np.int32, out=cum[1:])
        if cand is None:
            cand = np.flatnonzero(cum[m:] - cum[:-m] == k)
        else:
            cand = cand[cum[cand + m] - cum[cand] == k]
        if len(cand) * m <= n:
            windows = np.sort(sliding_window_view(t, m)[cand], axis=1)
            return cand[(windows == np.sort(p)).all(axis=1)]
    return cand
