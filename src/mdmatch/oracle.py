"""Brute-force reference implementations.

Everything here is deliberately slow and deliberately independent of the
production filter and verifier: substrings are compared by direct slicing,
prefix feasibility is a plain forward DP with explicit factor-length loops,
and no state is shared with the fast path.  These functions are the ground
truth the fast path is tested against.

The paper's counting filter is kept here too, as the reference for the
fast filter, search.scan_group (search.scan_candidates is its one-row
wrapper).  Its rolling update keeps, per symbol code c, the signed count
g[c] = occ_pattern(c) - occ_window(c) and the scalar delta = sum_c |g[c]|.
delta is zero exactly when the current window is a permutation of the
pattern, a necessary condition for a match under translocations and
inversions.  Shifting the window by one position updates delta in
constant time.  CountState, init_counts, advance and rolling_deltas
implement it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import Occurrence, SearchParams, maximal_params, normalize_params


def _check_pair(p: Sequence, w: Sequence) -> int:
    if len(p) != len(w):
        raise ValueError("unequal lengths")
    if len(p) == 0:
        raise ValueError("empty pattern")
    return len(p)


def oracle_match(p: Sequence, w: Sequence, params: SearchParams | None = None) -> bool:
    """Decide whether w decomposes into identity symbols, swapped adjacent
    equal-length factor pairs (each half at most alpha long) and reversed
    factors (at most beta long) of p."""
    m = _check_pair(p, w)
    params = normalize_params(params or maximal_params(m), m)
    alpha, beta = params.alpha, params.beta
    # Every operation permutes symbols in place, so a mismatched multiset
    # can never match.
    if Counter(p) != Counter(w):
        return False
    ok = [False] * m
    for i in range(m):
        if p[i] == w[i] and (i == 0 or ok[i - 1]):
            ok[i] = True
            continue
        hit = False
        for k in range(1, min(alpha, (i + 1) // 2) + 1):
            if not (i - 2 * k < 0 or ok[i - 2 * k]):
                continue
            if p[i - k + 1:i + 1] == w[i - 2 * k + 1:i - k + 1] and \
               p[i - 2 * k + 1:i - k + 1] == w[i - k + 1:i + 1]:
                hit = True
                break
        if not hit:
            for k in range(2, min(beta, i + 1) + 1):
                if not (i - k < 0 or ok[i - k]):
                    continue
                if p[i - k + 1:i + 1] == w[i - k + 1:i + 1][::-1]:
                    hit = True
                    break
        ok[i] = hit
    return ok[m - 1]


def md_distance(p: Sequence, w: Sequence, params: SearchParams | None = None) -> float:
    """Minimum number of unit-cost operations turning p into w, or math.inf.

    Identity symbols are free; every translocation or inversion block costs 1.
    """
    m = _check_pair(p, w)
    params = normalize_params(params or maximal_params(m), m)
    alpha, beta = params.alpha, params.beta
    if Counter(p) != Counter(w):
        return math.inf
    inf = math.inf
    dist: list[float] = [inf] * m
    for i in range(m):
        best = inf
        if p[i] == w[i]:
            best = dist[i - 1] if i else 0.0
        for k in range(1, min(alpha, (i + 1) // 2) + 1):
            prev = dist[i - 2 * k] if i - 2 * k >= 0 else 0.0
            if prev + 1 >= best:
                continue
            if p[i - k + 1:i + 1] == w[i - 2 * k + 1:i - k + 1] and \
               p[i - 2 * k + 1:i - k + 1] == w[i - k + 1:i + 1]:
                best = prev + 1
        for k in range(2, min(beta, i + 1) + 1):
            prev = dist[i - k] if i - k >= 0 else 0.0
            if prev + 1 >= best:
                continue
            if p[i - k + 1:i + 1] == w[i - k + 1:i + 1][::-1]:
                best = prev + 1
        dist[i] = best
    d = dist[m - 1]
    return int(d) if d != inf else inf


def naive_search(p: Sequence, t: Sequence, params: SearchParams | None = None) -> list[Occurrence]:
    """Run the brute-force match decision at every text position.

    Ground truth for the filtered search and the slowest possible baseline.
    """
    m, n = len(p), len(t)
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return []
    params = normalize_params(params or maximal_params(m), m)
    return [Occurrence(s) for s in range(n - m + 1)
            if oracle_match(p, t[s:s + m], params)]


def permutation_probability(occ: Mapping | Iterable[int], m: int, sigma: int) -> float:
    """Probability that a uniform random length-m string over sigma symbols is
    a permutation of a string with the given per-symbol occurrence counts.

    Multinomial coefficient over sigma^m, evaluated in log space; small m
    falls back to exact rational arithmetic.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    counts = list(occ.values()) if isinstance(occ, Mapping) else list(occ)
    if any(c < 0 for c in counts):
        raise ValueError("negative occurrence count")
    if sum(counts) != m:
        raise ValueError("occurrence counts do not sum to pattern length")
    if m <= 20:
        num = Fraction(math.factorial(m), sigma ** m)
        for c in counts:
            num /= math.factorial(c)
        return float(num)
    log_p = math.lgamma(m + 1) - m * math.log(sigma)
    for c in counts:
        log_p -= math.lgamma(c + 1)
    return math.exp(log_p)


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
