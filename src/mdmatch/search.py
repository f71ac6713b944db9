"""Filter-and-verify search: candidate positions from the counting filter,
confirmed by the banded verifier.  Includes a verify-everywhere baseline for
benchmarking.

The filter keeps the windows that are permutations of the pattern, a
necessary condition for a match under translocations and inversions.  It
runs one vectorized pass per pattern over a multiset fingerprint of every
window, in the manner of Karp and Rabin (1987) but with an order-free sum.
Each code gets a 64-bit splitmix64 weight (core.symbol_weights), and a
window's fingerprint is the sum of its weights modulo 2**64, read off a
prefix-sum array built once per text.  A permutation of the pattern always
has the pattern's fingerprint; the rare window that has it by collision is
rejected by an exact sorted compare.  The paper's rolling histogram update,
which selects the same windows, is kept as the reference in
oracle.rolling_deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    Occurrence,
    SearchParams,
    code_points,
    maximal_params,
    normalize_params,
    symbol_weights,
)
from .verify import verify_windows

# Symbols weighed, or windows compared, per numpy call: the temporaries stay
# cache-sized, and the prefix is the only text-sized uint64 array.
_SLICE = 1 << 15


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
        prefix[1 + i:1 + i + _SLICE] = symbol_weights(codes[i:i + _SLICE])
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
    positions of the rolling update (oracle.rolling_deltas).  Hits are confirmed at most n // m at a
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
    fingerprint = symbol_weights(p).sum(dtype=np.uint64)
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


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    matches: int
    positions_scanned: int

    @property
    def candidate_density(self) -> float:
        return self.candidates / self.positions_scanned if self.positions_scanned else 0.0


class Matcher:
    """Searches one text repeatedly; the text is encoded once, by code point.

    A pattern symbol absent from the text simply gets no candidates.  The
    filter's fingerprint prefix of the text is built by the first find or
    stats call and kept for the later ones, so constructing a Matcher stays
    as cheap as encoding the text.
    """

    def __init__(self, text: str):
        self.text = text
        self._t_arr = code_points(text)
        self._prefix = None

    def _candidates(self, p_arr):
        if self._prefix is None:
            self._prefix = fingerprint_prefix(self._t_arr)
        return scan_candidates(p_arr, self._t_arr, self._prefix)

    def _prep(self, pattern: str, params: SearchParams | None):
        m = len(pattern)
        if m == 0:
            raise ValueError("empty pattern")
        params = normalize_params(params or maximal_params(m), m)
        return m, params, code_points(pattern)

    def iter_find(self, pattern: str, params: SearchParams | None = None,
                  with_witness: bool = False) -> Iterator[Occurrence]:
        """Yield occurrences in increasing position order (streaming)."""
        m, params, p_arr = self._prep(pattern, params)
        if m > len(self.text):
            return
        cands = self._candidates(p_arr)
        for s, witness in verify_windows(p_arr, self._t_arr, cands.tolist(), params,
                                         witness=with_witness):
            yield Occurrence(s, witness)

    def find(self, pattern: str, params: SearchParams | None = None,
             with_witness: bool = False) -> list[Occurrence]:
        return list(self.iter_find(pattern, params, with_witness))

    def scan_all(self, pattern: str, params: SearchParams | None = None) -> list[Occurrence]:
        """Baseline: run the banded verifier at every position, no filter."""
        m, params, p_arr = self._prep(pattern, params)
        n = len(self.text)
        if m > n:
            return []
        return [Occurrence(s) for s, _ in
                verify_windows(p_arr, self._t_arr, range(n - m + 1), params)]

    def stats(self, pattern: str, params: SearchParams | None = None) -> SearchStats:
        """Candidate and match counts for one scan of the text."""
        m, params, p_arr = self._prep(pattern, params)
        n = len(self.text)
        if m > n:
            return SearchStats(0, 0, 0)
        cands = self._candidates(p_arr)
        matches = sum(1 for _ in verify_windows(p_arr, self._t_arr, cands.tolist(), params))
        return SearchStats(candidates=len(cands), matches=matches,
                           positions_scanned=n - m + 1)


def filtered_search(pattern: str, text: str, params: SearchParams | None = None,
                    with_witness: bool = False) -> list[Occurrence]:
    """All positions where the pattern matches the text window under the
    translocation/inversion bounds, in increasing order."""
    return Matcher(text).find(pattern, params, with_witness)

