"""Filter-and-verify search: candidate positions from the counting filter,
confirmed by the verifier's walk along each window's chain of cuts, one
length's patterns together.  Every Matcher search, of one pattern or many,
is that one step per pattern length (scan_group, then verify_windows); a
single pattern is a group of one.  Includes a verify-everywhere baseline.

The filter keeps the windows that are permutations of the pattern, a
necessary condition for a match under translocations and inversions.  It
runs one vectorized pass per pattern length over a multiset fingerprint of
every window, in the manner of Karp and Rabin (1987) but with an order-free
sum; the patterns of one length share the pass (scan_group), as in their
multi-pattern search.  Each code gets a 32-bit weight, the low half of its
splitmix64 weight (core.fingerprint_weights), and a window's fingerprint is
the sum of its weights modulo 2**32, read off a uint32 prefix-sum array
(core.fingerprint_prefix) that a Matcher builds once per text and shares
with the verifier, which reads each window's cuts off it.  A permutation of
a pattern always has the pattern's fingerprint; a window that has it by
collision is rejected by an exact sorted compare, so 32 bits only bound the
false hits, as Karp and Rabin size their hash: a pass over n symbols with k
distinct keys expects about (n - m + 1) * k / 2**32 of them (0.19 at
n = 2M, k = 400).  The paper's rolling histogram update, which selects the
same windows, is kept as the reference in oracle.rolling_deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Occurrence,
    SearchParams,
    code_points,
    fingerprint_prefix,
    fingerprint_weights,
    maximal_params,
    normalize_params,
)
from .verify import verify_windows

# Window fingerprints compared, or window symbols confirmed, per numpy
# call: the temporaries stay cache-sized whatever the number of patterns
# filtered together, and the prefix is the only text-sized fingerprint
# array.
_SLICE = 1 << 15


def _sortable(codes: np.ndarray) -> np.ndarray:
    """codes widened to int32 when narrower: numpy (2.4, x86-64) sorts rows
    of uint8 codes 3-14x slower than the same rows in int32."""
    return codes.astype(np.int32) if codes.dtype.itemsize < 4 else codes


def scan_group(patterns: Sequence[Sequence[int]], text: Sequence[int],
               prefix: np.ndarray | None = None) -> list[np.ndarray]:
    """For each row of patterns, a (k, m) array, all positions whose window
    is a permutation of that row, ascending.

    One vectorized pass over the text computes each window's fingerprint
    once and keeps the windows whose fingerprint equals one of the rows';
    prefix is fingerprint_prefix(text), built here when not given.  Each
    hit is then confirmed by comparing its sorted symbols with each distinct
    multiset of the rows that has its fingerprint, once per multiset: rows
    that permute each other share that work and one output array, a
    fingerprint collision costs a sort but never adds a candidate, and each
    output is identical to the delta == 0 positions of the rolling update
    (oracle.rolling_deltas).  Hits are confirmed _SLICE symbols at a time,
    so the extra memory stays O(n) whatever k is.
    """
    ps = np.asarray(patterns)
    t = np.asarray(text)
    k, m = ps.shape
    n = len(t)
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return [np.empty(0, dtype=np.int64)] * k
    if prefix is None:
        prefix = fingerprint_prefix(t)
    fingerprints = fingerprint_weights(ps).sum(axis=1, dtype=np.uint32)
    sorted_rows = np.sort(_sortable(ps), axis=1)
    # Row r's multiset is that of row first[r], the first row with its sorted
    # symbols; the distinct multisets are confirmed under those rows.
    seen: dict[bytes, int] = {}
    first = [seen.setdefault(row.tobytes(), r) for r, row in enumerate(sorted_rows)]
    distinct = list(seen.values())
    keys = fingerprints.take(distinct)
    count = n - m + 1
    hit = np.empty(count, dtype=bool)
    # One buffer for every slice: a new temporary per slice, kept alive
    # across the next allocation, can cost a page fault per page each time.
    buf = np.empty(min(count, _SLICE), dtype=np.uint32)
    for i in range(0, count, _SLICE):
        j = min(i + _SLICE, count)
        window = np.subtract(prefix[m + i:m + j], prefix[i:j], out=buf[:j - i])
        np.equal(window, keys[0], out=hit[i:j])
        for key in keys[1:]:
            hit[i:j] |= window == key
    hits = hit.nonzero()[0]
    found = [[hits[:0]] for _ in distinct]
    offsets = np.arange(m)
    step = max(1, _SLICE // m)
    for i in range(0, len(hits), step):
        part = hits[i:i + step]
        if len(keys) > 1:
            part_keys = prefix[part + m] - prefix[part]
        for parts, d, key in zip(found, distinct, keys):
            sel = part if len(keys) == 1 else part[part_keys == key]
            block = _sortable(t[sel[:, None] + offsets])
            block.sort(axis=1)
            parts.append(sel[(block == sorted_rows[d]).all(axis=1)])
    cands = dict(zip(distinct, map(np.concatenate, found)))
    return [cands[d] for d in first]


def scan_candidates(pattern: Sequence[int], text: Sequence[int],
                    prefix: np.ndarray | None = None) -> np.ndarray:
    """All positions whose window is a permutation of the pattern, ascending:
    scan_group of the pattern alone."""
    return scan_group(np.asarray(pattern)[None], text, prefix)[0]


def _str(value: object, name: str) -> str:
    """value, when it is a str; else a ValueError names the argument."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a str, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class SearchStats:
    candidates: int
    matches: int
    positions_scanned: int

    @property
    def candidate_density(self) -> float:
        return self.candidates / self.positions_scanned if self.positions_scanned else 0.0


class Matcher:
    """Searches one text repeatedly; the text is encoded once, by code point
    (core.code_points: one byte per symbol when every symbol is below
    U+0100, else four).

    A pattern symbol absent from the text simply gets no candidates.  The
    fingerprint prefix of the text, which the filter and the verifier
    share, is built by the first search and kept for the later ones, so
    constructing a Matcher stays as cheap as encoding the text.  Text and
    patterns are str; anything else raises a ValueError that names it.
    """

    def __init__(self, text: str):
        self.text = _str(text, "text")
        self._t_arr = code_points(text)
        self._prefix = None

    def _fingerprints(self) -> np.ndarray:
        if self._prefix is None:
            self._prefix = fingerprint_prefix(self._t_arr)
        return self._prefix

    def _search_length(self, patterns: Sequence[str], params: SearchParams | None,
                       with_witness: bool
                       ) -> tuple[list[np.ndarray], Iterator[tuple[int, Occurrence]]]:
        """The one search step, for patterns all of one length m: each
        row's candidates, from one filter pass (scan_group), and a lazy
        stream of (row, Occurrence) for the matches, row by row in position
        order, decided a chunk at a time (verify_windows).  params is
        normalized for m."""
        k, m = len(patterns), len(patterns[0])
        params = normalize_params(params or maximal_params(m), m)  # raises when m == 0
        group = code_points("".join(patterns)).reshape(k, m)
        cands = scan_group(group, self._t_arr, self._fingerprints())
        rows = np.arange(k).repeat([len(c) for c in cands])
        found = verify_windows(group, self._t_arr, self._fingerprints(), np.concatenate(cands),
                               rows, params, with_witness)
        return cands, ((r, Occurrence(s, witness)) for r, s, witness in found)

    def iter_find(self, pattern: str, params: SearchParams | None = None,
                  with_witness: bool = False) -> Iterator[Occurrence]:
        """Yield occurrences in increasing position order, streaming: after
        the filter pass, each chunk's matches as it is verified."""
        _, found = self._search_length([_str(pattern, "pattern")], params, with_witness)
        yield from (occ for _, occ in found)

    def find(self, pattern: str, params: SearchParams | None = None,
             with_witness: bool = False) -> list[Occurrence]:
        return list(self.iter_find(pattern, params, with_witness))

    def find_many(self, patterns: Sequence[str], params: SearchParams | None = None,
                  with_witness: bool = False) -> list[list[Occurrence]]:
        """find for each pattern, in the order given; params is normalized
        for each pattern's length, and a pattern longer than the text finds
        nothing.  find is its one-pattern case: the patterns of one length
        share one filter pass over the text (scan_group), and their
        candidates are verified together, one decider run per chunk
        (verify_windows)."""
        by_length: dict[int, list[int]] = {}
        for i, pattern in enumerate(patterns):
            by_length.setdefault(len(_str(pattern, "pattern")), []).append(i)
        found: list[list[Occurrence]] = [[] for _ in patterns]
        for ids in by_length.values():
            _, occs = self._search_length([patterns[i] for i in ids], params, with_witness)
            for r, occ in occs:
                found[ids[r]].append(occ)
        return found

    def scan_all(self, pattern: str, params: SearchParams | None = None) -> list[Occurrence]:
        """Baseline: run the verifier at every position, no filter."""
        m = len(_str(pattern, "pattern"))
        params = normalize_params(params or maximal_params(m), m)  # raises when m == 0
        starts = np.arange(len(self.text) - m + 1)  # empty when m > n
        return [Occurrence(s) for _, s, _ in verify_windows(
            code_points(pattern)[None], self._t_arr, self._fingerprints(), starts,
            np.zeros_like(starts), params)]

    def stats(self, pattern: str, params: SearchParams | None = None) -> SearchStats:
        """Candidate and match counts for one scan of the text: find's
        filter and verify work, counted."""
        (cands,), found = self._search_length([_str(pattern, "pattern")], params, False)
        return SearchStats(candidates=len(cands), matches=sum(1 for _ in found),
                           positions_scanned=max(len(self.text) - len(pattern) + 1, 0))


def filtered_search(pattern: str, text: str, params: SearchParams | None = None,
                    with_witness: bool = False) -> list[Occurrence]:
    """All positions where the pattern matches the text window under the
    translocation/inversion bounds, in increasing order."""
    return Matcher(text).find(pattern, params, with_witness)

