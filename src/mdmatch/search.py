"""Filter-and-verify search: candidate positions from the counting filter,
confirmed by the banded verifier.  Includes a verify-everywhere baseline for
benchmarking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Occurrence, SearchParams, code_points, maximal_params, normalize_params
from .counting import fingerprint_prefix, scan_candidates
from .verify import _verify_windows


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
        for s, witness in _verify_windows(p_arr, self._t_arr, cands.tolist(), params,
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
                _verify_windows(p_arr, self._t_arr, range(n - m + 1), params)]

    def stats(self, pattern: str, params: SearchParams | None = None) -> SearchStats:
        """Candidate and match counts for one scan of the text."""
        m, params, p_arr = self._prep(pattern, params)
        n = len(self.text)
        if m > n:
            return SearchStats(0, 0, 0)
        cands = self._candidates(p_arr)
        matches = sum(1 for _ in _verify_windows(p_arr, self._t_arr, cands.tolist(), params))
        return SearchStats(candidates=len(cands), matches=matches,
                           positions_scanned=n - m + 1)


def filtered_search(pattern: str, text: str, params: SearchParams | None = None,
                    with_witness: bool = False) -> list[Occurrence]:
    """All positions where the pattern matches the text window under the
    translocation/inversion bounds, in increasing order."""
    return Matcher(text).find(pattern, params, with_witness)


def iter_filtered_search(pattern: str, text: str,
                         params: SearchParams | None = None,
                         with_witness: bool = False) -> Iterator[Occurrence]:
    return Matcher(text).iter_find(pattern, params, with_witness)


def scan_all_search(pattern: str, text: str,
                    params: SearchParams | None = None) -> list[Occurrence]:
    """Same result set as filtered_search, but verifying every position."""
    return Matcher(text).scan_all(pattern, params)


def search_stats(pattern: str, text: str,
                 params: SearchParams | None = None) -> SearchStats:
    return Matcher(text).stats(pattern, params)
