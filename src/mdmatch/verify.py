"""Banded dynamic-programming verification of candidate windows.

For a pattern p and a window w = t[s..s+m-1] the verifier decides whether w
decomposes into identity symbols, swapped adjacent equal-length factors
(halves of length <= alpha) and reversed factors (length <= beta) of p.

Three quantities are maintained row by row (row = pattern index i):

* F[i, j]: length of the longest common suffix of p[0..i] and w[0..j],
  needed on the diagonals |i - j| <= alpha to detect swapped halves;
* I[i, j]: longest k with p[i-k+1..i] equal to reverse(w[j..j+k-1]),
  needed on the diagonals |i - j| <= beta - 1 to detect reversed factors;
* S[i]: 1 iff the length-(i+1) prefix of p matches w[0..i].

S[i] is set when one of three conditions holds:

  (a) p[i] == w[i] and the previous prefix matched;
  (b) F[i, i-k] >= k and F[i-k, i] >= k for some k <= alpha, with the
      prefix before the 2k-block matched (a swapped factor pair ends at i);
  (c) I[i, i-k+1] >= k for some 2 <= k <= beta, with the prefix before the
      k-block matched (a reversed factor ends at i).

Because F chains advance along one diagonal and I chains along one
anti-diagonal, each row needs only the previous row of each band plus the
last max(2*alpha, beta) values of S, so the working space is independent
of m.

One engine decides a chunk of up to CHUNK candidate windows at a time.  A
window equal to the pattern matches by one compare over the chunk, so a
pattern's exact copies never pay for the m rows of the DP.  When the DP
could not drop the others for many rows, the cut test decides them first
from the chains of blocks between cuts, where the prefixes of p and w have
equal multisets (_chains): a window whose chain reaches m matches, and one
whose chain stops short, like the pattern's occurrence shifted by one,
leaves the chunk.  The DP runs on the windows left, those with more than
CUT_TEST_MAX cuts or never cut-tested, its state built once as numpy
arrays shaped (rows, windows), so each step of a row is one numpy call for
the chunk.  It skips the translocation and inversion tests on rows where
every live window extends by identity, and stops once no window has an S
bit among the last max(2*alpha, beta) rows.  The DP only decides: a matched
window's witness is walked back along its chain, the cut test's when it
made one, and an exact copy's is all identity.  Every caller, Matcher
included, reaches the engine through verify_windows.
"""

from __future__ import annotations

import functools
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Block,
    IDENTITY,
    INVERSION,
    TRANSLOCATION,
    SearchParams,
    code_points,
    maximal_params,
    normalize_params,
    symbol_weights,
)

# Candidate windows advanced together, one numpy call per band and row.
CHUNK = 128
# The cut test runs when the DP would run more than this many rows per
# window before it could drop one; a window with more than CUT_TEST_MAX
# cuts is left to the DP.
CUT_TEST_ROWS = 8
CUT_TEST_MAX = 64


def _dp_state(n: int, bands: int, srows: int, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """The DP state of n windows, every array C-contiguous and (rows, n): the
    band run lengths (all 0), S (all 1: the empty prefix matches), the scratch
    rows eq and grown (all 1) beside run, hit, and k repeated to width n as
    the length each test row must reach."""
    return (np.zeros((bands, n), dtype=np.int32), np.ones((srows, n), dtype=bool),
            np.empty((bands, n), dtype=bool), np.ones((bands, n), dtype=np.int32),
            np.empty((len(k), n), dtype=bool), k[:, None].repeat(n, axis=1))


def _advance(p_codes: list, p_rev: np.ndarray, t_arr: np.ndarray, starts: np.ndarray,
             m: int, params: SearchParams,
             witness: bool) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Decide the windows t_arr[s:s+m] for s in starts.

    p_rev is the pattern reversed and padded with alpha entries of -1.
    Yields (s, blocks) for the matching windows in the order of starts.
    """
    alpha, beta = params.alpha, params.beta
    bcap = max(beta - 1, 0)
    # Row r holds w[m - 1 + bcap - r] of every window and -1 off the window,
    # so the positions j = i + bcap down to i - max(alpha, bcap) that feed
    # row i of the DP are one forward block from row m - 1 - i.
    block = np.full((m + bcap + max(alpha, bcap), len(starts)), -1, dtype=p_rev.dtype)
    block[bcap:bcap + m] = t_arr[starts + np.arange(m - 1, -1, -1)[:, None]]
    w_rev = block[bcap:bcap + m]
    # A window equal to the pattern matches by identity alone, which is also
    # the witness the tie-break gives it, so it skips the DP.
    exact = (w_rev == p_rev[:m, None]).all(0)
    ids = np.flatnonzero(~exact)
    matched = exact.copy()
    chained = {}  # window -> its chain, for the windows the cut test proved
    if len(ids) and CUT_TEST_ROWS * len(ids) < min(m, max(2 * alpha, beta, 1)):
        # The DP cannot drop these windows for many rows; the cut test
        # decides most of them in one pass each.  A chain that reaches m was
        # built by exact compares, so its window matches without the DP.
        chains = _chains(p_rev[:m], w_rev[:, ids], alpha, beta, CUT_TEST_MAX)
        chained = {c: chain for c, chain in zip(ids.tolist(), chains)
                   if chain is not None and m in chain}
        matched[list(chained)] = True
        ids = ids[[chain is None for chain in chains]]
    if len(ids):
        if len(ids) < len(starts):
            # take keeps the rows the DP reads C-contiguous; block[:, ids] does not.
            block = block.take(ids, axis=1)
        matched[ids[_dp(p_codes, p_rev, block, m, alpha, beta)]] = True
    found = np.flatnonzero(matched)
    if not witness:
        for s in starts[found].tolist():
            yield s, None
        return
    unwalked = [c for c in found.tolist() if not exact[c] and c not in chained]
    if unwalked:
        chained.update(zip(unwalked, _chains(p_rev[:m], w_rev[:, unwalked], alpha, beta)))
    for c in found.tolist():
        yield int(starts[c]), _identity(m) if exact[c] else _blocks(chained[c], m)


@functools.lru_cache(maxsize=1)
def _identity(m: int) -> tuple[Block, ...]:
    """The witness of a window equal to the pattern; Blocks are frozen, so
    the windows and patterns of one length share it."""
    return tuple(Block(IDENTITY, i) for i in range(m))


def _dp(p_codes: list, p_rev: np.ndarray, block: np.ndarray, m: int,
        alpha: int, beta: int) -> np.ndarray:
    """The mask of the windows of block (laid out as _advance builds it) that
    match, from the DP run row by row over all of them at once."""
    n = block.shape[1]
    bcap = max(beta - 1, 0)
    horizon = max(2 * alpha, beta, 1)
    # Band rows: I[i, i + bcap - u] for u = 0..2*bcap, then F[i, i-k] and
    # F[i-k, i] for k = 1..alpha.  Test rows: the I rows of inversion
    # lengths 2..beta, then both F bands.
    ilen = 2 * bcap + 1
    tests = bcap + 2 * alpha
    # S rows: the last horizon rows plus room to write before shifting.
    srows = 2 * horizon + 32
    k = np.array([*range(2, beta + 1)] + 2 * [*range(1, alpha + 1)], dtype=np.int32)
    run, S, eq, grown, hit, need = _dp_state(n, ilen + 2 * alpha, srows, k)
    eq_I, eq_i, eq_F, eq_C = eq[:ilen], eq[bcap], eq[ilen:ilen + alpha], eq[ilen + alpha:]
    head = min(ilen, 2)  # I chains entering the band start from 0: grown stays 1
    run_I, grown_I = run[:ilen - head], grown[head:ilen]
    run_F, grown_F, run_T = run[ilen:], grown[ilen:], run[bcap + 1:]
    hit_I, hit_F, hit_C = hit[:bcap], hit[bcap:bcap + alpha], hit[bcap + alpha:]
    hits = hit[:bcap + alpha]
    # S[i] is row pos, S[i - d] row pos + d.
    pos = srows - horizon - 1
    live = n  # never fewer than the windows not yet dead
    for i in range(m):
        if pos < 0:
            S[srows - horizon:] = S[:horizon]
            pos = srows - horizon - 1
        r = m - 1 - i
        pi = p_codes[i]
        np.equal(block[r:r + ilen], pi, out=eq_I)
        if bcap:
            # I follows anti-diagonals: row i's u comes from row i-1's u - 2.
            np.add(run_I, 1, out=grown_I)
        if alpha:
            np.equal(block[r + bcap + 1:r + bcap + 1 + alpha], pi, out=eq_F)
            np.equal(p_rev[m - i:m - i + alpha, None], block[r + bcap], out=eq_C)
            np.add(run_F, 1, out=grown_F)
        np.multiply(grown, eq, out=run)
        srow = S[pos]
        np.logical_and(eq_i, S[pos + 1], out=srow)
        # A dead window never extends by identity: when as many windows do
        # as are live, every live one does and the tests are skipped.
        if np.count_nonzero(srow) < live:
            if tests:
                # Inversion of length k: I[i, i-k+1] >= k and S[i-k].
                # Translocation of halves k: both F >= k and S[i-2k].
                np.greater_equal(run_T, need, out=hit)
                np.logical_and(hit_I, S[pos + 2:pos + 2 + bcap], out=hit_I)
                np.logical_and(hit_F, hit_C, out=hit_F)
                np.logical_and(hit_F, S[pos + 2:pos + 2 * alpha + 1:2], out=hit_F)
                np.logical_or(srow, np.logical_or.reduce(hits, axis=0), out=srow)
            # A window with no S bit among the last horizon rows is dead for
            # good; once every window is, none matches.
            if horizon - 1 <= i < m - 1:
                live = np.count_nonzero(S[pos:pos + horizon].any(0))
                if not live:
                    return np.zeros(n, dtype=bool)
        pos -= 1
    return S[pos + 1]


def _chains(p_rev: np.ndarray, w_rev: np.ndarray, alpha: int, beta: int,
            limit: int | None = None) -> list[dict[int, int] | None]:
    """Per window, the cuts that chains of blocks from 0 reach, each with the
    code of the block that ends there (0 identity, k > 0 a swap of halves k,
    -k a reversal of k), or None for a window with more than limit cuts,
    which is left untested.

    p_rev is the pattern reversed, and column c of w_rev is window c
    reversed.  Blocks permute their own spans, so cuts lie where the
    prefixes of p and w have equal multisets, read off equal prefix sums of
    the filter's symbol weights; a collision only adds a cut, and each block
    is checked by an exact compare, so a window matches iff m is reached.
    The code at a cut follows the witness tie-break: identity when it can
    be, else the shortest translocation, else the shortest inversion.
    """
    m = len(p_rev)
    size = p_rev.itemsize
    p = p_rev[::-1]
    w = np.ascontiguousarray(w_rev[::-1].T)
    cuts = np.cumsum(symbol_weights(w), axis=1) == np.cumsum(symbol_weights(p))
    pb, prb, wall = p.tobytes(), p_rev.tobytes(), w.tobytes()
    longest = max(2 * alpha, beta, 1)
    window, at = np.nonzero(cuts)
    ends = (at + 1).tolist()
    first = np.searchsorted(window, np.arange(len(w) + 1)).tolist()
    chains = []
    for c in range(len(w)):
        lo, hi = first[c], first[c + 1]
        if not cuts[c, -1] or (limit is not None and hi - lo > limit):
            chains.append(None if cuts[c, -1] else {})
            continue
        wb, ident = wall[c * m * size:(c + 1) * m * size], (w[c] == p).tolist()
        code = {0: 0}  # the empty prefix
        for b in ends[lo:hi]:
            if ident[b - 1] and b - 1 in code:
                code[b] = 0
                continue
            best = None
            for a in reversed(code):
                span = b - a
                if span > longest or (best is not None and span > 2 * alpha):
                    break
                x, y, h = a * size, b * size, span // 2 * size
                if (span % 2 == 0 and span // 2 <= alpha
                        and wb[x:x + h] == pb[x + h:y] and wb[x + h:y] == pb[x:x + h]):
                    best = span // 2
                    break
                if best is None and 1 < span <= beta and wb[x:y] == prb[(m - b) * size:(m - a) * size]:
                    best = -span
            if best is not None:
                code[b] = best
        chains.append(code)
    return chains


def _blocks(chain: dict[int, int], m: int) -> tuple[Block, ...]:
    """The block decomposition of a matched window, walked back from m
    along its chain codes (see _chains)."""
    blocks, b = [], m
    while b:
        k = chain[b]
        if k == 0:
            blocks.append(Block(IDENTITY, b - 1))
        elif k > 0:
            blocks.append(Block(TRANSLOCATION, b - 2 * k, k))
        else:
            blocks.append(Block(INVERSION, b + k, -k))
        b = blocks[-1].offset
    return tuple(reversed(blocks))


def _codes(seq: Sequence) -> np.ndarray:
    """A string by code point; any other sequence is taken as integer codes."""
    return code_points(seq) if isinstance(seq, str) else np.asarray(seq)


def verify_windows(pattern: Sequence, text: Sequence, starts: Iterable[int],
                   params: SearchParams,
                   witness: bool = False) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Yield (s, blocks) for each start s whose window text[s:s+m] matches.

    The one entry to the verifier: starts are taken CHUNK at a time and each
    chunk is advanced by one engine run.  Pattern and text are symbol
    strings, which are coded here by code point, or integer codes of one
    coding (Matcher passes code-point arrays).  blocks is the witness when
    one is asked for, else None.  params must be normalized for len(pattern).
    """
    m = len(pattern)
    p_arr, t_arr = _codes(pattern), _codes(text)
    # A signed type that holds every code and the -1 padding.
    dtype = np.promote_types(np.promote_types(p_arr.dtype, t_arr.dtype), np.int16)
    p_rev = np.full(m + params.alpha, -1, dtype=dtype)
    p_rev[:m] = p_arr[::-1]
    p_codes = list(p_arr.astype(dtype))
    starts = iter(starts)
    while len(chunk := np.fromiter(islice(starts, CHUNK), dtype=np.intp)):
        yield from _advance(p_codes, p_rev, t_arr, chunk, m, params, witness)


def _check_call(pattern: Sequence, text: Sequence, s: int,
                params: SearchParams | None) -> SearchParams:
    m, n = len(pattern), len(text)
    if m == 0:
        raise ValueError("empty pattern")
    if not 0 <= s <= n - m:
        raise ValueError("position out of bounds")
    return normalize_params(params or maximal_params(m), m)


def verify(pattern: Sequence, text: Sequence, s: int,
           params: SearchParams | None = None) -> bool:
    """True iff the pattern matches t[s..s+m-1] under the given bounds.

    Accepts symbol strings or integer code sequences.
    """
    params = _check_call(pattern, text, s, params)
    return next(verify_windows(pattern, text, (s,), params), None) is not None


def verify_with_witness(pattern: Sequence, text: Sequence, s: int,
                        params: SearchParams | None = None) -> tuple[Block, ...] | None:
    """Like verify, but on success return the block decomposition.

    Ties are broken toward identity, then the shortest translocation, then
    the shortest inversion, so output is deterministic.
    """
    params = _check_call(pattern, text, s, params)
    for _, blocks in verify_windows(pattern, text, (s,), params, witness=True):
        return blocks
    return None
