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

One engine runs this DP on a chunk of up to CHUNK candidate windows at a
time.  A window equal to the pattern is accepted, with the all-identity
witness, by one compare over the chunk before any row is run, so a
pattern's exact copies never pay for the m rows of the DP.  When the DP
could not drop the other windows for many rows, the cut test (_cuttable)
decides them first from the cuts where the prefixes of p and w have equal
multisets; a window that no chain of blocks between such cuts can match,
like the pattern's occurrence shifted by one, leaves the chunk.  The DP
state is built when the DP first runs on a chunk, for its live windows:
numpy arrays shaped (rows, windows), so each step of a row is one numpy
call for the whole chunk.  A window with no S bit among the last
max(2*alpha, beta) rows can never match and leaves the chunk, and the state
is built again for the windows left.  The translocation and inversion
tests are skipped on rows where every live window extends by identity.
Back-pointers are recorded only when a witness is asked for.  Every caller,
Matcher included, reaches the engine through verify_windows.
"""

from __future__ import annotations

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


def _why(ident: np.ndarray, inv: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Back-pointer codes of one row: 0 for identity, k > 0 for the shortest
    translocation of halves k, -k for the shortest inversion of length k."""
    code = np.zeros(len(ident), dtype=np.int32)
    if len(inv):
        code = np.where(inv.any(0), -2 - inv.argmax(0), code)
    if len(trans):
        code = np.where(trans.any(0), 1 + trans.argmax(0), code)
    code[ident] = 0
    return code


def _dp_state(run: np.ndarray, S: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """The DP state of n live windows, every array C-contiguous and (rows, n):
    run and S as given, the scratch rows eq and grown (all 1) beside run, hit,
    and k repeated to width n as the length each test row must reach."""
    n = S.shape[1]
    return (run, S, np.empty(run.shape, dtype=bool), np.ones_like(run),
            np.empty((len(k), n), dtype=bool), k[:, None].repeat(n, axis=1))


def _advance(p_codes: list, p_rev: np.ndarray, t_arr: np.ndarray, starts: np.ndarray,
             m: int, params: SearchParams,
             witness: bool) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Run the DP row by row on the windows t_arr[s:s+m] for s in starts.

    p_rev is the pattern reversed and padded with alpha entries of -1.
    Yields (s, blocks) for the matching windows in the order of starts.
    """
    alpha, beta = params.alpha, params.beta
    bcap = max(beta - 1, 0)
    horizon = max(2 * alpha, beta, 1)
    # Band rows: I[i, i + bcap - u] for u = 0..2*bcap, then F[i, i-k] and
    # F[i-k, i] for k = 1..alpha.  Test rows: the I rows of inversion
    # lengths 2..beta, then both F bands.
    ilen = 2 * bcap + 1
    bands = ilen + 2 * alpha
    tests = bcap + 2 * alpha
    # S rows: the last horizon rows plus room to write before shifting.
    srows = 2 * horizon + 32
    k = np.array([*range(2, beta + 1)] + 2 * [*range(1, alpha + 1)], dtype=np.int32)
    # Row r holds w[m - 1 + bcap - r] of every window and -1 off the window,
    # so the positions j = i + bcap down to i - max(alpha, bcap) that feed
    # row i are one forward block from row m - 1 - i.
    block = np.full((m + bcap + max(alpha, bcap), len(starts)), -1, dtype=p_rev.dtype)
    block[bcap:bcap + m] = t_arr[starts + np.arange(m - 1, -1, -1)[:, None]]
    # A window equal to the pattern matches by identity alone, which is also
    # the witness the tie-break gives it, so it skips the DP.  Its column of
    # record stays 0, identity at every row.
    matched = (block[bcap:bcap + m] == p_rev[:m, None]).all(0)
    ids = np.flatnonzero(~matched)
    if len(ids) and CUT_TEST_ROWS * len(ids) < min(m, horizon):
        # The DP cannot drop these windows for many rows; the cut test
        # rejects most of those that cannot match in one pass each.
        ids = ids[_cuttable(p_rev[:m], block[bcap:bcap + m, ids], alpha, beta)]
    if len(ids) < len(starts):
        block = block.take(ids, axis=1)
    n = len(ids)
    record = np.zeros((m, len(starts)), dtype=np.int32) if witness else None
    # S[-1] is true: the empty prefix matches.  S[i] is row pos, S[i - d]
    # row pos + d.
    run, S = np.zeros((bands, n), dtype=np.int32), np.ones((srows, n), dtype=bool)
    pos = srows - horizon - 1
    head = min(ilen, 2)  # I chains entering the band start from 0: grown stays 1
    build = True
    for i in range(m if n else 0):
        if build:
            build = False
            run, S, eq, grown, hit, need = _dp_state(run, S, k)
            eq_I, eq_i, eq_F, eq_C = eq[:ilen], eq[bcap], eq[ilen:ilen + alpha], eq[ilen + alpha:]
            run_I, grown_I = run[:ilen - head], grown[head:ilen]
            run_F, grown_F, run_T = run[ilen:], grown[ilen:], run[bcap + 1:]
            hit_I, hit_F, hit_C = hit[:bcap], hit[bcap:bcap + alpha], hit[bcap + alpha:]
            hits = hit[:bcap + alpha]
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
        if np.count_nonzero(srow) < n:
            if tests:
                ident = srow.copy() if witness else None
                # Inversion of length k: I[i, i-k+1] >= k and S[i-k].
                # Translocation of halves k: both F >= k and S[i-2k].
                np.greater_equal(run_T, need, out=hit)
                np.logical_and(hit_I, S[pos + 2:pos + 2 + bcap], out=hit_I)
                np.logical_and(hit_F, hit_C, out=hit_F)
                np.logical_and(hit_F, S[pos + 2:pos + 2 * alpha + 1:2], out=hit_F)
                np.logical_or(srow, np.logical_or.reduce(hits, axis=0), out=srow)
                if witness:
                    record[i, ids] = _why(ident, hit_I, hit_F)
            if horizon - 1 <= i < m - 1:
                # A window with no S bit among the last horizon rows is dead.
                keep = S[pos:pos + horizon].any(0)
                if not keep.all():
                    ids, block = ids[keep], block.compress(keep, axis=1)
                    run, S = run.compress(keep, axis=1), S.compress(keep, axis=1)
                    n, build = len(ids), True
                    if not n:
                        break
        pos -= 1
    matched[ids[S[pos + 1]]] = True
    for c in np.flatnonzero(matched).tolist():
        yield int(starts[c]), _blocks(record[:, c].tolist()) if witness else None


def _cuttable(p_rev: np.ndarray, w_rev: np.ndarray, alpha: int, beta: int) -> np.ndarray:
    """False for each window that cannot match; True where it may.

    p_rev is the pattern reversed, and column c of w_rev is window c
    reversed.  Every block of a match permutes its own span, so the cuts
    between blocks lie where the prefixes of p and w have equal multisets,
    read here off equal prefix sums of the filter's symbol weights (a
    collision only adds a cut).  A window is kept when a chain of cuts from
    0 to m exists whose every step is an identity symbol, a reversal of at
    most beta symbols or a swap of two halves of at most alpha.  That is the
    match condition itself, so the test never rejects a match; a window
    with more than CUT_TEST_MAX cuts is kept untested.
    """
    m = len(p_rev)
    size = p_rev.itemsize
    p = p_rev[::-1]
    cuts = (np.cumsum(symbol_weights(w_rev[::-1]), axis=0)
            == np.cumsum(symbol_weights(p))[:, None])
    pb, prb = p.tobytes(), p_rev.tobytes()
    longest = max(2 * alpha, beta, 1)
    keep = cuts[-1].copy()
    for c in np.flatnonzero(keep).tolist():
        ends = (np.flatnonzero(cuts[:, c]) + 1).tolist()
        if len(ends) > CUT_TEST_MAX:
            continue
        wb = w_rev[::-1, c].tobytes()
        reach = [0]
        for b in ends:
            for a in reversed(reach):
                span = b - a
                if span > longest:
                    break
                x, y = a * size, b * size
                if span == 1:
                    ok = wb[x:y] == pb[x:y]
                else:
                    ok = span <= beta and wb[x:y] == prb[(m - b) * size:(m - a) * size]
                    h = span // 2 * size
                    if not ok and span % 2 == 0 and span // 2 <= alpha:
                        ok = wb[x:x + h] == pb[x + h:y] and wb[x + h:y] == pb[x:x + h]
                if ok:
                    reach.append(b)
                    break
        keep[c] = reach[-1] == m
    return keep


def _blocks(codes: list) -> tuple[Block, ...]:
    """The block decomposition of a matched window from its back-pointers.

    codes[i] says how S[i] was set: 0 by identity, k > 0 by a translocation
    of halves k, -k by an inversion of length k.  Ties are broken toward
    identity, then the shortest translocation, then the shortest inversion.
    """
    blocks = []
    i = len(codes) - 1
    while i >= 0:
        k = codes[i]
        if k == 0:
            blocks.append(Block(IDENTITY, i))
            i -= 1
        elif k > 0:
            blocks.append(Block(TRANSLOCATION, i - 2 * k + 1, k))
            i -= 2 * k
        else:
            blocks.append(Block(INVERSION, i + k + 1, -k))
            i += k
    blocks.reverse()
    return tuple(blocks)


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
