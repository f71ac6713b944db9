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
like the pattern's occurrence shifted by one, leaves the chunk.  The band
arrays are shaped (band, windows), so each step of a row is one numpy call
for the whole chunk.  A window with no S bit among the last
max(2*alpha, beta) rows can never match and is dropped from the chunk.  The
translocation and inversion tests are skipped on rows where every live
window extends by identity.  Back-pointers are recorded only when a witness
is asked for.  Every caller, Matcher included, reaches the engine through
verify_windows.
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


class VerifierWorkspace:
    """The verifier's band buffers for one chunk of up to CHUNK windows.

    Sized by (alpha, beta) and CHUNK, never by the pattern length; one
    workspace serves every chunk of a search.  Each buffer is flat and
    band-major: with n live windows its first rows * n entries form a
    C-contiguous (rows, n) array, so a band is one 1-D slice.
    """

    def __init__(self, alpha: int, beta: int):
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        self.alpha = alpha
        self.beta = beta
        self.horizon = max(2 * alpha, beta, 1)
        self.bcap = max(beta - 1, 0)
        # Band rows: I[i, i + bcap - u] for u = 0..2*bcap, then F[i, i-k] and
        # F[i-k, i] for k = 1..alpha.  Test rows: the I rows of inversion
        # lengths 2..beta, then both F bands.
        bands = 2 * self.bcap + 1 + 2 * alpha
        tests = self.bcap + 2 * alpha
        # S rows: the last horizon rows plus room to write before shifting.
        self.srows = 2 * self.horizon + 32
        self.eq = np.empty(bands * CHUNK, dtype=bool)
        self.run = np.empty(bands * CHUNK, dtype=np.int32)
        self.grown = np.empty(bands * CHUNK, dtype=np.int32)
        self.S = np.empty(self.srows * CHUNK, dtype=bool)
        self.hit = np.empty(tests * CHUNK, dtype=bool)
        self.need = np.empty(tests * CHUNK, dtype=np.int32)
        k_alpha = np.arange(1, alpha + 1, dtype=np.int32)
        self.k = np.concatenate((np.arange(2, beta + 1, dtype=np.int32), k_alpha, k_alpha))

    def cells(self) -> int:
        """Total buffer entries owned by this workspace (space-bound checks)."""
        return sum(buf.size for buf in vars(self).values() if isinstance(buf, np.ndarray))


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


def _advance(p_codes: list, p_rev: np.ndarray, t_arr: np.ndarray, starts: np.ndarray,
             m: int, ws: VerifierWorkspace,
             witness: bool) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Run the DP row by row on the windows t_arr[s:s+m] for s in starts.

    p_rev is the pattern reversed and padded with alpha entries of -1.
    Yields (s, blocks) for the matching windows in the order of starts.
    """
    alpha, bcap, horizon, srows = ws.alpha, ws.bcap, ws.horizon, ws.srows
    ilen = 2 * bcap + 1
    bands = ilen + 2 * alpha
    tests = bcap + 2 * alpha
    # Row r holds w[m - 1 + bcap - r] of every window and -1 off the window,
    # so the positions j = i + bcap down to i - max(alpha, bcap) that feed
    # row i are one forward block from row m - 1 - i.
    block = np.full((m + bcap + max(alpha, bcap), len(starts)), -1, dtype=p_rev.dtype)
    block[bcap:bcap + m] = t_arr[starts + np.arange(m - 1, -1, -1)[:, None]]
    # A window equal to the pattern matches by identity alone, which is also
    # the witness the tie-break gives it, so it skips the DP.  Its column of
    # record stays 0, identity at every row.
    exact = (block[bcap:bcap + m] == p_rev[:m, None]).all(0)
    ids = np.flatnonzero(~exact)
    if len(ids) and CUT_TEST_ROWS * len(ids) < min(m, horizon):
        # The DP cannot drop these windows for many rows; the cut test
        # rejects most of those that cannot match in one pass each.
        ids = ids[_cuttable(p_rev[:m], block[bcap:bcap + m, ids], alpha, ws.beta)]
    if len(ids) < len(starts):
        block = block[:, ids]
    n = len(ids)
    record = np.zeros((m, len(starts)), dtype=np.int32) if witness else None
    ws.run[:bands * n] = 0
    ws.S[:srows * n] = True  # S[-1] is true: the empty prefix matches
    pos = srows - horizon - 1  # S[i] is row pos, S[i - d] row pos + d
    rebind = True
    for i in range(m if n else 0):
        if rebind:
            # Views of the workspace buffers for the n live windows.
            rebind = False
            flat = block.ravel()
            eq, run, grown = ws.eq[:bands * n], ws.run[:bands * n], ws.grown[:bands * n]
            eq_i = eq[bcap * n:(bcap + 1) * n]
            eq_F = eq[ilen * n:(ilen + alpha) * n]
            eq_C = eq[(ilen + alpha) * n:].reshape(alpha, n)
            head = min(ilen, 2) * n  # I chains entering the band start from 0
            grown[:head] = 1
            S = ws.S[:srows * n]
            S2 = S.reshape(srows, n)
            hit = ws.hit[:tests * n]
            hit_I = hit[:bcap * n]
            hit_F = hit[bcap * n:(bcap + alpha) * n]
            hit_F2 = hit_F.reshape(alpha, n)
            hit_C = hit[(bcap + alpha) * n:]
            hits = hit[:(bcap + alpha) * n].reshape(bcap + alpha, n)
            need = ws.need[:tests * n]
            need.reshape(tests, n)[:] = ws.k[:, None]
        if pos < 0:
            S2[srows - horizon:] = S2[:horizon]
            pos = srows - horizon - 1
        r = (m - 1 - i) * n
        pi = p_codes[i]
        np.equal(flat[r:r + ilen * n], pi, out=eq[:ilen * n])
        if bcap:
            # I follows anti-diagonals: row i's u comes from row i-1's u - 2.
            np.add(run[:ilen * n - head], 1, out=grown[head:ilen * n])
        if alpha:
            np.equal(flat[r + (bcap + 1) * n:r + (bcap + 1 + alpha) * n], pi, out=eq_F)
            np.equal(p_rev[m - i:m - i + alpha, None], flat[r + bcap * n:r + (bcap + 1) * n],
                     out=eq_C)
            np.add(run[ilen * n:], 1, out=grown[ilen * n:])
        np.multiply(grown, eq, out=run)
        srow = S2[pos]
        np.logical_and(eq_i, S2[pos + 1], out=srow)
        if np.count_nonzero(srow) < n:
            if tests:
                ident = srow.copy() if witness else None
                # Inversion of length k: I[i, i-k+1] >= k and S[i-k].
                # Translocation of halves k: both F >= k and S[i-2k].
                np.greater_equal(run[(bcap + 1) * n:], need, out=hit)
                np.logical_and(hit_I, S[(pos + 2) * n:(pos + 2 + bcap) * n], out=hit_I)
                np.logical_and(hit_F, hit_C, out=hit_F)
                np.logical_and(hit_F2, S2[pos + 2:pos + 2 * alpha + 1:2], out=hit_F2)
                np.logical_or(srow, np.logical_or.reduce(hits, axis=0), out=srow)
                if witness:
                    record[i, ids] = _why(ident, hit_I.reshape(bcap, n), hit_F2)
            if horizon - 1 <= i < m - 1:
                # A window with no S bit among the last horizon rows is dead.
                keep = S2[pos:pos + horizon].any(0)
                if not keep.all():
                    n2 = int(keep.sum())
                    if not n2:
                        n = 0
                        break
                    block = block[:, keep]
                    ids = ids[keep]
                    for buf, nrows in ((ws.run, bands), (ws.S, srows)):
                        buf[:nrows * n2] = buf[:nrows * n].reshape(nrows, n)[:, keep].ravel()
                    n = n2
                    rebind = True
        pos -= 1
    matched = exact
    if n:
        matched[ids[ws.S[(pos + 1) * n:(pos + 2) * n]]] = True
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
                   params: SearchParams, workspace: VerifierWorkspace | None = None,
                   witness: bool = False) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Yield (s, blocks) for each start s whose window text[s:s+m] matches.

    The one entry to the verifier: starts are taken CHUNK at a time and each
    chunk is advanced by one engine run.  Pattern and text are symbol
    strings, which are coded here by code point, or integer codes of one
    coding (Matcher passes code-point arrays).  blocks is the witness when
    one is asked for, else None.  params must be normalized for len(pattern).
    """
    m = len(pattern)
    ws = workspace if workspace is not None else VerifierWorkspace(params.alpha, params.beta)
    p_arr, t_arr = _codes(pattern), _codes(text)
    # A signed type that holds every code and the -1 padding.
    dtype = np.promote_types(np.promote_types(p_arr.dtype, t_arr.dtype), np.int16)
    p_rev = np.full(m + ws.alpha, -1, dtype=dtype)
    p_rev[:m] = p_arr[::-1]
    p_codes = list(p_arr.astype(dtype))
    starts = iter(starts)
    while len(chunk := np.fromiter(islice(starts, CHUNK), dtype=np.intp)):
        yield from _advance(p_codes, p_rev, t_arr, chunk, m, ws, witness)


def _check_call(pattern: Sequence, text: Sequence, s: int,
                params: SearchParams | None) -> SearchParams:
    m, n = len(pattern), len(text)
    if m == 0:
        raise ValueError("empty pattern")
    if not 0 <= s <= n - m:
        raise ValueError("position out of bounds")
    return normalize_params(params or maximal_params(m), m)


def verify(pattern: Sequence, text: Sequence, s: int,
           params: SearchParams | None = None,
           workspace: VerifierWorkspace | None = None) -> bool:
    """True iff the pattern matches t[s..s+m-1] under the given bounds.

    Accepts symbol strings or integer code sequences.  A workspace built
    for the same normalized (alpha, beta) may be supplied for reuse.
    """
    params = _check_call(pattern, text, s, params)
    if workspace is not None and (workspace.alpha, workspace.beta) != (params.alpha, params.beta):
        raise ValueError("workspace built for different parameters")
    return next(verify_windows(pattern, text, (s,), params, workspace), None) is not None


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
