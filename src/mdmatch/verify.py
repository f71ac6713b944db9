"""Verification of candidate windows by the chain of cuts each one walks.

For a pattern p and a window w = t[s..s+m-1] the verifier decides whether w
decomposes into identity symbols, swapped adjacent equal-length factors
(halves of length <= alpha) and reversed factors (length <= beta) of p.

Every block permutes its own span, so blocks end at cuts: rows b where the
prefixes p[:b] and w[:b] have equal multisets, read off the filter's 32-bit
fingerprint prefix of the text (core.fingerprint_prefix): prefix[s+b] -
prefix[s] equals the weight sum of p[:b].  A collision only adds a cut, never
reached, as an exact block from a reached cut leaves equal multisets.  Cut 0
is reached, and a later cut b is reached by identity when b - 1 is reached
and p[b-1] == w[b-1], else by the shortest translocation (w[a:b] ==
p[a+k:b] + p[a:a+k], b - a = 2k <= 2*alpha), else by the shortest inversion
(w[a:b] == reverse(p[a:b]), 2 <= b - a <= beta) from a reached cut a, each
block checked by an exact compare.  The window matches iff m is reached,
and its witness is walked back from m along the codes of the cuts that
reached it: that order is the witness tie-break.

One decider (_decide) walks every window of a chunk that is not equal to
its pattern, on a table row that holds the window and then its pattern; an
equal one matches by one compare, with the all-identity witness.  It
advances cut rank j of every window together, a few numpy calls per step,
and from a cut walks back over reached cuts only, at most
L = max(2*alpha, beta) rows.  Deciding, it stops a cut at its first valid
block, since that choice does not change which cuts are reached.  It finds
cuts and identity bits ROWS rows at a time and drops a window with no
reached cut in the last L rows.  A row slice with more cut ranks than
windows with cuts, such as a lone long window's, is first walked whole from
the cuts reached before it, so a run of unreachable cuts costs one step.

Cost per window: at most m cuts, each tested from at most L reached cuts by
a compare of at most L symbols, so O(m * L^2) time in the worst case (a
periodic window, cut every other row); a random candidate has a few cuts.
Deciding carries the last L reached cuts of each window between row slices,
so its space is O(L + ROWS) per window whatever m is; a witness also keeps a
code per row.  Chunks hold up to CHUNK window symbols.  Every caller,
Matcher included, reaches the decider through verify_windows.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator, Sequence

import numpy as np

from .core import (
    Block,
    IDENTITY,
    INVERSION,
    TRANSLOCATION,
    SearchParams,
    code_points,
    fingerprint_prefix,
    fingerprint_weights,
    maximal_params,
    normalize_params,
)

# Window symbols verified together, and rows of them scanned for cuts at once.
CHUNK = 1 << 16
ROWS = 64
# The one start, and pattern row, of the window a verify call decides.
_ORIGIN = np.zeros(1, dtype=np.intp)


def _state(n: int, horizon: int) -> np.ndarray:
    """What the walk of n windows carries from one row slice to the next:
    each window's last horizon reached cuts, latest first (cut 0, then
    positions too far back to reach from)."""
    back = np.full((n, horizon), -horizon, dtype=np.intp)
    back[:, 0] = 0
    return back


def _decide(table: np.ndarray, rows: np.ndarray, sums: np.ndarray, starts: np.ndarray,
            prefix: np.ndarray, alpha: int, beta: int,
            witness: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The mask of the windows that match their patterns, and with witness
    each window's codes by cut (see _blocks).  Row i of the C-contiguous
    table is window i, at starts[i] of the text with fingerprint prefix
    prefix, then its pattern, with fingerprint prefix sums sums[rows[i]]."""
    n, m = table.shape[0], table.shape[1] // 2
    horizon = max(2 * alpha, beta, 1)
    back = _state(n, horizon)
    # Whether a translocation (row 0) and an inversion (row 1) may span s rows.
    kinds = np.zeros((2, horizon + 1), dtype=bool)
    kinds[0, 2:2 * alpha + 1:2] = True
    kinds[1, 2:beta + 1] = True
    codes = np.zeros((n, m + 1), dtype=np.intp) if witness else None
    live = np.arange(n)
    for r0 in range(0, m, ROWS):
        if r0:
            # Cuts from here on are too far from an older last reached cut.
            live = live[r0 + 1 - back[live, 0] <= horizon]
            if not len(live):
                break
        row, win, at, ident = _cuts(table, rows, sums, starts, prefix, live, r0)
        if len(row):
            _slice(table, back, codes, kinds, alpha, witness, row, win, at, ident)
    return back[:, 0] == m, codes


def _slice(table: np.ndarray, back: np.ndarray, codes: np.ndarray | None, kinds: np.ndarray,
           alpha: int, witness: bool, row: np.ndarray, win: np.ndarray, at: np.ndarray,
           ident: np.ndarray) -> None:
    """Walk the cuts of one row slice (see _cuts), recording each reached
    cut in back and, with witness, its code in codes."""
    flat, m = table.ravel(), table.shape[1] // 2
    ranks = np.bincount(row)
    if ranks.max() > np.count_nonzero(ranks):
        # More ranks than windows with cuts: walk every cut at once from
        # the cuts reached before the slice.  A window's answers stand up
        # to its first reached cut; the cuts after it go rank by rank.
        code = _walk(flat, m, back, win, at, ident, kinds, alpha, witness)
        hit = (code != -1).nonzero()[0]
        if not len(hit):
            return
        first = np.full(len(ranks), len(row))
        np.minimum.at(first, row[hit], hit)
        _reach(back, codes, win, at, code, first[first < len(row)])
        rest = (np.arange(len(row)) > first[row]).nonzero()[0]
        row, win, at, ident = row[rest], win[rest], at[rest], ident[rest]
    # Cut rank j of every window is one step, windows in order.
    rank = np.arange(len(row)) - row.searchsorted(row)
    order = rank.argsort(kind="stable")
    win, at, ident = win[order], at[order], ident[order]
    lo = 0
    for hi in np.add.accumulate(np.bincount(rank)).tolist():
        c, b = win[lo:hi], at[lo:hi]
        code = _walk(flat, m, back, c, b, ident[lo:hi], kinds, alpha, witness)
        lo = hi
        _reach(back, codes, c, b, code, (code != -1).nonzero()[0])


def _cuts(table: np.ndarray, rows: np.ndarray, sums: np.ndarray, starts: np.ndarray,
          prefix: np.ndarray, live: np.ndarray,
          r0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per cut b of the live windows in the ROWS rows from r0, in window
    order: the window's index in live, the window, b and whether w[b-1] ==
    p[b-1]."""
    m = table.shape[1] // 2
    r1 = min(r0 + ROWS, m)
    s = starts[live]
    # b is a cut where the window's fingerprint up to b equals the pattern's.
    fp = prefix[s[:, None] + np.arange(r0 + 1, r1 + 1)]
    fp -= prefix[s][:, None]
    cut = fp == sums[rows[live], r0:r1]
    if r1 == m:
        cut &= cut[:, -1:]  # a window with no cut at m cannot match
    row, col = cut.nonzero()
    win, at = live[row], col + (r0 + 1)
    return row, win, at, table[win, at - 1] == table[win, at + (m - 1)]


def _reach(back: np.ndarray, codes: np.ndarray | None, c: np.ndarray, b: np.ndarray,
           code: np.ndarray, hit: np.ndarray) -> None:
    """Record that window c[i] reached cut b[i] with code[i], for i in hit."""
    c, b = c[hit], b[hit]
    back[c, 1:] = back[c, :-1]
    back[c, 0] = b
    if codes is not None:
        codes[c, b] = code[hit]


def _walk(flat: np.ndarray, m: int, back: np.ndarray, c: np.ndarray, b: np.ndarray,
          ident: np.ndarray, kinds: np.ndarray, alpha: int, witness: bool) -> np.ndarray:
    """Per window c at cut b, with ident saying whether w[b-1] == p[b-1],
    the code of the block that reaches b from a reached cut of c in back
    (see _blocks), or -1 where none does.  Reached cuts are walked back
    nearest first, so the first valid blocks are the shortest.  Deciding, a
    window stops at its first valid block; for a witness, one with an
    inversion goes on, within 2 * alpha rows, for a translocation.  flat is
    the table raveled: window symbol flat[x] has pattern symbol pat[x]."""
    pat, pat1 = flat[m:], flat[m - 1:]  # pat1[x + s - o] is pat[x + s - 1 - o]
    horizon = back.shape[1]
    at = np.arange(len(c))  # the windows still walking back
    a = back[c, 0]
    s = b - a
    code = (ident & (s == 1)) - 1  # 0 by identity, else -1 so far
    limit = (code * -horizon)  # how far back a window still looks
    for d in range(horizon):
        if d:
            a = back[c, d]
            s = b - a
        go = s <= limit
        k = np.count_nonzero(go)
        if k < len(go):
            if not k:
                break
            go = go.nonzero()[0]
            at, c, a, b, s, limit = at[go], c[go], a[go], b[go], s[go], limit[go]
        tr, iv = kinds[0, s], kinds[1, s]
        if witness:
            iv &= code[at] == -1
        n_tr, n_iv = np.count_nonzero(tr), np.count_nonzero(iv)
        if not (n_tr or n_iv):
            continue
        # Each compare is padded to the longest span by repeating the
        # window's own symbols.
        span = s[:, None]
        o = np.arange(s.max()) % span
        x = c * (2 * m) + a
        block = flat[x[:, None] + o]
        if n_iv:
            iv &= (block == pat1[(x + s)[:, None] - o]).all(1)
            if np.count_nonzero(iv):
                iv = iv.nonzero()[0]
                code[at[iv]] = -s[iv]
                limit[iv] = 2 * alpha if witness else 0
        if n_tr:
            tr &= (block == pat[x[:, None] + (o + span // 2) % span]).all(1)
            if np.count_nonzero(tr):
                tr = tr.nonzero()[0]
                code[at[tr]] = s[tr] // 2
                limit[tr] = 0
    return code


@functools.lru_cache(maxsize=1)
def _identity(m: int) -> tuple[Block, ...]:
    """The witness of a window equal to the pattern; Blocks are frozen, so
    the windows and patterns of one length share it."""
    return tuple(Block(IDENTITY, i) for i in range(m))


def _blocks(code: list, m: int) -> tuple[Block, ...]:
    """The block decomposition of a matched window, walked back from m
    along the codes of its reached cuts: 0 identity, k > 0 a swap of
    halves k, -k a reversal of k."""
    blocks, b = [], m
    while b:
        k = code[b]
        if k == 0:
            blocks.append(Block(IDENTITY, b - 1))
        elif k > 0:
            blocks.append(Block(TRANSLOCATION, b - 2 * k, k))
        else:
            blocks.append(Block(INVERSION, b + k, -k))
        b = blocks[-1].offset
    return tuple(reversed(blocks))


def verify_windows(patterns: np.ndarray, text: np.ndarray, prefix: np.ndarray | None,
                   starts: np.ndarray, rows: np.ndarray, params: SearchParams,
                   witness: bool = False) -> Iterator[tuple[int, int, tuple[Block, ...] | None]]:
    """Yield (r, s, blocks), in order, for each s = starts[i] whose window
    text[s:s+m] matches row r = rows[i] of patterns, a (k, m) code array.

    The one entry to the verifier: starts are taken CHUNK window symbols at
    a time, whatever their rows; in each chunk the windows equal to their
    patterns match by one compare, and the rest are decided by one decider
    run.  text, starts and rows are integer arrays, checked and coded by
    the caller; params must be normalized for m.  prefix is
    fingerprint_prefix(text), or None to build it when a window is first
    walked; the rows' prefix sums are built then too, once per call.
    blocks is the witness when one is asked for, else None."""
    m = patterns.shape[1]
    offsets, sums = np.arange(m), None
    step = max(1, CHUNK // m)
    for i in range(0, len(starts), step):
        s, r = starts[i:i + step], rows[i:i + step]
        w, p = text[s[:, None] + offsets], patterns.take(r, axis=0)
        # A window equal to its pattern matches by identity alone, which is
        # also the witness the tie-break gives it, so it skips the walk.
        exact = (w == p).all(1)
        matched = exact.copy()
        rest = (~exact).nonzero()[0]
        if len(rest):
            if sums is None:
                sums = fingerprint_weights(patterns).cumsum(axis=1, dtype=np.uint32)
                if prefix is None:
                    prefix = fingerprint_prefix(text)
            found, codes = _decide(np.concatenate((w[rest], p[rest]), axis=1), r[rest], sums,
                                   s[rest], prefix, params.alpha, params.beta, witness)
            matched[rest[found]] = True
        hits = matched.nonzero()[0]
        if witness:
            slot = np.cumsum(~exact) - 1  # window -> its row of codes
            for c in hits.tolist():
                yield (int(r[c]), int(s[c]),
                       _identity(m) if exact[c] else _blocks(codes[slot[c]].tolist(), m))
        else:
            for row, start in zip(r[hits].tolist(), s[hits].tolist()):
                yield row, start, None


def _first(pattern: Sequence, text: Sequence, s: int, params: SearchParams | None,
           witness: bool) -> tuple[int, int, tuple[Block, ...] | None] | None:
    """verify_windows' answer for text[s:s+m] alone, or None: where verify
    and verify_with_witness check their input and code it (see verify)."""
    m = len(pattern)
    if m == 0:
        raise ValueError("empty pattern")
    try:
        s = operator.index(s)
    except TypeError:
        raise ValueError(f"s must be an integer, not {type(s).__name__}") from None
    if not 0 <= s <= len(text) - m:
        raise ValueError("position out of bounds")
    p = code_points(pattern) if isinstance(pattern, str) else np.asarray(pattern)
    w = code_points(text[s:s + m]) if isinstance(text, str) else np.asarray(text[s:s + m])
    for name, codes in (("pattern", p), ("text", w)):
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"{name} must be a str or a sequence of integers")
    params = normalize_params(params or maximal_params(m), m)
    return next(verify_windows(p[None], w, None, _ORIGIN, _ORIGIN, params, witness), None)


def verify(pattern: Sequence, text: Sequence, s: int,
           params: SearchParams | None = None) -> bool:
    """True iff the pattern matches t[s..s+m-1] under the given bounds.

    pattern and text are each a str, coded by code point, or a sequence of
    integer codes, and s is an integer; else a ValueError names the
    argument.  Only the window is coded, so a call's cost does not grow with
    the text.
    """
    return _first(pattern, text, s, params, False) is not None


def verify_with_witness(pattern: Sequence, text: Sequence, s: int,
                        params: SearchParams | None = None) -> tuple[Block, ...] | None:
    """Like verify (the same inputs, only the window coded), but on success
    return the block decomposition.

    Ties are broken toward identity, then the shortest translocation, then
    the shortest inversion, so output is deterministic.
    """
    found = _first(pattern, text, s, params, True)
    return None if found is None else found[2]
