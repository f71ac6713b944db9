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
of m.  Two interchangeable row engines exist: plain Python loops (fast for
narrow bands) and a vectorized one (fast for wide bands).  Every caller,
Matcher included, reaches them through _verify_windows, which picks one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Block,
    IDENTITY,
    INVERSION,
    TRANSLOCATION,
    SearchParams,
    build_alphabet,
    maximal_params,
    normalize_params,
)

# Band half-width at which the vectorized row engine overtakes the Python one.
NUMPY_BAND_MIN = 48


class VerifierWorkspace:
    """Reusable scratch buffers for one verification at a time.

    Sized by (alpha, beta) only; reusing one workspace across candidate
    positions avoids reallocation on candidate-dense texts.
    """

    def __init__(self, alpha: int, beta: int, use_numpy: bool | None = None):
        if alpha < 0 or beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        self.alpha = alpha
        self.beta = beta
        self.horizon = max(2 * alpha, beta, 1)
        self.ring = self.horizon + 1
        self.ilen = 2 * beta - 1 if beta >= 2 else 0
        if use_numpy is None:
            use_numpy = max(alpha, beta) >= NUMPY_BAND_MIN
        self.use_numpy = use_numpy
        self.sring = [0] * self.ring
        fw = alpha + 1
        if use_numpy:
            self.rowF = np.zeros(fw, dtype=np.int32)
            self.rowFp = np.zeros(fw, dtype=np.int32)
            self.colF = np.zeros(fw, dtype=np.int32)
            self.colFp = np.zeros(fw, dtype=np.int32)
            self.rowI = np.zeros(self.ilen, dtype=np.int32)
            self.rowIp = np.zeros(self.ilen, dtype=np.int32)
            self.fmatch = np.zeros(fw, dtype=bool)
            self.cmatch = np.zeros(fw, dtype=bool)
            self.imatch = np.zeros(self.ilen, dtype=bool)
            self.tmpF = np.zeros(fw, dtype=np.int32)
            self.tmpC = np.zeros(fw, dtype=np.int32)
            self.tmpI = np.zeros(self.ilen, dtype=np.int32)
            self.bhits = np.zeros(alpha, dtype=bool)
            self.bhits2 = np.zeros(alpha, dtype=bool)
            self.chits = np.zeros(max(beta - 1, 0), dtype=bool)
            self.kb = np.arange(1, alpha + 1, dtype=np.int32)
            self.kc = np.arange(2, beta + 1, dtype=np.int32)
        else:
            self.rowF = [0] * fw
            self.rowFp = [0] * fw
            self.colF = [0] * fw
            self.colFp = [0] * fw
            self.rowI = [0] * self.ilen
            self.rowIp = [0] * self.ilen

    def cells(self) -> int:
        """Total buffer entries owned by this workspace (space-bound checks)."""
        total = len(self.sring)
        names = ["rowF", "rowFp", "colF", "colFp", "rowI", "rowIp"]
        if self.use_numpy:
            names += ["fmatch", "cmatch", "imatch", "tmpF", "tmpC", "tmpI",
                      "bhits", "bhits2", "chits", "kb", "kc"]
        for name in names:
            total += len(getattr(self, name))
        return total

    def _reset(self) -> None:
        if self.use_numpy:
            for name in ("rowF", "rowFp", "colF", "colFp", "rowI", "rowIp"):
                getattr(self, name).fill(0)
        else:
            zf = [0] * (self.alpha + 1)
            zi = [0] * self.ilen
            self.rowF[:] = zf
            self.rowFp[:] = zf
            self.colF[:] = zf
            self.colFp[:] = zf
            self.rowI[:] = zi
            self.rowIp[:] = zi
        self.sring[:] = [0] * self.ring


def _verify_rows_py(p: Sequence, w: Sequence, m: int, alpha: int, beta: int,
                    ws: VerifierWorkspace, record: list | None = None) -> bool:
    ws._reset()
    rowF, rowFp = ws.rowF, ws.rowFp
    colF, colFp = ws.colF, ws.colFp
    rowI, rowIp = ws.rowI, ws.rowIp
    S = ws.sring
    ring = ws.ring
    horizon = ws.horizon
    bcap = beta - 1
    ilen = ws.ilen
    last_true = -1
    for i in range(m):
        pi = p[i]
        wi = w[i]
        if alpha:
            for k in range(alpha + 1):
                j = i - k
                rowF[k] = rowFp[k] + 1 if (j >= 0 and w[j] == pi) else 0
            for d in range(1, alpha + 1):
                q = i - d
                colF[d] = colFp[d] + 1 if (q >= 0 and p[q] == wi) else 0
        if bcap > 0:
            for u in range(ilen):
                j = i + bcap - u
                if 0 <= j < m and w[j] == pi:
                    rowI[u] = rowIp[u - 2] + 1 if u >= 2 else 1
                else:
                    rowI[u] = 0
        si = False
        why = None
        if pi == wi and (i == 0 or S[(i - 1) % ring]):
            si = True
            why = (0, 0)
        if not si and alpha:
            kmax = min(alpha, (i + 1) // 2)
            for k in range(1, kmax + 1):
                if rowF[k] >= k and colF[k] >= k:
                    back = i - 2 * k
                    if back < 0 or S[back % ring]:
                        si = True
                        why = (1, k)
                        break
        if not si and bcap > 0:
            kmax = min(beta, i + 1)
            for k in range(2, kmax + 1):
                if rowI[k + bcap - 1] >= k:
                    back = i - k
                    if back < 0 or S[back % ring]:
                        si = True
                        why = (2, k)
                        break
        S[i % ring] = 1 if si else 0
        if record is not None:
            record.append(why)
        if si:
            last_true = i
        elif i - last_true >= horizon and i >= horizon - 1:
            # No S bit survives within the dependency horizon: dead window.
            return False
        rowF, rowFp = rowFp, rowF
        colF, colFp = colFp, colF
        rowI, rowIp = rowIp, rowI
    return S[(m - 1) % ring] == 1


def _verify_rows_np(p_list: list, p_arr: np.ndarray, t_arr: np.ndarray, s: int,
                    m: int, alpha: int, beta: int, ws: VerifierWorkspace) -> bool:
    ws._reset()
    rowF, rowFp = ws.rowF, ws.rowFp
    colF, colFp = ws.colF, ws.colFp
    rowI, rowIp = ws.rowI, ws.rowIp
    fm, cm, im = ws.fmatch, ws.cmatch, ws.imatch
    tmpF, tmpC, tmpI = ws.tmpF, ws.tmpC, ws.tmpI
    S = ws.sring
    ring = ws.ring
    horizon = ws.horizon
    bcap = beta - 1
    w_list = t_arr[s:s + m].tolist()
    last_true = -1
    for i in range(m):
        pi = p_list[i]
        wi = w_list[i]
        if alpha:
            span = min(alpha, i) + 1
            fm[span:] = False
            np.equal(t_arr[s + i - span + 1:s + i + 1][::-1], pi, out=fm[:span])
            np.add(rowFp, 1, out=tmpF)
            np.multiply(tmpF, fm, out=rowF)
            depth = min(alpha, i)
            cm[0] = False
            cm[depth + 1:] = False
            if depth:
                np.equal(p_arr[i - depth:i][::-1], wi, out=cm[1:depth + 1])
            np.add(colFp, 1, out=tmpC)
            np.multiply(tmpC, cm, out=colF)
        if bcap > 0:
            jlo = max(0, i - bcap)
            jhi = min(m - 1, i + bcap)
            ulo = i + bcap - jhi
            uhi = i + bcap - jlo
            im[:ulo] = False
            im[uhi + 1:] = False
            np.equal(t_arr[s + jlo:s + jhi + 1][::-1], pi, out=im[ulo:uhi + 1])
            np.add(rowIp[:-2], 1, out=tmpI[2:])
            tmpI[0] = tmpI[1] = 1
            np.multiply(tmpI, im, out=rowI)
        si = False
        if pi == wi and (i == 0 or S[(i - 1) % ring]):
            si = True
        if not si and alpha:
            np.greater_equal(rowF[1:], ws.kb, out=ws.bhits)
            np.greater_equal(colF[1:], ws.kb, out=ws.bhits2)
            ws.bhits &= ws.bhits2
            if ws.bhits.any():
                for idx in np.nonzero(ws.bhits)[0].tolist():
                    back = i - 2 * (idx + 1)
                    if back < 0 or S[back % ring]:
                        si = True
                        break
        if not si and bcap > 0:
            np.greater_equal(rowI[beta:], ws.kc, out=ws.chits)
            if ws.chits.any():
                for idx in np.nonzero(ws.chits)[0].tolist():
                    back = i - (idx + 2)
                    if back < 0 or S[back % ring]:
                        si = True
                        break
        S[i % ring] = 1 if si else 0
        if si:
            last_true = i
        elif i - last_true >= horizon and i >= horizon - 1:
            return False
        rowF, rowFp = rowFp, rowF
        colF, colFp = colFp, colF
        rowI, rowIp = rowIp, rowI
    return S[(m - 1) % ring] == 1


def _encode_pair(pattern, text):
    alphabet = build_alphabet([pattern, text])
    return alphabet.encode_sequence(pattern), alphabet.encode_sequence(text)


def _blocks(record: list) -> tuple[Block, ...]:
    """The block decomposition of a matched window from its back-pointers.

    Ties are broken toward identity, then the shortest translocation, then
    the shortest inversion (the order in which the row engine tests them).
    """
    blocks = []
    i = len(record) - 1
    while i >= 0:
        cond, k = record[i]
        if cond == 0:
            blocks.append(Block(IDENTITY, i))
            i -= 1
        elif cond == 1:
            blocks.append(Block(TRANSLOCATION, i - 2 * k + 1, k))
            i -= 2 * k
        else:
            blocks.append(Block(INVERSION, i - k + 1, k))
            i -= k
    blocks.reverse()
    return tuple(blocks)


def _verify_windows(pattern: Sequence, text: Sequence, starts: Iterable[int],
                    params: SearchParams, workspace: VerifierWorkspace | None = None,
                    witness: bool = False) -> Iterator[tuple[int, tuple[Block, ...] | None]]:
    """Yield (s, blocks) for each start s whose window text[s:s+m] matches.

    The one place that picks a row engine and slices windows for it.  Both
    engines take code arrays; the Python one also takes symbol strings.  A
    witness needs back-pointers, which only the Python engine records, so
    witness=True runs it and builds the blocks from the same pass; blocks is
    None otherwise.  params must be normalized for len(pattern); a supplied
    workspace decides the engine, so it must not be a vectorized one when a
    witness is asked for.
    """
    m = len(pattern)
    alpha, beta = params.alpha, params.beta
    ws = workspace
    if ws is None:
        ws = VerifierWorkspace(alpha, beta, use_numpy=False if witness else None)
    if ws.use_numpy:
        if isinstance(pattern, np.ndarray) and isinstance(text, np.ndarray):
            p_arr, t_arr = pattern, text
        else:
            p_arr, t_arr = _encode_pair(pattern, text)
        p_list = p_arr.tolist()
        for s in starts:
            if _verify_rows_np(p_list, p_arr, t_arr, s, m, alpha, beta, ws):
                yield s, None
        return
    p_list = pattern.tolist() if isinstance(pattern, np.ndarray) else pattern
    t_is_arr = isinstance(text, np.ndarray)
    for s in starts:
        w = text[s:s + m]
        record = [] if witness else None
        if _verify_rows_py(p_list, w.tolist() if t_is_arr else w, m, alpha, beta, ws, record):
            yield s, _blocks(record) if witness else None


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

    Accepts symbol strings or pre-encoded code arrays.  A workspace built
    for the same normalized (alpha, beta) may be supplied for reuse.
    """
    params = _check_call(pattern, text, s, params)
    if workspace is not None and (workspace.alpha, workspace.beta) != (params.alpha, params.beta):
        raise ValueError("workspace built for different parameters")
    return next(_verify_windows(pattern, text, (s,), params, workspace), None) is not None


def verify_with_witness(pattern: Sequence, text: Sequence, s: int,
                        params: SearchParams | None = None) -> tuple[Block, ...] | None:
    """Like verify, but on success return the block decomposition.

    Ties are broken toward identity, then the shortest translocation, then
    the shortest inversion, so output is deterministic.
    """
    params = _check_call(pattern, text, s, params)
    for _, blocks in _verify_windows(pattern, text, (s,), params, witness=True):
        return blocks
    return None
