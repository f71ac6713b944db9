"""Shared domain types: the symbol encoding, search parameters, matches and their witnesses.

A match witness is a list of blocks that, replayed left to right on the
pattern, reconstructs the matched text window.  Three block kinds exist:

* identity       -- one symbol copied unchanged,
* translocation  -- two adjacent factors of equal length k swapped (ZW -> WZ),
* inversion      -- one factor of length k reversed (Z -> reverse(Z)).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

IDENTITY = "identity"
TRANSLOCATION = "translocation"
INVERSION = "inversion"


@dataclass(frozen=True)
class SearchParams:
    """Bounds on edit operations: alpha for translocated factor halves, beta for inversions.

    alpha = 0 disables translocations entirely; beta <= 1 disables inversions
    (reversing a single symbol is the identity).
    """

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {type(value).__name__}") from None
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")


def maximal_params(m: int) -> SearchParams:
    """Most permissive parameters for a pattern of length m."""
    if m < 1:
        raise ValueError("empty pattern")
    return SearchParams(alpha=m // 2, beta=m)


def normalize_params(params: SearchParams, m: int) -> SearchParams:
    """Clamp parameters to their definitional bounds for a length-m pattern.

    alpha never exceeds floor(m/2) (each translocated half must fit twice),
    beta never exceeds m.  Idempotent.
    """
    if m < 1:
        raise ValueError("empty pattern")
    alpha = min(params.alpha, m // 2)
    beta = min(params.beta, m)
    if alpha == params.alpha and beta == params.beta:
        return params
    return SearchParams(alpha=alpha, beta=beta)


def code_points(seq: str) -> np.ndarray:
    """The symbols of seq as an array of Unicode code points: uint8, one
    byte per symbol, when every code point is below 256, as in FASTA,
    --raw and generated texts of sigma <= 64; else int32.

    The search path's only symbol encoding: equal symbols get equal codes,
    and no table is built or grown.  Arrays of both widths compare and
    concatenate by value, so a byte text and a wide pattern mix.  Lone
    surrogates keep their code point.
    """
    try:
        return np.frombuffer(seq.encode("latin-1"), dtype=np.uint8)
    except UnicodeEncodeError:
        return np.frombuffer(seq.encode("utf-32-le", "surrogatepass"), dtype="<i4")


# splitmix64 constants (Steele, Lea and Flood 2014).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def symbol_weights(codes: Sequence[int]) -> np.ndarray:
    """The splitmix64 mix of each code, as uint64.  Both layers weigh a
    symbol by its low 32 bits (fingerprint_weights), so a multiset has one
    fingerprint, the sum of those modulo 2**32, in filter and verifier."""
    z = np.asarray(codes).astype(np.uint64)
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


# Symbols weighed per np.take in fingerprint_prefix, which first copies their
# codes to intp: a larger copy comes back as fresh pages on every build.
_TAKE = 1 << 13


@functools.lru_cache(maxsize=1)
def _byte_weights(weigh) -> np.ndarray:
    """The fingerprint weights of the codes 0-255, cached per weight function
    (symbol_weights), so a patched symbol_weights gets its own table."""
    table = weigh(np.arange(256)).astype(np.uint32)
    table.flags.writeable = False
    return table


def _in_table(codes: np.ndarray) -> bool:
    """Whether every code is in [0, 256): true of any uint8 array, byte
    codes (code_points), with no pass over them."""
    if codes.dtype == np.uint8:
        return True
    return bool(codes.size) and codes.min() >= 0 and codes.max() < 256


def fingerprint_weights(codes: np.ndarray) -> np.ndarray:
    """symbol_weights of codes modulo 2**32: read from a cached 256-entry
    table when every code is in [0, 256), as in FASTA and --raw texts, else
    from the formula, which gives the same weights."""
    if _in_table(codes):
        return _byte_weights(symbol_weights).take(codes)
    return symbol_weights(codes.ravel()).astype(np.uint32).reshape(codes.shape)


def fingerprint_prefix(codes: Sequence[int]) -> np.ndarray:
    """uint32 prefix sums of fingerprint_weights, modulo 2**32: entry k is
    the fingerprint of codes[:k], so the window codes[s:s+m] has
    fingerprint prefix[s+m] - prefix[s] (also wrapping).  Windows with equal
    histograms have equal fingerprints; the converse can fail, and both
    layers check it.  The filter reads window fingerprints off it, the
    verifier each window's cuts.  Table weights are written straight into
    the prefix, _TAKE symbols at a time, with no weight temporary."""
    codes = np.asarray(codes)
    prefix = np.zeros(len(codes) + 1, dtype=np.uint32)
    table = _byte_weights(symbol_weights)
    in_table = _in_table(codes)
    for i in range(0, len(codes), _TAKE):
        out = prefix[1 + i:1 + i + _TAKE]
        if in_table:  # mode="raise" would buffer out
            np.take(table, codes[i:i + _TAKE], out=out, mode="clip")
        else:
            out[:] = symbol_weights(codes[i:i + _TAKE])  # cast keeps the low 32 bits
    np.add.accumulate(prefix[1:], out=prefix[1:])
    return prefix


@dataclass(frozen=True)
class Block:
    """One step of a witness decomposition.

    offset is the block start within the window; length is the factor
    length k.  An identity block spans one symbol (length is always 1), a
    translocation spans 2k symbols, an inversion spans k symbols.
    """

    kind: str
    offset: int
    length: int = 1

    @property
    def span(self) -> int:
        return 2 * self.length if self.kind == TRANSLOCATION else self.length

    def token(self) -> str:
        if self.kind == IDENTITY:
            return f"I@{self.offset}"
        tag = "T" if self.kind == TRANSLOCATION else "V"
        return f"{tag}@{self.offset}:{self.length}"


def apply_blocks(pattern: Sequence, blocks: Iterable[Block]) -> str:
    """Replay a block decomposition on the pattern, producing the text window.

    Blocks must be contiguous and cover the pattern exactly.
    """
    out: list = []
    pos = 0
    for b in blocks:
        if b.offset != pos:
            raise ValueError(f"blocks not contiguous at offset {pos}")
        k = b.length
        if b.kind == IDENTITY:
            out.append(pattern[pos])
            pos += 1
        elif b.kind == TRANSLOCATION:
            if k < 1:
                raise ValueError("translocation length must be >= 1")
            out.extend(pattern[pos + k:pos + 2 * k])
            out.extend(pattern[pos:pos + k])
            pos += 2 * k
        elif b.kind == INVERSION:
            if k < 1:
                raise ValueError("inversion length must be >= 1")
            out.extend(reversed(pattern[pos:pos + k]))
            pos += k
        else:
            raise ValueError(f"unknown block kind {b.kind!r}")
    if pos != len(pattern):
        raise ValueError("blocks do not cover the pattern")
    if isinstance(pattern, str):
        return "".join(out)
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class Occurrence:
    """A match of the pattern at a text position, optionally with its witness."""

    position: int
    witness: tuple[Block, ...] | None = None

    def __lt__(self, other: "Occurrence") -> bool:
        return self.position < other.position
