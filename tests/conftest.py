"""Shared generators and independent reference checks for the test suite."""

import random

import numpy as np

from mdmatch.core import Block, IDENTITY, INVERSION, TRANSLOCATION

LETTERS = "abcdefghijklmnop"


def rand_string(rng: random.Random, sigma: int, m: int) -> str:
    return "".join(rng.choice(LETTERS[:sigma]) for _ in range(m))


def high_weights(codes) -> np.ndarray:
    """Symbol weights equal in their low 32 bits, 1, with the code above:
    summed mod 2**32, every multiset of one size has the same sum; summed
    mod 2**64, only those whose codes have equal sums do."""
    return (np.asarray(codes).astype(np.uint64) << np.uint64(32)) | np.uint64(1)


def enum_match(p: str, w: str, alpha: int, beta: int) -> bool:
    """Exhaustive enumeration over all block decompositions.

    Completely independent of both the production verifier and the oracle
    module: plain recursion over window offsets with direct slicing.
    """
    m = len(p)

    def rec(pos: int) -> bool:
        if pos == m:
            return True
        if p[pos] == w[pos] and rec(pos + 1):
            return True
        for k in range(1, alpha + 1):
            if pos + 2 * k > m:
                break
            if (w[pos:pos + k] == p[pos + k:pos + 2 * k]
                    and w[pos + k:pos + 2 * k] == p[pos:pos + k]
                    and rec(pos + 2 * k)):
                return True
        for k in range(2, beta + 1):
            if pos + k > m:
                break
            if w[pos:pos + k] == p[pos:pos + k][::-1] and rec(pos + k):
                return True
        return False

    return rec(0)


def witness_reference(p: str, w: str, alpha: int, beta: int) -> tuple[Block, ...] | None:
    """The witness the verifier documents, from a slow prefix DP with direct
    slicing, or None when w does not match p.

    ok[j] says whether w[:j] decomposes into blocks of p[:j].  Walking back
    from j = m, the block that ends at j is identity when it can be, else
    the shortest translocation, else the shortest inversion, in each case
    one with a decomposable prefix before it.  Independent of the verifier.
    """
    m = len(p)

    def ending_at(j):
        if p[j - 1] == w[j - 1]:
            yield Block(IDENTITY, j - 1)
        for k in range(1, min(alpha, j // 2) + 1):
            a = j - 2 * k
            if w[a:a + k] == p[a + k:j] and w[a + k:j] == p[a:a + k]:
                yield Block(TRANSLOCATION, a, k)
        for k in range(2, min(beta, j) + 1):
            if w[j - k:j] == p[j - k:j][::-1]:
                yield Block(INVERSION, j - k, k)

    ok = [True]
    for j in range(1, m + 1):
        ok.append(any(ok[b.offset] for b in ending_at(j)))
    if not ok[m]:
        return None
    blocks = []
    j = m
    while j:
        blocks.append(next(b for b in ending_at(j) if ok[b.offset]))
        j = blocks[-1].offset
    return tuple(reversed(blocks))


def random_block_decomposition(rng: random.Random, m: int, alpha: int, beta: int) -> list[Block]:
    """A random valid block list covering offsets 0..m-1."""
    blocks: list[Block] = []
    pos = 0
    while pos < m:
        ops = [IDENTITY]
        if alpha >= 1 and pos + 2 <= m:
            ops.append(TRANSLOCATION)
        if beta >= 2 and pos + 2 <= m:
            ops.append(INVERSION)
        op = rng.choice(ops)
        if op == IDENTITY:
            blocks.append(Block(IDENTITY, pos))
            pos += 1
        elif op == TRANSLOCATION:
            k = rng.randint(1, min(alpha, (m - pos) // 2))
            blocks.append(Block(TRANSLOCATION, pos, k))
            pos += 2 * k
        else:
            k = rng.randint(2, min(beta, m - pos))
            blocks.append(Block(INVERSION, pos, k))
            pos += k
    return blocks


def write_fasta(records) -> bytes:
    """Serializer used only by round-trip tests."""
    out = []
    for rec in records:
        out.append(b">" + rec.id.encode("latin-1") + b"\n")
        data = rec.data.encode("latin-1")
        for i in range(0, len(data), 60):
            out.append(data[i:i + 60] + b"\n")
    return b"".join(out)
