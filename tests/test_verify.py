import random

import numpy as np
import pytest

from conftest import enum_match, rand_string, random_block_decomposition
from mdmatch.core import (
    Block,
    IDENTITY,
    TRANSLOCATION,
    SearchParams,
    apply_blocks,
)
from mdmatch.oracle import oracle_match
from mdmatch.verify import (
    VerifierWorkspace,
    verify,
    verify_with_witness,
)


class TestVerifyExamples:
    def test_swap_halves(self):
        assert verify("ab", "ba", 0, SearchParams(1, 0))

    def test_whole_inversion(self):
        assert verify("abc", "cba", 0, SearchParams(0, 3))

    def test_long_translocation(self):
        assert verify("abcd", "cdab", 0, SearchParams(2, 0))

    def test_length_one_inversion_is_identity_only(self):
        assert not verify("ab", "ba", 0, SearchParams(0, 1))

    def test_identity_then_swap(self):
        assert verify("aab", "aba", 0, SearchParams(1, 0))

    def test_two_adjacent_swaps(self):
        assert verify("abcd", "badc", 0, SearchParams(1, 0))

    def test_position_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            verify("ab", "abc", 2, SearchParams(1, 0))
        with pytest.raises(ValueError, match="out of bounds"):
            verify("ab", "abc", -1, SearchParams(1, 0))

    def test_nonzero_position(self):
        assert verify("abcd", "xxcdabyy", 2, SearchParams(2, 0))
        assert not verify("abcd", "xxcdabyy", 1, SearchParams(2, 0))


class TestVerifyProperties:
    def test_agrees_with_oracle_small(self):
        rng = random.Random(31337)
        for _ in range(4000):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 12)
            p = rand_string(rng, sigma, m)
            r = rng.random()
            if r < 0.45:
                w = "".join(rng.sample(p, m))
            elif r < 0.8:
                w = rand_string(rng, sigma, m)
            else:
                w = p
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            got = verify(p, w, 0, params)
            assert got == oracle_match(p, w, params)
            assert got == enum_match(p, w, params.alpha, params.beta)

    def test_engines_agree_on_wider_bands(self):
        rng = random.Random(77)
        for _ in range(300):
            sigma = rng.choice([2, 4])
            m = rng.randint(8, 40)
            p = rand_string(rng, sigma, m)
            blocks = random_block_decomposition(rng, m, m // 2, m)
            w = apply_blocks(p, blocks) if rng.random() < 0.6 else rand_string(rng, sigma, m)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            got = verify(p, w, 0, SearchParams(alpha, beta))
            assert got == oracle_match(p, w, SearchParams(alpha, beta))
            assert got == enum_match(p, w, alpha, beta)

    def test_generative_completeness(self):
        rng = random.Random(4001)
        for _ in range(800):
            sigma = rng.choice([2, 4, 8])
            m = rng.randint(2, 32)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, sigma, m)
            w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
            assert verify(p, w, 0, SearchParams(alpha, beta))

    def test_symmetry(self):
        # Every block operation is an involution, so matching is symmetric.
        rng = random.Random(90210)
        for _ in range(1500):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 9)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            forward = verify(p, w, 0, params)
            backward = verify(w, p, 0, params)
            assert forward == backward
            assert forward == oracle_match(p, w, params)

    def test_exact_match_degeneracy(self):
        rng = random.Random(8)
        for _ in range(500):
            m = rng.randint(1, 10)
            p = rand_string(rng, 2, m)
            w = rand_string(rng, 2, m)
            for beta in (0, 1):
                assert verify(p, w, 0, SearchParams(0, beta)) == (p == w)

    def test_workspace_reuse(self):
        ws = VerifierWorkspace(2, 4)
        assert verify("abcd", "cdab", 0, SearchParams(2, 4), ws)
        assert not verify("abcd", "ddda", 0, SearchParams(2, 4), ws)
        assert verify("abcd", "cdab", 0, SearchParams(2, 4), ws)
        with pytest.raises(ValueError, match="different parameters"):
            verify("abcd", "cdab", 0, SearchParams(1, 1), ws)

    def test_workspace_size_independent_of_input_length(self):
        rng = random.Random(5)
        sizes = set()
        for m in (64, 512, 4096):
            text = rand_string(rng, 4, m)
            ws = VerifierWorkspace(4, 8)
            verify(text[:m], text, 0, SearchParams(4, 8), ws)
            sizes.add(ws.cells())
        assert len(sizes) == 1


class TestWitness:
    def test_swap_witness(self):
        blocks = verify_with_witness("ab", "ba", 0, SearchParams(1, 0))
        assert blocks == (Block(TRANSLOCATION, 0, 1),)

    def test_identity_preferred(self):
        blocks = verify_with_witness("abc", "abc", 0)
        assert blocks == tuple(Block(IDENTITY, i) for i in range(3))

    def test_identity_then_swap(self):
        blocks = verify_with_witness("aab", "aba", 0, SearchParams(1, 0))
        assert blocks == (Block(IDENTITY, 0), Block(TRANSLOCATION, 1, 1))

    # Each window has several valid decompositions; these pin the tie-break
    # (identity, then the shortest translocation, then the shortest inversion).
    @pytest.mark.parametrize("p, w, params, tokens", [
        ("ab", "ba", SearchParams(1, 2), "T@0:1"),
        ("aabb", "bbaa", SearchParams(2, 4), "T@0:2"),
        ("abab", "baba", SearchParams(2, 4), "T@0:1 T@2:1"),
        ("abcd", "dcba", SearchParams(2, 4), "V@0:4"),
    ])
    def test_tie_break(self, p, w, params, tokens):
        blocks = verify_with_witness(p, w, 0, params)
        assert " ".join(b.token() for b in blocks) == tokens

    def test_none_when_no_match(self):
        assert verify_with_witness("ab", "ba", 0, SearchParams(0, 1)) is None

    def test_witness_replays_to_window(self):
        rng = random.Random(616)
        positives = 0
        for _ in range(2000):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 10)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            blocks = verify_with_witness(p, w, 0, params)
            assert (blocks is not None) == verify(p, w, 0, params)
            if blocks is not None:
                positives += 1
                assert apply_blocks(p, blocks) == w
                for b in blocks:
                    if b.kind == TRANSLOCATION:
                        assert 1 <= b.length <= params.alpha
                    elif b.kind != IDENTITY:
                        assert 2 <= b.length <= params.beta
        assert positives > 100  # the sample actually exercised the positive path
