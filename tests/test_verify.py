import importlib
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
    code_points,
)
from mdmatch.oracle import oracle_match
from mdmatch.verify import (
    VerifierWorkspace,
    verify,
    verify_with_witness,
)

# The module itself: the package exports a function of the same name.
verify_module = importlib.import_module("mdmatch.verify")


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

    def test_code_lists_agree_with_strings(self):
        rng = random.Random(9)
        assert verify([0, 1], [1, 0], 0)
        for _ in range(300):
            m = rng.randint(1, 8)
            p = rand_string(rng, 3, m)
            t = rand_string(rng, 3, m + rng.randint(0, 4))
            s = rng.randint(0, len(t) - m)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p_list, t_list = [ord(c) for c in p], [ord(c) for c in t]
            assert verify(p_list, t_list, s, params) == verify(p, t, s, params)
            assert (verify_with_witness(p_list, t_list, s, params)
                    == verify_with_witness(p, t, s, params))

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


def cut_test(p: str, windows: list[str], alpha: int, beta: int) -> list[bool]:
    """verify._cuttable on windows given as strings, one column each."""
    cols = np.stack([code_points(w) for w in windows], axis=1)
    return verify_module._cuttable(code_points(p)[::-1], cols[::-1], alpha, beta).tolist()


class TestCutTest:
    def test_decides_like_enumeration(self):
        # Within CUT_TEST_MAX cuts the test is the match condition itself.
        rng = random.Random(2718)
        positives = 0
        for _ in range(1500):
            sigma = rng.choice([2, 3, 4, 8])
            m = rng.randint(1, 40)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, sigma, m)
            r = rng.random()
            if r < 0.4:
                w = apply_blocks(p, random_block_decomposition(rng, m, m // 2, m))
            elif r < 0.8:
                w = "".join(rng.sample(p, m))
            else:
                w = rand_string(rng, sigma, m)
            want = enum_match(p, w, alpha, beta)
            positives += want
            assert cut_test(p, [w], alpha, beta) == [want]
        assert positives > 200

    def test_colliding_weights_keep_every_match(self, monkeypatch):
        # Equal weights make every prefix a cut: the test loses strength,
        # never a match.
        monkeypatch.setattr(verify_module, "symbol_weights",
                            lambda codes: np.zeros(np.shape(codes), dtype=np.uint64))
        rng = random.Random(11)
        for _ in range(400):
            m = rng.randint(1, 24)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, 3, m)
            w = (apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
                 if rng.random() < 0.5 else rand_string(rng, 3, m))
            want = enum_match(p, w, alpha, beta)
            assert cut_test(p, [w], alpha, beta) == [want]
            assert verify(p, w, 0, SearchParams(alpha, beta)) == want

    def test_windows_past_the_cut_limit_are_kept(self, monkeypatch):
        monkeypatch.setattr(verify_module, "CUT_TEST_MAX", 2)
        # "abcde" against "abdec": cuts at 1, 2 and 5, no block chain.
        assert not enum_match("abcde", "abdec", 2, 5)
        assert cut_test("abcde", ["abdec"], 2, 5) == [True]
        monkeypatch.setattr(verify_module, "CUT_TEST_MAX", 3)
        assert cut_test("abcde", ["abdec"], 2, 5) == [False]

    def test_shifted_copy_of_a_long_pattern(self, monkeypatch):
        # The window one to the right of the pattern's own occurrence is a
        # permutation of it when the symbol leaving equals the one entering;
        # it is a rotation, which no block chain gives.
        rng = random.Random(64)
        m = 128
        text = rand_string(rng, 8, 3 * m)
        text = text[:m] + text[0] + text[m + 1:]
        p, w = text[:m], text[1:m + 1]
        assert sorted(p) == sorted(w) and p != w
        params = SearchParams(m // 2, m)
        assert cut_test(p, [p, w], m // 2, m) == [True, False]
        assert not verify(p, text, 1, params)
        monkeypatch.setattr(verify_module, "CUT_TEST_ROWS", m)
        assert not verify(p, text, 1, params)  # the DP alone agrees
