import random
from collections import Counter

import numpy as np
import pytest

from conftest import rand_string, random_block_decomposition
from mdmatch.core import apply_blocks, code_points
from mdmatch.counting import advance, init_counts, rolling_deltas, scan_candidates


def codes(s):
    return [ord(c) - ord("a") for c in s]


class TestInitCounts:
    def test_permutation_window(self):
        st = init_counts(codes("abc"), codes("caba"))
        assert st.delta == 0

    def test_signed_counts(self):
        st = init_counts(codes("aab"), codes("abb"))
        assert st.g[0] == 1 and st.g[1] == -1
        assert st.delta == 2

    def test_identity_window(self):
        st = init_counts(codes("aa"), codes("aa"))
        assert st.g[0] == 0 and st.delta == 0

    def test_pattern_longer_than_text(self):
        with pytest.raises(ValueError, match="pattern longer than text"):
            init_counts(codes("abc"), codes("ab"))


class TestAdvance:
    def test_same_symbol_is_noop(self):
        st = init_counts(codes("ab"), codes("aab"))
        g0, d0 = list(st.g), st.delta
        advance(st, 0, 0)
        assert st.g == g0 and st.delta == d0 and st.window_start == 1

    def test_walk_abba(self):
        t = codes("abba")
        st = init_counts(codes("ab"), t)
        assert st.delta == 0
        advance(st, t[0], t[2])
        assert st.g[0] == 1 and st.g[1] == -1 and st.delta == 2
        advance(st, t[1], t[3])
        assert st.delta == 0

    def test_rolling_consistency_random(self):
        rng = random.Random(42)
        for _ in range(50):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 10)
            n = rng.randint(m, 200)
            t = [rng.randrange(sigma) for _ in range(n)]
            p = [rng.randrange(sigma) for _ in range(m)]
            st = init_counts(p, t, sigma)
            for s in range(n - m + 1):
                fresh = init_counts(p, t[s:], sigma)
                assert st.delta == fresh.delta
                assert st.g == fresh.g
                assert st.delta == st.recompute_delta()
                assert st.delta % 2 == 0  # window and pattern have equal length
                if s < n - m:
                    advance(st, t[s], t[s + m])


class TestRollingDeltas:
    def test_sigma_from_whole_text(self):
        # The text's largest code lies outside the pattern and the first window.
        assert list(rolling_deltas([0], [0, 1])) == [(0, 0), (1, 2)]
        assert list(rolling_deltas([1, 0], [0, 1, 5, 0])) == [(0, 0), (1, 2), (2, 2)]


class TestScanCandidates:
    def test_spec_examples(self):
        assert scan_candidates(codes("ab"), codes("abba")).tolist() == [0, 2]
        assert scan_candidates(codes("ab"), codes("aaaa")).tolist() == []
        assert scan_candidates(codes("a"), codes("aba")).tolist() == [0, 2]

    def test_dense_and_sparse_candidates(self):
        # Dense: every window survives every count pass.  Sparse: few windows
        # are left after the first pass, and sorting them rejects s = 7.
        assert scan_candidates([0, 0], [0] * 10).tolist() == list(range(9))
        t = [1, 0, 1, 2, 2, 2, 2, 2, 1, 1, 0]
        assert scan_candidates([0, 1, 1], t).tolist() == [0, 8]

    def test_pattern_longer_than_text(self):
        assert scan_candidates([0, 1], [0]).size == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            scan_candidates([], [0, 1])

    def test_matches_brute_force_and_rolling(self):
        rng = random.Random(7)
        for _ in range(300):
            sigma = rng.choice([2, 3, 4])
            m = rng.randint(1, 8)
            n = rng.randint(m, 120)
            t = [rng.randrange(sigma) for _ in range(n)]
            p = [rng.randrange(sigma) for _ in range(m)]
            got = scan_candidates(p, t).tolist()
            brute = [s for s in range(n - m + 1) if Counter(t[s:s + m]) == Counter(p)]
            roll = [s for s, d in rolling_deltas(p, t, sigma) if d == 0]
            assert got == brute == roll

    def test_invariant_under_pattern_permutation(self):
        rng = random.Random(11)
        for _ in range(100):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 8)
            t = [rng.randrange(sigma) for _ in range(80)]
            p = [rng.randrange(sigma) for _ in range(m)]
            q = rng.sample(p, m)
            assert scan_candidates(p, t).tolist() == scan_candidates(q, t).tolist()

    def test_true_matches_are_candidates(self):
        # Soundness: every window with a valid block decomposition has delta 0.
        rng = random.Random(13)
        for _ in range(200):
            sigma = rng.choice([2, 4])
            m = rng.randint(2, 16)
            p = rand_string(rng, sigma, m)
            blocks = random_block_decomposition(rng, m, m // 2, m)
            w = apply_blocks(p, blocks)
            cands = scan_candidates(code_points(p), code_points(w))
            assert 0 in cands.tolist()

    def test_numpy_text_input(self):
        t = np.array(codes("abbaab"), dtype=np.uint8)
        p = np.array(codes("ab"), dtype=np.uint8)
        assert scan_candidates(p, t).tolist() == [0, 2, 4]

    def test_code_points_with_large_codes(self):
        # Code points straight from text: alphabets beyond 256 symbols, non-BMP
        # symbols and U+10FFFF, against the rolling update's delta == 0.
        rng = random.Random(17)
        for _ in range(40):
            size = rng.choice([2, 5, 300])
            pool = rng.sample(range(0x100, 0x10FFFF), size - 1) + [0x10FFFF]
            n = rng.randint(1, 150)
            t = code_points("".join(chr(rng.choice(pool)) for _ in range(n)))
            m = rng.randint(1, min(n, 8))
            if rng.random() < 0.5:
                s = rng.randint(0, n - m)
                p = rng.sample(t[s:s + m].tolist(), m)
            else:
                p = [rng.choice(pool) for _ in range(m)]
            got = scan_candidates(np.array(p, dtype=np.int32), t).tolist()
            assert got == [s for s, d in rolling_deltas(p, t) if d == 0]
