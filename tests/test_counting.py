import importlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_string, random_block_decomposition
from mdmatch.core import apply_blocks, code_points
from mdmatch.oracle import advance, init_counts, rolling_deltas
from mdmatch.search import fingerprint_prefix, scan_candidates


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
        # Dense: all 9 windows are hits, confirmed n // m = 5 at a time.
        # Sparse: two windows among eleven.
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


def _rolling_candidates(p, t):
    return [s for s, d in rolling_deltas(p, t) if d == 0]


class TestFingerprint:
    def test_prefix_wraps_and_ignores_order(self):
        # Weights are spread over 64 bits, so the sums wrap at once; window
        # fingerprints still depend only on the window's histogram.
        prefix = fingerprint_prefix([5, 9, 5, 9, 9, 5])
        assert prefix.dtype == np.uint64 and len(prefix) == 7 and prefix[0] == 0
        weights = [int(w) for w in np.diff(prefix)]
        assert sum(weights) > 2**64 and int(prefix[6]) == sum(weights) % 2**64
        pairs, triples = prefix[2:] - prefix[:-2], prefix[3:] - prefix[:-3]
        assert pairs[0] == pairs[2] == pairs[4] != pairs[3]
        assert triples[0] != triples[1]

    def test_given_prefix_is_used(self):
        t = [0, 1, 1, 0, 2, 1, 0]
        prefix = fingerprint_prefix(t)
        assert scan_candidates([1, 0], t, prefix).tolist() == scan_candidates([1, 0], t).tolist()

    def test_forced_collisions_are_rejected(self, monkeypatch):
        # Every weight equal: every window has the pattern's fingerprint, so
        # only the exact confirmation decides.
        search = importlib.import_module("mdmatch.search")
        monkeypatch.setattr(search, "symbol_weights",
                            lambda codes: np.ones(len(codes), dtype=np.uint64))
        rng = random.Random(23)
        for _ in range(200):
            sigma = rng.choice([2, 3, 5])
            m = rng.randint(1, 10)
            n = rng.randint(m, 150)
            t = [rng.randrange(sigma) for _ in range(n)]
            p = [rng.randrange(sigma) for _ in range(m)]
            assert scan_candidates(p, t).tolist() == _rolling_candidates(p, t)

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_slice_boundaries(self, monkeypatch, size):
        # Weights and window compares are done a slice at a time; small
        # slices put many boundaries inside short texts.
        search = importlib.import_module("mdmatch.search")
        rng = random.Random(29)
        cases = []
        for _ in range(60):
            m = rng.randint(1, 9)
            t = [rng.randrange(3) for _ in range(rng.randint(m, 40))]
            cases.append(([rng.randrange(3) for _ in range(m)], t))
        whole = [fingerprint_prefix(t) for _, t in cases]
        monkeypatch.setattr(search, "_SLICE", size)
        for (p, t), prefix in zip(cases, whole):
            assert (fingerprint_prefix(t) == prefix).all()
            assert scan_candidates(p, t).tolist() == _rolling_candidates(p, t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_against_rolling_deltas(self, data):
        # Codes up to U+10FFFF, and m at or near n half of the time.
        pool = data.draw(st.lists(st.integers(0, 0x10FFFF), min_size=1, max_size=5,
                                  unique=True))
        t = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80))
        n = len(t)
        m = data.draw(st.integers(max(1, n - 2), n) | st.integers(1, n))
        s = data.draw(st.integers(0, n - m))
        p = data.draw(st.permutations(t[s:s + m])
                      | st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        got = scan_candidates(np.array(p, dtype=np.int32), np.array(t, dtype=np.int32))
        assert got.tolist() == _rolling_candidates(p, t)

    def test_memory_bounded_when_every_window_hits(self):
        t = code_points("A" * 200_000)
        p = code_points("A" * 512)
        tracemalloc.start()
        try:
            got = scan_candidates(p, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got) == len(t) - len(p) + 1
        assert peak < 64 * len(t)
