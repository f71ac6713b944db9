import importlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import high_weights, rand_string, random_block_decomposition
from mdmatch.core import apply_blocks, code_points, symbol_weights
from mdmatch.ingest import gen_random_text
from mdmatch.oracle import advance, init_counts, rolling_deltas
from mdmatch.search import fingerprint_prefix, scan_candidates, scan_group


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

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            init_counts([], [0])


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

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            list(rolling_deltas([], [0]))

    def test_pattern_longer_than_text_yields_nothing(self):
        assert list(rolling_deltas([0, 1], [0])) == []


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
        # Each entry is the wrapping sum of symbol_weights reduced mod 2**32;
        # the 32-bit weights wrap at once too, and window fingerprints still
        # depend only on the window's histogram.
        codes = [5, 9, 5, 9, 9, 5]
        prefix = fingerprint_prefix(codes)
        assert prefix.dtype == np.uint32 and len(prefix) == 7 and prefix[0] == 0
        weights = symbol_weights(np.array(codes)).tolist()
        assert prefix.tolist() == [sum(weights[:k]) % 2**32 for k in range(7)]
        assert sum(w % 2**32 for w in weights) > 2**32
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
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights",
                            lambda codes: np.ones(len(codes), dtype=np.uint64))
        rng = random.Random(23)
        for _ in range(200):
            sigma = rng.choice([2, 3, 5])
            m = rng.randint(1, 10)
            n = rng.randint(m, 150)
            t = [rng.randrange(sigma) for _ in range(n)]
            p = [rng.randrange(sigma) for _ in range(m)]
            assert scan_candidates(p, t).tolist() == _rolling_candidates(p, t)

    def test_collisions_in_the_low_32_bits_are_rejected(self, monkeypatch):
        # Weights equal in their low 32 bits (conftest.high_weights): in the
        # filter's 32-bit sums every window of a length has every row's
        # fingerprint, and the exact compare alone decides.
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights", high_weights)
        rng = random.Random(43)
        for _ in range(150):
            pool = rng.choice([[0, 1, 2], [0, 1, 300], [7, 70000, 255]])
            m = rng.randint(1, 8)
            idx = [rng.randrange(3) for _ in range(rng.randint(m, 100))]
            rows = [[pool[c] for c in row]
                    for row in _group_rows(rng, m, rng.randint(0, 4), idx, 3)]
            t = [pool[c] for c in idx]
            assert (np.diff(fingerprint_prefix(t)) == 1).all()
            TestScanGroup.check(rows, t)
            assert scan_candidates(rows[0], t).tolist() == _rolling_candidates(rows[0], t)

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_slice_boundaries(self, monkeypatch, size):
        # Weights and window compares are done a slice at a time; small
        # slices put many boundaries inside short texts.
        search = importlib.import_module("mdmatch.search")
        core = importlib.import_module("mdmatch.core")
        rng = random.Random(29)
        cases = []
        for _ in range(60):
            m = rng.randint(1, 9)
            t = [rng.randrange(3) for _ in range(rng.randint(m, 40))]
            cases.append(([rng.randrange(3) for _ in range(m)], t))
        whole = [fingerprint_prefix(t) for _, t in cases]
        monkeypatch.setattr(search, "_SLICE", size)
        monkeypatch.setattr(core, "_TAKE", size)
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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_table_and_formula_paths_agree(self, data):
        # Codes in [0, 256) take the weight table, as byte codes (uint8) do
        # without a range check; any other code sends the whole text
        # through symbol_weights.  Each must give the wrapping prefix sums of
        # symbol_weights reduced mod 2**32, at any slice size.
        search = importlib.import_module("mdmatch.search")
        core = importlib.import_module("mdmatch.core")
        byte = st.integers(0, 255)
        other = st.integers(256, 0x10FFFF) | st.integers(-2**31, -1) | st.integers(2**32, 2**62)
        codes = data.draw(st.lists(byte, max_size=40)
                          | st.lists(byte | other, max_size=40).filter(
                                lambda c: any(not 0 <= x < 256 for x in c)))
        arr = np.array(codes, dtype=np.int64)
        sums = [0]
        for w in symbol_weights(arr).tolist():
            sums.append((sums[-1] + w) % 2**64)
        with pytest.MonkeyPatch.context() as patch:
            size = data.draw(st.sampled_from([1, 2, 7, 1 << 15]))
            patch.setattr(search, "_SLICE", size)
            patch.setattr(core, "_TAKE", size)
            assert fingerprint_prefix(arr).tolist() == [x % 2**32 for x in sums]
            if all(0 <= x < 256 for x in codes):
                assert fingerprint_prefix(arr.astype(np.uint8)).tolist() == \
                    [x % 2**32 for x in sums]

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_prefix_build_allocates_one_prefix(self, n):
        # The uint32 prefix and one take slice of indices (np.take converts
        # them to intp); no text-sized or slice-sized weight temporary.
        core = importlib.import_module("mdmatch.core")
        t = code_points(gen_random_text(n, 64, 5))
        fingerprint_prefix(t)
        tracemalloc.start()
        try:
            fingerprint_prefix(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (n + 1) + 8 * core._TAKE + 16 * 1024

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


def _group_rows(rng, m, count, t, alphabet):
    """count rows of length m: drawn rows, copies of windows of t, a
    duplicate and a permuted copy."""
    rows = [[rng.randrange(alphabet) for _ in range(m)] for _ in range(count)]
    for _ in range(2):
        s = rng.randint(0, len(t) - m)
        rows.append(t[s:s + m])
    rows.append(list(rows[0]))
    rows.append(rng.sample(rows[-2], m))
    rng.shuffle(rows)
    return rows


class TestScanGroup:
    """scan_group filters the rows of one length in one pass; each row's
    candidates are its own rolling delta == 0 positions."""

    @staticmethod
    def check(rows, t, prefix=None):
        got = scan_group(np.array(rows), np.array(t), prefix)
        assert [c.tolist() for c in got] == [_rolling_candidates(p, t) for p in rows]

    def test_rows_against_rolling_deltas(self):
        rng = random.Random(31)
        for _ in range(150):
            m = rng.randint(1, 8)
            t = [rng.randrange(3) for _ in range(rng.randint(m, 100))]
            self.check(_group_rows(rng, m, rng.randint(0, 4), t, 3), t)

    def test_permuted_rows_share_one_array(self):
        t = [0, 1, 1, 0, 2, 1, 0]
        got = scan_group(np.array([[1, 0], [0, 1], [1, 0], [2, 2]]), t)
        assert got[0] is got[1] is got[2]
        assert got[0].tolist() == [0, 2, 5] and got[3].tolist() == []

    def test_rows_longer_than_text(self):
        assert [c.size for c in scan_group(np.array([[0, 1], [1, 1]]), [0])] == [0, 0]

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            scan_group(np.zeros((2, 0), dtype=int), [0, 1])

    def test_forced_collisions_split_by_multiset(self, monkeypatch):
        # Every weight equal: rows of different multisets share one
        # fingerprint, so one group holds them all and each hit is
        # confirmed against each row's own sorted symbols.
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights",
                            lambda codes: np.ones(len(codes), dtype=np.uint64))
        rng = random.Random(37)
        mixed = 0
        for _ in range(150):
            m = rng.randint(1, 8)
            t = [rng.randrange(3) for _ in range(rng.randint(m, 100))]
            rows = _group_rows(rng, m, rng.randint(1, 4), t, 3)
            mixed += len({tuple(sorted(r)) for r in rows}) > 1
            self.check(rows, t)
        assert mixed > 100

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_slice_boundaries(self, monkeypatch, size):
        # Fingerprint compares and hit confirmation go _SLICE symbols at a
        # time; small slices put many boundaries inside short texts, and
        # rows longer than a slice confirm one hit per call.
        search = importlib.import_module("mdmatch.search")
        monkeypatch.setattr(search, "_SLICE", size)
        rng = random.Random(41)
        for _ in range(60):
            m = rng.randint(1, 9)
            t = [rng.randrange(3) for _ in range(rng.randint(m, 40))]
            self.check(_group_rows(rng, m, rng.randint(0, 3), t, 3), t)

    def test_byte_text_with_thousands_of_hits(self):
        # A uint8 sigma=4 text: every hit's window is sorted and compared
        # with its row's sorted symbols, both widened from uint8 first.
        t = code_points(gen_random_text(40_000, 4, 3))
        assert t.dtype == np.uint8
        rows = np.stack([t[s:s + 8] for s in (0, 100, 5_000)] + [code_points("ACGTACGT")])
        got = scan_group(rows, t)
        want = [_rolling_candidates(row.tolist(), t.tolist()) for row in rows]
        assert sum(map(len, want)) > 2_000
        assert [c.tolist() for c in got] == want

    def test_memory_bounded_whatever_the_rows(self):
        # Ten rows, every window a hit of five of them: the extra memory
        # stays within the one-row bound.
        t = code_points("AB" * 50_000)
        rows = np.array([code_points("AB" * 128)] * 5 + [code_points("BA" * 128)] * 4
                        + [code_points("C" * 256)])
        scan_group(rows, t)
        tracemalloc.start()
        try:
            got = scan_group(rows, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(got[0]) == len(t) - 255 and len(got[9]) == 0
        assert peak < 64 * len(t)
