import importlib
import random

import numpy as np
import pytest

from conftest import rand_string, random_block_decomposition
from mdmatch.core import SearchParams, apply_blocks, code_points, maximal_params
from mdmatch.oracle import naive_search
from mdmatch.search import Matcher, SearchStats, filtered_search, scan_candidates
from mdmatch.verify import CHUNK, verify_with_witness


def positions(occs):
    return [o.position for o in occs]


class TestFilteredSearch:
    def test_translocations_in_abba(self):
        assert positions(filtered_search("ab", "abba", SearchParams(1, 0))) == [0, 2]

    def test_embedded_translocation(self):
        assert positions(filtered_search("abcd", "xxcdabxx", SearchParams(2, 0))) == [2]

    def test_no_candidates(self):
        assert filtered_search("abc", "zzzzz") == []

    def test_pattern_longer_than_text(self):
        assert filtered_search("abc", "ab") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            filtered_search("", "abc")

    def test_results_sorted_and_witnessed(self):
        occs = filtered_search("ab", "abba", SearchParams(1, 0), with_witness=True)
        assert positions(occs) == [0, 2]
        for occ in occs:
            assert apply_blocks("ab", occ.witness) == "abba"[occ.position:occ.position + 2]

    def test_iterator_matches_list(self):
        text = "abbaabab"
        got = positions(Matcher(text).iter_find("ab", SearchParams(1, 0)))
        assert got == positions(filtered_search("ab", text, SearchParams(1, 0)))


class TestEquivalence:
    def test_three_implementations_agree(self):
        rng = random.Random(2024)
        for _ in range(400):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 8)
            n = rng.randint(m, 60)
            t = rand_string(rng, sigma, n)
            if rng.random() < 0.5:
                p = rand_string(rng, sigma, m)
            else:
                s = rng.randint(0, n - m)
                p = "".join(rng.sample(t[s:s + m], m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            expected = positions(naive_search(p, t, params))
            assert positions(filtered_search(p, t, params)) == expected
            assert positions(Matcher(t).scan_all(p, params)) == expected


class TestStats:
    def test_abba(self):
        stats = Matcher("abba").stats("ab", SearchParams(1, 0))
        assert stats.candidates == 2
        assert stats.matches == 2
        assert stats.positions_scanned == 3

    def test_no_candidates(self):
        stats = Matcher("aaaa").stats("ab")
        assert stats.candidates == 0 and stats.matches == 0
        assert stats.candidate_density == 0.0

    def test_self_match(self):
        stats = Matcher("abca").stats("abca")
        assert stats.candidates == 1 and stats.positions_scanned == 1

    def test_ordering_invariant(self):
        rng = random.Random(5150)
        for _ in range(200):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 6)
            n = rng.randint(m, 80)
            t = rand_string(rng, sigma, n)
            p = rand_string(rng, sigma, m)
            stats = Matcher(t).stats(p)
            assert stats.matches <= stats.candidates <= stats.positions_scanned

    def test_filter_effective_on_random_text(self):
        # Uniform random text, sigma >= 8 and m >= 16: candidates per
        # position stays clearly under 1e-3 (measured ~4e-5 here).
        from mdmatch.ingest import extract_patterns, gen_random_text
        text = gen_random_text(100_000, 8, 42)
        matcher = Matcher(text)
        densities = [matcher.stats(p).candidate_density
                     for p in extract_patterns(text, 16, 20, 3)]
        assert max(densities) <= 1e-3


class TestMatcher:
    def test_reuse_across_patterns(self):
        matcher = Matcher("abbaba")
        assert positions(matcher.find("ab", SearchParams(1, 0))) == [0, 2, 3, 4]
        assert positions(matcher.find("ba", SearchParams(1, 0))) == [0, 2, 3, 4]

    def test_pattern_with_new_symbols(self):
        matcher = Matcher("aaaa")
        assert matcher.find("az") == []
        assert positions(matcher.find("aa")) == [0, 1, 2]

    def test_generated_matches_found(self):
        rng = random.Random(864)
        for _ in range(150):
            sigma = rng.choice([2, 4])
            m = rng.randint(2, 24)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, sigma, m)
            w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
            pad = rand_string(rng, sigma, rng.randint(0, 30))
            text = pad + w + rand_string(rng, sigma, rng.randint(0, 30))
            found = positions(filtered_search(p, text, SearchParams(alpha, beta)))
            assert len(pad) in found


class TestOneEncoding:
    """Matcher codes text and pattern by code point, with no alphabet table."""

    @staticmethod
    def check(p, text, params):
        matcher = Matcher(text)
        ref = positions(naive_search(p, text, params))
        assert positions(matcher.find(p, params)) == ref
        assert positions(matcher.scan_all(p, params)) == ref
        witnessed = matcher.find(p, params, with_witness=True)
        assert positions(witnessed) == ref
        for occ in witnessed:
            assert apply_blocks(p, occ.witness) == text[occ.position:occ.position + len(p)]
        return ref

    @staticmethod
    def planted(rng, symbols, m, params):
        # Every symbol once, in random order, with three rearranged copies of
        # a pattern drawn from a few of them planted between.
        p = "".join(rng.choice(symbols[:3]) for _ in range(m))
        parts = rng.sample(symbols, len(symbols))
        for _ in range(3):
            w = apply_blocks(p, random_block_decomposition(rng, m, params.alpha, params.beta))
            parts.insert(rng.randint(0, len(parts)), w)
        return p, "".join(parts)

    @pytest.mark.parametrize("symbols", [
        [chr(0x41 + k) for k in range(300)],
        [chr(0x1F600 + k) for k in range(40)] + ["\U0010FFFF"],
    ], ids=["300-symbols", "non-BMP"])
    def test_wide_alphabets(self, symbols):
        rng = random.Random(1101)
        for _ in range(12):
            m = rng.randint(1, 8)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p, text = self.planted(rng, symbols, m, params)
            assert len(self.check(p, text, params)) >= 3

    def test_pattern_symbols_absent_from_text(self):
        rng = random.Random(1102)
        for absent in ("z", "\u0100", "\U0001F600", "\U0010FFFF"):
            m = rng.randint(2, 8)
            params = maximal_params(m)
            p, text = self.planted(rng, list("abcdef"), m, params)
            q = p[:-1] + absent
            assert self.check(q, text, params) == []
            assert Matcher(text).stats(q, params).candidates == 0
            assert self.check(p, text, params)

    def test_empty_text(self):
        matcher = Matcher("")
        assert matcher.find("a") == matcher.find("a", with_witness=True) == []
        assert matcher.scan_all("ab") == []
        assert matcher.stats("a") == SearchStats(0, 0, 0)


class TestWitnessPass:
    @staticmethod
    def planted_text(rng, sigma, m, alpha, beta):
        p = rand_string(rng, sigma, m)
        parts = []
        for _ in range(3):
            parts.append(rand_string(rng, sigma, rng.randint(0, 2 * m)))
            parts.append(apply_blocks(p, random_block_decomposition(rng, m, alpha, beta)))
        return p, "".join(parts)

    def check(self, p, text, params):
        matcher = Matcher(text)
        plain = matcher.find(p, params)
        witnessed = matcher.find(p, params, with_witness=True)
        assert positions(witnessed) == positions(plain)
        assert len(plain) >= 3
        for occ in witnessed:
            window = text[occ.position:occ.position + len(p)]
            assert occ.witness == verify_with_witness(p, text, occ.position, params)
            assert apply_blocks(p, occ.witness) == window

    def test_narrow_bands(self):
        rng = random.Random(1201)
        for _ in range(60):
            m = rng.randint(2, 16)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p, text = self.planted_text(rng, rng.choice([2, 4]), m, params.alpha, params.beta)
            self.check(p, text, params)

    def test_wide_bands(self):
        rng = random.Random(1202)
        for m in (96, 111, 128):
            params = maximal_params(m)
            p, text = self.planted_text(rng, 4, m, params.alpha, params.beta)
            self.check(p, text, params)

    def test_one_engine_run_per_candidate(self, monkeypatch):
        # The package's verify function shadows its verify module as an attribute.
        verify_module = importlib.import_module("mdmatch.verify")
        engine = verify_module._advance
        advanced = []
        monkeypatch.setattr(verify_module, "_advance",
                            lambda *a: advanced.extend(a[3].tolist()) or engine(*a))
        rng = random.Random(1203)
        for m in (6, 100):
            params = maximal_params(m)
            p, text = self.planted_text(rng, 2, m, params.alpha, params.beta)
            matcher = Matcher(text)
            candidates = scan_candidates(code_points(p), code_points(text))
            for with_witness in (False, True):
                advanced.clear()
                occs = matcher.find(p, params, with_witness=with_witness)
                assert advanced == candidates.tolist()
                assert all((occ.witness is not None) == with_witness for occ in occs)

    def test_windows_dying_inside_a_chunk(self):
        # Narrow bands on a binary text: most of the many candidates of each
        # chunk die after a few rows while the planted ones go on matching.
        rng = random.Random(1204)
        for _ in range(6):
            m = rng.randint(10, 20)
            params = SearchParams(rng.randint(1, 2), rng.randint(2, 3))
            p = rand_string(rng, 2, m)
            parts = []
            for _ in range(40):
                parts.append(rand_string(rng, 2, rng.randint(0, m)))
                parts.append(apply_blocks(p, random_block_decomposition(
                    rng, m, params.alpha, params.beta)))
            text = "".join(parts)
            matcher = Matcher(text)
            assert matcher.stats(p, params).candidates > CHUNK
            self.check(p, text, params)
            assert positions(matcher.find(p, params)) == positions(naive_search(p, text, params))


class TestChunks:
    def test_more_candidates_than_a_chunk(self):
        rng = random.Random(1301)
        text = rand_string(rng, 2, 8 * CHUNK)
        matcher = Matcher(text)
        for m in (4, 9):
            p = text[17:17 + m]
            for params in (maximal_params(m), SearchParams(1, 2)):
                ref = positions(naive_search(p, text, params))
                assert matcher.stats(p, params).candidates > CHUNK
                assert positions(matcher.find(p, params)) == ref
                assert positions(matcher.scan_all(p, params)) == ref


class TestFingerprintFilter:
    def test_forced_collisions_keep_output_exact(self, monkeypatch):
        # Every weight equal: every window is a fingerprint hit, so the
        # filter's exact confirmation alone keeps find equal to the oracle.
        search = importlib.import_module("mdmatch.search")
        monkeypatch.setattr(search, "symbol_weights",
                            lambda codes: np.ones(len(codes), dtype=np.uint64))
        rng = random.Random(1401)
        for _ in range(150):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 8)
            n = rng.randint(m, 60)
            t = rand_string(rng, sigma, n)
            p = rand_string(rng, sigma, m)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            matcher = Matcher(t)
            assert positions(matcher.find(p, params)) == positions(naive_search(p, t, params))


class TestExactWindows:
    """Windows equal to the pattern are decided before the DP."""

    @staticmethod
    def check(p, text, params):
        matcher = Matcher(text)
        ref = positions(naive_search(p, text, params))
        witnessed = matcher.find(p, params, with_witness=True)
        assert positions(matcher.find(p, params)) == positions(witnessed) == ref
        for occ in witnessed:
            window = text[occ.position:occ.position + len(p)]
            assert apply_blocks(p, occ.witness) == window
            assert occ.witness == verify_with_witness(p, text, occ.position, params)
            if window == p:
                assert all(b.kind == "identity" for b in occ.witness)
        return ref

    def test_every_window_exact(self):
        text = "a" * (3 * CHUNK + 5)
        for m in (1, 7, 40):
            for params in (maximal_params(m), SearchParams(0, 0)):
                assert self.check("a" * m, text, params) == list(range(len(text) - m + 1))

    def test_some_windows_exact(self):
        # Exact and rearranged copies of one pattern share each chunk with
        # the other candidates of a binary text.
        rng = random.Random(1402)
        for _ in range(8):
            m = rng.randint(2, 24)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p = rand_string(rng, 2, m)
            parts = []
            for _ in range(CHUNK + 1):
                parts.append(rand_string(rng, 2, rng.randint(0, m)))
                parts.append(p if rng.random() < 0.5 else apply_blocks(
                    p, random_block_decomposition(rng, m, params.alpha, params.beta)))
            text = "".join(parts)
            assert Matcher(text).stats(p, params).candidates > CHUNK
            assert len(self.check(p, text, params)) > CHUNK

    def test_periodic_text(self):
        # "ab" repeated: exact windows at even starts, translocated ones at
        # odd starts, alternating within each chunk.
        text = "ab" * (2 * CHUNK)
        assert self.check("ab", text, SearchParams(1, 0)) == list(range(len(text) - 1))
        assert self.check("ab", text, SearchParams(0, 0)) == list(range(0, len(text) - 1, 2))


class TestCutTest:
    """A few rearranged candidates of a long pattern go through the cut test
    before the DP; planted matches and plain permutations share a text."""

    def test_planted_and_permuted_copies(self):
        rng = random.Random(4242)
        for m in (24, 64, 128):
            params = maximal_params(m)
            p = rand_string(rng, 8, m)
            parts = []
            for _ in range(3):
                parts.append(rand_string(rng, 8, rng.randint(0, m)))
                parts.append(apply_blocks(
                    p, random_block_decomposition(rng, m, params.alpha, params.beta)))
                parts.append(rand_string(rng, 8, 2))
                parts.append("".join(rng.sample(p, m)))
            text = "".join(parts)
            assert len(TestExactWindows.check(p, text, params)) >= 3
