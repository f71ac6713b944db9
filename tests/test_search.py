import contextlib
import importlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import high_weights, rand_string, random_block_decomposition, witness_reference
from mdmatch.core import SearchParams, apply_blocks, code_points, maximal_params
from mdmatch.oracle import naive_search
from mdmatch.search import Matcher, SearchStats, filtered_search, scan_candidates
from mdmatch.verify import verify_with_witness

# The module itself: the package exports a function of the same name.
verify_module = importlib.import_module("mdmatch.verify")
search_module = importlib.import_module("mdmatch.search")

# A chunk budget of window symbols for the tests that cross chunk seams.
BUDGET = 128


@contextlib.contextmanager
def small_chunks():
    """The verifier's chunk budget patched down to BUDGET, so that texts of a
    few hundred candidates cross chunk seams."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "CHUNK", BUDGET)
        yield


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

    @pytest.mark.parametrize("text, pattern, name", [
        ([0, 1, 0], "ab", "text"), (b"abab", "ab", "text"), ("abab", b"ab", "pattern"),
        ("abab", 5, "pattern"), ("abab", ["a", "b"], "pattern")])
    def test_non_str_rejected(self, text, pattern, name):
        # A ValueError that names the argument, from every entry point.
        calls = [lambda: filtered_search(pattern, text)]
        if name == "text":
            calls.append(lambda: Matcher(text))
        else:
            matcher = Matcher(text)
            calls += [lambda: matcher.find(pattern), lambda: matcher.find_many(["ab", pattern]),
                      lambda: list(matcher.iter_find(pattern)), lambda: matcher.stats(pattern),
                      lambda: matcher.scan_all(pattern)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} must be a str"):
                call()

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

    @pytest.mark.parametrize("extra", [1, 5])
    def test_pattern_longer_than_the_text(self, extra):
        text = "abba"
        p = (text * 3)[:len(text) + extra]
        matcher = Matcher(text)
        for with_witness in (False, True):
            assert matcher.find(p, with_witness=with_witness) == []
            assert matcher.find_many([p, "ab"], with_witness=with_witness)[0] == []
        assert matcher.scan_all(p) == []
        assert matcher.stats(p) == SearchStats(0, 0, 0)


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
        # find_many hands each (row, start) pair of a length group to the
        # verifier once, duplicate and permuted rows included; find is its
        # one-row case.
        engine = search_module.verify_windows
        handed = []

        def counted(patterns, text, prefix, starts, rows, *rest):
            handed.extend(zip(rows.tolist(), starts.tolist()))
            return engine(patterns, text, prefix, starts, rows, *rest)

        monkeypatch.setattr(search_module, "verify_windows", counted)
        rng = random.Random(1203)
        for m in (6, 100):
            params = maximal_params(m)
            p, text = self.planted_text(rng, 2, m, params.alpha, params.beta)
            patterns = [p, text[:m], p, "".join(rng.sample(p, m))]
            t_arr = code_points(text)
            candidates = [scan_candidates(code_points(q), t_arr).tolist() for q in patterns]
            matcher = Matcher(text)
            for with_witness in (False, True):
                handed.clear()
                found = matcher.find_many(patterns, params, with_witness=with_witness)
                assert handed == [(r, s) for r, cands in enumerate(candidates) for s in cands]
                assert all((occ.witness is not None) == with_witness
                           for occs in found for occ in occs)
                handed.clear()
                occs = matcher.find(p, params, with_witness=with_witness)
                assert handed == [(0, s) for s in candidates[0]]
                assert all((occ.witness is not None) == with_witness for occ in occs)

    @small_chunks()
    def test_windows_dying_inside_a_chunk(self):
        # Narrow bands on a binary text: most of the many candidates of each
        # chunk die after a few cuts while the planted ones go on matching.
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
            assert matcher.stats(p, params).candidates > BUDGET
            self.check(p, text, params)
            assert positions(matcher.find(p, params)) == positions(naive_search(p, text, params))


class TestChunks:
    @small_chunks()
    def test_more_candidates_than_a_chunk(self):
        rng = random.Random(1301)
        text = rand_string(rng, 2, 8 * BUDGET)
        matcher = Matcher(text)
        for m in (4, 9):
            p = text[17:17 + m]
            for params in (maximal_params(m), SearchParams(1, 2)):
                ref = positions(naive_search(p, text, params))
                assert matcher.stats(p, params).candidates > BUDGET
                assert positions(matcher.find(p, params)) == ref
                assert positions(matcher.scan_all(p, params)) == ref


class TestEdgeShapes:
    """Matcher.find against naive_search where the walk takes its edge paths:
    no inversions (beta <= 1), no translocations (alpha == 0), neither, m at
    or near n, and windows that die across chunks."""

    @staticmethod
    def check(p, text, alpha, beta):
        params = SearchParams(alpha, beta)
        found = Matcher(text).find(p, params, with_witness=True)
        assert positions(found) == positions(naive_search(p, text, params))
        for occ in found:
            window = text[occ.position:occ.position + len(p)]
            assert occ.witness == witness_reference(p, window, alpha, beta)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["ab", "abc"]),
           st.integers(2, 24), st.integers(0, 1), st.integers(0, 2), st.integers(0, 3))
    def test_m_at_or_near_n(self, rng, letters, n, shorter, a, b):
        m = n - shorter
        alpha, beta = (0, 1, m // 2)[a], (0, 1, 2, m)[b]
        p = "".join(rng.choice(letters) for _ in range(m))
        text = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
        if rng.random() < 0.5:
            text = "".join(rng.sample(text, m))
        pad = rng.choice(letters) * shorter
        text = pad + text if rng.random() < 0.5 else text + pad
        self.check(p, text, alpha, beta)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["ab", "abc"]),
           st.integers(2, 12), st.integers(0, 2), st.integers(0, 3))
    @small_chunks()
    def test_more_candidates_than_a_chunk(self, seed, letters, m, a, b):
        # Each of the 2 * BUDGET blocks permutes p, so each is a candidate:
        # rearranged block by block it matches, shuffled it mostly dies.
        # A seeded generator: this many draws would overrun hypothesis's buffer.
        rng = random.Random(seed)
        alpha, beta = (0, 1, m // 2)[a], (0, 1, 2, m)[b]
        p = "".join(rng.choice(letters) for _ in range(m))
        text = "".join(apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
                       if rng.random() < 0.3 else "".join(rng.sample(p, m))
                       for _ in range(2 * BUDGET))
        assert Matcher(text).stats(p, SearchParams(alpha, beta)).candidates > BUDGET
        self.check(p, text, alpha, beta)


class TestFingerprintFilter:
    def test_forced_collisions_keep_output_exact(self, monkeypatch):
        # Every weight equal: every window is a fingerprint hit, so the
        # filter's exact confirmation alone keeps find equal to the oracle.
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights",
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

    def test_collisions_in_the_low_32_bits_keep_output_exact(self, monkeypatch):
        # Weights equal in their low 32 bits (conftest.high_weights): every
        # window of a length collides in the filter's 32-bit fingerprints,
        # on the byte table and on the formula path (U+0100).
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights", high_weights)
        rng = random.Random(1403)
        for _ in range(100):
            alphabet = rng.choice(["AB", "ABC", "AB\xffĀ"])
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
            patterns = ["".join(rng.choice(alphabet) for _ in range(rng.choice([1, 2, 3, 5])))
                        for _ in range(5)]
            params = SearchParams(rng.randint(0, 2), rng.randint(0, 5))
            matcher = Matcher(text)
            want = [positions(naive_search(p, text, params)) for p in patterns]
            assert [positions(occs) for occs in matcher.find_many(patterns, params)] == want
            assert [positions(matcher.find(p, params)) for p in patterns] == want

    def test_code_point_above_255_takes_the_formula_path(self):
        # One symbol past U+00FF sends the whole text through symbol_weights
        # instead of the byte table; the patterns are weighed the same way.
        rng = random.Random(1409)
        for _ in range(100):
            n = rng.randint(1, 60)
            t = "".join(rng.choice("AB\xffĀ") for _ in range(n))
            m = rng.randint(1, min(n, 8))
            s = rng.randint(0, n - m)
            p = t[s:s + m] if rng.random() < 0.5 else "".join(rng.choice("ABĀ") for _ in range(m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            assert positions(Matcher(t).find(p, params)) == positions(naive_search(p, t, params))


class TestExactWindows:
    """Windows equal to the pattern are decided before the walk."""

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

    @small_chunks()
    def test_every_window_exact(self):
        text = "a" * (3 * BUDGET + 5)
        for m in (1, 7, 40):
            for params in (maximal_params(m), SearchParams(0, 0)):
                assert self.check("a" * m, text, params) == list(range(len(text) - m + 1))

    @small_chunks()
    def test_some_windows_exact(self):
        # Exact and rearranged copies of one pattern share each chunk with
        # the other candidates of a binary text.
        rng = random.Random(1402)
        for _ in range(8):
            m = rng.randint(2, 24)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p = rand_string(rng, 2, m)
            parts = []
            for _ in range(BUDGET + 1):
                parts.append(rand_string(rng, 2, rng.randint(0, m)))
                parts.append(p if rng.random() < 0.5 else apply_blocks(
                    p, random_block_decomposition(rng, m, params.alpha, params.beta)))
            text = "".join(parts)
            assert Matcher(text).stats(p, params).candidates > BUDGET
            assert len(self.check(p, text, params)) > BUDGET

    @small_chunks()
    def test_periodic_text(self):
        # "ab" repeated: exact windows at even starts, translocated ones at
        # odd starts, alternating within each chunk.
        text = "ab" * (2 * BUDGET)
        assert self.check("ab", text, SearchParams(1, 0)) == list(range(len(text) - 1))
        assert self.check("ab", text, SearchParams(0, 0)) == list(range(0, len(text) - 1, 2))


class TestCutTest:
    """Rearranged candidates of a long pattern walk their chains of cuts;
    planted matches and plain permutations share a text."""

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


class TestFindMany:
    """find_many gives each pattern what find gives it, with the patterns of
    one length filtered together."""

    @staticmethod
    def tokens(occs):
        return [(o.position, o.witness and [b.token() for b in o.witness]) for o in occs]

    def check(self, matcher, patterns, params, with_witness):
        got = matcher.find_many(patterns, params, with_witness)
        assert [self.tokens(occs) for occs in got] == \
            [self.tokens(matcher.find(p, params, with_witness)) for p in patterns]
        # find is find_many's one-pattern case, so the oracle is the check.
        text = matcher.text
        for p, occs in zip(patterns, got):
            assert positions(occs) == positions(naive_search(p, text, params))
            for occ in occs if with_witness else ():
                assert apply_blocks(p, occ.witness) == text[occ.position:occ.position + len(p)]
        return got

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["ab", "abc", "abcdefgh"]),
           st.integers(0, 2), st.integers(0, 2), st.booleans(), st.booleans())
    @small_chunks()
    def test_same_as_find_per_pattern(self, seed, letters, a, b, with_witness, dense):
        # Mixed lengths, a duplicate, a permuted copy, a rearranged copy and a
        # pattern longer than the text; the text holds exact and rearranged
        # copies of the first pattern, and a dense text more than BUDGET
        # candidates of it, so chunks hold the windows of several rows of
        # its length.  alpha and beta are 0, 1 or the maxima.
        # A seeded generator: a dense text would overrun hypothesis's buffer.
        rng = random.Random(seed)
        lengths = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
        patterns = ["".join(rng.choice(letters) for _ in range(m)) for m in lengths]
        p, m = patterns[0], lengths[0]

        def rearranged():
            return apply_blocks(p, random_block_decomposition(rng, m, m // 2, m))

        if dense:
            text = "".join("".join(rng.sample(p, m)) for _ in range(2 * BUDGET))
        else:
            text = "".join("".join(rng.choice(letters) for _ in range(rng.randint(0, 40)))
                           + rng.choice([p, rearranged()]) for _ in range(rng.randint(1, 4)))
        s = rng.randint(0, len(text) - m)
        patterns += [rng.choice(patterns), "".join(rng.sample(p, m)), rearranged(),
                     text[s:s + m], text + letters[0]]
        rng.shuffle(patterns)
        params = None if a == b == 2 else SearchParams((0, 1, 10**6)[a], (0, 1, 10**6)[b])
        matcher = Matcher(text)
        self.check(matcher, patterns, params, with_witness)
        if dense:
            assert matcher.stats(p, params).candidates > BUDGET

    @pytest.mark.parametrize("with_witness", [False, True])
    @pytest.mark.parametrize("text_symbols", ["abc", "abc\u0100"], ids=["byte-text", "wide-text"])
    def test_byte_and_wide_patterns_in_one_group(self, text_symbols, with_witness):
        # One length group of byte-only patterns and patterns holding
        # U+0100 is coded int32, while the byte text is coded uint8 and the
        # other text int32; find of a byte-only pattern alone (in check)
        # codes it uint8.  Codes of both widths compare by value.
        rng = random.Random(1201)
        m = 6
        text = "".join(rng.choice(text_symbols) for _ in range(400))
        assert code_points(text).dtype == (np.int32 if "\u0100" in text_symbols else np.uint8)
        picks = [text[s:s + m] for s in rng.sample(range(len(text) - m + 1), 4)]
        patterns = picks + [apply_blocks(q, random_block_decomposition(rng, m, m // 2, m))
                            for q in picks]
        patterns += ["ab\u0100cab", "\u0100" * m, "abcabc"]
        assert code_points("".join(patterns)).dtype == np.int32
        got = self.check(Matcher(text), patterns, None, with_witness)
        assert all(got[:8])

    def test_one_decider_run_per_group(self, monkeypatch):
        # Ten patterns of one length, each with an exact and a rearranged
        # copy in the text: their candidates fit in one chunk, so the
        # rearranged ones of every row are decided by one run.
        decide = verify_module._decide
        decided = []

        def counted(table, rows, *rest):
            decided.append(set(rows.tolist()))
            return decide(table, rows, *rest)

        rng = random.Random(1401)
        m = 32
        patterns = [rand_string(rng, 16, m) for _ in range(10)]
        text = "".join(rand_string(rng, 16, 50) + q + rand_string(rng, 16, 50)
                       + q[m // 2:] + q[:m // 2] for q in patterns)
        matcher = Matcher(text)
        with monkeypatch.context() as patch:
            patch.setattr(verify_module, "_decide", counted)
            got = matcher.find_many(patterns, with_witness=True)
        assert decided == [set(range(10))]
        assert [len(occs) for occs in got] == [2] * 10
        assert [self.tokens(occs) for occs in got] == \
            [self.tokens(matcher.find(q, with_witness=True)) for q in patterns]

    def test_row_sums_built_once_per_group(self, monkeypatch):
        # Rearranged copies of three patterns of one length, walked over
        # several chunks: the rows' prefix sums are built once per group,
        # and the text's prefix is the Matcher's own, built by the filter.
        built, decided = [], []
        for name in ("fingerprint_prefix", "fingerprint_weights"):
            def counted(codes, name=name, original=getattr(verify_module, name)):
                built.append((name, codes.shape))
                return original(codes)
            monkeypatch.setattr(verify_module, name, counted)
        decide = verify_module._decide

        def counted_decide(table, *rest):
            decided.append(len(table))
            return decide(table, *rest)

        monkeypatch.setattr(verify_module, "_decide", counted_decide)
        rng = random.Random(1503)
        m = 8
        patterns = [rand_string(rng, 4, m) for _ in range(3)]
        text = "".join(q[m // 2:] + q[:m // 2] + rand_string(rng, 4, 3) for q in patterns * 20)
        with small_chunks():
            got = Matcher(text).find_many(patterns, with_witness=True)
        assert len(decided) > 2 and sum(decided) >= 60
        assert built == [("fingerprint_weights", (3, m))]
        assert [positions(occs) for occs in got] == \
            [positions(naive_search(p, text, maximal_params(m))) for p in patterns]

    @staticmethod
    def count_weighing(monkeypatch):
        """Patch the verifier's row weighing and decider to count their
        calls: the lists of the rows weighed and of each run's table rows."""
        weighed, decided = [], []
        weights, decide = verify_module.fingerprint_weights, verify_module._decide

        def counted_weights(codes):
            weighed.append(codes.shape)
            return weights(codes)

        def counted_decide(table, *rest):
            decided.append(len(table))
            return decide(table, *rest)

        monkeypatch.setattr(verify_module, "fingerprint_weights", counted_weights)
        monkeypatch.setattr(verify_module, "_decide", counted_decide)
        return weighed, decided

    def test_exact_copies_weigh_no_rows(self, monkeypatch):
        # Every candidate is an exact copy of its pattern: each matches by
        # one compare, so no row is weighed and the decider never runs.
        weighed, decided = self.count_weighing(monkeypatch)
        patterns = ["abcd", "efgh", "ijkl"]
        text = "zabcdzzefghzabcdzijklz"
        for with_witness in (False, True):
            got = Matcher(text).find_many(patterns, with_witness=with_witness)
            assert [positions(occs) for occs in got] == [[1, 12], [7], [17]]
        assert weighed == [] and decided == []

    @small_chunks()
    def test_rows_weighed_at_first_walked_chunk(self, monkeypatch):
        # The first chunk holds exact copies only; the later ones hold
        # rearranged copies, walked with row sums weighed once per call.
        weighed, decided = self.count_weighing(monkeypatch)
        m = 8
        p, q = "abcdefgh", "stuvwxyz"
        step = BUDGET // m
        text = (p + "-") * (step + 2) + (p[m // 2:] + p[:m // 2] + "-") * (2 * step) + q
        matcher = Matcher(text)
        for with_witness in (False, True):
            weighed.clear()
            decided.clear()
            got = matcher.find_many([p, q], with_witness=with_witness)
            assert weighed == [(2, m)]
            assert len(decided) == 3 and sum(decided) == 2 * step
            assert [positions(occs) for occs in got] == \
                [positions(naive_search(r, text, maximal_params(m))) for r in (p, q)]

    def test_forced_collisions_share_one_key(self, monkeypatch):
        # Every weight equal: the patterns of one length all share one
        # fingerprint, different multisets included.
        core = importlib.import_module("mdmatch.core")
        monkeypatch.setattr(core, "symbol_weights",
                            lambda codes: np.ones(len(codes), dtype=np.uint64))
        rng = random.Random(1501)
        for _ in range(60):
            text = rand_string(rng, 3, rng.randint(1, 80))
            patterns = [rand_string(rng, 3, rng.choice([2, 3, 5])) for _ in range(6)]
            patterns.append("".join(rng.sample(patterns[0], len(patterns[0]))))
            params = SearchParams(rng.randint(0, 2), rng.randint(0, 5))
            for occs, p in zip(self.check(Matcher(text), patterns, params, True), patterns):
                assert positions(occs) == positions(naive_search(p, text, params))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            Matcher("abc").find_many(["ab", ""])

    def test_no_patterns(self):
        assert Matcher("abc").find_many([]) == []
