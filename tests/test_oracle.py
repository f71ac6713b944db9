import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import enum_match, rand_string
from mdmatch.core import SearchParams
from mdmatch.oracle import md_distance, naive_search, oracle_match, permutation_probability


class TestOracleMatch:
    def test_identity_always_matches(self):
        for s in ("a", "abc", "zzzz"):
            assert oracle_match(s, s, SearchParams(0, 0))

    def test_single_translocation(self):
        assert oracle_match("ab", "ba", SearchParams(1, 0))

    def test_rotation_is_not_reachable(self):
        # Frozen from exhaustive decomposition enumeration: "bca" is a
        # rotation of "abc", and no block decomposition produces it.
        assert enum_match("abc", "bca", 1, 2) is False
        assert not oracle_match("abc", "bca", SearchParams(1, 2))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            oracle_match("ab", "abc", SearchParams(1, 1))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            oracle_match("", "")

    def test_agrees_with_enumeration(self):
        rng = random.Random(20_103)
        for _ in range(3000):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 8)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m)) if rng.random() < 0.5 else rand_string(rng, sigma, m)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            assert oracle_match(p, w, SearchParams(alpha, beta)) == enum_match(p, w, alpha, beta)


class TestMdDistance:
    def test_zero_iff_equal(self):
        assert md_distance("abab", "abab") == 0
        assert md_distance("ab", "ba", SearchParams(1, 0)) == 1

    def test_two_translocations(self):
        assert md_distance("abcd", "badc", SearchParams(1, 0)) == 2

    def test_unreachable_is_infinite(self):
        assert md_distance("ab", "ba", SearchParams(0, 1)) == math.inf

    def test_symmetric_and_consistent_with_match(self):
        rng = random.Random(555)
        for _ in range(2000):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 8)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m)) if rng.random() < 0.6 else rand_string(rng, sigma, m)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            d = md_distance(p, w, params)
            assert d == md_distance(w, p, params)
            assert (d != math.inf) == oracle_match(p, w, params)
            assert (d == 0) == (p == w)


class TestNaiveSearch:
    def test_translocation_windows(self):
        occ = naive_search("ab", "abba", SearchParams(1, 0))
        assert [o.position for o in occ] == [0, 2]

    def test_absent_symbol(self):
        assert naive_search("a", "bbb") == []

    def test_self(self):
        assert [o.position for o in naive_search("abca", "abca")] == [0]

    def test_pattern_longer_than_text(self):
        assert naive_search("abc", "ab") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            naive_search("", "ab")


class TestPermutationProbability:
    def test_two_distinct_symbols(self):
        assert permutation_probability({"a": 1, "b": 1}, 2, 2) == pytest.approx(0.5)

    def test_balanced_four(self):
        assert permutation_probability(Counter("aabb"), 4, 2) == pytest.approx(0.375)

    def test_single_symbol(self):
        for sigma in (1, 2, 7, 26):
            assert permutation_probability([1], 1, sigma) == pytest.approx(1 / sigma)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            permutation_probability([1, 2], 4, 2)

    def test_bad_alphabet_or_count_rejected(self):
        with pytest.raises(ValueError, match="sigma must be >= 1"):
            permutation_probability([1], 1, 0)
        with pytest.raises(ValueError, match="negative occurrence count"):
            permutation_probability([3, -1], 2, 2)

    def test_log_space_matches_exact_rational(self):
        # The production path switches to log space above m=20; compare a
        # spread of count vectors against exact Fractions.
        rng = random.Random(99)
        for _ in range(200):
            sigma = rng.randint(1, 6)
            m = rng.randint(21, 120)
            cuts = sorted(rng.randint(0, m) for _ in range(sigma - 1))
            counts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
            got = permutation_probability(counts, m, sigma)
            exact = Fraction(math.factorial(m), sigma ** m)
            for c in counts:
                exact /= math.factorial(c)
            assert got == pytest.approx(float(exact), rel=1e-12)

    def test_maximized_by_balanced_counts(self):
        for sigma, m in [(2, 4), (2, 8), (4, 8)]:
            best = permutation_probability([m // sigma] * sigma, m, sigma)
            for parts in combinations_with_replacement(range(m + 1), sigma):
                if sum(parts) != m:
                    continue
                assert permutation_probability(list(parts), m, sigma) <= best + 1e-15

    def test_empirical_agreement(self):
        # sigma=2, m=4: the fraction of random windows that permute a random
        # pattern should track the formula.
        rng = random.Random(1234)
        m, sigma = 4, 2
        p = rand_string(rng, sigma, m)
        expected = permutation_probability(Counter(p), m, sigma)
        trials = 20000
        hits = sum(Counter(rand_string(rng, sigma, m)) == Counter(p) for _ in range(trials))
        assert hits / trials == pytest.approx(expected, abs=0.02)
